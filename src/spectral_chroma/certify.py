"""Constructive certificates for coloring-based matrix identities.

A proper c-coloring yields c diagonal root-of-unity unitaries that sum
adjacency conjugates to zero. This module builds those certificates and
checks the related matrix identities behind the eigenvalue bounds.
Everything here is checked numerically against explicit tolerances;
nothing is taken on faith. The paper's pinching lemma and its
unit-modulus orthogonal representations are proof devices the tool
never runs; the tests check them (tests/paper_lemmas.py).

certify_graphs certifies a batch of graphs of one order as array code:
the unitaries of all colorings are one (G, C, n) array, each check is
one comparison over the batch that NaN fails, and its verdicts are the
arrays of the CertifiedBatch it returns. A single graph is a batch of
one. Every entry point checks its colorings with _check_colorings, in
one order, and every identity's residual meets the one tolerance rule
of _identity_check. Only Conversions.certificate raises a conversion
breach, as VerificationError, for build_conversion or a caller that
reads a failed graph's certificate. The spectra it shares with the
bounds are the graphs' bounds.report_spectra, the A, L and Q spectra
each graph keeps once full_reports on it has solved them; certify_graphs
says which spectrum each check reads, derives or solves. Every
diagonal B, the degree matrix D included, is held as its diagonal.

Each certificate kind is one type. Conversions, MajorizationSteps and
LoanIdentities hold one entry per graph in each field, and row(k) is
the same type over graph k's entries; a CertifiedBatch gives graph k's
conversion row as conversions.certificate(k), its step rows as
steps[label].row(k), and its loan identity row as loan(k).
build_conversion and verify_loan_identity are the same code on a batch
of one, and return its row; verify_majorization_step takes any
diagonal B, solves both of its sides, and returns its row.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Iterator, Mapping, Sequence

import numpy as np

from .bounds import report_spectra
from .errors import DomainError, VerificationError
from .graphs import Graph, adjacency_stack, diagonal_minus_stack, majorization_stack
from .linalg import (
    CONVERSION_TOL,
    PROPERTY_TOL,
    SPECTRUM_TOL,
    UNITARY_TOL,
    frobenius_norms,
    matrices_named,
    negated_spectra,
    spectra_batch,
    validate_symmetric_stack,
)
from .oracle import Coloring, greedy_coloring


def _as_adjacency(a) -> np.ndarray:
    """A Graph's adjacency, or a raw matrix, as a stack of one.

    A raw matrix passes validate_symmetric_stack, then needs a zero diagonal.
    """

    if isinstance(a, Graph):
        return a.adjacency()[None]
    a = validate_symmetric_stack(np.asarray(a)[None])
    if (loops := np.flatnonzero(np.diagonal(a[0]))).size:
        raise DomainError(f"adjacency matrix has a nonzero diagonal entry at vertex {loops[0]}")
    return a


def _check_colorings(a: np.ndarray, cols: Sequence[Coloring], what: str) -> np.ndarray:
    """The palettes of cols, after DomainError unless cols[g] fits the graph of a[g].

    The first failure raises, in this order: fewer than 2 colors (what
    names the certificate), a wrong vertex count or a palette above
    max(2, n), then an improper coloring, named by its first
    monochromatic edge in row-major order. max(2, n) is the one palette
    rule, which the CLI's certify applies too: extra colors are empty
    classes, yet each costs a unitary and a conjugation over the batch.
    """

    for col in cols:
        if col.c < 2:
            raise DomainError(f"{what} needs at least 2 colors, got c={col.c}")
    n = a.shape[1]
    for col in cols:
        if col.n != n:
            raise DomainError(f"coloring covers {col.n} vertices, graph has {n}")
        if col.c > max(2, n):
            raise DomainError(f"{col.c} colors exceed the graph's {n} vertices")
    rows, cols_ = np.triu_indices(n, 1)  # vertex pairs in row-major order
    colors = np.array([col.colors for col in cols])
    clash = (a[:, rows, cols_] != 0) & (colors[:, rows] == colors[:, cols_])
    if clash.any():
        g = int(clash.any(axis=1).argmax())
        first = int(clash[g].argmax())
        k, l = int(rows[first]), int(cols_[first])
        raise DomainError(
            f"improper coloring: edge ({k}, {l}) has both endpoints colored "
            f"{cols[g].colors[k]}"
        )
    return np.array([col.c for col in cols])


def _unitary_stack(cols: Sequence[Coloring], c: np.ndarray) -> np.ndarray:
    """(G, C, n) diagonals of each coloring's U_s, row s-1 for U_s, zero past its palette.

    c holds the palettes and C is the largest. Row s-1 of a coloring's
    block is the diagonal of U_s = diag(omega^(s*colors[k])), s = 1..c,
    omega its c-th root of unity; the row for s = c is the identity.
    """

    s = np.arange(1, c.max() + 1)
    colors = np.array([col.colors for col in cols])
    u = np.exp(2j * np.pi * s[None, :, None] * colors[:, None, :] / c[:, None, None])
    u[s[None, :] > c[:, None]] = 0.0
    return u


def _conjugations(x: np.ndarray, u: np.ndarray, counts: np.ndarray) -> Iterator[np.ndarray]:
    """U_s^dag X_g U_s over a (G, n, n) stack, for s = 1, 2, ... in turn.

    u[g] holds graph g's unitary diagonals, row s-1 for U_s, and graph g
    takes the first counts[g] of them. Past its count a graph's term is
    zero, which leaves a running sum unchanged up to the sign of an
    exact zero, so no norm of it moves. Every term is written into the
    same buffer, so a caller reads it before asking for the next.
    """

    live = np.arange(u.shape[1])[None, :, None] < counts[:, None, None]
    u = np.where(live, u, 0.0)
    term = np.empty(x.shape, dtype=np.complex128)
    for s in range(int(counts.max())):
        np.multiply(np.conj(u[:, s])[:, :, None], x, out=term)
        term *= u[:, s, None, :]
        yield term


def _conjugation_sum(x: np.ndarray, u: np.ndarray, counts: np.ndarray) -> np.ndarray:
    total = np.zeros(x.shape, dtype=np.complex128)
    for term in _conjugations(x, u, counts):
        total += term
    return total


def _identity_check(
    total: np.ndarray, x: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residual norms of the (G, n, n) stack total, their tolerances, and the verdicts.

    The one tolerance rule, CONVERSION_TOL * c * max(1, ||X||_F), with x
    the stack the unitaries conjugate. A NaN residual fails.
    """

    residual = frobenius_norms(total)
    tol = CONVERSION_TOL * c * np.maximum(1.0, frobenius_norms(x))
    return residual, tol, residual <= tol


@dataclass(frozen=True)
class _Rows:
    """A certificate kind whose every field holds one entry per graph of a batch."""

    def row(self, k: int):
        """The same type over entry k of each field: numpy scalars, and arrays one axis down."""

        return replace(self, **{f.name: getattr(self, f.name)[k] for f in fields(self)})


@dataclass(frozen=True)
class Conversions(_Rows):
    """The conversion to zero per graph, or, as a row, for one graph.

    Entry g of unitaries holds graph g's unitary diagonals, row s-1 for
    U_s, then zero rows up to the batch's largest palette; a row holds
    its c rows alone.
    """

    coloring: Sequence[Coloring]  # one Coloring in a row
    unitaries: np.ndarray  # (G, C, n)
    residual: np.ndarray
    tolerance: np.ndarray
    residual_ok: np.ndarray  # residual <= tolerance; NaN fails
    identity_ok: np.ndarray  # the final unitary U_c is the identity to UNITARY_TOL; NaN fails

    @property
    def ok(self) -> np.ndarray:
        return self.residual_ok & self.identity_ok

    def row(self, k: int) -> Conversions:
        row = super().row(k)
        return replace(row, unitaries=row.unitaries[:row.coloring.c])

    def certificate(self, k: int) -> Conversions:
        """Graph k's row; VerificationError for its first failed check, residual first."""

        row = self.row(k)
        if not row.residual_ok:
            raise VerificationError(
                f"conversion residual {row.residual:.3e} exceeds tolerance {row.tolerance:.3e}"
            )
        if not row.identity_ok:
            raise VerificationError("final conversion unitary is not the identity")
        return row


def _conversions(a: np.ndarray, cols: Sequence[Coloring], c: np.ndarray) -> Conversions:
    """Conversion checks for a (G, n, n) adjacency stack, checked colorings and their palettes.

    None raises; the final unitary of each graph is checked here, once.
    """

    u = _unitary_stack(cols, c)
    residual, tol, within = _identity_check(_conjugation_sum(a, u, c), a, c)
    final = u[np.arange(len(cols)), c - 1]
    return Conversions(
        tuple(cols), u, residual, tol, within, np.abs(final - 1.0).max(axis=1) <= UNITARY_TOL
    )


def build_conversion(a, col: Coloring) -> Conversions:
    """The row that certifies the coloring's unitaries convert adjacency a to zero."""

    a = _as_adjacency(a)
    return _conversions(a, [col], _check_colorings(a, [col], "conversion")).certificate(0)


# --------------------------------------------------------------------------
# matrix identity behind the generalized bounds

@dataclass(frozen=True)
class MajorizationSteps(_Rows):
    """One majorization step per graph, or, as a row, for one graph."""

    identity_residual: np.ndarray
    identity_tolerance: np.ndarray
    identity_ok: np.ndarray
    spectral_margins: np.ndarray  # (G, n - 1): per m < n, lhs - rhs, must be >= -PROPERTY_TOL
    spectral_ok: np.ndarray

    @property
    def ok(self) -> np.ndarray:
        return self.identity_ok & self.spectral_ok


def _majorization_steps(
    a: np.ndarray,
    b: np.ndarray,
    lhs: np.ndarray,
    rhs: np.ndarray,
    u: np.ndarray,
    c: np.ndarray,
) -> MajorizationSteps:
    """verify_majorization_step for a (G, n, n) stack A and the (G, n) diagonals of B.

    lhs and rhs hold the (G, n) spectra of B - A and B + A/(c-1); u and
    c are the checked colorings' unitary stack and palettes. The margins
    cover m < n only: at m = n both sums are tr B, so that margin would be
    rounding with no content. Every comparison fails on NaN.
    """

    x = diagonal_minus_stack(a, b)
    total = _conjugation_sum(x, u, c - 1)
    total -= a
    diag = np.arange(a.shape[1])
    total[:, diag, diag] -= (c - 1)[:, None] * b
    residual, tol, within = _identity_check(total, x, c)
    # one sum per m, not a cumulative sum: the two can differ in the last
    # bit from m = 8 on, and certify prints these margins
    margins = np.empty((lhs.shape[0], lhs.shape[1] - 1))
    for m in range(1, lhs.shape[1]):
        margins[:, m - 1] = lhs[:, :m].sum(axis=1) - rhs[:, :m].sum(axis=1)
    return MajorizationSteps(
        identity_residual=residual,
        identity_tolerance=tol,
        identity_ok=within,
        spectral_margins=margins,
        spectral_ok=(margins >= -PROPERTY_TOL).all(axis=1),
    )


def verify_majorization_step(a, b: np.ndarray, col: Coloring) -> MajorizationSteps:
    """Check sum_{s<c} U_s^dag (B-A) U_s = (c-1)B + A and its spectral consequence.

    B must be diagonal (it then commutes with every U_s). The spectral
    consequence compared for every m < n is
    sum_{i<=m} eig_i(B-A) >= sum_{i<=m} eig_i(B + A/(c-1));
    at m = n both sides are tr B. Returns the step's row.
    """

    a = _as_adjacency(a)
    b = np.asarray(b, dtype=np.float64)
    if b.shape != a.shape[1:]:
        raise DomainError(f"B has shape {b.shape}, expected {a.shape[1:]}")
    d = np.diag(b)
    if np.count_nonzero(b) != np.count_nonzero(d) or not np.isfinite(d).all():
        raise DomainError("B must be diagonal")
    b = d[None]
    c = _check_colorings(a, [col], "identity")
    lhs = spectra_batch(diagonal_minus_stack(a, b))
    rhs = spectra_batch(majorization_stack(a, b, c))
    return _majorization_steps(a, b, lhs, rhs, _unitary_stack([col], c), c).row(0)


# --------------------------------------------------------------------------
# average-degree bound identity

@dataclass(frozen=True)
class LoanIdentities(_Rows):
    """The loan identity per graph, or, as a row, for one graph.

    Entry g of conjugate_minima holds graph g's c - 1 values, then NaN;
    a row holds the c - 1 values alone.
    """

    identity_residual: np.ndarray
    identity_tolerance: np.ndarray
    identity_ok: np.ndarray
    rayleigh_value: np.ndarray  # v^dag A v with v the normalized all-ones vector
    rayleigh_ok: np.ndarray  # equals 2E/n within SPECTRUM_TOL
    conjugate_minima: np.ndarray  # (G, C - 1): v^dag U_s Q U_s^dag v per s = 1..c-1
    minima_ok: np.ndarray  # each >= delta_n - PROPERTY_TOL
    inequality_ok: np.ndarray  # 2E/n <= (c-1)(2E/n - delta_n) + PROPERTY_TOL
    counts: np.ndarray  # c - 1 per graph

    @property
    def ok(self) -> np.ndarray:
        return self.identity_ok & self.rayleigh_ok & self.minima_ok & self.inequality_ok

    def row(self, k: int) -> LoanIdentities:
        row = super().row(k)
        return replace(row, conjugate_minima=row.conjugate_minima[:row.counts])


def _quadratic_forms(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(G,) real parts of v @ X_g @ v over a (G, n, n) stack.

    Each is the vector-matrix product, then the dot product, that
    v @ X_g @ v computes for one matrix, so it equals that to the bit.
    """

    return np.real(np.matmul((v @ x)[:, None, :], v[:, None]))[:, 0, 0]


def _loan_identities(
    a: np.ndarray,
    deg: np.ndarray,
    delta: np.ndarray,
    u: np.ndarray,
    c: np.ndarray,
) -> LoanIdentities:
    """verify_loan_identity for a (G, n, n) adjacency stack and checked colorings.

    deg holds the (G, n) degrees, delta the smallest Q eigenvalue of each
    graph, and u and c the colorings' unitary stack and palettes. An
    edgeless graph passes every check. Every comparison fails on NaN.
    """

    n = a.shape[1]
    q = np.abs(diagonal_minus_stack(a, deg))  # Q = |D - A|, as the reports build it
    v = np.full(n, 1.0 / np.sqrt(n))
    # U_s Q U_s^dag is the conjugation by U_s^dag, whose diagonal is conj(u)
    total = np.zeros(a.shape, dtype=np.complex128)
    minima = np.full((len(a), u.shape[1] - 1), np.nan)
    live = np.arange(minima.shape[1]) < (c - 1)[:, None]
    for s, term in enumerate(_conjugations(q, np.conj(u), c - 1)):
        total += term
        minima[live[:, s], s] = _quadratic_forms(v, term)[live[:, s]]
    # the residual (c-1)D - sum - A, negated and formed in place: the same norm
    total += a
    diag = np.arange(n)
    total[:, diag, diag] -= (c - 1)[:, None] * deg
    residual, tol, within = _identity_check(total, q, c)
    avg = deg.sum(axis=1) / n  # 2E/n: sums of integers are exact
    rayleigh = _quadratic_forms(v, a)
    return LoanIdentities(
        identity_residual=residual,
        identity_tolerance=tol,
        identity_ok=within,
        rayleigh_value=rayleigh,
        rayleigh_ok=np.abs(rayleigh - avg) <= SPECTRUM_TOL * np.maximum(1.0, avg),
        conjugate_minima=minima,
        minima_ok=((minima >= (delta - PROPERTY_TOL)[:, None]) | ~live).all(axis=1),
        inequality_ok=avg <= (c - 1) * (avg - delta) + PROPERTY_TOL,
        counts=c - 1,
    )


def verify_loan_identity(g: Graph, col: Coloring) -> LoanIdentities:
    """Check A = (c-1)D - sum_{s<c} U_s Q U_s^dag and the scalar chain under it; returns its row."""

    if g.edge_count < 1:
        raise DomainError("identity needs at least one edge")
    a = adjacency_stack([g])
    c = _check_colorings(a, [col], "identity")
    delta = report_spectra([g])[2, :, -1]
    return _loan_identities(a, a.sum(axis=2), delta, _unitary_stack([col], c), c).row(0)


# --------------------------------------------------------------------------
# the whole certification sequence for a batch of graphs

@dataclass(frozen=True, eq=False)
class CertifiedBatch:
    """certify_graphs' result: each certificate kind over the batch, and each graph's verdict.

    conversions holds the conversion checks; steps maps "zero", "deg"
    and "negdeg" to the MajorizationSteps for B = 0, D and -D; loans
    holds the LoanIdentities of every graph, which an edgeless graph
    passes trivially. ok is each graph's verdict, its conversion check's
    included, so a caller that counts verdicts builds no per-graph
    object. Graph k's conversion row is conversions.certificate(k), its
    steps steps[label].row(k), and its loan identity loan(k).
    """

    conversions: Conversions
    steps: Mapping[str, MajorizationSteps]
    loans: LoanIdentities
    edged: np.ndarray  # whether graph g has an edge
    ok: np.ndarray

    def loan(self, k: int) -> LoanIdentities | None:
        """Graph k's loan identity row, None without an edge."""

        return self.loans.row(k) if self.edged[k] else None


def greedy_certificate_coloring(g: Graph) -> Coloring:
    """The greedy coloring, widened to two colors if it uses one.

    The conversion construction needs at least two color classes, and
    an edgeless graph colors greedily with one.
    """

    col = greedy_coloring(g)
    return col.with_palette(2) if col.c < 2 else col


def certify_graphs(graphs: Sequence[Graph], cols: Sequence[Coloring]) -> CertifiedBatch:
    """Certify several graphs with the same vertex count, one coloring each.

    A graph's certificates are its conversion, the majorization step for
    B = 0, D and -D, and, with an edge, the loan identity. An improper
    coloring, or one with a single color, raises DomainError. A graph
    alone is a batch of one: certify_graphs([g], [col]).

    Each coloring is checked once, and the unitaries of all of them are
    one array. The certificates read the graphs' report_spectra, the A,
    L and Q spectra, which full_reports on the same graphs has already
    solved (or else this call solves). The left sides of the steps for
    B = 0, D and -D are the spectra of -A, L and -Q = -D - A, the first
    and last negated_spectra of A and Q; the right side for B = 0 is the
    A spectrum divided by c - 1; Q gives the loan identity's delta_n. Two
    stacks are solved here, graphs.majorization_stack for B = D and -D;
    a failed solve there names the graph's index and the step, as in
    "graph 4 majorization B=deg: eigenpair residual ...".

    No derived spectrum escapes the validation of spectra_batch: -M has
    the eigenvectors of M, so its residuals and trace error are those of
    M against the same limits. A/(c-1), c >= 2, has the eigenvectors of
    A, so its residuals are those of A divided by c - 1, at most
    SPECTRUM_TOL * max(1, ||A||_F) / (c - 1), which is at most the limit
    SPECTRUM_TOL * max(1, ||A||_F / (c - 1)) of its own solve; its trace
    error scales alike. Every check is array code over the batch, and its
    verdicts are the arrays of the result; a graph's row of a certificate
    kind is built when it is read. A conversion breach fails its graph's
    verdict and raises VerificationError only when conversions.certificate
    reads it.
    """

    graphs = list(graphs)
    cols = list(cols)
    if len(cols) != len(graphs):
        raise DomainError(f"{len(graphs)} graphs but {len(cols)} colorings")
    a = adjacency_stack(graphs)
    c = _check_colorings(a, cols, "conversion")
    conversions = _conversions(a, cols, c)
    u = conversions.unitaries
    mu, th, dl = report_spectra(graphs)
    deg = a.sum(axis=2)

    def right_side(label: str, b: np.ndarray) -> np.ndarray:
        with matrices_named(lambda k: f"graph {k} majorization B={label}"):
            return spectra_batch(majorization_stack(a, b, c))

    steps = {
        label: _majorization_steps(a, b, lhs, rhs, u, c)
        for label, b, lhs, rhs in (
            ("zero", np.zeros_like(deg), negated_spectra(mu), mu / (c - 1)[:, None]),
            ("deg", deg, th, right_side("deg", deg)),
            ("negdeg", -deg, negated_spectra(dl), right_side("negdeg", -deg)),
        )
    }
    loans = _loan_identities(a, deg, dl[:, -1], u, c)
    ok = np.logical_and.reduce([conversions.ok, loans.ok] + [step.ok for step in steps.values()])
    return CertifiedBatch(conversions, steps, loans, deg.any(axis=1), ok)
