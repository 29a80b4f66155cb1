"""Constructive certificates for coloring-based matrix identities.

A proper c-coloring yields c diagonal root-of-unity unitaries that sum
adjacency conjugates to zero. This module builds those certificates,
checks the related matrix identities behind the eigenvalue bounds, runs
the pinching-as-unitary-mixture equivalence, and validates unit-modulus
orthogonal representations. Everything here is checked numerically
against explicit tolerances; nothing is taken on faith.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import DomainError, VerificationError
from .graphs import Graph, common_order
from .linalg import (
    PROPERTY_TOL,
    SPECTRUM_TOL,
    UNITARY_TOL,
    frobenius_norms,
    hermitian_eigenvalues,
    ky_fan,
    spectra_batch,
)

CONVERSION_TOL = 1e-9
PROJECTOR_TOL = 1e-10


@dataclass(frozen=True)
class Coloring:
    """Vertex color assignment with an explicit palette size.

    Color classes may be empty; properness is relative to a graph and
    checked where a graph is in hand.
    """

    colors: tuple[int, ...]
    c: int

    def __post_init__(self) -> None:
        if not isinstance(self.c, int) or self.c < 1:
            raise DomainError(f"palette size must be a positive integer, got {self.c!r}")
        colors = tuple(int(x) for x in self.colors)
        if not colors:
            raise DomainError("coloring needs at least one vertex")
        for k, x in enumerate(colors):
            if not 0 <= x < self.c:
                raise DomainError(f"vertex {k} has color {x} outside [0, {self.c})")
        object.__setattr__(self, "colors", colors)

    @property
    def n(self) -> int:
        return len(self.colors)

    def with_palette(self, c: int) -> "Coloring":
        """Same assignment over a (weakly) larger palette."""

        return Coloring(self.colors, c)


def _as_adjacency(a) -> np.ndarray:
    if isinstance(a, Graph):
        return a.adjacency()
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"adjacency must be square, got shape {a.shape}")
    if not np.array_equal(a, a.T):
        raise DomainError("adjacency matrix is not symmetric")
    return a


def _check_proper_stack(a: np.ndarray, cols: Sequence[Coloring]) -> None:
    """Raise unless cols[g] is proper for the graph of adjacency a[g], for each g.

    The first failing graph raises, with the message check_proper gives
    for it alone: an improper coloring names its first monochromatic
    edge in row-major order.
    """

    n = a.shape[1]
    for col in cols:
        if col.n != n:
            raise DomainError(f"coloring covers {col.n} vertices, graph has {n}")
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


def _require_two_colors(cols: Sequence[Coloring], what: str) -> None:
    for col in cols:
        if col.c < 2:
            raise DomainError(f"{what} needs at least 2 colors, got c={col.c}")


def check_proper(a, col: Coloring) -> None:
    """Raise unless col is proper for the graph of adjacency a."""

    _check_proper_stack(_as_adjacency(a)[None], [col])


def conversion_unitaries(col: Coloring) -> np.ndarray:
    """Diagonals of U_s = diag(omega^(s*colors[k])), s = 1..c; row s-1 is U_s.

    The last row (s = c) is the identity since omega^c = 1.
    """

    s = np.arange(1, col.c + 1)[:, None]
    k = np.asarray(col.colors)[None, :]
    return np.exp(2j * np.pi * s * k / col.c)


def _conjugations(
    x: np.ndarray, diags: Sequence[np.ndarray], counts: Sequence[int]
) -> Iterator[np.ndarray]:
    """U_s^dag X_g U_s over a (G, n, n) stack, for s = 1, 2, ... in turn.

    diags[g] holds graph g's unitary diagonals, row s-1 for U_s, and
    graph g takes the first counts[g] of them. Past its count a graph's
    term is zero, which leaves a running sum unchanged up to the sign of
    an exact zero, so no norm of it moves. Every term is written into
    the same buffer, so a caller reads it before asking for the next.
    """

    u = np.zeros((len(diags), max(counts), x.shape[1]), dtype=np.complex128)
    for g, (rows, count) in enumerate(zip(diags, counts)):
        u[g, :count] = rows[:count]
    term = np.empty(x.shape, dtype=np.complex128)
    for s in range(u.shape[1]):
        np.multiply(np.conj(u[:, s])[:, :, None], x, out=term)
        term *= u[:, s, None, :]
        yield term


def _conjugation_sum(
    x: np.ndarray, diags: Sequence[np.ndarray], counts: Sequence[int]
) -> np.ndarray:
    total = np.zeros(x.shape, dtype=np.complex128)
    for term in _conjugations(x, diags, counts):
        total += term
    return total


def conversion_residual(a, col: Coloring) -> float:
    """Frobenius norm of sum_s U_s^dag A U_s, with no properness gate.

    Entry (k, l) of the sum is a_kl times the geometric sum of
    omega^(s*(colors[l] - colors[k])) over s = 1..c: zero when the colors
    differ, c when they agree. Improper colorings therefore leave a
    residual of at least c per violating edge.
    """

    a = _as_adjacency(a)
    if a.shape[0] != col.n:
        raise DomainError(f"coloring covers {col.n} vertices, graph has {a.shape[0]}")
    total = _conjugation_sum(a[None], [conversion_unitaries(col)], [col.c])
    return float(frobenius_norms(total)[0])


@dataclass(frozen=True)
class ColoringCertificate:
    """A verified conversion-to-zero certificate for one proper coloring."""

    coloring: Coloring
    unitaries: np.ndarray  # shape (c, n); row s-1 holds the diagonal of U_s
    residual: float
    tolerance: float

    def __post_init__(self) -> None:
        u = np.asarray(self.unitaries)
        last = u[-1]
        if not np.abs(last - 1.0).max() <= UNITARY_TOL:  # NaN fails
            raise VerificationError("final conversion unitary is not the identity")
        object.__setattr__(self, "unitaries", u)


def _conversions(
    a: np.ndarray, cols: Sequence[Coloring], diags: Sequence[np.ndarray]
) -> list[ColoringCertificate]:
    """Conversion certificates for a (G, n, n) adjacency stack with checked colorings.

    The first graph whose residual exceeds its tolerance, or is NaN,
    raises VerificationError.
    """

    c = np.array([col.c for col in cols])
    residual = frobenius_norms(_conjugation_sum(a, diags, c)).tolist()
    tol = (CONVERSION_TOL * c * np.maximum(1.0, frobenius_norms(a))).tolist()
    for r, t in zip(residual, tol):
        if not r <= t:  # NaN fails
            raise VerificationError(f"conversion residual {r:.3e} exceeds tolerance {t:.3e}")
    return [ColoringCertificate(*cert) for cert in zip(cols, diags, residual, tol)]


def build_conversion(a, col: Coloring) -> ColoringCertificate:
    """Certificate that the coloring's unitaries convert adjacency a to zero."""

    a = _as_adjacency(a)
    _require_two_colors([col], "conversion")
    _check_proper_stack(a[None], [col])
    return _conversions(a[None], [col], [conversion_unitaries(col)])[0]


# --------------------------------------------------------------------------
# matrix identity behind the generalized bounds

@dataclass(frozen=True)
class MajorizationStepReport:
    identity_residual: float
    identity_tolerance: float
    identity_ok: bool
    spectral_margins: np.ndarray  # per m: lhs - rhs, must be >= -PROPERTY_TOL
    spectral_ok: bool

    @property
    def ok(self) -> bool:
        return self.identity_ok and self.spectral_ok


def _majorization_steps(
    a: np.ndarray, b: np.ndarray, cols: Sequence[Coloring], diags: Sequence[np.ndarray]
) -> list[MajorizationStepReport]:
    """verify_majorization_step for (G, n, n) stacks of A and diagonal B.

    The colorings must already be checked. Each side's spectra are one
    spectra_batch call.
    """

    c = np.array([col.c for col in cols])
    x = b - a
    total = _conjugation_sum(x, diags, c - 1)
    residual = frobenius_norms(total - ((c - 1)[:, None, None] * b + a)).tolist()
    tol = (CONVERSION_TOL * c * np.maximum(1.0, frobenius_norms(x))).tolist()
    lhs = spectra_batch(x)
    rhs = spectra_batch(b + a / (c - 1)[:, None, None])
    # one sum per m, as ky_fan takes it: a cumulative sum can differ from
    # it in the last bit from m = 8 on, and certify prints these margins
    margins = np.empty(lhs.shape)
    for m in range(1, lhs.shape[1] + 1):
        margins[:, m - 1] = lhs[:, :m].sum(axis=1) - rhs[:, :m].sum(axis=1)
    return [
        MajorizationStepReport(
            identity_residual=r,
            identity_tolerance=t,
            identity_ok=r <= t,
            spectral_margins=row,
            spectral_ok=bool((row >= -PROPERTY_TOL).all()),
        )
        for r, t, row in zip(residual, tol, margins)
    ]


def verify_majorization_step(a, b: np.ndarray, col: Coloring) -> MajorizationStepReport:
    """Check sum_{s<c} U_s^dag (B-A) U_s = (c-1)B + A and its spectral consequence.

    B must be diagonal (it then commutes with every U_s). The spectral
    consequence compared for every m is
    sum_{i<=m} eig_i(B-A) >= sum_{i<=m} eig_i(B + A/(c-1)).
    """

    a = _as_adjacency(a)
    b = np.asarray(b, dtype=np.float64)
    if b.shape != a.shape:
        raise DomainError(f"B has shape {b.shape}, expected {a.shape}")
    if np.abs(b - np.diag(np.diag(b))).max() != 0.0:
        raise DomainError("B must be diagonal")
    _check_proper_stack(a[None], [col])
    _require_two_colors([col], "identity")
    return _majorization_steps(a[None], b[None], [col], [conversion_unitaries(col)])[0]


# --------------------------------------------------------------------------
# average-degree bound identity

@dataclass(frozen=True)
class LoanIdentityReport:
    identity_residual: float
    identity_tolerance: float
    identity_ok: bool
    rayleigh_value: float       # v^dag A v with v the normalized all-ones vector
    rayleigh_ok: bool           # equals 2E/n within SPECTRUM_TOL
    conjugate_minima: np.ndarray  # v^dag U_s Q U_s^dag v per s = 1..c-1
    minima_ok: bool             # each >= delta_n - PROPERTY_TOL
    inequality_ok: bool         # 2E/n <= (c-1)(2E/n - delta_n) + PROPERTY_TOL

    @property
    def ok(self) -> bool:
        return self.identity_ok and self.rayleigh_ok and self.minima_ok and self.inequality_ok


def _loan_identities(
    graphs: Sequence[Graph],
    a: np.ndarray,
    d: np.ndarray,
    cols: Sequence[Coloring],
    diags: Sequence[np.ndarray],
) -> list[LoanIdentityReport]:
    """verify_loan_identity for graphs with an edge and checked colorings.

    a and d are the (G, n, n) adjacency and diagonal degree stacks; the
    Q spectra are one spectra_batch call.
    """

    n = a.shape[1]
    c = np.array([col.c for col in cols])
    q = d + a
    v = np.full(n, 1.0 / np.sqrt(n))
    # U_s Q U_s^dag is the conjugation by U_s^dag, whose diagonal is conj(u)
    total = np.zeros(a.shape, dtype=np.complex128)
    conj_values: list[list[float]] = [[] for _ in cols]
    for s, term in enumerate(_conjugations(q, [np.conj(u) for u in diags], c - 1)):
        total += term
        for k in np.flatnonzero(c - 1 > s):
            conj_values[k].append(float(np.real(v @ term[k] @ v)))
    residual = frobenius_norms(((c - 1)[:, None, None] * d - total) - a).tolist()
    tol = (CONVERSION_TOL * c * np.maximum(1.0, frobenius_norms(q))).tolist()
    delta = spectra_batch(q)[:, -1].tolist()
    reports = []
    for k, g in enumerate(graphs):
        avg = 2.0 * g.edge_count / n
        rayleigh = float(np.real(v @ a[k] @ v))
        minima = np.array(conj_values[k])
        ck, delta_n = int(c[k]), delta[k]
        reports.append(
            LoanIdentityReport(
                identity_residual=residual[k],
                identity_tolerance=tol[k],
                identity_ok=residual[k] <= tol[k],
                rayleigh_value=rayleigh,
                rayleigh_ok=abs(rayleigh - avg) <= SPECTRUM_TOL * max(1.0, avg),
                conjugate_minima=minima,
                minima_ok=bool((minima >= delta_n - PROPERTY_TOL).all()),
                inequality_ok=avg <= (ck - 1) * (avg - delta_n) + PROPERTY_TOL,
            )
        )
    return reports


def verify_loan_identity(g: Graph, col: Coloring) -> LoanIdentityReport:
    """Check A = (c-1)D - sum_{s<c} U_s Q U_s^dag and the scalar chain under it."""

    if g.edge_count < 1:
        raise DomainError("identity needs at least one edge")
    a = g.adjacency()
    _check_proper_stack(a[None], [col])
    _require_two_colors([col], "identity")
    d = np.diag(g.degrees().astype(np.float64))
    return _loan_identities([g], a[None], d[None], [col], [conversion_unitaries(col)])[0]


# --------------------------------------------------------------------------
# the whole certification sequence for one graph

@dataclass(frozen=True)
class GraphCertificationReport:
    conversion: ColoringCertificate
    steps: dict[str, MajorizationStepReport]  # keyed by B: "zero", "deg", "negdeg"
    loan: LoanIdentityReport | None             # None for an edgeless graph

    @property
    def ok(self) -> bool:
        steps_ok = all(step.ok for step in self.steps.values())
        return steps_ok and (self.loan is None or self.loan.ok)


def greedy_certificate_coloring(g: Graph) -> Coloring:
    """The greedy coloring, widened to two colors if it uses one.

    The conversion construction needs at least two color classes, and
    an edgeless graph colors greedily with one.
    """

    from .oracle import greedy_coloring  # oracle imports Coloring from here

    col = greedy_coloring(g)
    return col.with_palette(2) if col.c < 2 else col


def certify_graphs(
    graphs: Sequence[Graph], cols: Sequence[Coloring]
) -> list[GraphCertificationReport]:
    """certify_graph for each of several graphs with the same vertex count.

    Each coloring is checked once and its unitaries are built once. The
    spectra of each matrix role (B - A and B + A/(c-1) for each B, and Q
    for the loan identity) are one spectra_batch call over the batch, so
    a report equals the one certify_graph gives for the graph alone. The
    first graph that fails a check raises, as certify_graph would for it.
    """

    graphs = list(graphs)
    cols = list(cols)
    if len(cols) != len(graphs):
        raise DomainError(f"{len(graphs)} graphs but {len(cols)} colorings")
    common_order(graphs)
    a = np.stack([g.adjacency() for g in graphs])
    _require_two_colors(cols, "conversion")
    _check_proper_stack(a, cols)
    diags = [conversion_unitaries(col) for col in cols]
    conversions = _conversions(a, cols, diags)
    deg = np.stack([np.diag(g.degrees().astype(np.float64)) for g in graphs])
    steps = {
        label: _majorization_steps(a, b, cols, diags)
        for label, b in (("zero", np.zeros_like(a)), ("deg", deg), ("negdeg", -deg))
    }
    edged = [k for k, g in enumerate(graphs) if g.edge_count >= 1]
    loans = {}
    if edged:
        reports = _loan_identities(
            [graphs[k] for k in edged],
            a[edged],
            deg[edged],
            [cols[k] for k in edged],
            [diags[k] for k in edged],
        )
        loans = dict(zip(edged, reports))
    return [
        GraphCertificationReport(
            conversions[k], {label: step[k] for label, step in steps.items()}, loans.get(k)
        )
        for k in range(len(graphs))
    ]


def certify_graph(g: Graph, col: Coloring) -> GraphCertificationReport:
    """Conversion certificate, majorization step for B in {0, D, -D}, loan identity.

    The loan identity needs an edge and is skipped (None) without one.
    Raises DomainError for an improper coloring and VerificationError
    when the conversion residual exceeds its tolerance. This is
    certify_graphs on a batch of one.
    """

    return certify_graphs([g], [col])[0]


# --------------------------------------------------------------------------
# unit-modulus orthogonal representations

@dataclass(frozen=True)
class OrthoRepresentation:
    """n vectors of dimension d with every entry of modulus one."""

    vectors: np.ndarray  # shape (n, d)

    def __post_init__(self) -> None:
        v = np.asarray(self.vectors, dtype=np.complex128)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise DomainError(f"representation needs shape (n, d), got {v.shape}")
        off = float(np.abs(np.abs(v) - 1.0).max())
        if not off <= UNITARY_TOL:  # NaN fails
            raise DomainError(
                f"representation entries deviate from unit modulus by {off:.3e}"
            )
        object.__setattr__(self, "vectors", v)

    @property
    def n(self) -> int:
        return int(self.vectors.shape[0])

    @property
    def d(self) -> int:
        return int(self.vectors.shape[1])


@dataclass(frozen=True)
class OrthoCheckResult:
    valid: bool
    max_edge_inner: float       # max |<Psi_k, Psi_l>| over edges
    identity_residual: float    # || sum_s U_s^dag U_s - d I ||_max
    conversion_max_entry: float  # max entry of | sum_s U_s A U_s^dag |

    def __bool__(self) -> bool:
        return self.valid


def check_ortho_representation(a, rep: OrthoRepresentation) -> OrthoCheckResult:
    """Decide whether rep is orthogonal across every edge of adjacency a.

    Two independent routes must agree: the direct inner-product test
    |<Psi_k, Psi_l>| <= 1e-9 d per edge, and the unitary route building
    U_s from s-th coordinates and requiring sum_s U_s^dag U_s = d I with
    sum_s U_s A U_s^dag = 0. Disagreement raises, since it would mean
    the certification machinery itself is broken.
    """

    a = _as_adjacency(a)
    if a.shape[0] != rep.n:
        raise DomainError(f"representation covers {rep.n} vertices, graph has {a.shape[0]}")
    n, d = rep.n, rep.d
    v = rep.vectors
    gram = np.conj(v) @ v.T  # gram[k, l] = <Psi_k, Psi_l>
    edge_mask = np.triu(a, 1) != 0
    max_edge = float(np.abs(gram[edge_mask]).max()) if edge_mask.any() else 0.0
    edge_ok = max_edge <= 1e-9 * d

    identity_sum = np.zeros((n, n), dtype=np.complex128)
    conversion_sum = np.zeros((n, n), dtype=np.complex128)
    for s in range(d):
        u = v[:, s]
        identity_sum += np.diag(np.conj(u) * u)
        conversion_sum += u[:, None] * a * np.conj(u)[None, :]
    identity_residual = float(np.abs(identity_sum - d * np.eye(n)).max())
    conversion_max = float(np.abs(conversion_sum).max())
    unitary_ok = identity_residual <= 1e-10 * d and conversion_max <= 1e-9 * d

    if edge_ok != unitary_ok:
        raise VerificationError(
            "inner-product and unitary-identity tests disagree: "
            f"edge max {max_edge:.3e}, conversion max {conversion_max:.3e}"
        )
    return OrthoCheckResult(
        valid=edge_ok,
        max_edge_inner=max_edge,
        identity_residual=identity_residual,
        conversion_max_entry=conversion_max,
    )


def coloring_representation(col: Coloring) -> OrthoRepresentation:
    """Psi_k = (omega^(colors[k] * 1), ..., omega^(colors[k] * c)): d = c."""

    s = np.arange(1, col.c + 1)[None, :]
    k = np.asarray(col.colors)[:, None]
    return OrthoRepresentation(np.exp(2j * np.pi * k * s / col.c))


# --------------------------------------------------------------------------
# pinching

@dataclass(frozen=True)
class PinchingInstance:
    """Orthogonal projectors resolving the identity, plus a test matrix."""

    projectors: tuple[np.ndarray, ...]
    test_matrix: np.ndarray

    def __post_init__(self) -> None:
        projs = tuple(np.asarray(p, dtype=np.complex128) for p in self.projectors)
        if not projs:
            raise DomainError("pinching needs at least one projector")
        n = projs[0].shape[0]
        total = np.zeros((n, n), dtype=np.complex128)
        # each deviation is compared as `not dev <= tol`, so a NaN fails
        for idx, p in enumerate(projs):
            if p.shape != (n, n):
                raise DomainError(f"projector {idx} has shape {p.shape}, expected {(n, n)}")
            if not float(np.abs(p - p.conj().T).max()) <= PROJECTOR_TOL:
                raise DomainError(f"projector {idx} is not Hermitian")
            if not float(np.abs(p @ p - p).max()) <= PROJECTOR_TOL:
                raise DomainError(f"projector {idx} is not idempotent")
            total += p
        if not float(np.abs(total - np.eye(n)).max()) <= PROJECTOR_TOL:
            raise DomainError("projectors do not sum to the identity")
        x = np.asarray(self.test_matrix)
        if x.shape != (n, n):
            raise DomainError(f"test matrix has shape {x.shape}, expected {(n, n)}")
        object.__setattr__(self, "projectors", projs)
        object.__setattr__(self, "test_matrix", x)

    @property
    def c(self) -> int:
        return len(self.projectors)

    @property
    def n(self) -> int:
        return int(self.projectors[0].shape[0])


def pinch(inst: PinchingInstance) -> np.ndarray:
    """C(X) = sum_a P_a X P_a."""

    x = inst.test_matrix
    out = np.zeros(x.shape, dtype=np.complex128)
    for p in inst.projectors:
        out += p @ x @ p
    return out


def pinch_via_unitaries(inst: PinchingInstance) -> np.ndarray:
    """(1/c) sum_{s=1}^c U_s X U_s^dag with U_s = sum_a omega^(a s) P_a."""

    c = inst.c
    x = inst.test_matrix
    out = np.zeros(x.shape, dtype=np.complex128)
    for s in range(1, c + 1):
        u = np.zeros(x.shape, dtype=np.complex128)
        for a_idx, p in enumerate(inst.projectors):
            u += np.exp(2j * np.pi * a_idx * s / c) * p
        out += u @ x @ u.conj().T
    return out / c


def pinching_corollary_check(inst: PinchingInstance, m: int) -> bool:
    """Top-m sums: eig(X) majorizes eig((c/(c-1)) C(X) - X/(c-1)) at index m."""

    if inst.c < 2:
        raise DomainError("corollary needs at least 2 projectors (division by c-1)")
    x = inst.test_matrix
    c = inst.c
    spec_x = hermitian_eigenvalues(x)
    mixed = (c / (c - 1)) * pinch(inst) - x / (c - 1)
    spec_mixed = hermitian_eigenvalues(mixed)
    return ky_fan(spec_x, m) >= ky_fan(spec_mixed, m) - PROPERTY_TOL


def coloring_projectors(col: Coloring) -> tuple[np.ndarray, ...]:
    """Coordinate projectors of the color classes; empty classes give zero blocks."""

    colors = np.asarray(col.colors)
    return tuple(
        np.diag((colors == a).astype(np.complex128)) for a in range(col.c)
    )
