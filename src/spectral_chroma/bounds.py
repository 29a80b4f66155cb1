"""Every spectral lower bound on the chromatic number, from one report call.

Fifteen bounds are computed from the adjacency, Laplacian, signless
Laplacian, and normalized adjacency spectra: four classical ratio
bounds, the average-degree bound, four generalized partial-sum bounds
swept over m, two normalized bounds, three weaker chain bounds kept for
comparison tables, and the integer search for the smallest color count
compatible with the partial-sum inequality.

Every family is array code on (G, n) spectra, one row per graph of a
batch with the same vertex count: partial sums are cumsums along each
row, every ratio goes through one masked sweep, and a maximum over m is
the first argmax of its row, so it comes from the same array as the
per-m sweep. The integer search probes all open graphs of a batch
with one linalg.eigenvalues_batch call per round and bisects them in
lockstep. full_reports evaluates each family once per batch;
full_report and the per-family functions (classical_bounds,
generalized_bounds, ...) are the same code on a batch of one: a family
function takes its spectra as 1-d arrays and checks them once, as one
(K, n) stack (_spectra_stack). Every spectrum comes from one per-graph
cache: each graph keeps the A, L and Q spectra (report_spectra) and,
once a report or a sweep asks for it, the normalized A spectrum
(normalized_spectra), each solved once from the matrix builders of
graphs. full_reports, the sweep and certify_graphs read the cache
through those two accessors, and a report's spectra are its rows. The
integer search's B = -D candidate reads the spectrum of -Q = -D - A as
negated_spectra of Q, whose eigenpairs, residuals and trace error are
those of Q, so it passes the validation a solve of its own would have
had to pass.

The checks run once per batch array too: each solved array of spectra
passes linalg.check_spectra once and is kept read-only, and the
(G, 15) bound values pass the rule of BoundValue (_check_bounds) once
per batch. A report keeps its row of values and its row of best m; its
BoundValue tuple (values) and its graph6 id (graph_id) are computed on
first read, and its spectra are the graph's cached rows themselves. A
bound's display text is BoundValue.display, one rule for every report.

Invalid bounds (nonpositive denominators, edgeless graphs, isolated
vertices for the normalized family) are reported as value 1 with
valid=False, never as exceptions, so sweeps over arbitrary graphs keep
going.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from enum import Enum
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainError, MatrixError, NumericError
from .graphs import (
    UNNORMALIZED_KINDS,
    Graph,
    GraphMatrixKind,
    adjacency_stack,
    common_order,
    emit_graph6,
    majorization_stack,
    normalized_adjacency_stack,
    unnormalized_stacks,
)
from .linalg import (
    BOUND_FLOOR_TOL,
    PROPERTY_TOL,
    check_spectra,
    eigenvalues_batch,
    matrices_named,
    negated_spectra,
    spectra_batch,
)


class BoundId(Enum):
    HOFFMAN = "Hoffman"
    NIKIFOROV_HYBRID = "NikiforovHybrid"
    KOLOTILINA_1 = "Kolotilina1"
    KOLOTILINA_2 = "Kolotilina2"
    LOAN = "LOAN"
    GEN_HOFFMAN = "GenHoffman"
    GEN_NIKIFOROV = "GenNikiforov"
    GEN_KOLOTILINA_1 = "GenKolotilina1"
    GEN_KOLOTILINA_2 = "GenKolotilina2"
    NORMALIZED_HOFFMAN = "NormalizedHoffman"
    GEN_NORMALIZED_HOFFMAN = "GenNormalizedHoffman"
    KOLOTILINA_CHAIN_317 = "KolotilinaChain317"
    HANSEN_LUCAS = "HansenLucas"
    CVETKOVIC = "Cvetkovic"
    INTEGER_C = "IntegerC"


# the families in report order; together they are BoundId in definition order
_CLASSICAL_IDS = (
    BoundId.HOFFMAN,
    BoundId.NIKIFOROV_HYBRID,
    BoundId.KOLOTILINA_1,
    BoundId.KOLOTILINA_2,
)
_GENERALIZED_IDS = (
    BoundId.GEN_HOFFMAN,
    BoundId.GEN_NIKIFOROV,
    BoundId.GEN_KOLOTILINA_1,
    BoundId.GEN_KOLOTILINA_2,
)
_NORMALIZED_IDS = BoundId.NORMALIZED_HOFFMAN, BoundId.GEN_NORMALIZED_HOFFMAN
_CHAIN_IDS = BoundId.KOLOTILINA_CHAIN_317, BoundId.HANSEN_LUCAS, BoundId.CVETKOVIC
# the bounds with a per-m sweep: the generalized family and the generalized normalized Hoffman
SWEPT_IDS = _GENERALIZED_IDS + (BoundId.GEN_NORMALIZED_HOFFMAN,)
_REPORT_IDS = tuple(BoundId)


@dataclass(frozen=True)
class BoundValue:
    """One evaluated bound: its value, the m that achieved it, validity."""

    id: BoundId
    value: float
    best_m: int = 1
    valid: bool = True

    def __post_init__(self) -> None:
        _check_bounds((self.id,), np.array([[self.value]]), np.array([[self.valid]]))

    @property
    def display(self) -> str:
        """The printed text: a valid IntegerC as an integer, any other value by round_display."""

        if self.id is BoundId.INTEGER_C and self.valid:
            return str(int(self.value))
        return round_display(self.value)


def _check_bounds(ids: Sequence[BoundId], values: np.ndarray, valid: np.ndarray) -> None:
    """DomainError for the first valid bound below 1, or valid IntegerC not an integer >= 2.

    Column j of the (G, len(ids)) values is bound ids[j]; valid marks the
    entries checked, in row-major order. The floor is 1 - BOUND_FLOOR_TOL;
    NaN fails both tests.
    """

    below = valid & ~(values >= 1.0 - BOUND_FLOOR_TOL)
    integer = (values >= 2) & np.isfinite(values) & (np.floor(values) == values)
    bad = below | valid & ~integer & [bound_id is BoundId.INTEGER_C for bound_id in ids]
    if bad.any():
        g, j = divmod(int(bad.argmax()), len(ids))
        value = values[g, j]
        if below[g, j]:
            raise DomainError(f"{ids[j].value}: valid bound must be at least 1, got {value}")
        raise DomainError(f"IntegerC must be an integer >= 2, got {value}")


def invalid_bound(bound_id: BoundId) -> BoundValue:
    return BoundValue(bound_id, 1.0, best_m=1, valid=False)


def round_display(value: float) -> str:
    """One decimal, ties away from zero, matching printed comparison tables."""

    return str(Decimal(repr(float(value))).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


# --------------------------------------------------------------------------
# the bound families on (G, n) spectra, one row per graph
#
# A value array holds -inf where a bound is invalid; _row_values turns
# a row into BoundValue objects.


def _ratio_sweep(numerators, denominators: np.ndarray) -> np.ndarray:
    """1 + num/denom elementwise; -inf masks an entry whose denominator is <= PROPERTY_TOL.

    The numerators broadcast to the shape of the denominators. -inf never
    wins a maximum, so a bound over m is the first argmax of its row and
    its sweep is the same row with the mask as None.
    """

    admissible = denominators > PROPERTY_TOL  # NaN is not admissible
    values = np.full(denominators.shape, -np.inf)
    np.divide(numerators, denominators, out=values, where=admissible)
    np.add(values, 1.0, out=values, where=admissible)
    return values


def _first_max(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The largest entry of each row of a sweep and its 1-based m, the first on ties."""

    return values.max(axis=-1), values.argmax(axis=-1) + 1


def _row_values(
    ids: Sequence[BoundId], row: np.ndarray, best_m: np.ndarray | None = None
) -> list[BoundValue]:
    """One BoundValue per entry of a value row and its best m, which defaults to 1."""

    best_ms = [1] * len(ids) if best_m is None else best_m.tolist()
    return [
        invalid_bound(bound_id) if v == -np.inf else BoundValue(bound_id, v, best_m=m)
        for bound_id, v, m in zip(ids, row.tolist(), best_ms)
    ]


def _generalized_values(mu: np.ndarray, th: np.ndarray, dl: np.ndarray) -> np.ndarray:
    """(4, G, n) per-m values of the generalized bounds from the A, L and Q spectra.

    At m = n the numerator is tr A = 0, and so are the denominators of
    GenHoffman, GenKolotilina1 and GenKolotilina2 (tr L = tr Q): their
    m = n entry is 0/0 and rounding alone would decide it, so it is
    masked. GenNikiforov's m = n denominator is tr L - tr A = 2E, and
    its entry stays.
    """

    def bottom(x):
        return np.cumsum(x[:, ::-1], axis=1)

    top_mu = np.cumsum(mu, axis=1)
    denominators = np.stack([
        -bottom(mu),
        np.cumsum(th - mu, axis=1),
        np.cumsum(mu - dl + th, axis=1),
        top_mu - bottom(dl) + bottom(th),
    ])
    values = _ratio_sweep(top_mu, denominators)
    values[[0, 2, 3], :, -1] = -np.inf
    return values


def _classical_values(mu: np.ndarray, generalized: np.ndarray) -> np.ndarray:
    """(G, 4) classical ratio bounds: the m = 1 column of the (4, G, n) generalized sweep.

    Their denominators -mu_n, theta_1 - mu_1, mu_1 - delta_1 + theta_1 and
    mu_1 - delta_n + theta_n (theta_n as computed) are the first partial
    sums of the generalized ones. A graph with mu_1 <= PROPERTY_TOL has none.
    """

    values = generalized[:, :, 0].T.copy()
    values[mu[:, 0] <= PROPERTY_TOL] = -np.inf
    return values


def _loan_values(edges: np.ndarray, n: int, dl: np.ndarray) -> np.ndarray:
    """(G,) average-degree bounds 1 + 2E/(2E - n*delta_n)."""

    two_e = 2.0 * edges
    values = _ratio_sweep(two_e, two_e - n * dl[:, -1])
    values[edges < 1] = -np.inf
    return values


def _normalized_values(na: np.ndarray) -> np.ndarray:
    """(G, n) per-m values of the generalized normalized bound; the m = n entry, 0/0, is masked."""

    values = _ratio_sweep(np.cumsum(na, axis=1), -np.cumsum(na[:, ::-1], axis=1))
    values[:, -1] = -np.inf
    return values


def _normalized_columns(na: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(G, 2) values and best m of the normalized Hoffman bound and its generalization."""

    top, best_m = _first_max(_normalized_values(na))
    values = np.stack([_ratio_sweep(1.0, -na[:, -1]), top], axis=1)
    return values, np.stack([np.ones_like(best_m), best_m], axis=1)


def _chain_values(mu: np.ndarray, th: np.ndarray, dl: np.ndarray, n: int) -> np.ndarray:
    """(G, 3) closed-form chain bounds; a graph with mu_1 <= PROPERTY_TOL has none."""

    mu1, th1, dl1 = mu[:, 0], th[:, 0], dl[:, 0]
    values = _ratio_sweep(
        np.stack([dl1, dl1, mu1], axis=1),
        np.stack([2.0 * th1 - dl1, 2.0 * n - dl1, n - mu1], axis=1),
    )
    values[mu1 <= PROPERTY_TOL] = -np.inf
    return values


def _spectra_stack(spectra: Sequence[np.ndarray], n: int | None = None) -> np.ndarray:
    """The spectra handed to a family function as one checked (K, n) stack.

    Each must be a 1-d row, all of one length, n when it is given; the
    stack then passes check_spectra.
    """

    rows = [np.asarray(spec, dtype=np.float64) for spec in spectra]
    if any(row.ndim != 1 for row in rows):
        raise DomainError("spectrum needs a nonempty 1-d value vector")
    lengths = [row.size for row in rows]
    if set(lengths) != {lengths[0] if n is None else n}:
        expected = "one length" if n is None else f"length n = {n}"
        raise DomainError(f"spectra must have {expected}, got lengths {lengths}")
    stack = np.stack(rows)
    check_spectra(stack)
    return stack


def classical_bounds(
    spec_a: np.ndarray, spec_l: np.ndarray, spec_q: np.ndarray
) -> list[BoundValue]:
    """The four m = 1 ratio bounds from the three unnormalized spectra."""

    mu, th, dl = _spectra_stack([spec_a, spec_l, spec_q])[:, None]
    values = _classical_values(mu, _generalized_values(mu, th, dl))
    return _row_values(_CLASSICAL_IDS, values[0])


def generalized_bounds(
    spec_a: np.ndarray, spec_l: np.ndarray, spec_q: np.ndarray
) -> list[BoundValue]:
    """Partial-sum versions of the four ratio bounds, maximized over m."""

    values = _generalized_values(*_spectra_stack([spec_a, spec_l, spec_q])[:, None])
    top, best_m = _first_max(values)
    return _row_values(_GENERALIZED_IDS, top[:, 0], best_m[:, 0])


def _sweep_column(values: np.ndarray) -> list[float | None]:
    return np.where(values == -np.inf, None, values).tolist()


def generalized_sweep(
    spec_a: np.ndarray, spec_l: np.ndarray, spec_q: np.ndarray
) -> dict[BoundId, list[float | None]]:
    """Per-m values for the generalized bounds; None marks inadmissible m."""

    values = _generalized_values(*_spectra_stack([spec_a, spec_l, spec_q])[:, None])
    return {bound_id: _sweep_column(sweep[0]) for bound_id, sweep in zip(_GENERALIZED_IDS, values)}


def normalized_bounds(spec_na: np.ndarray) -> list[BoundValue]:
    """Bounds from the normalized adjacency spectrum alone."""

    values, best_m = _normalized_columns(_spectra_stack([spec_na]))
    return _row_values(_NORMALIZED_IDS, values[0], best_m[0])


def normalized_sweep(spec_na: np.ndarray) -> list[float | None]:
    """Per-m values of the generalized normalized bound; None marks inadmissible m."""

    return _sweep_column(_normalized_values(_spectra_stack([spec_na]))[0])


def chain_bounds(
    spec_a: np.ndarray, spec_l: np.ndarray, spec_q: np.ndarray, n: int
) -> list[BoundValue]:
    """Three successively weaker closed-form bounds kept for comparisons, on n-entry spectra."""

    values = _chain_values(*_spectra_stack([spec_a, spec_l, spec_q], n)[:, None], n)
    return _row_values(_CHAIN_IDS, values[0])


# --------------------------------------------------------------------------
# the integer search: the largest per-m minimum color count over candidates
#
# For a symmetric candidate B, c passes at m when the top-m eigenvalue sum
# of B - A is at least that of B + A/(c-1), minus PROPERTY_TOL; an m's
# minimum is its first passing c in 2..n, or n if none. Only m < n is
# tested: at m = n both sums are tr B, so m = n passes in exact
# arithmetic, and a comparison there would let rounding alone decide
# (at n = 4000 the sums are about 8e6, and their difference exceeds
# PROPERTY_TOL). The bound is the
# largest minimum over candidates and m. Passing is monotone in c: the
# Ky Fan sum of B + tA is convex in t and equals the left-hand side at
# t = -1, so the passing t = 1/(c-1) >= 0 form an interval from 0, or
# there are none. Hence the largest minimum of a candidate is its first c
# at which every m passes (n if there is none), which a search finds
# without computing any per-m minimum.
#
# Each function below works on a batch: row or matrix k belongs to the
# graph whose index in the caller's batch is index[k], and an error names
# that index.


def _take(stack: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The given rows of a stack, or the stack itself when they are all of it."""

    return stack if rows.size == len(stack) else stack[rows]


def _zero_minima(mu: np.ndarray, index: np.ndarray) -> np.ndarray:
    """(G, n - 1) minima of the candidate B = 0 for m < n, in closed form from the A spectra.

    With T_m and B_m the top-m and bottom-m sums of an A spectrum, c
    passes at m when PROPERTY_TOL - B_m >= T_m/(c-1), that is from
    c = 1 + T_m/(PROPERTY_TOL - B_m) on. That divisor is positive: B_m is
    at most m/n of the trace, which is 0 up to the trace check of the
    validated spectrum, far below PROPERTY_TOL. At m = n, T_n = B_n is
    the trace itself, so neither the check nor the minimum reads it.
    """

    slack = PROPERTY_TOL - np.cumsum(mu[:, :0:-1], axis=1)
    bad = ~(slack > 0).all(axis=1)  # NaN fails
    if bad.any():
        k = int(bad.argmax())
        raise NumericError(
            f"graph {index[k]}: adjacency spectrum has a bottom partial sum above PROPERTY_TOL"
        )
    top = np.cumsum(mu[:, :-1], axis=1)
    return np.clip(np.ceil(1.0 + top / slack), 2, mu.shape[1]).astype(np.int64)


def _probe(
    b: np.ndarray, a: np.ndarray, lhs: np.ndarray, c: np.ndarray, index: np.ndarray
) -> np.ndarray:
    """(G, n - 1) pass test of c[k] for graph k at each m < n: one eigvalsh call on B + A/(c-1).

    b holds the (G, n) diagonals of the candidates B and lhs the (G, n)
    top-m sums of the B - A spectra. Each matrix's eigenvalue sum must
    match its trace; a NaN fails.
    """

    try:
        eigs = eigenvalues_batch(majorization_stack(a, b, c))
    except MatrixError as exc:
        k = exc.matrix
        raise NumericError(
            f"graph {index[k]}: eigensolve at c={c[k]} disagrees with the matrix trace"
        ) from None
    return lhs[:, :-1] >= np.cumsum(eigs[:, :-1], axis=1) - PROPERTY_TOL


def _raise_best(
    b: np.ndarray,
    a: np.ndarray,
    lhs_values: np.ndarray,
    best: np.ndarray,
    best_m: np.ndarray,
    index: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Running maxima and their m after one more candidate B per graph.

    b holds the (G, n) diagonals of the candidates B and a the (G, n, n)
    adjacency stack, lhs_values the (G, n) spectra of B - A,
    best and best_m the running maxima. One probe at c = best: a graph
    whose every m passes there keeps its maximum. The others bisect
    (best, n] in lockstep, one probe call per round on the graphs whose
    interval is still open, for the smallest c at which every m passes;
    the new best_m is the first m failing at c - 1. c = n is never
    probed: an m that fails there has minimum n all the same.
    """

    n = a.shape[1]
    lhs = np.cumsum(lhs_values, axis=1)
    sat = _probe(b, a, lhs, best, index)
    rows = np.flatnonzero(~sat.all(axis=1))
    fail_c, pass_c, fail = best[rows], np.full(rows.size, n), sat[rows]
    while (live := np.flatnonzero(pass_c - fail_c > 1)).size:
        c = (fail_c[live] + pass_c[live]) // 2
        probed = rows[live]
        sat = _probe(_take(b, probed), _take(a, probed), lhs[probed], c, index[probed])
        passed = sat.all(axis=1)
        pass_c[live[passed]] = c[passed]
        fail_c[live[~passed]] = c[~passed]
        fail[live[~passed]] = sat[~passed]
    best, best_m = best.copy(), best_m.copy()
    best[rows] = pass_c
    best_m[rows] = fail.argmin(axis=1) + 1
    return best, best_m


def _integer_c(
    a: np.ndarray, mu: np.ndarray, th: np.ndarray, negdeg: np.ndarray, index: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(G,) IntegerC values and best m from an adjacency stack and the A, L, -D - A spectra.

    Candidates in the order zero, deg, negdeg; a graph whose maximum has
    reached n is not probed again. The degree vectors are the diagonals
    of D, negated in place for the negdeg candidate.
    """

    n = a.shape[1]
    d = a.sum(axis=2)
    zero = _zero_minima(mu, index)
    best, best_m = zero.max(axis=1), zero.argmax(axis=1) + 1
    for lhs_values in (th, negdeg):
        rows = np.flatnonzero(best < n)
        if not rows.size:
            break
        best[rows], best_m[rows] = _raise_best(
            _take(d, rows), _take(a, rows), lhs_values[rows], best[rows], best_m[rows], index[rows]
        )
        np.negative(d, out=d)
    return best, best_m


def integer_c_search(
    g: Graph, *, spec_a: np.ndarray, spec_l: np.ndarray, spec_negdeg: np.ndarray
) -> BoundValue:
    """Integer lower bound: max over candidates and m of the smallest valid c.

    Candidates are the zero matrix and the diagonal degree matrix with
    both signs. best_m is the lowest m achieving the maximum in the first
    candidate (in the order zero, deg, negdeg) that achieves it.

    The zero candidate comes in closed form from spec_a, the A spectrum;
    each later one goes through _raise_best with the spectrum of B - A:
    spec_l, the Laplacian spectrum, for B = D, and spec_negdeg, the
    spectrum of -D - A, for B = -D (full_reports derives it from the Q
    spectrum with negated_spectra). No spectrum is solved here, only the
    probes. The spectra have g.n entries each.
    """

    mu, th, negdeg = _spectra_stack([spec_a, spec_l, spec_negdeg], g.n)[:, None]
    if g.edge_count < 1:
        raise DomainError("integer search needs at least one edge")
    best, best_m = _integer_c(adjacency_stack([g]), mu, th, negdeg, np.zeros(1, dtype=np.int64))
    return BoundValue(BoundId.INTEGER_C, float(best[0]), best_m=int(best_m[0]))


# --------------------------------------------------------------------------
# the full report

@dataclass(frozen=True)
class BoundReport:
    """Every bound for one graph, plus the spectra they came from.

    value_row holds the bound values in BoundId order, -inf where a bound
    is invalid, and best_m_row the m of each; both are checked read-only
    rows of their batch's arrays. values and graph_id are computed from
    them and the graph on first read, and spectra from the graph's cache.
    """

    graph: Graph
    value_row: np.ndarray
    best_m_row: np.ndarray

    @cached_property
    def spectra(self) -> Mapping[GraphMatrixKind, np.ndarray]:
        """The bounds' spectra: {} without an edge, no normalized A with an isolated vertex."""

        g = self.graph
        if not g.edge_count:
            return {}
        spectra = dict(zip(UNNORMALIZED_KINDS, _spectra_rows([g], _report_spectra)[0]))
        if g.degrees().all():
            (na,) = _spectra_rows([g], _normalized_spectra)
            spectra[GraphMatrixKind.NORMALIZED_ADJACENCY] = na
        return spectra

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def edge_count(self) -> int:
        return self.graph.edge_count

    @cached_property
    def graph_id(self) -> str:
        """The graph's graph6 text, computed on first read."""

        return emit_graph6(self.graph)

    @cached_property
    def values(self) -> tuple[BoundValue, ...]:
        """One BoundValue per bound in BoundId order, computed on first read."""

        return tuple(_row_values(_REPORT_IDS, self.value_row, self.best_m_row))

    def value(self, bound_id: BoundId) -> BoundValue:
        return self.values[_REPORT_IDS.index(bound_id)]

    def display(self, bound_id: BoundId) -> str:
        return self.value(bound_id).display


def unnormalized_spectra(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(G, n) spectra of A, L = D - A and Q = D + A from a (G, n, n) adjacency stack.

    One spectra_batch call per stack of graphs.unnormalized_stacks, which
    writes each over a: the one solve routine of random_table, the
    reports and the certificates.
    """

    mu, th, dl = (spectra_batch(m) for m in unnormalized_stacks(a))
    return mu, th, dl


def _report_spectra(a: np.ndarray) -> np.ndarray:
    return np.stack(unnormalized_spectra(a), axis=1)


def _normalized_spectra(a: np.ndarray) -> np.ndarray:
    return spectra_batch(normalized_adjacency_stack(a))


def _spectra_rows(graphs: Sequence[Graph], solve, index=None) -> list[np.ndarray]:
    """Each graph's read-only rows of solve, solving only the graphs that lack them.

    A graph keeps them in its instance dict under solve's name, which
    equality and hashing ignore (see graphs.computed_once). The graphs
    that lack them go through solve as one new adjacency stack, which
    solve may write over, and its result passes check_spectra once. A
    failed solve names index[k], k by default, for graph k.
    """

    key = solve.__name__
    missing = [k for k, g in enumerate(graphs) if key not in vars(g)]
    if missing:
        index = range(len(graphs)) if index is None else index
        with matrices_named(lambda j: f"graph {index[missing[j]]}"):
            solved = solve(adjacency_stack([graphs[k] for k in missing]))
        check_spectra(solved.reshape(-1, solved.shape[-1]))
        solved.setflags(write=False)
        for k, rows in zip(missing, solved):
            vars(graphs[k])[key] = rows
    return [vars(g)[key] for g in graphs]


def report_spectra(graphs: Sequence[Graph]) -> np.ndarray:
    """(3, G, n) spectra of A, L and Q for graphs of one order, solved once per graph.

    The graphs that no earlier call solved go through
    unnormalized_spectra as one batch, and each keeps its (3, n) rows,
    for full_reports, sweep and certify_graphs. The spectra of -A and
    -Q = -D - A are negated_spectra of A and Q, with the same eigenpairs,
    residuals and trace error. A failed solve names the graph's index.
    """

    return np.stack(_spectra_rows(graphs, _report_spectra), axis=1)


def normalized_spectra(graphs: Sequence[Graph], index=None) -> np.ndarray:
    """(G, n) normalized A spectra for graphs of one order, none with an isolated vertex.

    Solved once per graph like report_spectra, for full_reports and
    sweep; a failed solve names index[k], k by default, for graph k.
    """

    return np.stack(_spectra_rows(graphs, _normalized_spectra, index))


def _edged_reports(
    graphs: Sequence[Graph], spectra: np.ndarray, index: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(G, 15) bound values and their best m for graphs of one order, each with an edge.

    spectra holds the graphs' report_spectra; the graphs without an
    isolated vertex read their normalized A spectra too, solved here on
    first demand and kept. Each family then runs once on those (G, n)
    arrays. index[k] is graph k's position in the caller's batch, which
    errors name, those of the solves included.
    """

    n = graphs[0].n
    mu, th, dl = spectra
    edges = np.array([g.edge_count for g in graphs])
    normal = np.flatnonzero([g.degrees().all() for g in graphs])
    normalized = np.full((len(graphs), 2), -np.inf)
    normalized_m = np.ones(normalized.shape, dtype=np.int64)
    if normal.size:
        na = normalized_spectra([graphs[k] for k in normal], index[normal])
        normalized[normal], normalized_m[normal] = _normalized_columns(na)
    generalized = _generalized_values(mu, th, dl)
    top, top_m = _first_max(generalized)
    a = adjacency_stack(graphs)  # the spectra are solved: A and a probe stack are alive
    integer, integer_m = _integer_c(a, mu, th, negated_spectra(dl), index)
    values = np.column_stack([
        _classical_values(mu, generalized),
        _loan_values(edges, n, dl),
        top.T,
        normalized,
        _chain_values(mu, th, dl, n),
        integer,
    ])
    best_m = np.column_stack([
        np.ones((len(graphs), len(_CLASSICAL_IDS) + 1), dtype=np.int64),  # and LOAN
        top_m.T,
        normalized_m,
        np.ones((len(graphs), len(_CHAIN_IDS)), dtype=np.int64),
        integer_m,
    ])
    return values, best_m


def full_reports(graphs: Sequence[Graph]) -> list[BoundReport]:
    """full_report for each of several graphs with the same vertex count.

    report_spectra solves every graph of the batch; the graphs with an
    edge then go through _edged_reports as one batch, and an edgeless
    graph gets every bound invalid. The batch's (G, 15) values are
    checked once, and each report keeps its rows of them. A report
    equals the one full_report gives for the graph alone, to the bit.
    """

    graphs = list(graphs)
    common_order(graphs)
    solved = report_spectra(graphs)
    edged = [k for k, g in enumerate(graphs) if g.edge_count]
    values = np.full((len(graphs), len(_REPORT_IDS)), -np.inf)
    best_m = np.ones(values.shape, dtype=np.int64)
    if edged:
        index = np.array(edged)
        values[index], best_m[index] = _edged_reports(
            [graphs[k] for k in edged], solved[:, index], index
        )
    _check_bounds(_REPORT_IDS, values, values != -np.inf)
    values.setflags(write=False)
    best_m.setflags(write=False)
    return [BoundReport(*fields) for fields in zip(graphs, values, best_m)]


def full_report(g: Graph) -> BoundReport:
    """Compute all spectra once and evaluate every bound.

    Edgeless graphs yield a report where every bound is invalid with
    value 1. Graphs with isolated vertices (but some edge) get invalid
    normalized bounds and ordinary values elsewhere. This is
    full_reports on a batch of one.
    """

    return full_reports([g])[0]
