"""Every spectral lower bound on the chromatic number, from one report call.

Fifteen bounds are computed from the adjacency, Laplacian, signless
Laplacian, and normalized adjacency spectra: four classical ratio
bounds, the average-degree bound, four generalized partial-sum bounds
swept over m, two normalized bounds, three weaker chain bounds kept for
comparison tables, and the integer search for the smallest color count
compatible with the partial-sum inequality.

Invalid bounds (nonpositive denominators, edgeless graphs, isolated
vertices for the normalized family) are reported as value 1 with
valid=False, never as exceptions, so sweeps over arbitrary graphs keep
going.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainError, NumericError
from .graphs import Graph, GraphMatrixKind, build_matrix, common_order, emit_graph6
from .linalg import (
    PROPERTY_TOL,
    SPECTRUM_TOL,
    Spectrum,
    graph_spectra,
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


@dataclass(frozen=True)
class BoundValue:
    """One evaluated bound: its value, the m that achieved it, validity."""

    id: BoundId
    value: float
    best_m: int = 1
    valid: bool = True

    def __post_init__(self) -> None:
        if self.valid and self.value < 1.0 - 1e-12:
            raise DomainError(f"{self.id.value}: valid bound below 1 ({self.value})")
        if self.valid and self.id is BoundId.INTEGER_C:
            if self.value != int(self.value) or self.value < 2:
                raise DomainError(f"IntegerC must be an integer >= 2, got {self.value}")


def invalid_bound(bound_id: BoundId) -> BoundValue:
    return BoundValue(bound_id, 1.0, best_m=1, valid=False)


def round_display(value: float) -> str:
    """One decimal, ties away from zero, matching printed comparison tables."""

    return str(Decimal(repr(float(value))).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def _ratio_bound(bound_id: BoundId, numerator: float, denominator: float) -> BoundValue:
    if denominator <= PROPERTY_TOL:
        return invalid_bound(bound_id)
    return BoundValue(bound_id, 1.0 + numerator / denominator)


def classical_bounds(
    spec_a: Spectrum, spec_l: Spectrum, spec_q: Spectrum
) -> list[BoundValue]:
    """The four m = 1 ratio bounds from the three unnormalized spectra.

    The smallest Laplacian eigenvalue enters the fourth bound exactly as
    computed (theoretically zero); dropping it would change nothing in
    exact arithmetic but the computed value is kept for honesty.
    """

    mu = spec_a.values
    th = spec_l.values
    dl = spec_q.values
    mu1, mun = float(mu[0]), float(mu[-1])
    if mu1 <= PROPERTY_TOL:
        return [
            invalid_bound(BoundId.HOFFMAN),
            invalid_bound(BoundId.NIKIFOROV_HYBRID),
            invalid_bound(BoundId.KOLOTILINA_1),
            invalid_bound(BoundId.KOLOTILINA_2),
        ]
    return [
        _ratio_bound(BoundId.HOFFMAN, mu1, -mun),
        _ratio_bound(BoundId.NIKIFOROV_HYBRID, mu1, float(th[0]) - mu1),
        _ratio_bound(BoundId.KOLOTILINA_1, mu1, mu1 - float(dl[0]) + float(th[0])),
        _ratio_bound(BoundId.KOLOTILINA_2, mu1, mu1 - float(dl[-1]) + float(th[-1])),
    ]


def loan_bound(g: Graph, spec_q: Spectrum) -> BoundValue:
    """Average-degree bound 1 + 2E/(2E - n*delta_n)."""

    if g.edge_count < 1:
        return invalid_bound(BoundId.LOAN)
    two_e = 2.0 * g.edge_count
    delta_n = float(spec_q.values[-1])
    return _ratio_bound(BoundId.LOAN, two_e, two_e - g.n * delta_n)


def _ratio_sweep(numerators: np.ndarray, denominators: np.ndarray) -> np.ndarray:
    """1 + num/denom per m; -inf masks an m whose denominator is <= PROPERTY_TOL.

    -inf never wins a maximum, so a bound over m is the first argmax of
    this array and its sweep is the same array with the mask as None.
    """

    admissible = denominators > PROPERTY_TOL
    values = np.full(numerators.shape, -np.inf)
    values[admissible] = 1.0 + numerators[admissible] / denominators[admissible]
    return values


def _sweep_max(bound_id: BoundId, values: np.ndarray) -> BoundValue:
    best = int(values.argmax())
    if values[best] == -np.inf:
        return invalid_bound(bound_id)
    return BoundValue(bound_id, float(values[best]), best_m=best + 1)


def _sweep_column(values: np.ndarray) -> list[float | None]:
    return np.where(values == -np.inf, None, values).tolist()


def _generalized_values(
    spec_a: Spectrum, spec_l: Spectrum, spec_q: Spectrum
) -> dict[BoundId, np.ndarray]:
    """Per-m value arrays of the four generalized bounds."""

    mu = spec_a.values
    th = spec_l.values
    dl = spec_q.values
    top_mu = np.cumsum(mu)
    bottom_mu = np.cumsum(mu[::-1])
    bottom_th = np.cumsum(th[::-1])
    bottom_dl = np.cumsum(dl[::-1])
    denominators = {
        BoundId.GEN_HOFFMAN: -bottom_mu,
        BoundId.GEN_NIKIFOROV: np.cumsum(th - mu),
        BoundId.GEN_KOLOTILINA_1: np.cumsum(mu - dl + th),
        BoundId.GEN_KOLOTILINA_2: top_mu - bottom_dl + bottom_th,
    }
    return {bound_id: _ratio_sweep(top_mu, denom) for bound_id, denom in denominators.items()}


def generalized_bounds(
    spec_a: Spectrum, spec_l: Spectrum, spec_q: Spectrum
) -> list[BoundValue]:
    """Partial-sum versions of the four ratio bounds, maximized over m."""

    values = _generalized_values(spec_a, spec_l, spec_q)
    return [_sweep_max(bound_id, column) for bound_id, column in values.items()]


def generalized_sweep(
    spec_a: Spectrum, spec_l: Spectrum, spec_q: Spectrum
) -> dict[BoundId, list[float | None]]:
    """Per-m values for the generalized bounds; None marks inadmissible m."""

    values = _generalized_values(spec_a, spec_l, spec_q)
    return {bound_id: _sweep_column(column) for bound_id, column in values.items()}


def _normalized_values(spec_na: Spectrum) -> np.ndarray:
    mu = spec_na.values
    return _ratio_sweep(np.cumsum(mu), -np.cumsum(mu[::-1]))


def normalized_bounds(spec_na: Spectrum) -> list[BoundValue]:
    """Bounds from the normalized adjacency spectrum alone."""

    hoffman = _ratio_bound(BoundId.NORMALIZED_HOFFMAN, 1.0, -float(spec_na.values[-1]))
    gen = _sweep_max(BoundId.GEN_NORMALIZED_HOFFMAN, _normalized_values(spec_na))
    return [hoffman, gen]


def normalized_sweep(spec_na: Spectrum) -> list[float | None]:
    """Per-m values of the generalized normalized bound; None marks inadmissible m."""

    return _sweep_column(_normalized_values(spec_na))


def chain_bounds(
    spec_a: Spectrum, spec_l: Spectrum, spec_q: Spectrum, n: int
) -> list[BoundValue]:
    """Three successively weaker closed-form bounds kept for comparisons."""

    mu1 = float(spec_a.values[0])
    th1 = float(spec_l.values[0])
    dl1 = float(spec_q.values[0])
    if mu1 <= PROPERTY_TOL:
        return [
            invalid_bound(BoundId.KOLOTILINA_CHAIN_317),
            invalid_bound(BoundId.HANSEN_LUCAS),
            invalid_bound(BoundId.CVETKOVIC),
        ]
    return [
        _ratio_bound(BoundId.KOLOTILINA_CHAIN_317, dl1, 2.0 * th1 - dl1),
        _ratio_bound(BoundId.HANSEN_LUCAS, dl1, 2.0 * n - dl1),
        _ratio_bound(BoundId.CVETKOVIC, mu1, n - mu1),
    ]


# --------------------------------------------------------------------------
# the integer search: the largest per-m minimum color count over candidates
#
# For a symmetric candidate B, c passes at m when the top-m eigenvalue sum
# of B - A is at least that of B + A/(c-1), minus PROPERTY_TOL; an m's
# minimum is its first passing c in 2..n, or n if none. The bound is the
# largest minimum over candidates and m. Passing is monotone in c: the
# Ky Fan sum of B + tA is convex in t and equals the left-hand side at
# t = -1, so the passing t = 1/(c-1) >= 0 form an interval from 0, or
# there are none. Hence the largest minimum of a candidate is its first c
# at which every m passes (n if there is none), which a search finds
# without computing any per-m minimum.


def _zero_minima(spec_a: Spectrum) -> np.ndarray:
    """Per-m minima of the candidate B = 0, in closed form from the A spectrum.

    With T_m and B_m the top-m and bottom-m sums of the A spectrum, c
    passes at m when PROPERTY_TOL - B_m >= T_m/(c-1), that is from
    c = 1 + T_m/(PROPERTY_TOL - B_m) on. That divisor is positive: B_m is
    at most m/n of the trace, which is 0 up to the trace check of the
    validated spectrum, far below PROPERTY_TOL.
    """

    mu = spec_a.values
    slack = PROPERTY_TOL - np.cumsum(mu[::-1])
    if (slack <= 0).any():
        raise NumericError("adjacency spectrum has a bottom partial sum above PROPERTY_TOL")
    return np.clip(np.ceil(1.0 + np.cumsum(mu) / slack), 2, mu.size).astype(np.int64)


def _probe(b: np.ndarray, a: np.ndarray, lhs: np.ndarray, c: int) -> np.ndarray:
    """Per-m pass test of one c: one validated n x n eigensolve of B + A/(c-1)."""

    matrix = b + a / (c - 1)
    eigs = np.linalg.eigvalsh(matrix)[::-1]
    tr = float(np.trace(matrix))
    if not abs(float(eigs.sum()) - tr) <= SPECTRUM_TOL * max(1.0, abs(tr)):  # NaN fails
        raise NumericError(f"eigensolve at c={c} disagrees with the matrix trace")
    return lhs >= np.cumsum(eigs) - PROPERTY_TOL


def _raise_best(
    b: np.ndarray, a: np.ndarray, lhs_values: np.ndarray, best: int, best_m: int
) -> tuple[int, int]:
    """Running maximum and its m after one more candidate B.

    lhs_values is the spectrum of B - A. One probe at c = best: if every
    m passes there, B cannot raise the maximum. Otherwise bisect (best, n]
    for the smallest c at which every m passes; the new best_m is the first
    m failing at c - 1. c = n is never probed: an m that fails there has
    minimum n all the same.
    """

    lhs = np.cumsum(lhs_values)
    fail = _probe(b, a, lhs, best)
    if fail.all():
        return best, best_m
    fail_c, pass_c = best, a.shape[0]
    while pass_c - fail_c > 1:
        c = (fail_c + pass_c) // 2
        sat = _probe(b, a, lhs, c)
        if sat.all():
            pass_c = c
        else:
            fail_c, fail = c, sat
    return pass_c, int(np.argmin(fail)) + 1


def integer_c_search(
    g: Graph, *, spec_a: Spectrum, spec_l: Spectrum, spec_negdeg: Spectrum
) -> BoundValue:
    """Integer lower bound: max over candidates and m of the smallest valid c.

    Candidates are the zero matrix and the diagonal degree matrix with
    both signs. best_m is the lowest m achieving the maximum in the first
    candidate (in the order zero, deg, negdeg) that achieves it.

    The zero candidate comes in closed form from spec_a, the A spectrum;
    each later one goes through _raise_best with the spectrum of B - A:
    spec_l, the Laplacian spectrum, for B = D, and spec_negdeg, the
    spectrum of -D - A, for B = -D. No spectrum is solved here, only the
    probes.
    """

    if g.edge_count < 1:
        raise DomainError("integer search needs at least one edge")
    n = g.n
    a = g.adjacency()
    zero = _zero_minima(spec_a)
    best = int(zero.max())
    best_m = int(zero.argmax()) + 1
    if best < n:
        d = np.diag(g.degrees().astype(np.float64))
        best, best_m = _raise_best(d, a, spec_l.values, best, best_m)
        if best < n:
            # -D in the same buffer, so one dense D is alive at a time
            np.negative(d, out=d)
            best, best_m = _raise_best(d, a, spec_negdeg.values, best, best_m)
        del d
    return BoundValue(BoundId.INTEGER_C, float(best), best_m=best_m)


# --------------------------------------------------------------------------
# the full report

@dataclass(frozen=True)
class BoundReport:
    """Every bound for one graph, plus the spectra they came from."""

    graph_id: str
    graph_hash: str
    n: int
    edge_count: int
    spectra: Mapping[GraphMatrixKind, Spectrum]
    values: tuple[BoundValue, ...]
    rounded_display: Mapping[str, str]

    def value(self, bound_id: BoundId) -> BoundValue:
        for v in self.values:
            if v.id is bound_id:
                return v
        raise DomainError(f"report is missing {bound_id.value}")

    def display(self, bound_id: BoundId) -> str:
        return self.rounded_display[bound_id.value]


def _display_map(values: Sequence[BoundValue]) -> dict[str, str]:
    out = {}
    for v in values:
        if v.id is BoundId.INTEGER_C and v.valid:
            out[v.id.value] = str(int(v.value))
        else:
            out[v.id.value] = round_display(v.value)
    return out


def _report(
    g: Graph, spectra: dict[GraphMatrixKind, Spectrum], spec_negdeg: Spectrum | None
) -> BoundReport:
    """Every bound of one graph from its spectra; none are given for an edgeless graph."""

    g6 = emit_graph6(g)
    digest = hashlib.sha256(g6.encode("ascii")).hexdigest()[:16]
    if g.edge_count == 0:
        values = tuple(invalid_bound(bound_id) for bound_id in BoundId)
        return BoundReport(
            graph_id=g6,
            graph_hash=digest,
            n=g.n,
            edge_count=0,
            spectra={},
            values=values,
            rounded_display=_display_map(values),
        )
    spec_a = spectra[GraphMatrixKind.ADJACENCY]
    spec_l = spectra[GraphMatrixKind.LAPLACIAN]
    spec_q = spectra[GraphMatrixKind.SIGNLESS_LAPLACIAN]
    values = list(classical_bounds(spec_a, spec_l, spec_q))
    values.append(loan_bound(g, spec_q))
    values.extend(generalized_bounds(spec_a, spec_l, spec_q))
    if g.has_isolated_vertex():
        values.append(invalid_bound(BoundId.NORMALIZED_HOFFMAN))
        values.append(invalid_bound(BoundId.GEN_NORMALIZED_HOFFMAN))
    else:
        values.extend(normalized_bounds(spectra[GraphMatrixKind.NORMALIZED_ADJACENCY]))
    values.extend(chain_bounds(spec_a, spec_l, spec_q, g.n))
    values.append(
        integer_c_search(g, spec_a=spec_a, spec_l=spec_l, spec_negdeg=spec_negdeg)
    )
    by_id = {v.id for v in values}
    if by_id != set(BoundId):
        raise DomainError("report does not cover every bound exactly once")
    return BoundReport(
        graph_id=g6,
        graph_hash=digest,
        n=g.n,
        edge_count=g.edge_count,
        spectra=spectra,
        values=tuple(values),
        rounded_display=_display_map(values),
    )


def full_reports(graphs: Sequence[Graph]) -> list[BoundReport]:
    """full_report for each of several graphs with the same vertex count.

    Each matrix role is one stack over the batch, solved and validated
    by one spectra_batch call: A, L and Q of the graphs with an edge,
    the normalized A of those without an isolated vertex, and -D - A for
    the integer search. The per-graph bounds read rows of those spectra,
    so a report equals the one full_report gives for the graph alone.
    """

    graphs = list(graphs)
    common_order(graphs)
    edged = [g for g in graphs if g.edge_count]
    spectra: list[dict[GraphMatrixKind, Spectrum]] = [{} for _ in edged]
    negdeg: list[Spectrum] = []
    if edged:
        for kind in (GraphMatrixKind.ADJACENCY, GraphMatrixKind.LAPLACIAN):
            for found, spec in zip(spectra, graph_spectra(edged, kind)):
                found[kind] = spec
        kind = GraphMatrixKind.SIGNLESS_LAPLACIAN
        q = np.stack([build_matrix(g, kind) for g in edged])
        for found, row in zip(spectra, spectra_batch(q)):
            found[kind] = Spectrum(row)
        # -Q is -D - A, the left-hand side of the search's negdeg candidate
        np.negative(q, out=q)
        negdeg = [Spectrum(row) for row in spectra_batch(q)]
        del q
        normal = [k for k, g in enumerate(edged) if not g.has_isolated_vertex()]
        if normal:
            kind = GraphMatrixKind.NORMALIZED_ADJACENCY
            for k, spec in zip(normal, graph_spectra([edged[k] for k in normal], kind)):
                spectra[k][kind] = spec
    rows = iter(zip(spectra, negdeg))  # in the order of the graphs with an edge
    return [_report(g, *(next(rows) if g.edge_count else ({}, None))) for g in graphs]


def full_report(g: Graph) -> BoundReport:
    """Compute all spectra once and evaluate every bound.

    Edgeless graphs yield a report where every bound is invalid with
    value 1. Graphs with isolated vertices (but some edge) get invalid
    normalized bounds and ordinary values elsewhere. This is
    full_reports on a batch of one.
    """

    return full_reports([g])[0]
