"""Batched spectra, reports and certificates against per-matrix references.

The reference_* functions, with the per-graph check_proper,
conversion_unitaries and conversion_residual of paper_lemmas, are
test-only copies of the per-matrix solver and the per-graph report,
bound-family and certification bodies the batched code replaced: one
validated eigh per matrix, scalar ratio bounds and 1-d sweeps per
graph, one eigvalsh per integer-search probe, properness checked by
every step, and the majorization margins as a loop of ky_fan calls.
Like the batched code, they derive the spectra of -A, -Q = -D - A and
A/(c-1) from their own validated eigh of A and Q instead of solving
them. The batched results, and the family functions as batches of one,
must equal them bit for bit. TestDerivedSpectraAgree solves those three
test-side and checks that every bound, best m and certification verdict
on the corpus stays the same.
"""

import collections
import dataclasses
import itertools

import numpy as np
import pytest
from conftest import from_edges, orthogonality_graph
from paper_lemmas import (
    check_proper,
    conversion_residual,
    conversion_unitaries,
    ky_fan,
    random_hermitian,
)

from spectral_chroma import bounds, certify, cli, linalg
from spectral_chroma.bounds import (
    BoundId,
    BoundReport,
    BoundValue,
    chain_bounds,
    classical_bounds,
    full_report,
    full_reports,
    generalized_bounds,
    generalized_sweep,
    integer_c_search,
    invalid_bound,
    normalized_bounds,
    normalized_sweep,
    report_spectra,
    round_display,
)
from spectral_chroma.certify import (
    CONVERSION_TOL,
    Conversions,
    LoanIdentities,
    MajorizationSteps,
    certify_graphs,
    greedy_certificate_coloring,
)
from spectral_chroma.errors import DomainError, NumericError, VerificationError
from spectral_chroma.experiments import DEFAULT_NAMED, resolve_graph_input
from spectral_chroma.graphs import (
    Graph,
    GraphMatrixKind,
    build_matrix,
    complete,
    cycle,
    emit_graph6,
    normalized_adjacency_stack,
    petersen,
    random_gnp,
    random_gnp_adjacency,
    unnormalized_stacks,
)
from spectral_chroma.linalg import (
    PROPERTY_TOL,
    SPECTRUM_TOL,
    UNITARY_TOL,
    frobenius_norms,
    spectra_batch,
)
from spectral_chroma.oracle import Coloring, all_graphs

# --------------------------------------------------------------------------
# references


def reference_eigenvalues_sym(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DomainError("matrix contains non-finite entries")
    if not np.array_equal(a, a.T):
        raise DomainError("matrix is not exactly symmetric")
    w, v = np.linalg.eigh(a)
    scale = max(1.0, float(np.linalg.norm(a, "fro")))
    residual = a @ v
    residual -= v * w
    worst = float(np.linalg.norm(residual, axis=0).max())
    if worst > SPECTRUM_TOL * scale:
        raise NumericError(f"eigenpair residual {worst:.3e} exceeds {SPECTRUM_TOL * scale:.3e}")
    tr = float(np.trace(a))
    if abs(float(w.sum()) - tr) > SPECTRUM_TOL * max(1.0, abs(tr)):
        raise NumericError("eigenvalue sum disagrees with the trace")
    return w[::-1]


# the per-graph bound families and integer search that full_reports'
# chunk-wide array code replaced: scalar ratios, 1-d sweeps, and one n x n
# eigvalsh per probe of one graph


def reference_ratio_bound(bound_id: BoundId, numerator: float, denominator: float) -> BoundValue:
    if denominator <= PROPERTY_TOL:
        return invalid_bound(bound_id)
    return BoundValue(bound_id, 1.0 + numerator / denominator)


def reference_classical_bounds(mu, th, dl) -> list[BoundValue]:
    mu1, mun = float(mu[0]), float(mu[-1])
    if mu1 <= PROPERTY_TOL:
        return [
            invalid_bound(BoundId.HOFFMAN),
            invalid_bound(BoundId.NIKIFOROV_HYBRID),
            invalid_bound(BoundId.KOLOTILINA_1),
            invalid_bound(BoundId.KOLOTILINA_2),
        ]
    return [
        reference_ratio_bound(BoundId.HOFFMAN, mu1, -mun),
        reference_ratio_bound(BoundId.NIKIFOROV_HYBRID, mu1, float(th[0]) - mu1),
        reference_ratio_bound(BoundId.KOLOTILINA_1, mu1, mu1 - float(dl[0]) + float(th[0])),
        reference_ratio_bound(BoundId.KOLOTILINA_2, mu1, mu1 - float(dl[-1]) + float(th[-1])),
    ]


def reference_loan_bound(g: Graph, spec_q) -> BoundValue:
    if g.edge_count < 1:
        return invalid_bound(BoundId.LOAN)
    two_e = 2.0 * g.edge_count
    delta_n = float(spec_q[-1])
    return reference_ratio_bound(BoundId.LOAN, two_e, two_e - g.n * delta_n)


def reference_ratio_sweep(numerators, denominators):
    admissible = denominators > PROPERTY_TOL
    values = np.full(numerators.shape, -np.inf)
    values[admissible] = 1.0 + numerators[admissible] / denominators[admissible]
    return values


def reference_sweep_max(bound_id: BoundId, values) -> BoundValue:
    best = int(values.argmax())
    if values[best] == -np.inf:
        return invalid_bound(bound_id)
    return BoundValue(bound_id, float(values[best]), best_m=best + 1)


def reference_sweep_column(values) -> list:
    return np.where(values == -np.inf, None, values).tolist()


def reference_generalized_values(mu, th, dl) -> dict:
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
    values = {
        bound_id: reference_ratio_sweep(top_mu, denom) for bound_id, denom in denominators.items()
    }
    # m = n is 0/0 except for GenNikiforov, whose denominator there is 2E
    for bound_id, column in values.items():
        if bound_id is not BoundId.GEN_NIKIFOROV:
            column[-1] = -np.inf
    return values


def reference_generalized_bounds(spec_a, spec_l, spec_q) -> list[BoundValue]:
    values = reference_generalized_values(spec_a, spec_l, spec_q)
    return [reference_sweep_max(bound_id, column) for bound_id, column in values.items()]


def reference_generalized_sweep(spec_a, spec_l, spec_q) -> dict:
    values = reference_generalized_values(spec_a, spec_l, spec_q)
    return {bound_id: reference_sweep_column(column) for bound_id, column in values.items()}


def reference_normalized_values(mu):
    values = reference_ratio_sweep(np.cumsum(mu), -np.cumsum(mu[::-1]))
    values[-1] = -np.inf  # 0/0 at m = n
    return values


def reference_normalized_bounds(spec_na) -> list[BoundValue]:
    hoffman = reference_ratio_bound(BoundId.NORMALIZED_HOFFMAN, 1.0, -float(spec_na[-1]))
    gen = reference_sweep_max(BoundId.GEN_NORMALIZED_HOFFMAN, reference_normalized_values(spec_na))
    return [hoffman, gen]


def reference_normalized_sweep(spec_na) -> list:
    return reference_sweep_column(reference_normalized_values(spec_na))


def reference_chain_bounds(spec_a, spec_l, spec_q, n: int) -> list[BoundValue]:
    mu1 = float(spec_a[0])
    th1 = float(spec_l[0])
    dl1 = float(spec_q[0])
    if mu1 <= PROPERTY_TOL:
        return [
            invalid_bound(BoundId.KOLOTILINA_CHAIN_317),
            invalid_bound(BoundId.HANSEN_LUCAS),
            invalid_bound(BoundId.CVETKOVIC),
        ]
    return [
        reference_ratio_bound(BoundId.KOLOTILINA_CHAIN_317, dl1, 2.0 * th1 - dl1),
        reference_ratio_bound(BoundId.HANSEN_LUCAS, dl1, 2.0 * n - dl1),
        reference_ratio_bound(BoundId.CVETKOVIC, mu1, n - mu1),
    ]


def reference_zero_minima(mu):
    # m < n only: at m = n both partial sums are the trace
    slack = PROPERTY_TOL - np.cumsum(mu[::-1])[:-1]
    if (slack <= 0).any():
        raise NumericError("adjacency spectrum has a bottom partial sum above PROPERTY_TOL")
    return np.clip(np.ceil(1.0 + np.cumsum(mu)[:-1] / slack), 2, mu.size).astype(np.int64)


def reference_probe(b, a, lhs, c: int):
    matrix = b + a / (c - 1)
    eigs = np.linalg.eigvalsh(matrix)[::-1]
    tr = float(np.trace(matrix))
    if not abs(float(eigs.sum()) - tr) <= SPECTRUM_TOL * max(1.0, abs(tr)):  # NaN fails
        raise NumericError(f"eigensolve at c={c} disagrees with the matrix trace")
    return (lhs >= np.cumsum(eigs) - PROPERTY_TOL)[:-1]


def reference_raise_best(b, a, lhs_values, best: int, best_m: int) -> tuple[int, int]:
    lhs = np.cumsum(lhs_values)
    fail = reference_probe(b, a, lhs, best)
    if fail.all():
        return best, best_m
    fail_c, pass_c = best, a.shape[0]
    while pass_c - fail_c > 1:
        c = (fail_c + pass_c) // 2
        sat = reference_probe(b, a, lhs, c)
        if sat.all():
            pass_c = c
        else:
            fail_c, fail = c, sat
    return pass_c, int(np.argmin(fail)) + 1


def reference_integer_c_search(g: Graph, *, spec_a, spec_l, spec_negdeg) -> BoundValue:
    if g.edge_count < 1:
        raise DomainError("integer search needs at least one edge")
    n = g.n
    a = g.adjacency()
    zero = reference_zero_minima(spec_a)
    best = int(zero.max())
    best_m = int(zero.argmax()) + 1
    if best < n:
        d = np.diag(g.degrees().astype(np.float64))
        best, best_m = reference_raise_best(d, a, spec_l, best, best_m)
        if best < n:
            np.negative(d, out=d)
            best, best_m = reference_raise_best(d, a, spec_negdeg, best, best_m)
        del d
    return BoundValue(BoundId.INTEGER_C, float(best), best_m=best_m)


def reference_display_map(values) -> dict[str, str]:
    out = {}
    for v in values:
        if v.id is BoundId.INTEGER_C and v.valid:
            out[v.id.value] = str(int(v.value))
        else:
            out[v.id.value] = round_display(v.value)
    return out


def reference_spectra(g: Graph) -> dict:
    """The spectra of a report on a graph with an edge, each from its own validated eigh."""

    kinds = [
        GraphMatrixKind.ADJACENCY, GraphMatrixKind.LAPLACIAN, GraphMatrixKind.SIGNLESS_LAPLACIAN
    ]
    if not (g.degrees() == 0).any():
        kinds.append(GraphMatrixKind.NORMALIZED_ADJACENCY)
    return {kind: reference_eigenvalues_sym(build_matrix(g, kind)) for kind in kinds}


def reference_full_report(g: Graph, spectra) -> tuple:
    """(graph_id, n, edge_count, spectra, values, display) of one graph.

    spectra is reference_spectra(g), or {} for an edgeless graph.
    """

    g6 = emit_graph6(g)
    if g.edge_count == 0:
        values = tuple(invalid_bound(bound_id) for bound_id in BoundId)
        return g6, g.n, 0, {}, values, reference_display_map(values)
    spec_a = spectra[GraphMatrixKind.ADJACENCY]
    spec_l = spectra[GraphMatrixKind.LAPLACIAN]
    spec_q = spectra[GraphMatrixKind.SIGNLESS_LAPLACIAN]
    values = list(reference_classical_bounds(spec_a, spec_l, spec_q))
    values.append(reference_loan_bound(g, spec_q))
    values.extend(reference_generalized_bounds(spec_a, spec_l, spec_q))
    if (g.degrees() == 0).any():
        values.append(invalid_bound(BoundId.NORMALIZED_HOFFMAN))
        values.append(invalid_bound(BoundId.GEN_NORMALIZED_HOFFMAN))
    else:
        values.extend(reference_normalized_bounds(spectra[GraphMatrixKind.NORMALIZED_ADJACENCY]))
    values.extend(reference_chain_bounds(spec_a, spec_l, spec_q, g.n))
    values.append(
        reference_integer_c_search(
            g, spec_a=spec_a, spec_l=spec_l, spec_negdeg=reference_negdeg_spectrum(g)
        )
    )
    return g6, g.n, g.edge_count, spectra, tuple(values), reference_display_map(values)


def reference_negated(spec: np.ndarray) -> np.ndarray:
    """The spectrum of -M from that of M."""

    return -spec[::-1]


def reference_negdeg_spectrum(g: Graph) -> np.ndarray:
    """-Q = -D - A, derived from the validated Q spectrum."""

    q = build_matrix(g, GraphMatrixKind.SIGNLESS_LAPLACIAN)
    return reference_negated(reference_eigenvalues_sym(q))


def reference_build_conversion(a, col: Coloring) -> Conversions:
    """The conversion's row: both checks pass, or VerificationError names the first that fails."""

    if col.c < 2:
        raise DomainError(f"conversion needs at least 2 colors, got c={col.c}")
    check_proper(a, col)
    residual = conversion_residual(a, col)
    tol = CONVERSION_TOL * col.c * max(1.0, float(np.linalg.norm(a, "fro")))
    if residual > tol:
        raise VerificationError(f"conversion residual {residual:.3e} exceeds {tol:.3e}")
    u = conversion_unitaries(col)
    if not np.abs(u[-1] - 1.0).max() <= UNITARY_TOL:
        raise VerificationError("final conversion unitary is not the identity")
    return Conversions(col, u, residual, tol, True, True)


def reference_majorization_step(a, b, col: Coloring, lhs, rhs) -> MajorizationSteps:
    """The step's row for B with lhs and rhs the spectra of B - A and B + A/(c-1)."""

    check_proper(a, col)
    c = col.c
    diags = conversion_unitaries(col)
    x = b - a
    total = np.zeros(a.shape, dtype=np.complex128)
    for s in range(c - 1):
        u = diags[s]
        total += np.conj(u)[:, None] * x * u[None, :]
    target = (c - 1) * b + a
    residual = float(np.linalg.norm(total - target, "fro"))
    tol = CONVERSION_TOL * c * max(1.0, float(np.linalg.norm(x, "fro")))
    n = a.shape[0]
    margins = np.array([ky_fan(lhs, m) - ky_fan(rhs, m) for m in range(1, n)])
    return MajorizationSteps(
        identity_residual=residual,
        identity_tolerance=tol,
        identity_ok=residual <= tol,
        spectral_margins=margins,
        spectral_ok=bool((margins >= -PROPERTY_TOL).all()),
    )


def reference_loan_identity(g: Graph, col: Coloring) -> LoanIdentities:
    """The loan identity's row."""

    a = g.adjacency()
    check_proper(a, col)
    c = col.c
    n = g.n
    d = np.diag(g.degrees().astype(np.float64))
    q = d + a
    diags = conversion_unitaries(col)
    total = np.zeros((n, n), dtype=np.complex128)
    conj_values = []
    v = np.full(n, 1.0 / np.sqrt(n))
    for s in range(c - 1):
        u = diags[s]
        term = u[:, None] * q * np.conj(u)[None, :]
        total += term
        conj_values.append(float(np.real(v @ term @ v)))
    residual = float(np.linalg.norm(((c - 1) * d - total) - a, "fro"))
    tol = CONVERSION_TOL * c * max(1.0, float(np.linalg.norm(q, "fro")))
    avg = 2.0 * g.edge_count / n
    rayleigh = float(np.real(v @ a @ v))
    delta_n = float(reference_eigenvalues_sym(q)[-1])
    minima = np.array(conj_values)
    return LoanIdentities(
        identity_residual=residual,
        identity_tolerance=tol,
        identity_ok=residual <= tol,
        rayleigh_value=rayleigh,
        rayleigh_ok=abs(rayleigh - avg) <= SPECTRUM_TOL * max(1.0, avg),
        conjugate_minima=minima,
        minima_ok=bool((minima >= delta_n - PROPERTY_TOL).all()),
        inequality_ok=avg <= (c - 1) * (avg - delta_n) + PROPERTY_TOL,
        counts=c - 1,
    )


# one graph's certificates, as certificate_key reads them
Certification = collections.namedtuple("Certification", ["conversion", "steps", "loan", "ok"])


def batch_certification(batch, k: int) -> Certification:
    """Graph k's certificates, read from a CertifiedBatch as cli certify reads row 0."""

    return Certification(
        batch.conversions.certificate(k),
        {label: steps.row(k) for label, steps in batch.steps.items()},
        batch.loan(k),
        batch.ok[k],
    )


def reference_certify_graph(g: Graph, col: Coloring) -> Certification:
    """The left sides -A and -Q and the B = 0 right side A/(c-1) come from the A and Q spectra."""

    a = g.adjacency()
    conversion = reference_build_conversion(a, col)
    deg = np.diag(g.degrees().astype(np.float64))
    spec_a = reference_eigenvalues_sym(a)
    spec_q = reference_eigenvalues_sym(deg + a)
    scaled = a / (col.c - 1)
    steps = {
        "zero": reference_majorization_step(
            a, np.zeros_like(a), col,
            reference_negated(spec_a), spec_a / (col.c - 1),
        ),
        "deg": reference_majorization_step(
            a, deg, col, reference_eigenvalues_sym(deg - a), reference_eigenvalues_sym(deg + scaled)
        ),
        "negdeg": reference_majorization_step(
            a, -deg, col, reference_negated(spec_q), reference_eigenvalues_sym(-deg + scaled)
        ),
    }
    loan = reference_loan_identity(g, col) if g.edge_count >= 1 else None
    ok = all(step.ok for step in steps.values()) and (loan is None or loan.ok)
    return Certification(conversion, steps, loan, ok)


# --------------------------------------------------------------------------
# bit-for-bit comparison


def _bits(x):
    return np.asarray(x, dtype=np.complex128 if np.iscomplexobj(x) else np.float64).tobytes()


def _values_key(values) -> tuple:
    return tuple((v.id, _bits(v.value), v.best_m, v.valid) for v in values)


def _spectra_key(spectra) -> tuple:
    return tuple((kind, _bits(spec)) for kind, spec in spectra.items())


def _sweep_key(column) -> tuple:
    return tuple(None if x is None else _bits(x) for x in column)


def report_key(r: BoundReport) -> tuple:
    # the rows the soundness check reads, then the fields computed on first read
    rows = tuple((_bits(x), m) for x, m in zip(r.value_row.tolist(), r.best_m_row.tolist()))
    return (
        rows, r.graph_id, r.n, r.edge_count,
        _spectra_key(r.spectra), _values_key(r.values), {b.value: r.display(b) for b in BoundId},
    )


def reference_report_key(g: Graph, spectra) -> tuple:
    g6, n, edge_count, spectra, values, display = reference_full_report(g, spectra)
    rows = tuple((_bits(v.value if v.valid else -np.inf), v.best_m) for v in values)
    return rows, g6, n, edge_count, _spectra_key(spectra), _values_key(values), display


def assert_families_match_references(g: Graph, spectra) -> None:
    """Each family function, a batch of one, equals its per-graph reference to the bit."""

    if not g.edge_count:
        return
    a, l, q = (spectra[kind] for kind in (
        GraphMatrixKind.ADJACENCY, GraphMatrixKind.LAPLACIAN, GraphMatrixKind.SIGNLESS_LAPLACIAN
    ))
    negdeg = reference_negdeg_spectrum(g)
    pairs = [
        (classical_bounds(a, l, q), reference_classical_bounds(a, l, q)),
        ([full_report(g).value(BoundId.LOAN)], [reference_loan_bound(g, q)]),
        (generalized_bounds(a, l, q), reference_generalized_bounds(a, l, q)),
        (chain_bounds(a, l, q, g.n), reference_chain_bounds(a, l, q, g.n)),
        (
            [integer_c_search(g, spec_a=a, spec_l=l, spec_negdeg=negdeg)],
            [reference_integer_c_search(g, spec_a=a, spec_l=l, spec_negdeg=negdeg)],
        ),
    ]
    na = spectra.get(GraphMatrixKind.NORMALIZED_ADJACENCY)
    if na is not None:
        pairs.append((normalized_bounds(na), reference_normalized_bounds(na)))
        assert _sweep_key(normalized_sweep(na)) == _sweep_key(reference_normalized_sweep(na))
    for got, expected in pairs:
        assert _values_key(got) == _values_key(expected), emit_graph6(g)
    sweeps = generalized_sweep(a, l, q)
    expected = reference_generalized_sweep(a, l, q)
    assert list(sweeps) == list(expected)
    for bound_id, column in sweeps.items():
        assert _sweep_key(column) == _sweep_key(expected[bound_id]), emit_graph6(g)


def _fields(obj, names) -> tuple:
    return tuple(
        _bits(value) if isinstance(value, (float, np.ndarray)) else value
        for value in (getattr(obj, name) for name in names)
    )


def step_key(step: MajorizationSteps) -> tuple:
    return _fields(step, (
        "identity_residual", "identity_tolerance", "identity_ok", "spectral_margins", "spectral_ok",
    ))


def certificate_key(r: Certification) -> tuple:
    conv = r.conversion
    key = [
        conv.coloring,
        _fields(conv, ("unitaries", "residual", "tolerance")),
        tuple((label, step_key(step)) for label, step in r.steps.items()),
        None if r.loan is None else _fields(r.loan, (
            "identity_residual", "identity_tolerance", "identity_ok",
            "rayleigh_value", "rayleigh_ok", "conjugate_minima", "minima_ok",
            "inequality_ok", "counts",
        )),
        r.ok,
    ]
    return tuple(key)


def _batches(graphs):
    """Per-order chunks of cli.CORPUS_CHUNK graphs, as corpus-check makes them."""

    by_order: dict[int, list[Graph]] = {}
    for g in graphs:
        by_order.setdefault(g.n, []).append(g)
    for group in by_order.values():
        for k in range(0, len(group), cli.CORPUS_CHUNK):
            yield group[k:k + cli.CORPUS_CHUNK]


def assert_batches_match_references(graphs):
    for batch in _batches(graphs):
        cols = [greedy_certificate_coloring(g) for g in batch]
        reports = full_reports(batch)
        certs = certify_graphs(batch, cols)
        for k, (g, col, report) in enumerate(zip(batch, cols, reports)):
            spectra = reference_spectra(g) if g.edge_count else {}
            expected = reference_report_key(g, spectra)
            assert report_key(report) == expected, emit_graph6(g)
            assert report_key(full_report(g)) == expected, emit_graph6(g)
            assert_families_match_references(g, spectra)
            expected = certificate_key(reference_certify_graph(g, col))
            assert certificate_key(batch_certification(certs, k)) == expected, emit_graph6(g)
            alone = certify_graphs([g], [col])
            assert certificate_key(batch_certification(alone, 0)) == expected, emit_graph6(g)


class TestBatchesMatchReferences:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_corpus(self, n):
        assert_batches_match_references(list(all_graphs(n)))

    def test_default_named(self):
        assert_batches_match_references([resolve_graph_input(s) for s in DEFAULT_NAMED])

    def test_random_graphs(self):
        # up to n = 200, where the products of the certificates take BLAS's
        # blocked code paths; there verify_majorization_step also takes a
        # random diagonal B that is no degree matrix
        large = [random_gnp(n, 0.5, 11) for n in (40, 65, 130, 200)]
        graphs = [random_gnp(n, 0.5, s) for n in range(12, 31) for s in (1, 2)]
        assert_batches_match_references(graphs + large)
        rng = np.random.default_rng(11)
        for g in large:
            a = g.adjacency()
            b = np.diag(rng.standard_normal(g.n))
            col = greedy_certificate_coloring(g)
            lhs = reference_eigenvalues_sym(b - a)
            rhs = reference_eigenvalues_sym(b + a / (col.c - 1))
            expected = step_key(reference_majorization_step(a, b, col, lhs, rhs))
            assert step_key(certify.verify_majorization_step(a, b, col)) == expected, g.n

    def test_complete_graphs(self):
        # IntegerC climbs to n here, through every bisection round
        assert_batches_match_references([complete(n) for n in range(10, 21)])

    def test_orthogonality_graphs(self):
        assert_batches_match_references([orthogonality_graph(4), orthogonality_graph(8)])


class TestDerivedSpectraAgree:
    """Deriving -A, -Q and A/(c-1) from the A and Q spectra changes no bound and no verdict.

    The derived spectra can differ from solved ones in the last bits, so
    this compares, on the corpus and the named graphs, the (G, 15) bound
    values, their best m and the certification verdicts against the same
    code with those spectra solved test-side through spectra_batch.
    """

    @staticmethod
    def solve_instead(monkeypatch):
        # -Q for the integer search's B = -D candidate; both sides of every
        # majorization step, -A, -Q and A/(c-1) among them
        integer_c = bounds._integer_c
        steps = certify._majorization_steps

        def integer_c_solved(a, mu, th, negdeg, index):
            d = np.zeros_like(a)
            diag = np.arange(a.shape[1])
            d[:, diag, diag] = a.sum(axis=2)
            return integer_c(a, mu, th, spectra_batch(-(d + a)), index)

        def steps_solved(a, b, lhs, rhs, u, c):
            # b holds the diagonals of B; both sides are solved from a dense B
            dense = np.zeros_like(a)
            diag = np.arange(a.shape[1])
            dense[:, diag, diag] = b
            lhs = spectra_batch(dense - a)
            rhs = spectra_batch(dense + a / (c - 1)[:, None, None])
            return steps(a, b, lhs, rhs, u, c)

        monkeypatch.setattr(bounds, "_integer_c", integer_c_solved)
        monkeypatch.setattr(certify, "_majorization_steps", steps_solved)

    def assert_agree(self, monkeypatch, graphs) -> int:
        """Assert agreement batch by batch; return how many graphs' margins moved."""

        moved = 0
        for batch in _batches(graphs):
            cols = [greedy_certificate_coloring(g) for g in batch]
            runs = []
            for solved in (False, True):
                with monkeypatch.context() as patch:
                    if solved:
                        self.solve_instead(patch)
                    reports = full_reports(batch)
                    certs = certify_graphs(batch, cols)
                values = np.stack([r.value_row for r in reports])
                best_m = np.stack([r.best_m_row for r in reports])
                margins = np.stack([step.spectral_margins for step in certs.steps.values()], axis=1)
                runs.append((values, best_m, certs.ok, margins))
            (values, best_m, ok, margins), (values_s, best_m_s, ok_s, margins_s) = runs
            assert _bits(values) == _bits(values_s)
            assert best_m.tolist() == best_m_s.tolist()
            assert ok.tolist() == ok_s.tolist() and ok.all()
            moved += int((margins != margins_s).any(axis=(1, 2)).sum())
        return moved

    def test_corpus(self, monkeypatch):
        graphs = [g for n in range(1, 8) for g in all_graphs(n)]
        # the solved and derived margins differ in the last bits somewhere,
        # so the two runs really take different paths
        assert self.assert_agree(monkeypatch, graphs) > 0

    def test_default_named(self, monkeypatch):
        self.assert_agree(monkeypatch, [resolve_graph_input(s) for s in DEFAULT_NAMED])


def reference_classical_values(mu, th, dl):
    """(G, 4) classical ratio bounds, each from its own denominator on the first and last entries."""

    mu1 = mu[:, :1]
    denominators = np.concatenate(
        [-mu[:, -1:], th[:, :1] - mu1, mu1 - dl[:, :1] + th[:, :1], mu1 - dl[:, -1:] + th[:, -1:]],
        axis=1,
    )
    values = bounds._ratio_sweep(mu1, denominators)
    values[mu1[:, 0] <= PROPERTY_TOL] = -np.inf
    return values


class TestClassicalIsGeneralizedAtOne:
    """The classical bounds, the m = 1 column of the generalized sweep, equal their own formula.

    _classical_values reads them from the sweep, as full_reports and
    random_table do; reference_classical_values is the four-denominator
    formula it replaced. The two must agree bit for bit.
    """

    @staticmethod
    def assert_m1_column(mu, th, dl):
        classical = bounds._classical_values(mu, bounds._generalized_values(mu, th, dl))
        assert _bits(classical) == _bits(reference_classical_values(mu, th, dl))

    def test_edged_corpus(self):
        # every corpus chunk, the edgeless graphs included
        graphs = [g for n in range(1, 8) for g in all_graphs(n)]
        assert sum(1 for g in graphs if g.edge_count) == 2292
        for batch in _batches(graphs):
            self.assert_m1_column(*report_spectra(batch))

    @pytest.mark.parametrize("n,p", [(50, 0.5), (20, 0.3), (7, 0.3), (60, 0.0005)])
    def test_random_table_chunks(self, n, p):
        # chunks as random_table draws and solves them, edgeless samples included
        for first in range(0, 64, 16):
            a = random_gnp_adjacency(n, p, range(first, first + 16))
            self.assert_m1_column(*bounds.unnormalized_spectra(a))


class TestSolveCounts:
    """Validated eigh calls: A, L and Q once per graph, two right sides per certification.

    The normalized A is solved once per graph too, when a report or a sweep first asks for it.
    """

    @staticmethod
    def count(monkeypatch) -> list:
        solve = np.linalg.eigh
        calls = []

        def counting(a, *args, **kwargs):
            calls.append(np.shape(a))
            return solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        return calls

    def test_corpus_chunk(self, monkeypatch):
        # six solves a chunk: A, L and Q, the normalized A, then B + A/(c-1)
        # for B = D and -D; -A, -Q and A/(c-1) are derived
        chunk, cols = TestCertifiedBatch.chunk()
        calls = self.count(monkeypatch)
        report_spectra(chunk)
        assert len(calls) == 3
        full_reports(chunk)
        assert len(calls) == 4
        certify_graphs(chunk, cols)
        assert len(calls) == 6 and all(shape[0] == len(chunk) for shape in calls[4:])

    def test_certify_graph_alone(self, monkeypatch):
        g = petersen()
        col = greedy_certificate_coloring(g)
        calls = self.count(monkeypatch)
        certify_graphs([g], [col])
        assert calls == [(1, 10, 10)] * 5

    def test_loan_identity_reads_the_report_spectra(self, monkeypatch):
        # delta_n is the smallest Q eigenvalue full_report solved: no
        # spectra_batch call, so no eigh
        g = random_gnp(12, 0.5, 3)
        full_report(g)
        calls = self.count(monkeypatch)
        assert certify.verify_loan_identity(g, greedy_certificate_coloring(g)).ok
        assert calls == []

    @pytest.mark.parametrize(
        "bound,solves",
        [(b.value, 3) for b in bounds._GENERALIZED_IDS] + [("GenNormalizedHoffman", 1)],
    )
    def test_sweep(self, monkeypatch, capsys, bound, solves):
        # A, L and Q for a generalized bound, the normalized A alone for the normalized one
        calls = self.count(monkeypatch)
        assert cli.main(["sweep", "gen:petersen", "--bound", bound]) == 0
        assert calls == [(1, 10, 10)] * solves
        assert len(capsys.readouterr().out.splitlines()) == 11

    def test_second_full_reports_solves_nothing(self, monkeypatch):
        # the graphs keep A, L, Q and the normalized A from the first call
        chunk, _ = TestCertifiedBatch.chunk()
        first = full_reports(chunk)
        calls = self.count(monkeypatch)
        second = full_reports(chunk)
        assert calls == []
        assert [_bits(r.value_row) for r in second] == [_bits(r.value_row) for r in first]

    def test_reading_spectra_solves_nothing(self, monkeypatch):
        chunk, _ = TestCertifiedBatch.chunk()
        reports = full_reports(chunk)
        calls = self.count(monkeypatch)
        spectra = [r.spectra for r in reports]
        assert calls == []
        unnormalized = report_spectra(chunk)
        assert calls == []
        kinds = [
            GraphMatrixKind.ADJACENCY, GraphMatrixKind.LAPLACIAN, GraphMatrixKind.SIGNLESS_LAPLACIAN
        ]
        for k, (g, found) in enumerate(zip(chunk, spectra)):
            if not g.edge_count:
                assert found == {}
                continue
            normal = [GraphMatrixKind.NORMALIZED_ADJACENCY] if g.degrees().all() else []
            assert list(found) == kinds + normal
            for kind, rows in zip(kinds, unnormalized[:, k]):
                assert _bits(found[kind]) == _bits(rows)
            assert all(not spec.flags.writeable for spec in found.values())
        assert any(GraphMatrixKind.NORMALIZED_ADJACENCY in found for found in spectra)
        assert any(found == {} for found in spectra)


# --------------------------------------------------------------------------
# the batched solver


class TestSpectraBatch:
    def test_rows_are_the_single_spectra(self):
        stack = np.stack([random_hermitian(6, s) for s in range(5)])
        rows = spectra_batch(stack)
        assert rows.shape == (5, 6) and rows.flags.c_contiguous
        for matrix, row in zip(stack, rows):
            assert _bits(row) == _bits(reference_eigenvalues_sym(matrix))

    def test_asymmetric_matrix_named(self):
        stack = np.stack([random_hermitian(4, s) for s in range(4)])
        stack[2, 0, 1] += 1.0
        with pytest.raises(DomainError, match="matrix 2 is not exactly symmetric"):
            spectra_batch(stack)

    def test_non_finite_matrix_named(self):
        stack = np.stack([random_hermitian(4, s) for s in range(4)])
        stack[1, 3, 3] = np.nan
        with pytest.raises(DomainError, match="matrix 1 contains non-finite"):
            spectra_batch(stack)

    @pytest.mark.parametrize("shape", [(4, 4), (2, 3, 4), (0, 3, 3), (2, 0, 0)])
    def test_bad_shapes(self, shape):
        with pytest.raises(DomainError):
            spectra_batch(np.zeros(shape))

    def test_failed_residual_names_the_matrix(self, monkeypatch):
        solve = np.linalg.eigh

        def perturbed(a, *args, **kwargs):
            w, v = solve(a, *args, **kwargs)
            w = w.copy()
            w[3, 0] += 1e-3  # eigenpair 0 of matrix 3 no longer holds
            return w, v

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        stack = np.stack([random_hermitian(5, s) for s in range(6)])
        with pytest.raises(NumericError, match=r"^matrix 3: eigenpair residual"):
            spectra_batch(stack)

    def test_nan_eigenvalue_names_the_matrix(self, monkeypatch):
        # a NaN makes every comparison false, so each check must fail on it
        solve = np.linalg.eigh

        def poisoned(a, *args, **kwargs):
            w, v = solve(a, *args, **kwargs)
            w = w.copy()
            w[2, 1] = np.nan
            return w, v

        monkeypatch.setattr(np.linalg, "eigh", poisoned)
        stack = np.stack([random_hermitian(5, s) for s in range(4)])
        with pytest.raises(NumericError, match=r"^matrix 2: eigenpair residual nan"):
            spectra_batch(stack)

    @staticmethod
    def patch_trace(monkeypatch, edit):
        trace = np.trace

        def patched(a, *args, **kwargs):
            t = np.array(trace(a, *args, **kwargs), dtype=np.float64)
            edit(t)
            return t

        monkeypatch.setattr(np, "trace", patched)

    def test_trace_mismatch_names_the_matrix(self, monkeypatch):
        self.patch_trace(monkeypatch, lambda t: t.__setitem__(4, t[4] + 1e-3))
        stack = np.stack([random_hermitian(5, s) for s in range(6)])
        with pytest.raises(NumericError, match=r"^matrix 4: eigenvalue sum disagrees"):
            spectra_batch(stack)

    def test_nan_trace_names_the_matrix(self, monkeypatch):
        # the eigenpairs hold, so only the trace check can catch the NaN
        self.patch_trace(monkeypatch, lambda t: t.__setitem__(1, np.nan))
        stack = np.stack([random_hermitian(5, s) for s in range(3)])
        with pytest.raises(NumericError, match=r"^matrix 1: eigenvalue sum disagrees"):
            spectra_batch(stack)

    def test_non_convergence_is_numeric_error(self, monkeypatch):
        def diverge(a, *args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", diverge)
        stack = np.stack([random_hermitian(4, s) for s in range(2)])
        with pytest.raises(NumericError, match="failed to converge"):
            spectra_batch(stack)

    def test_frobenius_norms_match_numpy(self):
        rng = np.random.default_rng(5)
        for n in (1, 3, 7, 16, 33):
            x = rng.standard_normal((9, n, n)) + 1j * rng.standard_normal((9, n, n))
            for stack in (x, x.real.copy()):
                expected = [np.linalg.norm(m, "fro") for m in stack]
                assert _bits(frobenius_norms(stack)) == _bits(expected)


class TestReportSolveErrors:
    """A failed solve in full_reports names the graph's index in the caller's batch."""

    N = 7

    def graphs(self):
        # edgeless graphs before and between graphs with edges; graph 2 has
        # an isolated vertex, so the normalized stack holds graphs 3 and 5
        g = random_gnp(self.N, 0.5, 3)
        isolated = from_edges(self.N, [(0, 1), (1, 2), (2, 3)])
        edgeless = Graph(self.N)
        graphs = [edgeless, edgeless, isolated, g, edgeless, cycle(self.N)]
        assert all(h.edge_count for h in graphs[2:4] + graphs[5:])
        assert (isolated.degrees() == 0).any() and not (g.degrees() == 0).any()
        return graphs

    @staticmethod
    def poison(monkeypatch, call, k):
        solve = np.linalg.eigh
        calls = []

        def perturbed(a, *args, **kwargs):
            w, v = solve(a, *args, **kwargs)
            if len(calls) == call:
                w = w.copy()
                w[k, 0] += 1e-3
            calls.append(a.shape[0])
            return w, v

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        return calls

    # the stacks in solve order: A, L and Q of report_spectra over all six
    # graphs, the edgeless ones too, then the normalized A over graphs 3
    # and 5; -D - A is derived from Q, not solved
    @pytest.mark.parametrize(
        "call,k,graph", [(0, 3, 3), (1, 5, 5), (2, 0, 0), (2, 2, 2), (3, 1, 5)]
    )
    def test_residual_names_the_graph(self, monkeypatch, call, k, graph):
        calls = self.poison(monkeypatch, call, k)
        with pytest.raises(NumericError, match=rf"^graph {graph}: eigenpair residual"):
            full_reports(self.graphs())
        assert calls[call] == (2 if call == 3 else 6)

    def test_trace_names_the_graph(self, monkeypatch):
        TestSpectraBatch.patch_trace(monkeypatch, lambda t: t.__setitem__(4, t[4] + 1e-3))
        with pytest.raises(NumericError, match=r"^graph 4: eigenvalue sum disagrees"):
            full_reports(self.graphs())

    def test_only_unsolved_graphs_are_solved(self, monkeypatch):
        # a graph keeps the spectra report_spectra solved for it, so a later
        # batch solves only its other graphs and names them in its own order
        graphs = self.graphs()
        full_reports([graphs[3], graphs[5]])
        calls = self.poison(monkeypatch, 0, 3)
        with pytest.raises(NumericError, match=r"^graph 4: eigenpair residual"):
            full_reports(graphs)
        assert calls == [4]


# --------------------------------------------------------------------------
# the integer search's probe stacks


class TestProbeStacks:
    N = 12

    def graphs(self, offset):
        """offset edgeless graphs, then G(12, .5) graphs all below n after B = 0.

        Every graph with an edge is then in the first probe stack, so its
        matrix k is graph offset + k of the batch.
        """

        graphs = [random_gnp(self.N, 0.5, s) for s in range(6)]
        zero = [int(reference_zero_minima(reference_spectra(g)[GraphMatrixKind.ADJACENCY]).max())
                for g in graphs]
        assert all(g.edge_count for g in graphs) and max(zero) < self.N
        return [Graph(self.N)] * offset + graphs, zero

    @pytest.mark.parametrize("offset", [0, 2])
    @pytest.mark.parametrize("edit", ["perturb", "nan"])
    def test_bad_probe_names_graph_and_c(self, monkeypatch, edit, offset):
        graphs, zero = self.graphs(offset)
        k = 3
        solve = np.linalg.eigvalsh

        def poisoned(a, *args, **kwargs):
            w = solve(a, *args, **kwargs).copy()
            if edit == "nan":
                w[k, 0] = np.nan
            else:
                w[k, -1] += 1e-3
            return w

        monkeypatch.setattr(np.linalg, "eigvalsh", poisoned)
        with pytest.raises(
            NumericError, match=rf"^graph {offset + k}: eigensolve at c={zero[k]} disagrees"
        ):
            full_reports(graphs)

    @pytest.mark.parametrize("extra_kind", ["random", "complete"])
    def test_lockstep_bisection_matches_reference(self, extra_kind):
        # diagonal candidates B through the stacked _raise_best from a
        # running maximum of 2. On K_n with B = tI every c < n fails at
        # m = 1, so each graph climbs to n. Some random B have their lowest
        # failing m at c = 2 pass before the bisection ends, so best_m must
        # come from its last failing probe
        n = 10
        rng = np.random.default_rng(n)
        if extra_kind == "random":
            graphs = [random_gnp(n, 0.8, s) for s in range(40)]
            diagonals = 4.0 * rng.standard_normal((len(graphs), n))
        else:
            graphs = [complete(n)] * 40
            diagonals = np.repeat(rng.standard_normal((len(graphs), 1)), n, axis=1)
        a = np.stack([g.adjacency() for g in graphs])
        b = np.stack([np.diag(row) for row in diagonals])
        lhs = np.stack([reference_eigenvalues_sym(bk - ak) for bk, ak in zip(b, a)])
        best, best_m = np.full(len(graphs), 2), np.ones(len(graphs), dtype=np.int64)
        got = bounds._raise_best(diagonals, a, lhs, best, best_m, np.arange(len(graphs)))
        expected = [reference_raise_best(bk, ak, lk, 2, 1) for bk, ak, lk in zip(b, a, lhs)]
        assert list(zip(got[0].tolist(), got[1].tolist())) == expected
        first_failing = [
            int(np.argmin(reference_probe(bk, ak, np.cumsum(lk), 2))) + 1
            for bk, ak, lk in zip(b, a, lhs)
        ]
        moved = [m != first for (_, m), first in zip(expected, first_failing)]
        assert any(moved) == (extra_kind == "random")

    @pytest.mark.parametrize("offset", [0, 2])
    def test_zero_minima_slack_names_the_graph(self, monkeypatch, offset):
        graphs, _ = self.graphs(offset)
        k = 4
        solve = bounds.spectra_batch
        calls = []

        def shifted(stack):
            w = solve(stack)
            if not calls:  # the adjacency stack of the whole batch: lift graph offset + k's
                w[offset + k] += 1.0
            calls.append(stack.shape)
            return w

        monkeypatch.setattr(bounds, "spectra_batch", shifted)
        with pytest.raises(NumericError, match=rf"^graph {offset + k}: adjacency spectrum"):
            full_reports(graphs)


# --------------------------------------------------------------------------
# batch semantics


class TestInPlaceBuffersAgreeExactly:
    """The in-place forms of the matrix builders, the residual and the probe stack.

    Each is compared bit for bit with the expression it replaced, on every
    corpus chunk stack and on G(300, .5), whose products take BLAS's
    blocked code paths.
    """

    @staticmethod
    def stacks():
        """(adjacency stack, its graphs) per corpus chunk, then G(300, .5) alone."""

        graphs = [g for n in range(1, 8) for g in all_graphs(n)]
        for batch in itertools.chain(_batches(graphs), [[random_gnp(300, 0.5, 11)]]):
            yield np.stack([g.adjacency() for g in batch]), batch

    @staticmethod
    def bits(x: np.ndarray) -> tuple:
        return x.shape, x.dtype.str, x.tobytes()

    @staticmethod
    def old_matrices(a: np.ndarray) -> list[np.ndarray]:
        """A, L, Q and (where no vertex is isolated) normalized A, as separate arrays."""

        lap = np.subtract(0.0, a)
        diag = np.arange(a.shape[1])
        lap[:, diag, diag] = a.sum(axis=2)
        out = [a, lap, np.abs(lap)]
        deg = a.sum(axis=2)
        normal = deg.all(axis=1)
        if normal.any():
            x = 1.0 / np.sqrt(deg[normal])
            out.append(a[normal] * (x[:, :, None] * x[:, None, :]))
        return out

    def test_builders_match_the_old_expressions(self):
        for a, _ in self.stacks():
            expected = self.old_matrices(a)
            built = [m.copy() for m in unnormalized_stacks(a.copy())]
            normal = a.sum(axis=2).all(axis=1)
            if normal.any():
                built.append(normalized_adjacency_stack(a[normal]))
            assert list(map(self.bits, built)) == list(map(self.bits, expected))

    def test_residuals_match_the_old_expression(self):
        for a, _ in self.stacks():
            for m in self.old_matrices(a):
                w, v = np.linalg.eigh(m)
                old = np.linalg.norm(m @ v - v * w[:, None, :], axis=1).max(axis=1)
                assert self.bits(linalg._worst_residuals(m, w, v)) == self.bits(old)

    def test_probe_stacks_match_the_old_expression(self, monkeypatch):
        seen = []

        def recorded(stack):
            seen.append(stack.copy())
            return np.zeros(stack.shape[:2])

        monkeypatch.setattr(bounds, "eigenvalues_batch", recorded)
        for a, graphs in self.stacks():
            n = a.shape[1]
            deg = np.zeros_like(a)
            diag = np.arange(n)
            deg[:, diag, diag] = [g.degrees() for g in graphs]
            index = np.arange(len(a))
            for c in {2, 3, max(2, n - 1), max(2, n)}:
                cs = np.full(len(a), c)
                scaled = a / (cs - 1)[:, None, None]
                for sign in (1, -1):
                    seen.clear()
                    bounds._probe(sign * a.sum(axis=2), a, np.zeros((len(a), n)), cs, index)
                    assert self.bits(seen[0]) == self.bits(scaled + sign * deg), (n, c, sign)


class TestBatchInputs:
    def test_mixed_orders_rejected(self):
        graphs = [cycle(5), cycle(6)]
        with pytest.raises(DomainError, match="one order"):
            full_reports(graphs)
        with pytest.raises(DomainError, match="one order"):
            certify_graphs(graphs, [greedy_certificate_coloring(g) for g in graphs])

    def test_coloring_count_must_match(self):
        with pytest.raises(DomainError, match="colorings"):
            certify_graphs([cycle(5), cycle(5)], [greedy_certificate_coloring(cycle(5))])

    def test_first_improper_coloring_is_reported(self):
        graphs = [cycle(4), complete(4), cycle(4)]
        cols = [
            Coloring((0, 1, 0, 1), 2),
            Coloring((0, 1, 2, 2), 3),
            Coloring((0, 0, 1, 1), 2),
        ]
        with pytest.raises(DomainError) as info:
            certify_graphs(graphs, cols)
        assert str(info.value) == "improper coloring: edge (2, 3) has both endpoints colored 2"

    def test_edgeless_and_edged_graphs_mix(self):
        graphs = [Graph(4), cycle(4), Graph(4)]
        reports = full_reports(graphs)
        assert [r.edge_count for r in reports] == [0, 4, 0]
        assert reports[0].spectra == {} and reports[1].value(BoundId.INTEGER_C).value == 2
        certs = certify_graphs(graphs, [greedy_certificate_coloring(g) for g in graphs])
        assert [certs.loan(k) is None for k in range(3)] == [True, False, True]
        assert certs.ok.all()


class TestCertifiedBatch:
    """certify_graphs on a corpus chunk: verdict arrays first, rows on first read."""

    @staticmethod
    def chunk():
        chunk = list(itertools.islice(all_graphs(7), cli.CORPUS_CHUNK))
        return chunk, [greedy_certificate_coloring(g) for g in chunk]

    def test_rows_built_on_first_read(self, monkeypatch):
        built = collections.Counter()
        row = certify._Rows.row

        def counting_row(self, k):
            built[type(self).__name__] += 1
            return row(self, k)

        monkeypatch.setattr(certify._Rows, "row", counting_row)
        chunk, cols = self.chunk()
        assert cli._check_chunk(chunk) == (0, 0)
        full_reports(chunk)
        batch = certify_graphs(chunk, cols)
        assert batch.ok.shape == batch.conversions.residual.shape == (len(chunk),)
        assert batch.ok.all() and not built
        k = 5
        conversion = batch.conversions.certificate(k)
        assert built == {"Conversions": 1}
        steps = [step.row(k) for step in batch.steps.values()]
        assert built == {"Conversions": 1, "MajorizationSteps": 3}
        loan = batch.loan(k)
        expected = {"Conversions": 1, "MajorizationSteps": 3, "LoanIdentities": 1}
        assert built == expected
        # a row's fields are numpy scalars and arrays: np.bool_ is not a bool
        for one in steps + [loan]:
            assert all(isinstance(getattr(one, f.name), (np.generic, np.ndarray))
                       for f in dataclasses.fields(one))
        assert loan.conjugate_minima.shape == (cols[k].c - 1,)
        assert conversion.coloring == cols[k]
        assert conversion.unitaries.shape == (cols[k].c, chunk[k].n)

    def test_rows_equal_batches_of_one(self):
        # row k of the chunk, and graph k's certificate, equal row 0 of the
        # graph certified alone bit for bit, and both equal the reference
        chunk, cols = self.chunk()
        batch = certify_graphs(chunk, cols)
        for k, (g, col) in enumerate(zip(chunk, cols)):
            expected = certificate_key(batch_certification(certify_graphs([g], [col]), 0))
            assert certificate_key(batch_certification(batch, k)) == expected, emit_graph6(g)
            assert certificate_key(reference_certify_graph(g, col)) == expected, emit_graph6(g)

    @pytest.mark.parametrize("where", ["right side", "conjugation term"])
    def test_nan_fails_only_its_graph(self, monkeypatch, where):
        chunk, cols = self.chunk()
        j = 40
        calls = []
        if where == "right side":
            # the spectra_batch calls of certify_graphs: B + A/(c-1) for
            # B = D and -D; the largest eigenvalue of one graph's B = D
            # right side is NaN, so every margin is
            solve = certify.spectra_batch

            def poisoned(stack):
                w = solve(stack)
                calls.append(len(stack))
                if len(calls) % 2 == 1:
                    w[j, 0] = np.nan
                return w

            monkeypatch.setattr(certify, "spectra_batch", poisoned)
            bad = j
        else:
            # the conjugation sums of certify_graphs: the conversion, the three
            # steps, then the loan identity over the whole chunk, whose first
            # term is NaN in one entry of one graph
            conjugations = certify._conjugations

            def poisoned(x, u, counts):
                calls.append(len(x))
                for s, term in enumerate(conjugations(x, u, counts)):
                    if len(calls) % 5 == 0 and s == 0:
                        term[j, 0, 1] = np.nan
                    yield term

            monkeypatch.setattr(certify, "_conjugations", poisoned)
            bad = j
        assert chunk[bad].edge_count
        batch = certify_graphs(chunk, cols)
        assert np.flatnonzero(~batch.ok).tolist() == [bad]
        loan = batch.loan(bad)
        if where == "right side":
            step = batch.steps["deg"].row(bad)
            assert not step.ok and not step.spectral_ok and np.isnan(step.spectral_margins).all()
            assert loan.ok
        else:
            assert not loan.identity_ok and not loan.minima_ok
            assert loan.rayleigh_ok and loan.inequality_ok
            assert all(steps.ok[bad] for steps in batch.steps.values())
        assert cli._check_chunk(chunk) == (0, 1)


class TestCorpusCheckBreaches:
    def test_breaches_are_counted_per_graph(self, monkeypatch, capsys):
        # a zero tolerance fails every graph whose conversion residual is
        # not exactly zero; a breach must not hide the rest of its chunk
        monkeypatch.setattr("spectral_chroma.certify.CONVERSION_TOL", 0.0)
        expected = []
        for n in range(1, 6):
            breaches = sum(
                conversion_residual(g, greedy_certificate_coloring(g)) > 0.0
                for g in all_graphs(n)
            )
            expected.append(breaches)
        assert 0 < sum(expected) < sum(1 for n in range(1, 6) for _ in all_graphs(n))
        code = cli.main(["corpus-check", "--max-n", "5"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 3
        got = [int(line.rsplit("=", 1)[1]) for line in lines[:5]]
        assert got == expected

