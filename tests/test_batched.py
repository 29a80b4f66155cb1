"""Batched spectra, reports and certificates against per-matrix references.

The reference_* functions are test-only copies of the per-matrix solver
and the per-graph report and certification bodies the batched code
replaced: one validated eigh per matrix, properness checked by every
step, and the majorization margins as a loop of ky_fan calls. The
batched results must equal them bit for bit.
"""

import hashlib

import numpy as np
import pytest

from spectral_chroma import cli
from spectral_chroma.bounds import (
    BoundId,
    BoundReport,
    _display_map,
    chain_bounds,
    classical_bounds,
    full_report,
    full_reports,
    generalized_bounds,
    integer_c_search,
    invalid_bound,
    loan_bound,
    normalized_bounds,
)
from spectral_chroma.certify import (
    CONVERSION_TOL,
    Coloring,
    ColoringCertificate,
    GraphCertificationReport,
    LoanIdentityReport,
    MajorizationStepReport,
    certify_graph,
    certify_graphs,
    conversion_residual,
    conversion_unitaries,
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
    random_gnp,
)
from spectral_chroma.linalg import (
    PROPERTY_TOL,
    SPECTRUM_TOL,
    Spectrum,
    frobenius_norms,
    ky_fan,
    random_hermitian,
    spectra_batch,
)
from spectral_chroma.oracle import all_graphs

# --------------------------------------------------------------------------
# references


def reference_eigenvalues_sym(a) -> Spectrum:
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
    return Spectrum(w[::-1])


def reference_full_report(g: Graph) -> BoundReport:
    g6 = emit_graph6(g)
    digest = hashlib.sha256(g6.encode("ascii")).hexdigest()[:16]
    if g.edge_count == 0:
        values = tuple(invalid_bound(bound_id) for bound_id in BoundId)
        return BoundReport(g6, digest, g.n, 0, {}, values, _display_map(values))

    def spectrum(kind):
        return reference_eigenvalues_sym(build_matrix(g, kind))

    spec_a = spectrum(GraphMatrixKind.ADJACENCY)
    spec_l = spectrum(GraphMatrixKind.LAPLACIAN)
    spec_q = spectrum(GraphMatrixKind.SIGNLESS_LAPLACIAN)
    spectra = {
        GraphMatrixKind.ADJACENCY: spec_a,
        GraphMatrixKind.LAPLACIAN: spec_l,
        GraphMatrixKind.SIGNLESS_LAPLACIAN: spec_q,
    }
    values = list(classical_bounds(spec_a, spec_l, spec_q))
    values.append(loan_bound(g, spec_q))
    values.extend(generalized_bounds(spec_a, spec_l, spec_q))
    if g.has_isolated_vertex():
        values.append(invalid_bound(BoundId.NORMALIZED_HOFFMAN))
        values.append(invalid_bound(BoundId.GEN_NORMALIZED_HOFFMAN))
    else:
        spec_na = spectrum(GraphMatrixKind.NORMALIZED_ADJACENCY)
        spectra[GraphMatrixKind.NORMALIZED_ADJACENCY] = spec_na
        values.extend(normalized_bounds(spec_na))
    values.extend(chain_bounds(spec_a, spec_l, spec_q, g.n))
    # -D - A as -D in place, then minus A: -Q to the bit, signed zeros included
    d = np.diag(g.degrees().astype(np.float64))
    np.negative(d, out=d)
    spec_negdeg = reference_eigenvalues_sym(d - g.adjacency())
    values.append(
        integer_c_search(g, spec_a=spec_a, spec_l=spec_l, spec_negdeg=spec_negdeg)
    )
    return BoundReport(
        g6, digest, g.n, g.edge_count, spectra, tuple(values), _display_map(values)
    )


def reference_check_proper(a, col: Coloring) -> None:
    if a.shape[0] != col.n:
        raise DomainError(f"coloring covers {col.n} vertices, graph has {a.shape[0]}")
    rows, cols = np.nonzero(np.triu(a, 1))
    colors = np.asarray(col.colors)
    clash = colors[rows] == colors[cols]
    if clash.any():
        first = clash.argmax()
        k, l = int(rows[first]), int(cols[first])
        raise DomainError(
            f"improper coloring: edge ({k}, {l}) has both endpoints colored {col.colors[k]}"
        )


def reference_build_conversion(a, col: Coloring) -> ColoringCertificate:
    if col.c < 2:
        raise DomainError(f"conversion needs at least 2 colors, got c={col.c}")
    reference_check_proper(a, col)
    diags = conversion_unitaries(col)
    total = np.zeros(a.shape, dtype=np.complex128)
    for s in range(col.c):
        u = diags[s]
        total += np.conj(u)[:, None] * a * u[None, :]
    residual = float(np.linalg.norm(total, "fro"))
    tol = CONVERSION_TOL * col.c * max(1.0, float(np.linalg.norm(a, "fro")))
    if residual > tol:
        raise VerificationError(f"conversion residual {residual:.3e} exceeds {tol:.3e}")
    return ColoringCertificate(col, diags, residual, tol)


def reference_majorization_step(a, b, col: Coloring) -> MajorizationStepReport:
    reference_check_proper(a, col)
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
    lhs = reference_eigenvalues_sym(x)
    rhs = reference_eigenvalues_sym(b + a / (c - 1))
    margins = np.array([ky_fan(lhs, m) - ky_fan(rhs, m) for m in range(1, n + 1)])
    return MajorizationStepReport(
        identity_residual=residual,
        identity_tolerance=tol,
        identity_ok=residual <= tol,
        spectral_margins=margins,
        spectral_ok=bool((margins >= -PROPERTY_TOL).all()),
    )


def reference_loan_identity(g: Graph, col: Coloring) -> LoanIdentityReport:
    a = g.adjacency()
    reference_check_proper(a, col)
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
    delta_n = float(
        reference_eigenvalues_sym(q).values[-1]
    )
    minima = np.array(conj_values)
    return LoanIdentityReport(
        identity_residual=residual,
        identity_tolerance=tol,
        identity_ok=residual <= tol,
        rayleigh_value=rayleigh,
        rayleigh_ok=abs(rayleigh - avg) <= SPECTRUM_TOL * max(1.0, avg),
        conjugate_minima=minima,
        minima_ok=bool((minima >= delta_n - PROPERTY_TOL).all()),
        inequality_ok=avg <= (c - 1) * (avg - delta_n) + PROPERTY_TOL,
    )


def reference_certify_graph(g: Graph, col: Coloring) -> GraphCertificationReport:
    a = g.adjacency()
    conversion = reference_build_conversion(a, col)
    deg = np.diag(g.degrees().astype(np.float64))
    steps = {
        label: reference_majorization_step(a, b, col)
        for label, b in (("zero", np.zeros_like(a)), ("deg", deg), ("negdeg", -deg))
    }
    loan = reference_loan_identity(g, col) if g.edge_count >= 1 else None
    return GraphCertificationReport(conversion, steps, loan)


# --------------------------------------------------------------------------
# bit-for-bit comparison


def _bits(x):
    return np.asarray(x, dtype=np.complex128 if np.iscomplexobj(x) else np.float64).tobytes()


def report_key(r: BoundReport) -> tuple:
    spectra = tuple((kind, _bits(spec.values)) for kind, spec in r.spectra.items())
    values = tuple((v.id, _bits(v.value), v.best_m, v.valid) for v in r.values)
    return (r.graph_id, r.graph_hash, r.n, r.edge_count, spectra, values, r.rounded_display)


def _fields(obj, names) -> tuple:
    return tuple(
        _bits(value) if isinstance(value, (float, np.ndarray)) else value
        for value in (getattr(obj, name) for name in names)
    )


def certificate_key(r: GraphCertificationReport) -> tuple:
    conv = r.conversion
    key = [
        conv.coloring,
        _fields(conv, ("unitaries", "residual", "tolerance")),
        tuple(
            (label, _fields(step, (
                "identity_residual", "identity_tolerance", "identity_ok",
                "spectral_margins", "spectral_ok",
            )))
            for label, step in r.steps.items()
        ),
        None if r.loan is None else _fields(r.loan, (
            "identity_residual", "identity_tolerance", "identity_ok",
            "rayleigh_value", "rayleigh_ok", "conjugate_minima", "minima_ok",
            "inequality_ok",
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
        for g, col, report, cert in zip(batch, cols, reports, certs):
            expected = report_key(reference_full_report(g))
            assert report_key(report) == expected, emit_graph6(g)
            assert report_key(full_report(g)) == expected, emit_graph6(g)
            expected = certificate_key(reference_certify_graph(g, col))
            assert certificate_key(cert) == expected, emit_graph6(g)
            assert certificate_key(certify_graph(g, col)) == expected, emit_graph6(g)


class TestBatchesMatchReferences:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_corpus(self, n):
        assert_batches_match_references(list(all_graphs(n)))

    def test_default_named(self):
        assert_batches_match_references([resolve_graph_input(s) for s in DEFAULT_NAMED])

    def test_random_graphs(self):
        graphs = [random_gnp(n, 0.5, s) for n in range(12, 31) for s in (1, 2)]
        assert_batches_match_references(graphs)


# --------------------------------------------------------------------------
# the batched solver


class TestSpectraBatch:
    def test_rows_are_the_single_spectra(self):
        stack = np.stack([random_hermitian(6, s) for s in range(5)])
        rows = spectra_batch(stack)
        assert rows.shape == (5, 6) and rows.flags.c_contiguous
        for matrix, row in zip(stack, rows):
            assert _bits(row) == _bits(reference_eigenvalues_sym(matrix).values)

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


# --------------------------------------------------------------------------
# batch semantics


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
        assert [c.loan is None for c in certs] == [True, False, True]
        assert all(c.ok for c in certs)


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

