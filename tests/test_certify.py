"""Conversion certificates, identity checks, representations, and pinching.

The representations and the pinching lemma are the paper's, checked
with the test-side code of paper_lemmas.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import from_edges
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from paper_lemmas import (
    OrthoRepresentation,
    PinchingInstance,
    check_ortho_representation,
    coloring_projectors,
    coloring_representation,
    conversion_residual,
    ky_fan,
    pinch,
    pinch_via_unitaries,
    pinching_corollary_check,
    random_hermitian,
)

from spectral_chroma import certify
from spectral_chroma.bounds import full_report, report_spectra
from spectral_chroma.certify import (
    build_conversion,
    certify_graphs,
    greedy_certificate_coloring,
    verify_loan_identity,
    verify_majorization_step,
)
from spectral_chroma.errors import DomainError, NumericError, VerificationError
from spectral_chroma.graphs import (
    Graph,
    GraphMatrixKind,
    build_matrix,
    complete,
    complete_bipartite,
    cycle,
    petersen,
    random_gnp,
)
from spectral_chroma.linalg import eigenvalues_sym
from spectral_chroma.oracle import Coloring, chromatic_number, greedy_coloring

seeds = st.integers(0, 2**32 - 1)


def adjacency(g):
    return build_matrix(g, GraphMatrixKind.ADJACENCY)


class TestColoring:
    def test_color_out_of_palette(self):
        with pytest.raises(DomainError):
            Coloring((0, 2), 2)

    def test_with_palette(self):
        col = Coloring((0, 1), 2).with_palette(4)
        assert col.c == 4 and col.colors == (0, 1)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            Coloring((), 1)

    def test_improper_coloring_names_edge(self):
        with pytest.raises(DomainError, match=r"\(0, 1\)"):
            build_conversion(adjacency(complete(3)), Coloring((0, 0, 1), 2))

    def test_single_color_refused_first_by_every_entry_point(self):
        # the palette is checked before properness, though the edge is monochromatic
        g, col = complete(2), Coloring((0, 0), 1)
        calls = [
            ("conversion", lambda: build_conversion(g, col)),
            ("conversion", lambda: certify_graphs([g], [col])),
            ("identity", lambda: verify_majorization_step(g.adjacency(), np.zeros((2, 2)), col)),
            ("identity", lambda: verify_loan_identity(g, col)),
        ]
        for what, call in calls:
            with pytest.raises(DomainError) as info:
                call()
            assert str(info.value) == f"{what} needs at least 2 colors, got c=1"

    def test_improper_coloring_names_first_bad_edge_in_row_major_order(self):
        # both (0, 3) and (1, 2) are monochromatic; row-major order meets (0, 3) first
        g = from_edges(4, [(1, 2), (0, 3), (0, 1)])
        for a in (g, adjacency(g)):
            with pytest.raises(DomainError) as info:
                build_conversion(a, Coloring((0, 1, 1, 0), 2))
            assert str(info.value) == (
                "improper coloring: edge (0, 3) has both endpoints colored 0"
            )


class TestConversion:
    def test_k2_hand_computation(self):
        a = adjacency(complete(2))
        cert = build_conversion(a, Coloring((0, 1), 2))
        assert np.allclose(cert.unitaries[0], [1.0, -1.0], atol=1e-12)
        assert np.allclose(cert.unitaries[1], [1.0, 1.0], atol=1e-12)
        u1 = np.diag(cert.unitaries[0])
        assert np.abs(u1.conj().T @ a @ u1 + a).max() <= 1e-12

    def test_last_unitary_is_identity(self):
        col = Coloring((0, 1, 2, 0), 3)
        diags = build_conversion(np.zeros((4, 4)), col).unitaries
        assert np.allclose(diags[-1], 1.0, atol=1e-12)

    def test_final_unitary_not_identity_rejected(self, monkeypatch):
        # U_c = -I leaves every conjugate U_c^dag A U_c, and so the residual,
        # unchanged: only the final-unitary check sees it
        unitary_stack = certify._unitary_stack

        def negated_final(cols, c):
            u = unitary_stack(cols, c)
            u[np.arange(len(cols)), c - 1] = -1.0
            return u

        monkeypatch.setattr(certify, "_unitary_stack", negated_final)
        g = petersen()
        col = greedy_coloring(g)
        with pytest.raises(VerificationError, match="^final conversion unitary is not the identity$"):
            build_conversion(g, col)
        conversions = certify_graphs([g], [col]).conversions
        assert conversions.residual_ok.tolist() == [True]
        assert conversions.ok.tolist() == [False]

    def test_nan_residual_rejected(self, monkeypatch):
        monkeypatch.setattr(
            certify, "_conjugation_sum", lambda a, diags, c: np.full(a.shape, np.nan)
        )
        with pytest.raises(VerificationError, match="residual nan"):
            build_conversion(complete(2), Coloring((0, 1), 2))

    def test_residual_tiny_for_proper(self):
        g = petersen()
        cert = build_conversion(adjacency(g), greedy_coloring(g))
        assert cert.residual < 1e-10

    def test_improper_coloring_rejected(self):
        with pytest.raises(DomainError, match="improper"):
            build_conversion(adjacency(complete(3)), Coloring((0, 0, 1), 2))

    @pytest.mark.parametrize(
        "a, vertex",
        [
            (np.array([[1.0, 1.0], [1.0, 0.0]]), 0),
            (np.array([[0.0, 1.0, 0.0], [1.0, -1.0, 1.0], [0.0, 1.0, 2.0]]), 1),
        ],
        ids=["loop-at-0", "loops-at-1-and-2"],
    )
    def test_nonzero_diagonal_refused(self, a, vertex):
        # not an adjacency matrix: bad input, not a failed verification
        col = Coloring((0, 1, 0)[:len(a)], 2)
        calls = [
            lambda: build_conversion(a, col),
            lambda: verify_majorization_step(a, np.zeros(a.shape), col),
        ]
        for call in calls:
            with pytest.raises(DomainError, match=f"nonzero diagonal entry at vertex {vertex}$"):
                call()

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_adjacency_refused(self, bad):
        # bad input, refused before any arithmetic warns or any check names symmetry
        a = np.array([[0.0, bad], [bad, 0.0]])
        col = Coloring((0, 1), 2)
        calls = [
            lambda: build_conversion(a, col),
            lambda: verify_majorization_step(a, np.zeros((2, 2)), col),
        ]
        for call in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError, match="contains non-finite entries"):
                    call()

    def test_improper_residual_large(self):
        # shared color on an edge leaves a coefficient-c entry pair
        r = conversion_residual(adjacency(complete(3)), Coloring((0, 0, 1), 2))
        assert r >= 2.0

    def test_single_color_rejected(self):
        a = np.zeros((3, 3))
        with pytest.raises(DomainError, match="at least 2"):
            build_conversion(a, Coloring((0, 0, 0), 1))

    @seed(11)
    @given(st.integers(2, 9), seeds)
    @settings(max_examples=60, deadline=None)
    def test_any_greedy_coloring_certifies(self, n, s):
        g = random_gnp(n, 0.5, s)
        col = greedy_coloring(g)
        if col.c < 2:
            col = col.with_palette(2)
        cert = build_conversion(adjacency(g), col)
        assert cert.residual <= cert.tolerance


class TestCertifyGraph:
    """certify_graphs on one graph: a batch of one, read as its row 0."""

    def test_petersen_greedy(self):
        g = petersen()
        batch = certify_graphs([g], [greedy_coloring(g)])
        assert batch.ok.tolist() == [True]
        assert list(batch.steps) == ["zero", "deg", "negdeg"]
        assert all(steps.row(0).ok for steps in batch.steps.values())
        assert batch.loan(0) is not None and batch.loan(0).ok
        cert = batch.conversions.certificate(0)
        assert cert.residual <= cert.tolerance

    def test_single_vertex_widened_palette(self):
        g = Graph(1)
        col = greedy_certificate_coloring(g)
        assert col.c == 2
        batch = certify_graphs([g], [col])
        assert batch.ok.tolist() == [True]
        # the batch's loan identity covers the edgeless graph too, where
        # every term is zero and every check holds; its row reads as None
        loans = batch.loans
        assert loans.ok.tolist() == [True] and loans.identity_residual.tolist() == [0.0]
        assert batch.loan(0) is None

    def test_improper_coloring_rejected(self):
        with pytest.raises(DomainError, match="improper"):
            certify_graphs([complete(3)], [Coloring((0, 0, 1), 2)])

    @pytest.mark.parametrize("call,label", [(0, "deg"), (1, "negdeg")])
    def test_failed_solve_names_graph_and_step(self, monkeypatch, call, label):
        # the report spectra are solved first, so the only stacks solved
        # are the right sides for B = D, then B = -D
        graphs = [random_gnp(8, 0.5, s) for s in range(5)]
        cols = [greedy_certificate_coloring(g) for g in graphs]
        report_spectra(graphs)
        solve = np.linalg.eigh
        calls = []

        def perturbed(a, *args, **kwargs):
            w, v = solve(a, *args, **kwargs)
            if len(calls) == call:
                w = w.copy()
                w[3, 0] += 1e-3
            calls.append(len(a))
            return w, v

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        with pytest.raises(
            NumericError, match=rf"^graph 3 majorization B={label}: eigenpair residual"
        ):
            certify_graphs(graphs, cols)
        assert calls[:call + 1] == [5] * (call + 1)

    def test_palette_wider_than_n_refused_before_any_unitary(self, monkeypatch):
        # the CLI's --colors rule and text, for a library caller too; a
        # palette of max(2, n) is still certified
        def unbuilt(cols):
            raise AssertionError("unitaries built")

        g = petersen()
        with monkeypatch.context() as patched:
            patched.setattr(certify, "_unitary_stack", unbuilt)
            for c in (11, 200000):
                with pytest.raises(DomainError) as info:
                    certify_graphs([cycle(10), g], [greedy_coloring(cycle(10)),
                                                    Coloring(tuple(range(10)), c)])
                assert str(info.value) == f"{c} colors exceed the graph's 10 vertices"
        assert certify_graphs([g], [Coloring(tuple(range(10)), 10)]).ok.tolist() == [True]
        assert certify_graphs([Graph(1)], [Coloring((0,), 2)]).ok.tolist() == [True]
        with pytest.raises(DomainError, match="^3 colors exceed the graph's 1 vertices$"):
            certify_graphs([Graph(1)], [Coloring((0,), 3)])

    def test_no_dense_matrix_kept_on_the_graph(self):
        g = random_gnp(40, 0.5, 2)
        certify_graphs([g], [greedy_certificate_coloring(g)])
        assert not [v for v in vars(g).values() if getattr(v, "shape", None) == (g.n, g.n)]

    def test_memory_is_quadratic(self):
        # full_report has solved the spectra, and every B is its diagonal:
        # each certificate holds A, at most one of B - A and Q, and a
        # complex sum and term, six n x n float64 in all. Measured peak:
        # 7.58 n^2 float64 with numpy 2.4.6, so a numpy whose ufuncs or
        # eigh add an n x n temporary can fail this without a change here
        n = 200
        g = random_gnp(n, 0.5, 11)
        full_report(g)
        col = greedy_coloring(g)
        tracemalloc.start()
        try:
            certify_graphs([g], [col])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 9 * n * n * 8


class TestMajorizationStep:
    def test_bipartite_sign_flip(self):
        g = complete_bipartite(3, 4)
        col = chromatic_number(g).witness
        rep = verify_majorization_step(adjacency(g), np.zeros((7, 7)), col)
        assert rep.ok

    def test_petersen_with_degree_matrix(self):
        g = petersen()
        col = chromatic_number(g).witness
        assert col.c == 3
        b = np.diag(g.degrees().astype(float))
        rep = verify_majorization_step(adjacency(g), b, col)
        assert rep.identity_ok and rep.spectral_ok

    def test_m_equal_n_margin_is_not_a_verdict(self, monkeypatch):
        # at m = n both sums are tr B, so its margin would be rounding: a
        # right side whose smallest eigenvalue is 2e-8 high moves only that
        # margin, which is not recorded, and the step still holds
        g = petersen()
        col = chromatic_number(g).witness
        unlifted = certify_graphs([g], [col]).steps["deg"].row(0).spectral_margins
        solve = certify.spectra_batch

        def lifted(stack):
            w = solve(stack)
            w[:, -1] += 2e-8
            return w

        monkeypatch.setattr(certify, "spectra_batch", lifted)
        batch = certify_graphs([g], [col])
        margins = batch.steps["deg"].row(0).spectral_margins
        assert margins.shape == (g.n - 1,) and np.array_equal(margins, unlifted)
        assert margins.min() >= -certify.PROPERTY_TOL
        assert batch.ok.tolist() == [True]

    def test_non_diagonal_b_rejected(self):
        g = cycle(4)
        b = np.ones((4, 4))
        with pytest.raises(DomainError, match="diagonal"):
            verify_majorization_step(adjacency(g), b, chromatic_number(g).witness)

    def test_improper_rejected(self):
        g = complete(3)
        with pytest.raises(DomainError, match="improper"):
            verify_majorization_step(adjacency(g), np.zeros((3, 3)), Coloring((0, 0, 1), 2))

    @seed(12)
    @given(st.integers(2, 8), seeds, st.sampled_from(["zero", "deg", "negdeg"]))
    @settings(max_examples=80, deadline=None)
    def test_random_graphs_all_b_choices(self, n, s, which):
        g = random_gnp(n, 0.5, s)
        if g.edge_count == 0:
            return
        col = greedy_coloring(g)
        if col.c < 2:
            col = col.with_palette(2)
        d = np.diag(g.degrees().astype(float))
        b = {"zero": np.zeros((n, n)), "deg": d, "negdeg": -d}[which]
        rep = verify_majorization_step(adjacency(g), b, col)
        assert rep.ok


class TestLoanIdentity:
    def test_k2_hand_values(self):
        g = complete(2)
        rep = verify_loan_identity(g, Coloring((0, 1), 2))
        assert rep.ok
        assert abs(rep.rayleigh_value - 1.0) <= 1e-12

    def test_c5_three_coloring(self):
        g = cycle(5)
        rep = verify_loan_identity(g, chromatic_number(g).witness)
        assert rep.ok

    def test_edgeless_rejected(self):
        with pytest.raises(DomainError, match="edge"):
            verify_loan_identity(Graph(3), Coloring((0, 1, 0), 2))

    def test_mixed_palettes_pad_with_nan(self):
        # C6 takes 2 colors and K6 6: C6's one real minimum is 0.0, and
        # the four entries past it are padding
        graphs = [cycle(6), complete(6)]
        cols = [Coloring((0, 1) * 3, 2), Coloring(tuple(range(6)), 6)]
        loans = certify_graphs(graphs, cols).loans
        minima = loans.conjugate_minima
        assert minima[0, 0] == 0.0 and np.isnan(minima[0, 1:]).all()
        assert np.isfinite(minima[1]).all()
        assert loans.ok.tolist() == [True, True]
        for k, (g, col) in enumerate(zip(graphs, cols)):
            alone = verify_loan_identity(g, col).conjugate_minima
            assert loans.row(k).conjugate_minima.tolist() == alone.tolist()
            assert alone.shape == (col.c - 1,)

    @seed(13)
    @given(st.integers(2, 8), seeds)
    @settings(max_examples=80, deadline=None)
    def test_random_graphs(self, n, s):
        g = random_gnp(n, 0.6, s)
        if g.edge_count == 0:
            return
        col = greedy_coloring(g)
        rep = verify_loan_identity(g, col)
        assert rep.ok


class TestOrthoRepresentation:
    def test_non_unit_modulus_rejected(self):
        with pytest.raises(DomainError, match="modulus"):
            OrthoRepresentation(np.array([[1.0, 0.5], [1.0, 1.0]]))

    def test_nan_entry_rejected(self):
        with pytest.raises(DomainError, match="modulus"):
            OrthoRepresentation(np.array([[np.nan, 1.0], [1.0, 1.0]]))

    def test_k2_plus_minus(self):
        rep = OrthoRepresentation(np.array([[1, 1], [1, -1]], dtype=complex))
        out = check_ortho_representation(adjacency(complete(2)), rep)
        assert out.valid and out.max_edge_inner <= 1e-12

    def test_coloring_induced_on_k3(self):
        col = Coloring((0, 1, 2), 3)
        rep = coloring_representation(col)
        out = check_ortho_representation(adjacency(complete(3)), rep)
        assert out.valid

    def test_k3_has_no_2d_representation_on_phase_grid(self):
        # up to a global phase per vector, 2-d unit-modulus vectors are
        # (1, e^(i phi)); orthogonality forces phase gaps of pi, which three
        # vertices cannot pairwise realize
        a = adjacency(complete(3))
        grid = np.exp(2j * np.pi * np.arange(8) / 8)
        hits = 0
        for p0 in grid:
            for p1 in grid:
                for p2 in grid:
                    rep = OrthoRepresentation(
                        np.array([[1, p0], [1, p1], [1, p2]], dtype=complex)
                    )
                    if check_ortho_representation(a, rep).valid:
                        hits += 1
        assert hits == 0

    @seed(14)
    @given(st.integers(2, 8), seeds)
    @settings(max_examples=60, deadline=None)
    def test_greedy_coloring_representation_always_valid(self, n, s):
        g = random_gnp(n, 0.5, s)
        col = greedy_coloring(g)
        if col.c < 2:
            col = col.with_palette(2)
        out = check_ortho_representation(adjacency(g), coloring_representation(col))
        assert out.valid


def split_projectors(n, sizes, s):
    """Random orthonormal basis split into column blocks."""

    rng = np.random.default_rng(s)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    projs = []
    start = 0
    for size in sizes:
        block = q[:, start:start + size]
        projs.append(block @ block.conj().T)
        start += size
    return tuple(projs)


class TestPinching:
    def test_single_projector_is_identity_map(self):
        x = random_hermitian(4, 0)
        inst = PinchingInstance((np.eye(4),), x)
        assert np.allclose(pinch(inst), x, atol=1e-12)
        assert np.allclose(pinch_via_unitaries(inst), x, atol=1e-12)

    def test_coloring_projectors_recover_diagonal(self):
        g = petersen()
        col = chromatic_number(g).witness
        b = np.diag(g.degrees().astype(float))
        x = b - adjacency(g)
        inst = PinchingInstance(coloring_projectors(col), x)
        assert np.abs(pinch(inst) - b).max() <= 1e-12

    def test_invalid_family_rejected(self):
        p = np.diag([1.0, 0.0])
        with pytest.raises(DomainError, match="identity"):
            PinchingInstance((p,), np.zeros((2, 2)))

    def test_non_idempotent_rejected(self):
        p = np.diag([0.5, 0.5])
        with pytest.raises(DomainError, match="idempotent"):
            PinchingInstance((p, np.eye(2) - p), np.zeros((2, 2)))

    def test_nan_projector_rejected(self):
        p = np.diag([np.nan, 0.0])
        with pytest.raises(DomainError, match="Hermitian"):
            PinchingInstance((p, np.eye(2) - p), np.zeros((2, 2)))

    def test_nan_square_rejected(self):
        # exactly Hermitian, but p @ p overflows and its complex terms
        # cancel to NaN
        b = 1e200 * (1 + 1j)
        p = np.array([[1e200, b], [np.conj(b), -1e200]])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            DomainError, match="idempotent"
        ):
            PinchingInstance((p,), np.zeros((2, 2)))

    def test_nan_sum_rejected(self, monkeypatch):
        p = np.diag([1.0, 0.0])
        projs = (p, np.eye(2) - p)
        monkeypatch.setattr(np, "eye", lambda n: np.full((n, n), np.nan))
        with pytest.raises(DomainError, match="identity"):
            PinchingInstance(projs, np.zeros((2, 2)))

    def test_trace_preserved(self):
        x = random_hermitian(6, 3)
        inst = PinchingInstance(split_projectors(6, (2, 2, 2), 5), x)
        assert abs(np.trace(pinch(inst)).real - np.trace(x)) <= 1e-10

    @seed(15)
    @given(seeds)
    @settings(max_examples=100, deadline=None)
    def test_unitary_mixture_agrees(self, s):
        x = random_hermitian(6, s)
        inst = PinchingInstance(split_projectors(6, (2, 2, 2), s + 1), x)
        direct = pinch(inst)
        mixture = pinch_via_unitaries(inst)
        scale = max(1.0, np.linalg.norm(x))
        assert np.abs(direct - mixture).max() <= 1e-10 * scale


class TestPinchingCorollary:
    def test_block_diagonal_equality(self):
        # X commuting with the projectors gives C(X) = X, so both sides match
        x = np.diag([3.0, 1.0, -2.0, 0.5])
        projs = (np.diag([1.0, 1.0, 0, 0]), np.diag([0, 0, 1.0, 1.0]))
        inst = PinchingInstance(projs, x)
        spec = eigenvalues_sym(x)
        for m in range(1, 5):
            assert pinching_corollary_check(inst, m)
            mixed = (2.0 / 1.0) * pinch(inst) - x / 1.0
            assert abs(ky_fan(eigenvalues_sym(mixed.real), m) - ky_fan(spec, m)) <= 1e-9

    def test_single_projector_rejected(self):
        inst = PinchingInstance((np.eye(3),), np.zeros((3, 3)))
        with pytest.raises(DomainError, match="at least 2"):
            pinching_corollary_check(inst, 1)

    def test_matches_majorization_step_at_m1(self):
        g = petersen()
        col = chromatic_number(g).witness
        a = adjacency(g)
        b = np.diag(g.degrees().astype(float))
        inst = PinchingInstance(coloring_projectors(col), b - a)
        assert pinching_corollary_check(inst, 1)
        rep = verify_majorization_step(a, b, col)
        assert rep.spectral_ok

    @seed(16)
    @given(seeds, st.sampled_from([2, 3]))
    @settings(max_examples=100, deadline=None)
    def test_random_instances(self, s, c):
        x = random_hermitian(6, s)
        sizes = (3, 3) if c == 2 else (2, 2, 2)
        inst = PinchingInstance(split_projectors(6, sizes, s + 2), x)
        for m in range(1, 7):
            assert pinching_corollary_check(inst, m)
