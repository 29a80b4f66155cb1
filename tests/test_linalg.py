"""Eigensolver guarantees, Ky Fan sums, and spectra invariants.

symmetrize, random_hermitian, hermitian_eigenvalues and ky_fan are the
test-side helpers of paper_lemmas; their tests live here with the
solver they feed.
"""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from paper_lemmas import (
    graph_spectrum,
    hermitian_eigenvalues,
    ky_fan,
    random_hermitian,
    symmetrize,
)

from spectral_chroma.bounds import (
    classical_bounds,
    full_report,
    normalized_bounds,
    normalized_spectra,
    normalized_sweep,
    report_spectra,
)
from spectral_chroma.errors import DomainError, NumericError
from spectral_chroma.graphs import (
    GraphMatrixKind,
    build_matrix,
    complete,
    cycle,
    petersen,
    random_gnp,
)
from spectral_chroma.linalg import (
    PROPERTY_TOL,
    SPECTRUM_TOL,
    check_spectra,
    eigenvalues_sym,
    spectra_batch,
)

seeds = st.integers(0, 2**32 - 1)


class TestSpectrumType:
    """A spectrum is a float64 row sorted non-increasing, held to that where it enters.

    eigenvalues_sym returns one; check_spectra checks an array of them,
    and a family function the spectra it is handed.
    """

    def test_sorted_enforced(self):
        with pytest.raises(DomainError, match="sorted"):
            check_spectra(np.array([[1.0, 2.0]]))
        with pytest.raises(DomainError, match="sorted"):
            normalized_bounds(np.array([1.0, 2.0]))

    def test_values_read_only(self):
        s = eigenvalues_sym(np.diag([1.0, 2.0]))
        with pytest.raises(ValueError):
            s[0] = 5.0

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            check_spectra(np.array([[np.inf, 0.0]]))
        with pytest.raises(DomainError, match="non-finite"):
            normalized_sweep(np.array([np.inf, 0.0]))

    def test_len(self):
        assert len(eigenvalues_sym(np.diag([0.0, 3.0, 1.0]))) == 3

    def test_nan_rejected(self):
        with pytest.raises(DomainError, match="non-finite"):
            check_spectra(np.array([[1.0, np.nan, 0.0]]))
        row = np.array([1.0, 0.0, -1.0])
        with pytest.raises(DomainError, match="non-finite"):
            classical_bounds(row, row, np.array([1.0, np.nan, 0.0]))

    def test_spectrum_is_a_plain_row(self):
        spec = eigenvalues_sym(np.diag([0.0, 3.0, 1.0]))
        assert type(spec) is np.ndarray and spec.dtype == np.float64
        assert spec.tolist() == [3.0, 1.0, 0.0]
        # a family function takes nothing but a nonempty 1-d row
        for bad in (np.zeros((1, 3)), np.zeros(0), 2.0):
            with pytest.raises(DomainError, match="nonempty 1-d"):
                normalized_bounds(bad)


class TestSpectrumRows:
    """check_spectra checks a (G, n) array once, as a family function checks each spectrum."""

    @staticmethod
    def error(build):
        with pytest.raises(DomainError) as info:
            build()
        return str(info.value)

    @pytest.mark.parametrize(
        "bad_row",
        [[2.0, np.nan, 0.0], [np.inf, 1.0, 0.0], [1.0, 2.0, 0.0], [2.0, 0.0, -np.inf]],
    )
    def test_bad_row_raises_the_spectrum_error(self, bad_row):
        w = np.array([[3.0, 1.0, 0.0], bad_row, [1.0, 1.0, 1.0]])
        assert self.error(lambda: check_spectra(w)) == self.error(lambda: normalized_bounds(w[1]))

    def test_non_finite_reported_before_order(self):
        # finiteness is checked first; a later unsorted row must not win
        w = np.array([[1.0, 2.0], [np.nan, 0.0]])
        assert self.error(lambda: check_spectra(w)) == "spectrum contains non-finite values"
        assert self.error(lambda: classical_bounds(w[0], w[1], w[1])) == (
            "spectrum contains non-finite values"
        )

    @pytest.mark.parametrize("shape", [(3,), (2, 0), (2, 2, 2)])
    def test_shape_rejected(self, shape):
        with pytest.raises(DomainError, match="nonempty 1-d"):
            check_spectra(np.zeros(shape))

    def test_cached_rows_are_handed_out_read_only(self):
        # report.spectra hands out the rows the graph keeps, not copies: a second
        # report shares them, and they equal what the cache's two accessors give
        g = petersen()
        kinds = list(GraphMatrixKind)
        spectra = full_report(g).spectra
        again = full_report(g).spectra
        assert list(spectra) == list(again) == kinds
        accessed = [*report_spectra([g])[:, 0], normalized_spectra([g])[0]]
        for kind, expected in zip(kinds, accessed):
            row = spectra[kind]
            assert row.shape == (g.n,) and not row.flags.writeable
            assert np.shares_memory(row, again[kind])
            assert np.array_equal(row, expected)
            check_spectra(row[None])
            with pytest.raises(ValueError):
                row[0] = 0.0


class TestEigenvaluesSym:
    def test_complete_graph_spectrum(self):
        spec = graph_spectrum(complete(6), GraphMatrixKind.ADJACENCY)
        assert abs(spec[0] - 5.0) <= SPECTRUM_TOL
        assert np.allclose(spec[1:], -1.0, atol=SPECTRUM_TOL)

    def test_petersen_spectrum_against_polynomial(self):
        # Independent route: A is annihilated by (A-3I)(A-I)(A+2I), and the
        # trace conditions force multiplicities 1, 5, 4 for 3, 1, -2.
        a = build_matrix(petersen(), GraphMatrixKind.ADJACENCY)
        i = np.eye(10)
        annihilated = (a - 3 * i) @ (a - i) @ (a + 2 * i)
        assert np.abs(annihilated).max() <= 1e-9
        spec = graph_spectrum(petersen(), GraphMatrixKind.ADJACENCY)
        expected = np.array([3.0] + [1.0] * 5 + [-2.0] * 4)
        assert np.allclose(spec, expected, atol=SPECTRUM_TOL)

    def test_laplacian_kernel(self):
        for g in [petersen(), cycle(7), random_gnp(12, 0.5, 3)]:
            spec = graph_spectrum(g, GraphMatrixKind.LAPLACIAN)
            assert abs(spec[-1]) <= SPECTRUM_TOL

    def test_non_finite_rejected(self):
        a = np.array([[0.0, np.nan], [np.nan, 0.0]])
        with pytest.raises(DomainError, match="non-finite"):
            eigenvalues_sym(a)

    def test_asymmetric_rejected(self):
        a = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(DomainError, match="symmetric"):
            eigenvalues_sym(a)

    def test_symmetrize_makes_input_acceptable(self):
        a = np.array([[0.0, 1.0], [0.5, 0.0]])
        spec = eigenvalues_sym(symmetrize(a))
        assert np.allclose(spec, [0.75, -0.75], atol=SPECTRUM_TOL)

    @seed(3)
    @given(seeds)
    @settings(max_examples=50, deadline=None)
    def test_trace_matches_sum(self, s):
        a = random_hermitian(7, s)
        spec = eigenvalues_sym(a)
        assert abs(spec.sum() - np.trace(a)) <= SPECTRUM_TOL * max(
            1.0, abs(np.trace(a))
        )


class TestKyFan:
    def test_full_sum_is_trace(self):
        a = random_hermitian(6, 11)
        spec = eigenvalues_sym(a)
        assert abs(ky_fan(spec, 6) - np.trace(a)) <= SPECTRUM_TOL * 10

    def test_k3_top_two(self):
        spec = graph_spectrum(complete(3), GraphMatrixKind.ADJACENCY)
        assert abs(ky_fan(spec, 2) - 1.0) <= SPECTRUM_TOL

    def test_m_out_of_range(self):
        spec = np.array([1.0, 0.0])
        for bad in (0, 3, -1):
            with pytest.raises(DomainError):
                ky_fan(spec, bad)

    def test_prefix_sums_consistent(self):
        spec = eigenvalues_sym(random_hermitian(9, 5))
        sums = np.cumsum(spec)
        for m in range(1, 10):
            assert abs(sums[m - 1] - ky_fan(spec, m)) <= 1e-12
        # concavity in m: increments are the sorted eigenvalues
        assert (np.diff(sums, 2) <= 1e-12).all()


class TestMajorizationInequalities:
    @seed(4)
    @given(seeds, seeds)
    @settings(max_examples=200, deadline=None)
    def test_subadditive_top_sums(self, s1, s2):
        x = random_hermitian(6, s1)
        y = random_hermitian(6, s2)
        sx, sy, sxy = (eigenvalues_sym(t) for t in (x, y, x + y))
        for m in range(1, 7):
            assert ky_fan(sxy, m) <= ky_fan(sx, m) + ky_fan(sy, m) + SPECTRUM_TOL

    @seed(5)
    @given(seeds, st.integers(2, 5))
    @settings(max_examples=60, deadline=None)
    def test_d_fold_superadditivity(self, s, d):
        mats = [random_hermitian(6, s + j) for j in range(d)]
        total = eigenvalues_sym(sum(mats))
        specs = [eigenvalues_sym(m_) for m_ in mats]
        for m in range(1, 7):
            lhs = sum(ky_fan(sp, m) for sp in specs)
            assert lhs >= ky_fan(total, m) - SPECTRUM_TOL

    @seed(6)
    @given(seeds, seeds)
    @settings(max_examples=200, deadline=None)
    def test_difference_form(self, s1, s2):
        s = random_hermitian(6, s1)
        t = random_hermitian(6, s2)
        ss, st_, sdiff = (eigenvalues_sym(u) for u in (s, t, s - t))
        for m in range(1, 7):
            assert ky_fan(sdiff, m) >= ky_fan(ss, m) - ky_fan(st_, m) - SPECTRUM_TOL


class TestConjugate:
    @seed(7)
    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_spectrum_invariant_under_conjugation(self, s):
        x = random_hermitian(6, s)
        phases = np.exp(2j * np.pi * np.linspace(0, 1, 6, endpoint=False) * (s % 7 + 1))
        y = np.conj(phases)[:, None] * x * phases[None, :]  # U^dag X U, U diagonal
        sx = eigenvalues_sym(x)
        sy = hermitian_eigenvalues(y)
        assert np.allclose(sx, sy, atol=PROPERTY_TOL)


class TestComplexHermitian:
    """The complex branch of hermitian_eigenvalues checks the trace as eigh does."""

    @staticmethod
    def conjugated(s):
        x = random_hermitian(6, s)
        phases = np.exp(2j * np.pi * np.arange(6) / 6)
        return np.conj(phases)[:, None] * x * phases[None, :]

    @staticmethod
    def patch_solver(monkeypatch, edit):
        solve = np.linalg.eigvalsh

        def patched(a, *args, **kwargs):
            w = solve(a, *args, **kwargs).copy()
            edit(w)
            return w

        monkeypatch.setattr(np.linalg, "eigvalsh", patched)

    def test_perturbed_eigenvalue_rejected(self, monkeypatch):
        y = self.conjugated(4)
        self.patch_solver(monkeypatch, lambda w: w.__setitem__(-1, w[-1] + 1e-3))
        with pytest.raises(NumericError, match="trace"):
            hermitian_eigenvalues(y)

    def test_nan_eigenvalue_rejected(self, monkeypatch):
        y = self.conjugated(5)
        self.patch_solver(monkeypatch, lambda w: w.__setitem__(0, np.nan))
        with pytest.raises(NumericError, match="trace"):
            hermitian_eigenvalues(y)

    def test_non_convergence_is_numeric_error(self, monkeypatch):
        def diverge(a, *args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", diverge)
        with pytest.raises(NumericError, match="failed to converge"):
            hermitian_eigenvalues(self.conjugated(6))

    def test_anti_hermitian_part_rejected(self):
        y = self.conjugated(7)
        y[0, 1] += 1e-3j
        with pytest.raises(DomainError, match="not Hermitian"):
            hermitian_eigenvalues(y)


class TestRandomHermitian:
    def test_deterministic(self):
        assert np.array_equal(random_hermitian(6, 99), random_hermitian(6, 99))

    def test_single_entry_range(self):
        for s in range(20):
            a = random_hermitian(1, s)
            assert -1.0 <= a[0, 0] <= 1.0

    def test_off_diagonal_mean_near_zero(self):
        vals = []
        for s in range(100):
            a = random_hermitian(10, s)
            mask = ~np.eye(10, dtype=bool)
            vals.append(a[mask])
        mean = np.concatenate(vals).mean()
        assert abs(mean) <= 0.02

    def test_exactly_symmetric(self):
        a = random_hermitian(7, 5)
        assert np.array_equal(a, a.T)


class TestGraphSpectraRelations:
    @seed(8)
    @given(st.integers(2, 12), seeds)
    @settings(max_examples=60, deadline=None)
    def test_signless_dominates_doubled_adjacency(self, n, s):
        g = random_gnp(n, 0.5, s)
        mu = graph_spectrum(g, GraphMatrixKind.ADJACENCY)
        dl = graph_spectrum(g, GraphMatrixKind.SIGNLESS_LAPLACIAN)
        assert (dl >= 2 * mu - PROPERTY_TOL).all()

    @seed(9)
    @given(st.integers(2, 12), seeds)
    @settings(max_examples=60, deadline=None)
    def test_laplacian_bounded_by_n(self, n, s):
        g = random_gnp(n, 0.5, s)
        theta = graph_spectrum(g, GraphMatrixKind.LAPLACIAN)
        assert theta[0] <= n + PROPERTY_TOL
        assert abs(theta[-1]) <= PROPERTY_TOL

    @seed(10)
    @given(st.integers(3, 12), seeds)
    @settings(max_examples=60, deadline=None)
    def test_normalized_adjacency_top_is_one(self, n, s):
        g = random_gnp(n, 0.7, s)
        if (g.degrees() == 0).any():
            return
        mu = graph_spectrum(g, GraphMatrixKind.NORMALIZED_ADJACENCY)
        assert abs(mu[0] - 1.0) <= PROPERTY_TOL
