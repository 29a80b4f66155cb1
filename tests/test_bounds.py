"""All fifteen bound evaluations, sweeps, the integer search, and reports."""

import inspect
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from conftest import from_edges, orthogonality_graph, small_and_named_graphs
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from paper_lemmas import graph_spectrum, random_hermitian

from spectral_chroma import bounds
from spectral_chroma.bounds import (
    BoundId,
    BoundValue,
    _check_bounds,
    _raise_best,
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
    round_display,
)
from spectral_chroma.errors import DomainError, NumericError
from spectral_chroma.graphs import (
    Graph,
    GraphMatrixKind,
    barbell,
    build_matrix,
    circulant,
    complete,
    complete_bipartite,
    complete_multipartite,
    cycle,
    emit_graph6,
    mycielskian,
    petersen,
    random_gnp,
    sun,
    windmill,
)
from spectral_chroma.linalg import (
    PROPERTY_TOL,
    eigenvalues_sym,
    negated_spectra,
)
from spectral_chroma.oracle import all_graphs, chromatic_number

seeds = st.integers(0, 2**32 - 1)

CLASSICAL_IDS = (
    BoundId.HOFFMAN,
    BoundId.NIKIFOROV_HYBRID,
    BoundId.KOLOTILINA_1,
    BoundId.KOLOTILINA_2,
)
GENERALIZED_IDS = (
    BoundId.GEN_HOFFMAN,
    BoundId.GEN_NIKIFOROV,
    BoundId.GEN_KOLOTILINA_1,
    BoundId.GEN_KOLOTILINA_2,
)


def spectra(g):
    return (
        graph_spectrum(g, GraphMatrixKind.ADJACENCY),
        graph_spectrum(g, GraphMatrixKind.LAPLACIAN),
        graph_spectrum(g, GraphMatrixKind.SIGNLESS_LAPLACIAN),
    )


def graphs_with_edge(max_n):
    return [g for n in range(2, max_n + 1) for g in all_graphs(n) if g.edge_count]


def assert_max_is_first_sweep_max(v, column):
    """A bound over m equals its largest admissible sweep entry, at the first index."""

    admissible = [x for x in column if x is not None]
    if not admissible:
        assert not v.valid
        return
    top = max(admissible)
    assert v.valid and v.value == top
    assert v.best_m == column.index(top) + 1


class TestBoundValue:
    def test_valid_below_one_rejected(self):
        with pytest.raises(DomainError):
            BoundValue(BoundId.HOFFMAN, 0.5)

    def test_integer_c_must_be_integer(self):
        with pytest.raises(DomainError):
            BoundValue(BoundId.INTEGER_C, 2.5)

    def test_nan_valid_bound_rejected(self):
        # NaN compares false both ways, so "below 1" must not be how it is asked
        with pytest.raises(DomainError, match="at least 1, got nan"):
            BoundValue(BoundId.HOFFMAN, math.nan)
        assert not BoundValue(BoundId.HOFFMAN, math.nan, valid=False).valid

    def test_non_finite_integer_c_is_domain_error(self):
        for value in (math.nan, math.inf):
            with pytest.raises(DomainError):
                BoundValue(BoundId.INTEGER_C, value)

    def test_invalid_bound_shape(self):
        v = invalid_bound(BoundId.LOAN)
        assert v.value == 1.0 and not v.valid and v.best_m == 1


def _check_report_rows(values):
    """The check full_reports runs on its (G, 15) values, -inf marking an invalid bound."""

    _check_bounds(tuple(BoundId), values, values != -np.inf)


class TestReportRowCheck:
    """The batch check refuses what BoundValue refuses, with BoundValue's error text."""

    @staticmethod
    def error(build):
        with pytest.raises(DomainError) as info:
            build()
        return str(info.value)

    @staticmethod
    def rows(edits):
        values = np.full((3, len(BoundId)), 2.0)
        values[0, :] = -np.inf  # an edgeless graph: every bound invalid
        for (g, bound_id), value in edits.items():
            values[g, list(BoundId).index(bound_id)] = value
        return values

    @pytest.mark.parametrize(
        "bound_id,value",
        [
            (BoundId.HOFFMAN, 0.5),
            (BoundId.LOAN, math.nan),
            (BoundId.CVETKOVIC, 1.0 - 1e-11),
            (BoundId.INTEGER_C, 2.5),
            (BoundId.INTEGER_C, math.nan),
            (BoundId.INTEGER_C, math.inf),
            (BoundId.INTEGER_C, 1.0),
            (BoundId.INTEGER_C, 0.5),
        ],
    )
    def test_bad_value_raises_the_bound_value_error(self, bound_id, value):
        values = self.rows({(1, bound_id): value})
        expected = self.error(lambda: BoundValue(bound_id, value))
        assert self.error(lambda: _check_report_rows(values)) == expected

    def test_first_failure_in_row_order(self):
        values = self.rows({(1, BoundId.INTEGER_C): 2.5, (2, BoundId.HOFFMAN): 0.5})
        assert self.error(lambda: _check_report_rows(values)) == (
            "IntegerC must be an integer >= 2, got 2.5"
        )

    def test_valid_rows_pass(self):
        values = self.rows({(1, BoundId.HOFFMAN): 1.0 - 1e-13, (2, BoundId.LOAN): math.inf})
        _check_report_rows(values)

    def test_full_reports_check_the_batch(self, monkeypatch):
        # a family that returns a value below 1 fails the report, as its
        # BoundValue would have
        loan_values = bounds._loan_values

        def shrunk(edges, n, dl):
            values = loan_values(edges, n, dl)
            values[1] = 0.5
            return values

        monkeypatch.setattr(bounds, "_loan_values", shrunk)
        with pytest.raises(DomainError, match=r"^LOAN: valid bound must be at least 1, got 0\.5$"):
            full_reports([Graph(5), cycle(5), complete(5)])


class TestRoundDisplay:
    def test_half_rounds_away_from_zero(self):
        assert round_display(2.25) == "2.3"
        assert round_display(2.35) == "2.4"

    def test_ordinary_cases(self):
        assert round_display(2.7499) == "2.7"
        assert round_display(4.0) == "4.0"
        assert round_display(7.651) == "7.7"

    def test_uses_repr_not_binary_noise(self):
        # 2.675 in binary is 2.67499999...; display follows the printed value
        assert round_display(2.675) == "2.7"


class TestBoundValueDisplay:
    def test_valid_integer_c_prints_its_integer(self):
        assert BoundValue(BoundId.INTEGER_C, 3.0, best_m=2).display == "3"

    def test_invalid_integer_c_prints_its_value_rounded(self):
        assert invalid_bound(BoundId.INTEGER_C).display == "1.0"

    def test_ratio_bound_prints_round_display(self):
        assert BoundValue(BoundId.HOFFMAN, 2.675).display == round_display(2.675) == "2.7"


class TestClassicalBounds:
    def test_k4_hoffman(self):
        vals = {v.id: v for v in classical_bounds(*spectra(complete(4)))}
        assert abs(vals[BoundId.HOFFMAN].value - 4.0) <= PROPERTY_TOL

    def test_barbell_displays(self):
        vals = {v.id: v for v in classical_bounds(*spectra(barbell(8)))}
        assert round_display(vals[BoundId.HOFFMAN].value) == "4.8"
        assert round_display(vals[BoundId.KOLOTILINA_2].value) == "7.3"

    def test_sun_displays(self):
        vals = {v.id: v for v in classical_bounds(*spectra(sun(8)))}
        assert round_display(vals[BoundId.HOFFMAN].value) == "4.1"
        assert round_display(vals[BoundId.KOLOTILINA_1].value) == "5.5"

    def test_windmill_displays(self):
        vals = {v.id: v for v in classical_bounds(*spectra(windmill(3, 6)))}
        assert round_display(vals[BoundId.HOFFMAN].value) == "3.7"
        assert round_display(vals[BoundId.KOLOTILINA_2].value) == "3.7"
        assert round_display(vals[BoundId.KOLOTILINA_1].value) == "2.2"

    def test_edgeless_all_invalid(self):
        vals = classical_bounds(*spectra(Graph(4)))
        assert all(not v.valid and v.value == 1.0 for v in vals)

    def test_best_m_is_one(self):
        assert all(v.best_m == 1 for v in classical_bounds(*spectra(petersen())))


class TestLoanBound:
    def test_bipartite_gives_two(self):
        v = full_report(complete_bipartite(3, 5)).value(BoundId.LOAN)
        assert abs(v.value - 2.0) <= PROPERTY_TOL

    @pytest.mark.parametrize("n", range(3, 9))
    def test_complete_equals_n(self, n):
        v = full_report(complete(n)).value(BoundId.LOAN)
        assert abs(v.value - n) <= PROPERTY_TOL

    def test_edgeless_invalid(self):
        v = full_report(Graph(3)).value(BoundId.LOAN)
        assert not v.valid


class TestGeneralizedBounds:
    def test_m1_slice_equals_classical_exactly(self):
        for g in [petersen(), barbell(8), random_gnp(9, 0.5, 4)]:
            sa, sl, sq = spectra(g)
            classical = {v.id: v.value for v in classical_bounds(sa, sl, sq)}
            sweep = generalized_sweep(sa, sl, sq)
            pairs = zip(GENERALIZED_IDS, CLASSICAL_IDS)
            for gen_id, cls_id in pairs:
                assert sweep[gen_id][0] == classical[cls_id]

    def test_max_at_least_m1_exactly(self):
        for g in [petersen(), circulant(16, [1, 7, 8]), random_gnp(10, 0.6, 7)]:
            sa, sl, sq = spectra(g)
            sweep = generalized_sweep(sa, sl, sq)
            for v in generalized_bounds(sa, sl, sq):
                first = sweep[v.id][0]
                if first is not None:
                    assert v.value >= first

    def test_circulant_m3_displays(self):
        sa, sl, sq = spectra(circulant(16, [1, 7, 8]))
        sweep = generalized_sweep(sa, sl, sq)
        assert round_display(sweep[BoundId.GEN_HOFFMAN][2]) == "2.9"
        # 5-regular graph: the partial-sum denominators coincide, so this
        # slice equals the one above
        assert round_display(sweep[BoundId.GEN_KOLOTILINA_1][2]) == "2.9"

    def test_regular_graph_sweeps_collapse(self):
        # on d-regular graphs delta_i = d + mu_i and theta_i = d - mu_(n+1-i),
        # collapsing three of the generalized denominators to the same value
        # (the hybrid keeps an m*d - sum(mu_i) term and stays apart for m > 1)
        sa, sl, sq = spectra(circulant(12, [1, 3]))
        sweep = generalized_sweep(sa, sl, sq)
        collapsing = (BoundId.GEN_HOFFMAN, BoundId.GEN_KOLOTILINA_1, BoundId.GEN_KOLOTILINA_2)
        for m in range(12):
            cells = {
                None if sweep[b][m] is None else round(sweep[b][m], 9)
                for b in collapsing
            }
            assert len(cells) == 1

    def test_inadmissible_trace_denominator(self):
        # GenHoffman at m = n has denominator -trace(A) = 0: always skipped
        sa, sl, sq = spectra(petersen())
        assert generalized_sweep(sa, sl, sq)[BoundId.GEN_HOFFMAN][9] is None

    def test_best_m_recorded(self):
        for g in [circulant(16, [1, 7, 8])] + graphs_with_edge(6):
            sa, sl, sq = spectra(g)
            sweep = generalized_sweep(sa, sl, sq)
            for v in generalized_bounds(sa, sl, sq):
                assert_max_is_first_sweep_max(v, sweep[v.id])


class TestNormalizedBounds:
    def test_bipartite_exact_two(self):
        g = complete_bipartite(2, 7)
        vals = normalized_bounds(graph_spectrum(g, GraphMatrixKind.NORMALIZED_ADJACENCY))
        hoffman = vals[0]
        assert hoffman.id is BoundId.NORMALIZED_HOFFMAN
        assert abs(hoffman.value - 2.0) <= PROPERTY_TOL

    def test_windmill_display(self):
        g = windmill(3, 6)
        vals = normalized_bounds(graph_spectrum(g, GraphMatrixKind.NORMALIZED_ADJACENCY))
        assert round_display(vals[0].value) == "6.0"

    def test_regular_equals_hoffman(self):
        g = circulant(14, [2, 3])
        sa = graph_spectrum(g, GraphMatrixKind.ADJACENCY)
        sna = graph_spectrum(g, GraphMatrixKind.NORMALIZED_ADJACENCY)
        hoffman = classical_bounds(sa, *spectra(g)[1:])[0]
        normalized = normalized_bounds(sna)[0]
        assert abs(hoffman.value - normalized.value) <= PROPERTY_TOL

    def test_sweep_m1_matches(self):
        g = petersen()
        sna = graph_spectrum(g, GraphMatrixKind.NORMALIZED_ADJACENCY)
        vals = normalized_bounds(sna)
        assert normalized_sweep(sna)[0] == vals[0].value
        for g in [petersen()] + graphs_with_edge(6):
            if (g.degrees() == 0).any():
                continue
            sna = graph_spectrum(g, GraphMatrixKind.NORMALIZED_ADJACENCY)
            assert_max_is_first_sweep_max(normalized_bounds(sna)[1], normalized_sweep(sna))


class TestChainBounds:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_complete_all_equal_n(self, n):
        sa, sl, sq = spectra(complete(n))
        for v in chain_bounds(sa, sl, sq, n):
            assert abs(v.value - n) <= PROPERTY_TOL

    def test_grotzsch_spectral_bounds_beat_clique_number(self):
        # triangle-free, so the clique number is 2, yet the spectral ratio
        # bounds exceed it; the weak chain tail values sit below 2 here
        g = mycielskian(cycle(5))
        sa, sl, sq = spectra(g)
        hoffman = classical_bounds(sa, sl, sq)[0]
        assert hoffman.value > 2.0
        chain = {v.id: v for v in chain_bounds(sa, sl, sq, g.n)}
        assert abs(chain[BoundId.CVETKOVIC].value - 1.5071718330588064) <= 1e-9

    @seed(20)
    @given(st.integers(3, 10), seeds)
    @settings(max_examples=100, deadline=None)
    def test_chain_ordering(self, n, s):
        g = random_gnp(n, 0.6, s)
        if g.edge_count == 0:
            return
        sa, sl, sq = spectra(g)
        chain = {v.id: v for v in chain_bounds(sa, sl, sq, n)}
        kolo1 = {v.id: v for v in classical_bounds(sa, sl, sq)}[BoundId.KOLOTILINA_1]
        order = [
            kolo1,
            chain[BoundId.KOLOTILINA_CHAIN_317],
            chain[BoundId.HANSEN_LUCAS],
            chain[BoundId.CVETKOVIC],
        ]
        for hi, lo in zip(order, order[1:]):
            if hi.valid and lo.valid:
                assert hi.value >= lo.value - PROPERTY_TOL


def search_spectra(g):
    """The three spectra integer_c_search reads, as full_reports gets them: -Q derived from Q."""

    spec_q = graph_spectrum(g, GraphMatrixKind.SIGNLESS_LAPLACIAN)
    return {
        "spec_a": graph_spectrum(g, GraphMatrixKind.ADJACENCY),
        "spec_l": graph_spectrum(g, GraphMatrixKind.LAPLACIAN),
        "spec_negdeg": negated_spectra(spec_q),
    }


def search(g):
    return integer_c_search(g, **search_spectra(g))


def raise_best(b, a, lhs_values, best, best_m):
    """_raise_best on a batch of one: B's diagonal b and A, as (value, best_m)."""

    best, best_m = _raise_best(
        b[None], a[None], lhs_values[None], np.array([best]), np.array([best_m]), np.zeros(1, int)
    )
    return int(best[0]), int(best_m[0])


class TestSpectraThatDoNotFit:
    """A family function refuses spectra of unequal lengths, or of a length other than n."""

    def test_unequal_lengths_refused(self):
        sa = spectra(complete(3))[0]
        _, sl, sq = spectra(complete(4))
        message = r"spectra must have one length, got lengths \[3, 4, 4\]"
        for family in (classical_bounds, generalized_bounds, generalized_sweep):
            with pytest.raises(DomainError, match=message):
                family(sa, sl, sq)
        with pytest.raises(DomainError, match=r"length n = 3, got lengths \[3, 4, 4\]"):
            chain_bounds(sa, sl, sq, 3)

    def test_chain_length_must_be_n(self):
        sa, sl, sq = spectra(complete(3))
        with pytest.raises(DomainError, match=r"length n = 5, got lengths \[3, 3, 3\]"):
            chain_bounds(sa, sl, sq, 5)

    def test_integer_c_lengths_must_be_g_n(self):
        g = complete(3)
        four = search_spectra(complete(4))
        with pytest.raises(DomainError, match=r"length n = 3, got lengths \[3, 4, 4\]"):
            integer_c_search(g, **{**four, "spec_a": search_spectra(g)["spec_a"]})
        with pytest.raises(DomainError, match=r"length n = 3, got lengths \[4, 4, 4\]"):
            integer_c_search(g, **four)


class TestIntegerC:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_complete_exact(self, n):
        v = search(complete(n))
        assert v.value == n

    def test_bipartite_two(self):
        assert search(complete_bipartite(3, 4)).value == 2
        assert search(cycle(8)).value == 2

    def test_sun8_from_degree_branch(self):
        v = search(sun(8))
        assert v.value == 7 and v.best_m == 1
        minima = full_scan_minima(sun(8))
        assert minima["deg"][0] == 7
        assert max(minima["zero"]) < 7 and max(minima["negdeg"]) < 7

    def test_edgeless_rejected(self):
        with pytest.raises(DomainError, match="edge"):
            search(Graph(4))

    def test_extra_candidate_accepted(self):
        # a further candidate B goes through _raise_best like deg and negdeg
        # and never lowers the running maximum; B = 0 cannot raise it either,
        # since the closed-form zero minima already count it
        g = cycle(5)
        base = search(g)
        a = g.adjacency()
        running = (int(base.value), base.best_m)
        assert raise_best(np.zeros(5), a, eigenvalues_sym(-a), *running) == running

    def test_equals_full_report(self):
        for g in (petersen(), sun(8), random_gnp(30, 0.5, 4)):
            assert search(g) == full_report(g).value(BoundId.INTEGER_C)

    def test_solves_no_spectrum(self, monkeypatch):
        # the search reads the report's spectra and solves only its probes
        g = random_gnp(30, 0.5, 4)
        spectra = search_spectra(g)
        expected = full_report(g).value(BoundId.INTEGER_C)

        def refuse(*args, **kwargs):
            raise AssertionError("integer_c_search called eigh")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        assert integer_c_search(g, **spectra) == expected

    def test_m_equal_n_is_not_tested(self, monkeypatch):
        # at m = n both sums of the pass test are tr B, so rounding alone
        # decides a comparison there; at n = 4000 it failed every c and
        # printed IntegerC = n. Raising each probe's smallest eigenvalue by
        # 2e-8 moves only the m = n sum, by more than PROPERTY_TOL and less
        # than the probe's trace check allows (3e-8 for tr D = 30)
        solve = np.linalg.eigvalsh

        def lifted(a, *args, **kwargs):
            w = solve(a, *args, **kwargs).copy()
            w[..., 0] += 2e-8
            return w

        monkeypatch.setattr(bounds.np.linalg, "eigvalsh", lifted)
        g = petersen()
        for v in (search(g), full_report(g).value(BoundId.INTEGER_C)):
            assert (v.value, v.best_m) == (3, 1)

    def test_nan_probe_raises(self, monkeypatch):
        # NaN fails the probe's trace check instead of passing every m
        g = random_gnp(40, 0.5, 3)
        spectra = search_spectra(g)
        solve = np.linalg.eigvalsh

        def poisoned(a, *args, **kwargs):
            w = solve(a, *args, **kwargs).copy()
            w[0] = np.nan
            return w

        monkeypatch.setattr(np.linalg, "eigvalsh", poisoned)
        with pytest.raises(NumericError, match=r"eigensolve at c=\d+ disagrees"):
            integer_c_search(g, **spectra)

    def test_perturbed_probe_raises(self, monkeypatch):
        g = random_gnp(40, 0.5, 3)
        spectra = search_spectra(g)
        solve = np.linalg.eigvalsh

        def perturbed(a, *args, **kwargs):
            w = solve(a, *args, **kwargs).copy()
            w[-1] += 1e-3
            return w

        monkeypatch.setattr(np.linalg, "eigvalsh", perturbed)
        with pytest.raises(NumericError, match=r"eigensolve at c=\d+ disagrees"):
            integer_c_search(g, **spectra)

    def test_spectra_are_required_keywords(self):
        params = inspect.signature(integer_c_search).parameters
        assert list(params) == ["g", "spec_a", "spec_l", "spec_negdeg"]
        assert params["g"].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        for name in ("spec_a", "spec_l", "spec_negdeg"):
            assert params[name].kind is inspect.Parameter.KEYWORD_ONLY
            assert params[name].default is inspect.Parameter.empty
        with pytest.raises(TypeError):
            integer_c_search(cycle(5))

    @seed(21)
    @given(st.integers(2, 8), seeds)
    @settings(max_examples=60, deadline=None)
    def test_sound_against_oracle(self, n, s):
        g = random_gnp(n, 0.5, s)
        if g.edge_count == 0:
            return
        v = search(g)
        assert v.value <= chromatic_number(g).chi


def full_scan_minima(g, extra_b=None):
    """Reference per-m minima: every c = 2..n in one (n-1, n, n) stack.

    It records the first satisfied c per m from the whole stack, so it
    needs no assumption about monotonicity in c and no early exit.
    """

    n = g.n
    a = build_matrix(g, GraphMatrixKind.ADJACENCY)
    d = np.diag(g.degrees().astype(np.float64))
    candidates = {"zero": np.zeros((n, n)), "deg": d, "negdeg": -d}
    if extra_b is not None:
        candidates["extra"] = np.asarray(extra_b, dtype=np.float64)
    cs = np.arange(2, n + 1)
    out = {}
    for name, b in candidates.items():
        lhs = np.cumsum(eigenvalues_sym(b - a))
        stack = b[None, :, :] + a[None, :, :] / (cs - 1)[:, None, None]
        rhs = np.cumsum(np.linalg.eigvalsh(stack)[:, ::-1], axis=1)
        satisfied = lhs[None, :] >= rhs - PROPERTY_TOL
        minima = []
        for m_idx in range(n - 1):  # m < n: at m = n both sums are tr B
            hits = np.nonzero(satisfied[:, m_idx])[0]
            minima.append(int(cs[hits[0]]) if hits.size else n)
        out[name] = minima
    return out


def full_scan_max(g, extra_b=None):
    """(value, best_m) of the reference: a strictly larger minimum wins.

    Candidates in the order zero, deg, negdeg, extra, then m upward, so a
    tie keeps the first candidate and the lowest m that reached it.
    """

    best_value, best_m = 0, 1
    for column in full_scan_minima(g, extra_b).values():
        for m_idx, c in enumerate(column):
            if c > best_value:
                best_value, best_m = c, m_idx + 1
    return best_value, best_m


def search_result(g):
    v = search(g)
    return int(v.value), v.best_m


class TestIntegerCSearchMatchesFullScan:
    """The monotone max-search returns the full-stack maximum and its m."""

    def test_exhaustive_corpus(self):
        checked = 0
        for n in range(1, 8):
            for g in all_graphs(n):
                if g.edge_count == 0:
                    continue
                assert search_result(g) == full_scan_max(g), emit_graph6(g)
                checked += 1
        assert checked == 2292

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_random_graphs_up_to_40(self, p):
        for n in range(2, 41):
            g = random_gnp(n, p, 1000 * n + int(10 * p))
            if g.edge_count == 0:
                continue
            assert search_result(g) == full_scan_max(g), (n, p)

    @pytest.mark.parametrize("n", range(10, 21))
    def test_complete_reaches_n(self, n):
        assert search_result(complete(n)) == full_scan_max(complete(n)) == (n, 1)

    @pytest.mark.parametrize("extra_kind", ["random", "complete"])
    def test_extra_candidate(self, extra_kind):
        # a further diagonal candidate B through _raise_best, from a running
        # maximum of 2, against the full scan of that candidate alone. On
        # K_n, B = tI fails at m = 1 for every c < n, so the maximum climbs
        # to n
        if extra_kind == "random":
            g = random_gnp(24, 0.5, 5)
            b = 5.0 * np.diag(random_hermitian(24, 6))
        else:
            g = complete(24)
            b = np.full(24, 3.0)
        a = g.adjacency()
        column = full_scan_minima(g, extra_b=np.diag(b))["extra"]
        top = max(column)
        assert top > 2 and (top == 24) == (extra_kind == "complete")
        lhs_values = eigenvalues_sym(np.diag(b) - a)
        assert raise_best(b, a, lhs_values, 2, 1) == (top, column.index(top) + 1)

    def test_memory_is_quadratic(self):
        # the report solves its spectra one validated eigh at a time: the
        # one matrix buffer, the eigenvectors and the residual are alive,
        # and the search holds A and one probe matrix; the graph keeps no
        # dense matrix. Measured peak: 3.28 n^2 float64 with numpy 2.4.6,
        # so a numpy whose eigh/eigvalsh or matmul adds an n x n temporary
        # can fail this without a change here
        n = 200
        g = random_gnp(n, 0.5, 11)
        tracemalloc.start()
        try:
            full_report(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * n * n * 8

    def test_no_dense_matrix_kept_on_the_graph(self):
        g = random_gnp(40, 0.5, 2)
        assert full_report(g).spectra  # the normalized A is solved too
        assert not [v for v in vars(g).values() if getattr(v, "shape", None) == (g.n, g.n)]

    def test_probes_are_single_matrices_and_logarithmic(self, monkeypatch):
        n = 300
        g = random_gnp(n, 0.5, 3)
        shapes = []
        solve = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return solve(a, *args, **kwargs)

        spectra = search_spectra(g)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        v = integer_c_search(g, **spectra)
        # per candidate after zero: one probe at the running maximum, then a
        # bisection of (best, n] in at most log2(n) probes
        per_candidate = 1 + math.ceil(math.log2(n))
        assert shapes and all(shape == (1, n, n) for shape in shapes)
        assert len(shapes) <= 2 * per_candidate
        # on K_n with B = 0 no c < n passes at m = 1, so the candidate
        # climbs from 2 to n, where a scan upward would solve about n matrices
        shapes.clear()
        a = complete(n).adjacency()
        assert raise_best(np.zeros(n), a, eigenvalues_sym(-a), 2, 1) == (n, 1)
        assert shapes and all(shape == (1, n, n) for shape in shapes)
        assert len(shapes) <= per_candidate
        # a corpus chunk makes one probe call per round for all its open
        # graphs, not one or more per graph
        n = 7
        chunk = list(itertools.islice(all_graphs(n), 128))
        assert len(chunk) == 128
        shapes.clear()
        reports = full_reports(chunk)
        assert len(shapes) <= 2 * (1 + math.ceil(math.log2(n)))
        # at most one matrix per graph still below n when the candidate starts
        open_graphs = sum(
            r.edge_count > 0 and max(full_scan_minima(g)["zero"]) < n
            for g, r in zip(chunk, reports)
        )
        assert shapes and all(len(s) == 3 and s[1:] == (n, n) for s in shapes)
        assert all(s[0] <= open_graphs for s in shapes)
        # the probes cover many graphs each, so the batch found what one
        # search per graph finds
        assert max(s[0] for s in shapes) > 1
        for g, r in zip(chunk, reports):
            if g.edge_count:
                assert r.value(BoundId.INTEGER_C) == search(g)


class TestOrthogonalityGraphs:
    """Omega_4 and Omega_8: chi = k, and the +-1 vectors show IntegerC = k is tight."""

    @pytest.mark.parametrize("k, n", [(4, 8), (8, 128)])
    def test_integer_c_and_hoffman_equal_k(self, k, n):
        g = orthogonality_graph(k)
        assert g.n == n
        r = full_report(g)
        v = r.value(BoundId.INTEGER_C)
        assert (v.value, v.best_m) == (k, 1)
        assert r.display(BoundId.HOFFMAN) == f"{k}.0"
        assert search_result(g) == full_scan_max(g) == (k, 1)


class TestFullReport:
    def test_every_bound_exactly_once(self):
        r = full_report(petersen())
        assert [v.id for v in r.values] == list(BoundId)

    def test_petersen_hoffman(self):
        r = full_report(petersen())
        assert r.display(BoundId.HOFFMAN) == "2.5"

    def test_regular_multipartite_exact(self):
        g = complete_multipartite([2, 2, 2])
        r = full_report(g)
        assert abs(r.value(BoundId.HOFFMAN).value - 3.0) <= PROPERTY_TOL
        assert chromatic_number(g).chi == 3

    def test_edgeless_report(self):
        r = full_report(Graph(4))
        assert all(not v.valid and v.value == 1.0 for v in r.values)
        assert r.spectra == {}

    def test_isolated_vertex_only_normalized_invalid(self):
        g = from_edges(4, [(0, 1), (1, 2)])
        r = full_report(g)
        assert not r.value(BoundId.NORMALIZED_HOFFMAN).valid
        assert not r.value(BoundId.GEN_NORMALIZED_HOFFMAN).valid
        assert r.value(BoundId.HOFFMAN).valid

    def test_display_consistent_with_values(self):
        r = full_report(barbell(8))
        for v in r.values:
            if v.id is BoundId.INTEGER_C:
                assert r.display(v.id) == str(int(v.value))
            else:
                assert r.display(v.id) == round_display(v.value)

    def test_value_and_display_read_the_values_row(self):
        # value(b) is the b-th entry of values, and display(b) is that value's own text
        for g in small_and_named_graphs():
            r = full_report(g)
            for k, b in enumerate(BoundId):
                assert r.value(b) is r.values[k]
                assert r.display(b) == r.value(b).display

    def test_graph_identity_fields(self):
        r = full_report(complete(3))
        assert r.graph_id == "Bw"
        assert r.n == 3 and r.edge_count == 3

    def test_identity_and_values_computed_on_first_read(self, monkeypatch):
        emitted = []
        emit = bounds.emit_graph6
        monkeypatch.setattr(bounds, "emit_graph6", lambda g: emitted.append(g) or emit(g))
        octahedron = circulant(6, [1, 2])
        reports = full_reports([Graph(6), octahedron, cycle(6)])
        assert emitted == [] and all("values" not in vars(r) for r in reports)
        # each report emits its graph6 once, on the first read of graph_id
        assert reports[1].graph_id == reports[1].graph_id == full_report(octahedron).graph_id
        assert emitted == [octahedron] * 2
        assert reports[1].graph_id == emit(octahedron) and len(emitted) == 2
        assert reports[1].values is reports[1].values

    def test_rows_are_read_only(self):
        r = full_report(cycle(5))
        for row in (r.value_row, r.best_m_row):
            with pytest.raises(ValueError):
                row[0] = 3


class TestDominanceInvariants:
    @seed(22)
    @given(st.integers(2, 10), seeds)
    @settings(max_examples=100, deadline=None)
    def test_kolotilina_dominates_hybrid(self, n, s):
        g = random_gnp(n, 0.5, s)
        if g.edge_count == 0:
            return
        vals = {v.id: v for v in classical_bounds(*spectra(g))}
        k1, nh = vals[BoundId.KOLOTILINA_1], vals[BoundId.NIKIFOROV_HYBRID]
        if k1.valid and nh.valid:
            assert k1.value >= nh.value - PROPERTY_TOL

    @seed(23)
    @given(st.integers(2, 10), seeds)
    @settings(max_examples=60, deadline=None)
    def test_generalized_kolotilina_dominates_per_m(self, n, s):
        g = random_gnp(n, 0.5, s)
        if g.edge_count == 0:
            return
        sweep = generalized_sweep(*spectra(g))
        for k1, nik in zip(
            sweep[BoundId.GEN_KOLOTILINA_1], sweep[BoundId.GEN_NIKIFOROV]
        ):
            if k1 is not None and nik is not None:
                assert k1 >= nik - PROPERTY_TOL

    @seed(24)
    @given(st.integers(5, 16), st.data())
    @settings(max_examples=60, deadline=None)
    def test_regular_collapse(self, n, data):
        offsets = data.draw(
            st.sets(st.integers(1, n // 2), min_size=1, max_size=max(1, n // 2))
        )
        g = circulant(n, sorted(offsets))
        vals = {v.id: v for v in classical_bounds(*spectra(g))}
        sna = graph_spectrum(g, GraphMatrixKind.NORMALIZED_ADJACENCY)
        norm = normalized_bounds(sna)[0]
        hoffman = vals[BoundId.HOFFMAN].value
        for other in (
            vals[BoundId.NIKIFOROV_HYBRID],
            vals[BoundId.KOLOTILINA_1],
            vals[BoundId.KOLOTILINA_2],
            norm,
        ):
            assert abs(other.value - hoffman) <= PROPERTY_TOL

    @seed(25)
    @given(st.integers(3, 10), seeds)
    @settings(max_examples=100, deadline=None)
    def test_average_degree_bound_dominates_its_relaxation(self, n, s):
        # 1 + x/(x - d) falls as x grows, and mu_1 >= 2E/n, so the bound
        # built from the average degree sits above the mu_1 version
        g = random_gnp(n, 0.6, s)
        if g.edge_count == 0:
            return
        sa = graph_spectrum(g, GraphMatrixKind.ADJACENCY)
        sq = graph_spectrum(g, GraphMatrixKind.SIGNLESS_LAPLACIAN)
        mu1 = float(sa[0])
        delta_n = float(sq[-1])
        avg = 2.0 * g.edge_count / g.n
        loan = full_report(g).value(BoundId.LOAN)
        if loan.valid and mu1 - delta_n > PROPERTY_TOL:
            relaxed = 1.0 + mu1 / (mu1 - delta_n)
            assert loan.value >= relaxed - PROPERTY_TOL

    @seed(26)
    @given(st.integers(2, 7), seeds)
    @settings(max_examples=80, deadline=None)
    def test_soundness_sample(self, n, s):
        g = random_gnp(n, 0.5, s)
        chi = chromatic_number(g).chi
        for v in full_report(g).values:
            if v.valid:
                assert math.ceil(v.value - 1e-6) <= chi


class TestBipartiteExactness:
    @seed(27)
    @given(st.integers(1, 5), st.integers(1, 5), seeds)
    @settings(max_examples=60, deadline=None)
    def test_random_bipartite_family(self, a, b, s):
        if a + b < 2:
            return
        g = complete_bipartite(a, b)
        r = full_report(g)
        for bound_id in (
            BoundId.HOFFMAN,
            BoundId.KOLOTILINA_1,
            BoundId.KOLOTILINA_2,
            BoundId.NORMALIZED_HOFFMAN,
        ):
            assert abs(r.value(bound_id).value - 2.0) <= PROPERTY_TOL
