"""Exact coloring solver, enumeration streams, and the greedy feeder."""

import gc
import itertools
import os
import re
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from spectral_chroma import oracle
from spectral_chroma.errors import DomainError, ParseError
from spectral_chroma.experiments import DEFAULT_NAMED, resolve_graph_input
from spectral_chroma.graphs import (
    Graph,
    circulant,
    complete,
    complete_bipartite,
    cycle,
    mycielskian,
    petersen,
    random_gnp,
)
from spectral_chroma.oracle import (
    Coloring,
    all_graphs,
    chromatic_number,
    colorable_with,
    greedy_coloring,
    labeled_graphs,
)

seeds = st.integers(0, 2**32 - 1)


def is_proper(g, col):
    return all(col.colors[u] != col.colors[v] for u, v in g.edges)


def degree_order(g: Graph) -> list[int]:
    """Vertices by degree, largest first, ties by index: sorted here, not read from oracle."""

    deg = g.degrees()
    return sorted(range(g.n), key=lambda v: (-deg[v], v))


def reference_colorable_with(g: Graph, k: int) -> Coloring | None:
    """The plain backtracking that colorable_with must agree with exactly.

    Vertices in search order, colors in index order, a new color opened
    only after those in use: its first coloring is the lexicographically
    first one whose colors open in order, colorable_with's witness. No
    bitset state, no forward checking and no DSATUR: it visits every
    node of the tree.
    """

    if k < 0:
        raise DomainError(f"color count must be nonnegative, got {k}")
    if k == 0:
        return None
    if k >= g.n:
        return Coloring(tuple(range(g.n)), k)
    order = degree_order(g)
    adj = g.neighbors()
    pos = {v: i for i, v in enumerate(order)}
    assigned = [-1] * g.n

    def backtrack(i: int, used: int) -> bool:
        if i == g.n:
            return True
        v = order[i]
        forbidden = {assigned[u] for u in adj[v] if pos[u] < i}
        limit = min(k, used + 1)
        for color in range(limit):
            if color in forbidden:
                continue
            assigned[v] = color
            if backtrack(i + 1, max(used, color + 1)):
                return True
            assigned[v] = -1
        return False

    if not backtrack(0, 0):
        return None
    return Coloring(tuple(assigned), k)


def reference_greedy_coloring(g: Graph) -> Coloring:
    """The set-based sequential coloring that greedy_coloring must equal."""

    adj = g.neighbors()
    colors = [-1] * g.n
    for v in degree_order(g):
        taken = {colors[u] for u in adj[v] if colors[u] >= 0}
        color = 0
        while color in taken:
            color += 1
        colors[v] = color
    return Coloring(tuple(colors), max(colors) + 1)


def reference_greedy_clique(g: Graph) -> list[int]:
    """The frozenset-based greedy clique that oracle._greedy_clique must equal."""

    adj = g.neighbors()
    clique: list[int] = []
    for v in degree_order(g):
        if all(v in adj[u] for u in clique):
            clique.append(v)
    return clique


# graphs on which the oracle must match the references; G(n, .2) and
# G(n, .8) take colorable_with's per-color masks from k = 2 to k = 14, and
# on each G(n, .5) with n = 32-40 the witness descent tries colors that
# fail and colors that complete, at several k
AGREEMENT_FAMILIES = {
    "exhaustive": lambda: itertools.chain.from_iterable(all_graphs(n) for n in range(1, 8)),
    "named": lambda: (resolve_graph_input(spec) for spec in DEFAULT_NAMED),
    "complete": lambda: (complete(n) for n in range(3, 11)),
    "cycle": lambda: (cycle(n) for n in range(3, 13)),
    "gnp": lambda: (
        random_gnp(n, p, s) for p in (0.5, 0.2, 0.8) for n in range(8, 31) for s in (1, 2)
    ),
    "gnp_descent": lambda: (random_gnp(n, 0.5, s) for n in range(32, 41, 2) for s in (1, 2)),
}


class TestChromaticNumber:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_complete(self, k):
        res = chromatic_number(complete(k))
        assert res.chi == k

    def test_cycles(self):
        assert chromatic_number(cycle(6)).chi == 2
        assert chromatic_number(cycle(7)).chi == 3

    def test_bipartite(self):
        assert chromatic_number(complete_bipartite(3, 5)).chi == 2

    def test_petersen(self):
        assert chromatic_number(petersen()).chi == 3

    def test_triangle_free_mycielskian_needs_four(self):
        g = mycielskian(cycle(5))
        res = chromatic_number(g)
        assert res.chi == 4
        # independent exhaustive refutation of 3-colorability: fix vertex 0
        # to color 0 by symmetry and sweep the remaining 3^10 assignments
        edges = g.edges
        for rest in itertools.product(range(3), repeat=g.n - 1):
            colors = (0,) + rest
            if all(colors[u] != colors[v] for u, v in edges):
                pytest.fail("found a 3-coloring of a graph that needs 4")

    def test_circulant_16(self):
        assert chromatic_number(circulant(16, [1, 7, 8])).chi == 4

    def test_edgeless(self):
        res = chromatic_number(Graph(5))
        assert res.chi == 1 and res.witness.c == 1

    def test_single_vertex(self):
        assert chromatic_number(Graph(1)).chi == 1

    def test_witness_proper_and_exact(self):
        for s in range(12):
            g = random_gnp(9, 0.5, s)
            res = chromatic_number(g)
            assert is_proper(g, res.witness)
            assert res.witness.c == res.chi
            assert len(set(res.witness.colors)) == res.chi

    def test_ceiling_refusal(self):
        with pytest.raises(DomainError, match="64"):
            chromatic_number(Graph(65))
        # the k-coloring search refuses too, whatever k
        for k in (0, 3, 65):
            with pytest.raises(DomainError, match="64"):
                colorable_with(cycle(65), k)

    @seed(17)
    @given(st.integers(2, 10), seeds)
    @settings(max_examples=60, deadline=None)
    def test_minimality(self, n, s):
        g = random_gnp(n, 0.5, s)
        res = chromatic_number(g)
        assert colorable_with(g, res.chi) is not None
        if res.chi > 1:
            assert colorable_with(g, res.chi - 1) is None


class TestColorableWith:
    def test_zero_colors(self):
        assert colorable_with(complete(2), 0) is None

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            colorable_with(complete(2), -1)

    def test_generous_palette(self):
        col = colorable_with(complete(3), 5)
        assert col is not None and col.c == 5
        assert is_proper(complete(3), col)

    def test_odd_cycle_needs_three(self):
        assert colorable_with(cycle(5), 2) is None
        assert colorable_with(cycle(5), 3) is not None

    def test_palette_of_n_or_more_is_the_identity(self):
        # from k = n on the search does not run: vertex v takes color v,
        # not the restricted-growth witness it gives below n
        g = petersen()
        for k in (10, 11):
            assert colorable_with(g, k) == Coloring(tuple(range(10)), k)
        below = colorable_with(g, 9)
        assert below.c == 9 and set(below.colors) == {0, 1, 2}
        assert below.colors == colorable_with(g, 3).colors


class TestAgreesWithReference:
    """colorable_with decides by DSATUR and builds the lexicographically
    first coloring by descent, the one the reference meets first: same
    answers, same witnesses."""

    @pytest.mark.parametrize("family", sorted(AGREEMENT_FAMILIES))
    def test_colorable_with_for_every_k(self, family):
        for index, g in enumerate(AGREEMENT_FAMILIES[family]()):
            for k in range(greedy_coloring(g).c + 1):
                expected = reference_colorable_with(g, k)
                assert colorable_with(g, k) == expected, (family, index, k)

    @pytest.mark.parametrize("family", sorted(AGREEMENT_FAMILIES))
    def test_chromatic_number(self, family, monkeypatch):
        results = [chromatic_number(g) for g in AGREEMENT_FAMILIES[family]()]
        # chromatic_number deepens through the module-level colorable_with
        monkeypatch.setattr(oracle, "colorable_with", reference_colorable_with)
        expected = [chromatic_number(g) for g in AGREEMENT_FAMILIES[family]()]
        assert results == expected


class TestGreedyMatchesReference:
    """The mask-based greedy coloring and clique take the same vertices in
    the same degree order as the set-based references."""

    @pytest.mark.parametrize("family", sorted(AGREEMENT_FAMILIES))
    def test_greedy_coloring_and_clique(self, family):
        for index, g in enumerate(AGREEMENT_FAMILIES[family]()):
            assert greedy_coloring(g) == reference_greedy_coloring(g), (family, index)
            assert oracle._greedy_clique(g) == reference_greedy_clique(g), (family, index)


class TestMasksBuiltOnce:
    def test_one_build_across_the_deepening(self):
        # counts the calls of the functions' own bodies, not of their caches
        bodies = {
            oracle._search_table.__wrapped__.__code__: 0,
            oracle.colorable_with.__code__: 0,
        }

        def count(frame, event, arg):
            if event == "call" and frame.f_code in bodies:
                bodies[frame.f_code] += 1

        # triangle-free with chi 5: the greedy clique gives 2 and greedy
        # coloring 5, so 2, 3 and 4 colors are each searched and refuted
        g = mycielskian(mycielskian(cycle(5)))
        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            res = chromatic_number(g)
        finally:
            sys.setprofile(previous)
        assert res.chi == 5
        assert list(bodies.values()) == [1, 3]


class TestGreedyColoring:
    def test_complete_uses_exactly_k(self):
        for k in range(1, 7):
            assert greedy_coloring(complete(k)).c == k

    def test_deterministic(self):
        g = random_gnp(15, 0.4, 9)
        assert greedy_coloring(g).colors == greedy_coloring(g).colors

    def test_bipartite_within_degree_bound(self):
        g = complete_bipartite(4, 6)
        col = greedy_coloring(g)
        assert is_proper(g, col)
        assert col.c <= max(g.degrees()) + 1

    @seed(18)
    @given(st.integers(1, 14), seeds)
    @settings(max_examples=80, deadline=None)
    def test_always_proper(self, n, s):
        g = random_gnp(n, 0.5, s)
        col = greedy_coloring(g)
        assert is_proper(g, col)
        assert col.c <= max(g.degrees(), default=0) + 1


class TestEnumeration:
    def test_labeled_counts(self):
        assert sum(1 for _ in labeled_graphs(3)) == 8
        assert sum(1 for _ in labeled_graphs(4)) == 64

    def test_labeled_six_count(self):
        assert sum(1 for _ in labeled_graphs(6)) == 2 ** 15

    def test_labeled_range(self):
        with pytest.raises(DomainError):
            list(labeled_graphs(7))

    def test_all_graphs_small_is_labeled(self):
        assert sum(1 for _ in all_graphs(3)) == 8

    def test_corpus_counts(self):
        assert sum(1 for _ in all_graphs(6)) == 156
        assert sum(1 for _ in all_graphs(7)) == 1044

    def test_corpus_data_is_a_regular_package(self):
        # zipimport cannot import a namespace package, whose __file__ is None
        import spectral_chroma.data

        assert spectral_chroma.data.__file__
        lines = oracle._corpus_lines(6)
        assert len(lines) == 156 and all(len(line) == 4 for line in lines)  # header + 15 bits

    def test_corpus_vertex_counts(self):
        assert all(g.n == 7 for g in all_graphs(7))

    def test_refusal_above_seven(self):
        with pytest.raises(DomainError):
            list(all_graphs(8))

    def test_corpus_no_duplicates(self):
        seen = {g.edges for g in all_graphs(6)}
        assert len(seen) == 156

    def test_corpus_graphs_are_not_retained(self):
        # only the graph6 lines are cached, so a graph and its derived
        # matrices are freed once the caller drops it
        first = next(all_graphs(7))
        first.adjacency()
        ref = weakref.ref(first)
        del first
        gc.collect()
        assert ref() is None


class TestCorpusDecodeErrors:
    """A corpus file is checked as one array, before its first graph is yielded."""

    @pytest.mark.parametrize(
        "bad, error, text",
        [
            ("F" + chr(20) + "???", ParseError, "out-of-range graph6 byte 20 at offset 1"),
            ("F???@", ParseError, "nonzero graph6 padding bits; encoding is not canonical"),
            (
                "F??",
                ParseError,
                "truncated graph6 bit field at byte offset 3: need 4 data bytes for n=7, got 2",
            ),
            ("E??W", DomainError, "corpus graphs7.g6 contains a graph on 6 vertices"),
            # parse_graph6 refuses the four-byte header of n <= 62 itself
            (
                "~??F????",
                ParseError,
                "non-canonical graph6 header '~??F': n=7 takes the one-byte header 'F'",
            ),
            # parse_graph6 reads this line as a 7-vertex graph; the corpus does not
            (
                ">>graph6<<F????",
                ParseError,
                "corpus graphs7.g6 line '>>graph6<<F????' is not plain graph6 of 7 vertices",
            ),
        ],
    )
    def test_first_bad_line_raises_before_any_graph(self, monkeypatch, bad, error, text):
        lines = oracle._corpus_lines(7)
        # a second bad line later in the file: only the first is reported
        patched = lines[:5] + (bad,) + lines[5:20] + ("F" + chr(127) + "???",) + lines[20:]
        monkeypatch.setattr(oracle, "_corpus_lines", lambda n: patched)
        graphs = all_graphs(7)
        with pytest.raises(error, match=f"^{re.escape(text)}$"):
            next(graphs)


class TestImports:
    def test_oracle_does_not_import_certify(self):
        # the oracle makes colorings; the certificate machinery, with the
        # bounds and the solver behind it, is not needed to make one
        code = (
            "import sys, spectral_chroma.oracle; "
            "print('spectral_chroma.certify' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        ).stdout
        assert out.strip() == "False"
