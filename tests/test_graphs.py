"""Graph representation, codecs, generators, and the G(n, p) sampler."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from conftest import from_edges
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from paper_lemmas import reference_build_matrix

from spectral_chroma import graphs, oracle
from spectral_chroma.bounds import full_report
from spectral_chroma.errors import DomainError, ParseError
from spectral_chroma.graphs import (
    _G6_MAX_N,
    UNNORMALIZED_KINDS,
    Graph,
    GraphMatrixKind,
    _g6_vertex_count,
    adjacency_stack,
    barbell,
    build_matrix,
    circulant,
    complete,
    complete_bipartite,
    complete_multipartite,
    cycle,
    emit_graph6,
    generate_from_spec,
    mycielskian,
    normalized_adjacency_stack,
    parse_edge_list,
    parse_graph6,
    petersen,
    random_gnp,
    random_gnp_adjacency,
    sun,
    unnormalized_stacks,
    windmill,
)
from spectral_chroma.oracle import all_graphs, greedy_coloring, labeled_graphs


class TestGraphInvariants:
    def test_edges_normalized_to_min_max(self):
        g = Graph(4, frozenset({(3, 1), (0, 2)}))
        assert g.edges == frozenset({(1, 3), (0, 2)})

    def test_loop_rejected(self):
        with pytest.raises(DomainError):
            Graph(3, frozenset({(1, 1)}))

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            Graph(3, frozenset({(0, 3)}))

    def test_nonpositive_n_rejected(self):
        with pytest.raises(DomainError):
            Graph(0, frozenset())

    def test_degrees(self):
        g = from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert list(g.degrees()) == [3, 1, 1, 1]

    def test_duplicate_collapse_via_from_edges(self):
        g = from_edges(3, [(0, 1), (1, 0)])
        assert g.edge_count == 1


class TestGraph6:
    def test_single_vertex(self):
        g = parse_graph6("@")
        assert g.n == 1 and g.edge_count == 0

    def test_five_vertex_star(self):
        g = parse_graph6("D?{")
        assert g.n == 5
        assert g.edges == frozenset({(0, 4), (1, 4), (2, 4), (3, 4)})

    def test_header_prefix_stripped(self):
        assert parse_graph6(">>graph6<<D?{").edges == parse_graph6("D?{").edges

    def test_k4(self):
        # C~ = n=4, all six upper-triangle bits set
        g = parse_graph6("C~")
        assert g.edges == complete(4).edges

    def test_round_trip_small(self):
        for g in [complete(5), cycle(7), petersen(), Graph(3)]:
            assert parse_graph6(emit_graph6(g)).edges == g.edges

    def test_round_trip_large_form(self):
        g = cycle(70)
        s = emit_graph6(g)
        assert s.startswith("~")
        back = parse_graph6(s)
        assert back.n == 70 and back.edges == g.edges

    def test_long_header_below_63_rejected(self):
        # the Petersen graph is "IheA@GUAo"; the four-byte header is not canonical for n <= 62
        with pytest.raises(ParseError) as info:
            parse_graph6("~??IheA@GUAo")
        assert str(info.value) == (
            "non-canonical graph6 header '~??I': n=10 takes the one-byte header 'I'"
        )
        # n = 0 keeps its own refusal, and n = 63 takes the four-byte header
        with pytest.raises(ParseError, match="^graph6 encodes an empty vertex set"):
            parse_graph6("~???")
        assert parse_graph6(emit_graph6(cycle(63))).edges == cycle(63).edges

    def test_nonzero_padding_rejected(self):
        # n=3 uses 3 of 6 bits; set one of the 3 padding bits
        bad = "B" + chr(63 + 1)
        with pytest.raises(ParseError, match="padding"):
            parse_graph6(bad)

    def test_truncated_input(self):
        with pytest.raises(ParseError, match="truncated"):
            parse_graph6("D")

    def test_trailing_bytes(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_graph6("C~~")

    def test_byte_out_of_range(self):
        with pytest.raises(ParseError, match="offset"):
            parse_graph6("C" + chr(20))

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_graph6("")

    @seed(1)
    @given(st.integers(1, 30), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random(self, n, s):
        g = random_gnp(n, 0.5, s)
        assert parse_graph6(emit_graph6(g)).edges == g.edges


class TestEdgeList:
    def test_basic(self):
        g = parse_edge_list("0 1\n1 2\n")
        assert g.n == 3 and g.edges == frozenset({(0, 1), (1, 2)})

    def test_vertex_count_header(self):
        g = parse_edge_list("n 5\n0 1\n")
        assert g.n == 5 and g.edge_count == 1

    def test_duplicates_collapse(self):
        g = parse_edge_list("0 1\n1 0\n0 1\n")
        assert g.edge_count == 1

    def test_blank_lines_skipped(self):
        g = parse_edge_list("\n0 1\n\n2 3\n")
        assert g.n == 4 and g.edge_count == 2

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_edge_list("0 1\n1 x\n")

    def test_loop_rejected_with_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_edge_list("2 2\n")

    def test_endpoint_beyond_declared_count(self):
        with pytest.raises(ParseError, match="exceeds"):
            parse_edge_list("n 2\n0 5\n")

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse_edge_list("\n\n")

    def test_header_only_gives_edgeless(self):
        g = parse_edge_list("n 4\n")
        assert g.n == 4 and g.edge_count == 0


class TestMatrices:
    def test_laplacian_rows_sum_to_zero_exactly(self):
        g = petersen()
        lap = build_matrix(g, GraphMatrixKind.LAPLACIAN)
        assert (lap.sum(axis=1) == 0.0).all()

    def test_signless_laplacian_is_d_plus_a(self):
        g = cycle(5)
        a = build_matrix(g, GraphMatrixKind.ADJACENCY)
        q = build_matrix(g, GraphMatrixKind.SIGNLESS_LAPLACIAN)
        assert np.array_equal(q, np.diag(g.degrees().astype(float)) + a)

    def test_exact_symmetry_all_kinds(self):
        g = random_gnp(12, 0.4, 7)
        for kind in GraphMatrixKind:
            m = build_matrix(g, kind)
            assert np.array_equal(m, m.T)

    def test_normalized_rejects_isolated_vertex(self):
        g = from_edges(3, [(0, 1)])
        with pytest.raises(DomainError, match="isolated"):
            build_matrix(g, GraphMatrixKind.NORMALIZED_ADJACENCY)

    def test_regular_normalization_scales_adjacency(self):
        g = cycle(6)
        a = build_matrix(g, GraphMatrixKind.ADJACENCY)
        na = build_matrix(g, GraphMatrixKind.NORMALIZED_ADJACENCY)
        assert np.allclose(na, a / 2.0)


class TestFamilies:
    def test_complete(self):
        g = complete(5)
        assert g.n == 5 and g.edge_count == 10

    def test_complete_bipartite(self):
        g = complete_bipartite(2, 3)
        assert g.n == 5 and g.edge_count == 6
        assert (0, 1) not in g.edges

    def test_complete_multipartite_block_layout(self):
        g = complete_multipartite([2, 2, 2])
        assert g.n == 6 and g.edge_count == 12
        assert (0, 1) not in g.edges and (2, 3) not in g.edges

    def test_cycle(self):
        g = cycle(5)
        assert g.edge_count == 5 and (0, 4) in g.edges

    def test_cycle_too_small(self):
        with pytest.raises(DomainError):
            cycle(2)

    def test_circulant_offsets(self):
        g = circulant(16, [1, 7, 8])
        assert g.n == 16
        # offset 8 pairs up antipodal vertices once, so degree is 5
        assert set(g.degrees()) == {5}
        assert g.edge_count == 40

    def test_circulant_rejects_bad_offset(self):
        with pytest.raises(DomainError):
            circulant(10, [6])

    def test_barbell_bridge(self):
        g = barbell(8)
        assert g.n == 16 and g.edge_count == 2 * 28 + 1
        assert (7, 8) in g.edges

    def test_sun_shape(self):
        g = sun(8)
        assert g.n == 16 and g.edge_count == 28 + 16
        assert min(g.degrees()) == 2

    def test_windmill(self):
        g = windmill(3, 6)
        assert g.n == 16 and g.edge_count == 3 * 15
        assert g.degrees()[0] == 15

    def test_mycielskian_of_c5(self):
        g = mycielskian(cycle(5))
        assert g.n == 11 and g.edge_count == 20
        adj = g.neighbors()
        # triangle-free: no edge inside any neighborhood
        for u, v in g.edges:
            assert not (adj[u] & adj[v])

    def test_petersen(self):
        g = petersen()
        assert g.n == 10 and g.edge_count == 15
        assert set(g.degrees()) == {3}


class TestGeneratorSpecs:
    def test_circulant_spec(self):
        assert generate_from_spec("circulant(16;1,7,8)").edges == circulant(16, [1, 7, 8]).edges

    def test_nested_mycielskian(self):
        assert generate_from_spec("mycielskian(cycle(5))").edges == mycielskian(cycle(5)).edges

    def test_no_arg_family(self):
        assert generate_from_spec("petersen").edges == petersen().edges

    def test_whitespace_tolerated(self):
        assert generate_from_spec(" complete( 5 ) ").edges == complete(5).edges

    def test_unknown_family(self):
        with pytest.raises(DomainError, match="unknown"):
            generate_from_spec("hypercube(4)")

    def test_wrong_arity(self):
        with pytest.raises(DomainError):
            generate_from_spec("complete(3,4)")

    def test_circulant_without_semicolon(self):
        with pytest.raises(DomainError, match="circulant"):
            generate_from_spec("circulant(16,1,7,8)")

    # one spec per row of the integer-family table, with upper case and extra whitespace
    @pytest.mark.parametrize(
        "spec, builder, args",
        [
            ("complete(4)", complete, (4,)),
            ("COMPLETE_BIPARTITE( 2 , 3 )", complete_bipartite, (2, 3)),
            ("complete_multipartite(3, 1,2)", complete_multipartite, ([3, 1, 2],)),
            ("  Cycle(7)  ", cycle, (7,)),
            ("barbell(3)", barbell, (3,)),
            ("Sun (4)", sun, (4,)),
            ("windmill( 3,6 )", windmill, (3, 6)),
        ],
    )
    def test_table_family_is_its_builder(self, spec, builder, args):
        assert_same_graph(generate_from_spec(spec), builder(*args))

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("windmill(3)", "generator spec 'windmill(3)' expects 2 integer argument(s), got 1"),
            ("cycle(5,x)", "non-integer argument in generator spec 'cycle(5,x)'"),
            ("circulant(x;1)", "non-integer argument in generator spec 'circulant(x;1)'"),
            # an empty offset is refused, not dropped, as in the integer families
            ("circulant(8;1,,2)", "non-integer argument in generator spec 'circulant(8;1,,2)'"),
            ("circulant(8;)", "circulant needs offsets in 'circulant(8;)'"),
            ("circulant(8; )", "circulant needs offsets in 'circulant(8; )'"),
            ("petersen(1)", "petersen takes no arguments"),
            (
                "complete_multipartite()",
                "complete_multipartite needs part sizes in 'complete_multipartite()'",
            ),
            ("mycielskian()", "mycielskian needs a nested generator spec in 'mycielskian()'"),
            (
                "circulant(16,1)",
                "circulant spec must read circulant(n;s1,s2,...), got 'circulant(16,1)'",
            ),
            ("hypercube(4)", "unknown graph family 'hypercube'"),
            ("complete(5", "unparseable generator spec 'complete(5'"),
            # the builders' own refusals: a DomainError is a ValueError, and
            # the integer parsing must not rewrite it
            ("circulant(8;9)", "circulant offset 9 outside [1, 4] for n=8"),
            ("cycle(2)", "cycle needs at least 3 vertices, got 2"),
        ],
    )
    def test_refusal_text(self, spec, message):
        with pytest.raises(DomainError) as info:
            generate_from_spec(spec)
        assert str(info.value) == message


class TestRandomGnp:
    def test_deterministic(self):
        assert random_gnp(20, 0.5, 42).edges == random_gnp(20, 0.5, 42).edges

    def test_seed_changes_edges(self):
        assert random_gnp(20, 0.5, 1).edges != random_gnp(20, 0.5, 2).edges

    def test_p_zero_and_one(self):
        assert random_gnp(10, 0.0, 5).edge_count == 0
        assert random_gnp(10, 1.0, 5).edges == complete(10).edges

    def test_bad_p(self):
        with pytest.raises(DomainError):
            random_gnp(5, 1.5, 0)

    def test_frozen_sample(self):
        # pinned draw so that any change to the generator is caught
        g = random_gnp(6, 0.5, 2026)
        assert g.edges == frozenset(
            {(0, 2), (0, 4), (1, 5), (2, 3), (2, 4), (3, 4), (3, 5)}
        )

    @pytest.mark.parametrize("n", [1, 2, 7, 50])
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_adjacency_stack_rows_are_the_graphs(self, n, p):
        seeds = [0, 5, -1, -4, -(2**63), 2**63, 2**64 - 1, 2**64, 2**64 + 5, 3 * 2**64 + 11]
        stack = random_gnp_adjacency(n, p, seeds)
        assert stack.shape == (len(seeds), n, n) and stack.dtype == np.float64
        for k, s in enumerate(seeds):
            assert np.array_equal(stack[k], random_gnp(n, p, s).adjacency())

    def test_adjacency_stack_bad_p(self):
        with pytest.raises(DomainError):
            random_gnp_adjacency(5, -0.1, [0])

    @pytest.mark.parametrize("p, seed_value", [(0.5, 1), (0.1, 2), (1.0, 3)])
    def test_blocks_match_the_one_shot_draw(self, p, seed_value):
        n = 1000
        assert n * (n - 1) // 2 > 10 * graphs._PAIR_BLOCK  # many blocks, most cut mid-column
        rows, cols, (keep,) = reference_gnp_one_shot(n, p, [seed_value])
        want = Graph(n, np.array((rows[keep], cols[keep])).T)
        assert_same_graph(random_gnp(n, p, seed_value), want)

    def test_adjacency_blocks_match_the_one_shot_draw(self):
        n, seeds = 300, [0, 7, -3]
        rows, cols, keep = reference_gnp_one_shot(n, 0.5, seeds)
        want = np.zeros((len(seeds), n, n))
        want[:, rows, cols] = keep
        want[:, cols, rows] = keep
        assert np.array_equal(random_gnp_adjacency(n, 0.5, seeds), want)

    def test_sampler_memory_peak(self):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            g = random_gnp(1000, 0.5, 1)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # the draws are made in blocks; the edge array and one copy of it set the peak
        assert g.ends.nbytes < 4 * 2**20 and peak < 8 * 2**20

    @seed(2)
    @given(st.integers(2, 40), st.integers(0, 2**63 - 1))
    @settings(max_examples=40, deadline=None)
    def test_density_sane(self, n, s):
        g = random_gnp(n, 0.5, s)
        assert 0 <= g.edge_count <= n * (n - 1) // 2


# --------------------------------------------------------------------------
# scalar references: the per-pair, per-edge loops the array code replaced.
# The vectorized sampler, codec and matrix builds must agree with them
# bit for bit.

_REF_MASK64 = (1 << 64) - 1
_REF_GAMMA = 0x9E3779B97F4A7C15


def _ref_splitmix64(x: int) -> int:
    z = x & _REF_MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _REF_MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _REF_MASK64
    return z ^ (z >> 31)


def reference_gnp_edges(n: int, p: float, seed_value: int) -> frozenset:
    threshold = int(Fraction(p) * (1 << 64))
    base = seed_value & _REF_MASK64
    edges = []
    counter = 0
    for i in range(n):
        for j in range(i + 1, n):
            counter += 1
            if _ref_splitmix64(base + counter * _REF_GAMMA) < threshold:
                edges.append((i, j))
    return frozenset(edges)


def reference_gnp_one_shot(n: int, p: float, seeds: list[int]):
    """The sampler's draw over all C(n, 2) pairs at once.

    Returns the pairs (i, j), i < j, in lexicographic order and the
    (G, C(n, 2)) keep mask, row k for seeds[k].
    """

    threshold = int(Fraction(p) * (1 << 64))
    rows, cols = np.triu_indices(n, 1)  # counter k + 1 belongs to the k-th pair
    counters = np.arange(1, rows.size + 1, dtype=np.uint64)
    starts = np.array([s & _REF_MASK64 for s in seeds], dtype=np.uint64)
    z = starts[:, None] + counters * np.uint64(_REF_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    draws = z ^ (z >> np.uint64(31))
    if threshold > _REF_MASK64:
        return rows, cols, np.ones(draws.shape, dtype=bool)
    return rows, cols, draws < np.uint64(threshold)


def reference_parse_graph6(text: str) -> Graph:
    return Graph(*reference_graph6_edges(text))


def reference_graph6_edges(text: str) -> tuple[int, list[tuple[int, int]]]:
    """The vertex count and the edges (i, j), i < j, of a graph6 string, in bit order."""

    line = text.strip()
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<"):]
    try:
        data = line.encode("ascii")
    except UnicodeEncodeError as exc:
        raise ParseError(f"graph6 input is not ASCII: {exc}") from None
    n, offset = _g6_vertex_count(data)
    if n < 1:
        raise ParseError("graph6 encodes an empty vertex set; graphs here need n >= 1")
    if n > _G6_MAX_N:
        raise ParseError(f"graph6 vertex count {n} exceeds the supported maximum {_G6_MAX_N}")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - offset < nbytes:
        raise ParseError(
            f"truncated graph6 bit field at byte offset {len(data)}: "
            f"need {nbytes} data bytes for n={n}, got {len(data) - offset}"
        )
    if len(data) - offset > nbytes:
        raise ParseError(f"unexpected trailing graph6 bytes at offset {offset + nbytes}")
    bits: list[int] = []
    for i in range(nbytes):
        b = data[offset + i]
        if not 63 <= b <= 126:
            raise ParseError(f"out-of-range graph6 byte {b} at offset {offset + i}")
        chunk = b - 63
        bits.extend((chunk >> shift) & 1 for shift in (5, 4, 3, 2, 1, 0))
    if any(bits[nbits:]):
        raise ParseError("nonzero graph6 padding bits; encoding is not canonical")
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return n, edges


def reference_emit_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        header = [n + 63]
    else:
        header = [126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    out = list(header)
    chunk = 0
    filled = 0
    for j in range(1, n):
        for i in range(j):
            chunk = (chunk << 1) | ((i, j) in g.edges)
            filled += 1
            if filled == 6:
                out.append(chunk + 63)
                chunk, filled = 0, 0
    if filled:
        out.append((chunk << (6 - filled)) + 63)
    return bytes(out).decode("ascii")


def _bits(a: np.ndarray) -> tuple:
    return a.dtype, a.shape, a.tobytes()


@pytest.fixture(scope="module")
def equivalence_graphs() -> list[Graph]:
    """Every graph of all_graphs(n <= 7), the families, then G(n, p) across the graph6 header."""

    graphs = [g for n in range(1, 8) for g in all_graphs(n)]
    graphs += [
        petersen(),
        mycielskian(mycielskian(cycle(5))),
        circulant(16, [1, 7, 8]),
        complete_multipartite([3, 1, 4]),
        windmill(3, 6),
        barbell(5),
        sun(4),
    ]
    for n in (62, 63, 64, 300):
        for p, seed_value in ((0.5, 1), (0.1, 2), (0.9, 3)):
            graphs.append(random_gnp(n, p, seed_value))
    return graphs


def _raised(fn, *args):
    try:
        fn(*args)
    except (ParseError, DomainError) as exc:
        return type(exc), str(exc)
    return None


class TestScalarReferenceEquivalence:
    @pytest.mark.parametrize("seed_value", [-1, 0, 1, 2**63 + 5, 2**64 - 1])
    @pytest.mark.parametrize("p", [0.0, 2.0**-60, 1 / 3, 0.5, 0.9, 1.0])
    def test_sampler_matches_scalar_reference(self, p, seed_value):
        for n in range(1, 61):
            assert random_gnp(n, p, seed_value).edges == reference_gnp_edges(n, p, seed_value)

    def test_graph6_matches_scalar_reference(self, equivalence_graphs):
        for g in equivalence_graphs:
            text = emit_graph6(g)
            assert text == reference_emit_graph6(g)
            back = parse_graph6(text)
            assert back.n == g.n
            assert back.edges == reference_parse_graph6(text).edges == g.edges

    def test_matrices_match_scalar_reference(self, equivalence_graphs):
        # build_matrix is a stack builder on a stack of one
        for g in equivalence_graphs:
            for kind in GraphMatrixKind:
                expected = _raised(reference_build_matrix, g, kind)
                if expected is not None:
                    assert _raised(build_matrix, g, kind) == expected
                    continue
                got = build_matrix(g, kind)
                assert _bits(got) == _bits(reference_build_matrix(g, kind)), (g, kind)
                assert got.flags.writeable and not np.shares_memory(got, g.adjacency())

    def test_stack_builders_match_per_graph_matrices(self, equivalence_graphs):
        # every graph of one order in one stack, as the reports solve them
        by_order: dict[int, list[Graph]] = {}
        for g in equivalence_graphs:
            by_order.setdefault(g.n, []).append(g)
        for group in by_order.values():
            a = adjacency_stack(group)
            assert _bits(a) == _bits(np.stack([g.adjacency() for g in group]))
            for kind, stack in zip(UNNORMALIZED_KINDS, unnormalized_stacks(a)):
                assert stack is a  # each kind is written over the one buffer
                for g, m in zip(group, stack):
                    assert _bits(m) == _bits(reference_build_matrix(g, kind)), (g, kind)
            normal = [g for g in group if g.degrees().all()]
            if normal:
                stack = normalized_adjacency_stack(adjacency_stack(normal))
                for g, m in zip(normal, stack):
                    expected = reference_build_matrix(g, GraphMatrixKind.NORMALIZED_ADJACENCY)
                    assert _bits(m) == _bits(expected), g

    def test_first_isolated_vertex_named(self):
        a = adjacency_stack([cycle(4), from_edges(4, [(0, 3)])])
        before = a.copy()
        with pytest.raises(DomainError) as info:
            normalized_adjacency_stack(a)
        assert str(info.value) == "normalized matrix undefined: vertex 1 is isolated"
        assert _bits(a) == _bits(before)

    def test_adjacency_stack_of_graphs_of_one_order(self):
        graphs = [Graph(5), cycle(5), from_edges(5, [(4, 0)])]
        a = adjacency_stack(graphs)
        assert a.shape == (3, 5, 5) and a.dtype == np.float64 and a.flags.writeable
        for g, m in zip(graphs, a):
            assert _bits(m) == _bits(reference_build_matrix(g, GraphMatrixKind.ADJACENCY))
        with pytest.raises(DomainError, match="graph 1 has n=4"):
            adjacency_stack([cycle(5), cycle(4)])

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "B" + chr(63 + 1),             # nonzero padding
            "D",                            # truncated bit field
            "C~~",                          # trailing byte
            "C" + chr(20),                  # out-of-range data byte
            "E" + chr(20) + "?" + chr(127),  # two bad bytes: the first is reported
            "E?" + chr(127) + chr(20),
            "?",                            # empty vertex set
            "~",                            # truncated long header
            "~??",
            "~~??????",                     # beyond the 18-bit form
            "~?" + chr(20) + "?",           # out-of-range header byte
            "~B??",                         # n = 12288 exceeds the maximum
            "~??~" + "?" * 10,              # n = 63, truncated
            "Dé",                           # not ASCII
            " " + chr(127),                 # out-of-range first byte
        ],
    )
    def test_bad_graph6_same_error(self, text):
        expected = _raised(reference_parse_graph6, text)
        assert expected is not None and expected[0] is ParseError
        assert _raised(parse_graph6, text) == expected


def assert_same_graph(got: Graph, want: Graph) -> None:
    """The same stored graph: ends bytes, dtype, shape and flag, equality and hash."""

    assert got.n == want.n
    assert got.ends.dtype == want.ends.dtype == np.int64
    assert got.ends.shape == want.ends.shape == (want.edge_count, 2)
    assert got.ends.tobytes() == want.ends.tobytes()
    assert not got.ends.flags.writeable and not want.ends.flags.writeable
    assert got == want and hash(got) == hash(want)


def reference_labeled_graphs(n: int):
    """labeled_graphs(n) as a loop: bit b of graph k's number is the b-th pair in graph6 order."""

    pairs = [(i, j) for j in range(n) for i in range(j)]
    for k in range(1 << len(pairs)):
        yield Graph(n, [pair for b, pair in enumerate(pairs) if k >> b & 1])


class TestDecodedGraphsMatchValidated:
    """Graphs decoded from graph6 bits equal those the validating constructor builds."""

    def test_enumerations(self):
        for n in range(1, 8):
            for g in all_graphs(n):
                assert_same_graph(g, Graph(g.n, g.ends.tolist()))
        for g, want in itertools.zip_longest(labeled_graphs(6), reference_labeled_graphs(6)):
            assert_same_graph(g, Graph(g.n, g.ends.tolist()))
            assert_same_graph(g, want)

    def test_corpus_matches_scalar_reference(self):
        for n in (6, 7):
            decoded = list(all_graphs(n))
            assert len(decoded) == len(oracle._corpus_lines(n))
            for g, line in zip(decoded, oracle._corpus_lines(n)):
                assert_same_graph(g, reference_parse_graph6(line))

    def test_parse_graph6(self, equivalence_graphs):
        for g in equivalence_graphs:
            got = parse_graph6(emit_graph6(g))
            assert_same_graph(got, Graph(g.n, g.ends.tolist()))
            assert_same_graph(got, g)


class TestCanonicalEndpoints:
    def test_one_stored_form_whatever_the_input(self, equivalence_graphs):
        rng = random.Random(15)
        for g in equivalence_graphs:
            n, bit_order = reference_graph6_edges(emit_graph6(g))
            assert n == g.n and list(map(tuple, g.ends.tolist())) == bit_order
            assert g.ends.dtype == np.int64 and not g.ends.flags.writeable
            assert g.edges == frozenset(bit_order) and g.edge_count == len(bit_order)
            shuffled = rng.sample(bit_order, len(bit_order))
            reversed_ = [(v, u) for u, v in shuffled]
            versions = [
                Graph(n, shuffled),
                Graph(n, reversed_),
                Graph(n, shuffled + reversed_[: len(reversed_) // 2]),
                Graph(n, np.array(reversed_, dtype=np.int64).reshape(-1, 2)),
                from_edges(n, iter(reversed_ + shuffled)),
            ]
            for h in versions:
                assert h == g and hash(h) == hash(g)
            assert Graph(n + 1, g.ends) != g
            if bit_order:
                assert Graph(n, bit_order[1:]) != g
            pairs = ((i, j) for j in range(n) for i in range(j))
            missing = next((e for e in pairs if e not in g.edges), None)
            if missing is not None:
                assert Graph(n, bit_order + [missing]) != g

    def test_report_builds_no_edge_set(self):
        g = random_gnp(60, 0.5, 1)
        full_report(g)
        greedy_coloring(g)
        assert "_edges" not in vars(g)
        assert g.edges is vars(g)["_edges"]  # the cache this test looks for

    def test_parse_graph6_holds_only_the_endpoint_array(self):
        text = emit_graph6(random_gnp(1000, 0.5, 1))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            g = parse_graph6(text)
            live = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # the endpoint array is traced, so the bound is not met by an untraced store
        assert g.ends.nbytes <= live < 8 * 2**20

    def test_parse_graph6_of_a_sparse_graph_builds_no_full_pair_table(self):
        text = emit_graph6(random_gnp(2000, 0.001, 1))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            g = parse_graph6(text)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # a table of all C(2000, 2) pairs alone would take 30.5 MB
        assert g.edge_count < 2500 and peak < 8 * 2**20


class TestGraphCaches:
    def test_derived_values_are_cached_and_read_only(self):
        g = petersen()
        for method in (g.degrees, g.neighbors):
            assert method() is method()
        with pytest.raises(ValueError):
            g.degrees()[0] = 7
        assert all(isinstance(nb, frozenset) for nb in g.neighbors())

    def test_adjacency_is_built_on_each_call_and_not_kept(self):
        g = petersen()
        a = g.adjacency()
        a[0, 1] = 0.0  # a new array, the caller's to overwrite
        assert g.adjacency()[0, 1] == 1.0 and g.adjacency() is not g.adjacency()
        assert not [v for v in vars(g).values() if getattr(v, "shape", None) == (g.n, g.n)]

    def test_caches_do_not_affect_equality(self):
        a, b = cycle(6), cycle(6)
        a.adjacency()
        a.neighbors()
        assert a == b and hash(a) == hash(b)

    def test_derived_values_match_edges(self, equivalence_graphs):
        for g in equivalence_graphs:
            expected = [set() for _ in range(g.n)]
            for u, v in g.edges:
                expected[u].add(v)
                expected[v].add(u)
            assert [set(nb) for nb in g.neighbors()] == expected
            assert g.degrees().tolist() == [len(nb) for nb in expected]
            assert g.degrees().dtype == np.int64

    def test_first_bad_edge_reported(self):
        with pytest.raises(DomainError, match=r"loop edge \(2, 2\)"):
            Graph(3, ((0, 1), (2, 2), (0, 5)))
        with pytest.raises(DomainError, match=r"edge \(0, 5\) outside"):
            Graph(3, ((0, 1), (0, 5), (2, 2)))
        with pytest.raises(DomainError, match=r"edge \(-1, 1\) outside"):
            Graph(3, ((-1, 1),))

    def test_non_pairs_rejected(self):
        for bad in (((0, 1, 2),), ((0,),), (5,), ((0, 2**70),)):
            with pytest.raises(DomainError, match="pairs"):
                Graph(3, bad)

    def test_sequence_input_normalized_and_deduplicated(self):
        g = Graph(3, [(1, 0), (0, 1), [2, 1]])
        assert g.edges == frozenset({(0, 1), (1, 2)})
        assert g.degrees().tolist() == [1, 2, 1]
