"""Simple undirected graphs: representation, formats, and generators.

A Graph is a vertex count plus one read-only array of 0-based endpoint
pairs, a row per edge in graph6 bit order. This module owns the two text
formats (graph6 and edge lists), the builder of each derived matrix kind
on a stack of adjacency matrices, the deterministic family generators
used by the comparison tables, and a counter-based G(n, p) sampler that
reproduces bit-identically across platforms, for one graph or as a stack
of adjacency matrices.

Graphs are made two ways. Graph(n, pairs) validates each graph: edge
lists and the family generators use it. graphs_from_bits validates once
per array: a (G, C(n, 2)) 0/1 array in graph6 bit order becomes G
graphs whose ends are the pairs of their set bits, correct by
construction. It decodes the bundled corpora (graph6_rows checks a
whole file of lines as one array), the labeled enumeration, and each
parse_graph6 line as a batch of one. random_gnp draws its pairs in
graph6 order and builds its Graph the same unchecked way.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DomainError, ParseError

Edge = tuple[int, int]


class GraphMatrixKind(Enum):
    """The four derived matrices a graph spectrum can be taken from."""

    ADJACENCY = "Adjacency"
    LAPLACIAN = "Laplacian"
    SIGNLESS_LAPLACIAN = "SignlessLaplacian"
    NORMALIZED_ADJACENCY = "NormalizedAdjacency"


def computed_once(method):
    """Cache the result of a function of one Graph on the graph.

    It decorates zero-argument Graph methods, and module functions whose
    only argument is a Graph. Graph is frozen, so its fields never change
    and neither can anything derived from them; the value is stored under
    "_" + the function name in the instance dict, which equality and
    hashing ignore.
    """

    key = "_" + method.__name__

    @functools.wraps(method)
    def cached(self):
        try:
            return self.__dict__[key]
        except KeyError:
            value = self.__dict__[key] = method(self)
            return value

    return cached


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _endpoint_array(pairs: Iterable[Sequence[int]] | np.ndarray) -> np.ndarray:
    """Endpoint pairs as an (m, 2) int64 array, in iteration order."""

    try:
        a = np.asarray(pairs if isinstance(pairs, np.ndarray) else tuple(pairs), dtype=np.int64)
        if a.size and (a.ndim != 2 or a.shape[1] != 2):
            raise ValueError("not pairs")
    except (TypeError, ValueError, OverflowError):
        raise DomainError("edges must be pairs of integer vertex indices") from None
    return a.reshape(-1, 2)


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    The edges are stored once, as `ends`: a read-only (m, 2) int64 array,
    one row (i, j), i < j, per edge, ordered by j and then i (graph6 bit
    order). Any iterable of pairs or (m, 2) array is accepted; the first
    loop or out-of-range endpoint in iteration order is rejected and
    duplicates collapse, so every Graph satisfies the invariants by
    construction. graphs_from_bits and random_gnp make Graphs without
    these per-graph checks, from pairs that hold the invariants by
    construction. The edge set, degrees and neighborhoods are derived on
    first use, once, and read-only. No dense matrix is kept: adjacency()
    builds a new one on each call.
    """

    n: int
    ends: np.ndarray = ()

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise DomainError(f"vertex count must be a positive integer, got {self.n!r}")
        u, v = _endpoint_array(self.ends).T
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        bad = (lo == hi) | (lo < 0) | (hi >= self.n)
        if np.count_nonzero(bad):
            first = bad.argmax()  # the first bad edge in iteration order
            u, v = int(u[first]), int(v[first])
            if u == v:
                raise DomainError(f"loop edge ({u}, {v}) not allowed")
            raise DomainError(f"edge ({u}, {v}) outside vertex range [0, {self.n})")
        order = np.lexsort((lo, hi))  # by column j, then row i: duplicates are adjacent
        lo, hi = lo[order], hi[order]
        repeats = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])  # row k + 1 repeats row k
        if np.count_nonzero(repeats):
            keep = np.append(True, ~repeats)
            lo, hi = lo[keep], hi[keep]
        object.__setattr__(self, "ends", _read_only(np.array((lo, hi)).T))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.ends.tobytes() == other.ends.tobytes()

    def __hash__(self) -> int:
        return hash((self.n, self.ends.tobytes()))

    @property
    def edge_count(self) -> int:
        return len(self.ends)

    @property
    @computed_once
    def edges(self) -> frozenset[Edge]:
        """The edge set as (i, j) pairs, i < j, built on first read."""

        i, j = self.ends.T.tolist()
        return frozenset(zip(i, j))

    @computed_once
    def degrees(self) -> np.ndarray:
        """Vertex degrees as int64."""

        d = np.bincount(self.ends.ravel(), minlength=self.n)
        return _read_only(d.astype(np.int64, copy=False))

    def adjacency(self) -> np.ndarray:
        """The dense 0/1 adjacency matrix as a new float64 array: adjacency_stack of one."""

        return adjacency_stack([self])[0]

    @computed_once
    def neighbors(self) -> tuple[frozenset[int], ...]:
        """Neighborhood of each vertex."""

        deg = self.degrees().tolist()
        _, cols = np.nonzero(self.adjacency())  # row-major: vertex by vertex
        cols = cols.tolist()
        stops = itertools.accumulate(deg)
        return tuple(frozenset(cols[stop - d:stop]) for stop, d in zip(stops, deg))


def common_order(graphs: Sequence[Graph]) -> int:
    """The vertex count shared by a nonempty batch of graphs."""

    if not graphs:
        raise DomainError("a batch needs at least one graph")
    n = graphs[0].n
    for k, g in enumerate(graphs):
        if g.n != n:
            raise DomainError(f"a batch needs graphs of one order: graph {k} has n={g.n}, not {n}")
    return n


# --------------------------------------------------------------------------
# graph6 codec (McKay format: 6-bit chunks, offset 63, upper triangle
# in column-major order, zero padding to a multiple of 6)

_G6_MAX_N = 10000


def _g6_vertex_count(data: bytes) -> tuple[int, int]:
    """Decode the N(n) header; returns (n, data offset of the bit field).

    Only the canonical header is accepted: the four-byte form for
    1 <= n <= 62, whose header is the one byte n + 63, is refused.
    """

    if not data:
        raise ParseError("empty graph6 string")
    b0 = data[0]
    if b0 == 126:  # '~' introduces the 18-bit form
        if len(data) < 4:
            raise ParseError("truncated graph6 header at byte offset 1")
        if data[1] == 126:
            raise ParseError("graph6 vertex counts above 258047 not supported (byte offset 1)")
        n = 0
        for off in (1, 2, 3):
            b = data[off]
            if not 63 <= b <= 126:
                raise ParseError(f"out-of-range graph6 byte {b} at offset {off}")
            n = (n << 6) | (b - 63)
        if 1 <= n <= 62:
            raise ParseError(
                f"non-canonical graph6 header {data[:4].decode('ascii')!r}: "
                f"n={n} takes the one-byte header {chr(n + 63)!r}"
            )
        return n, 4
    if not 63 <= b0 <= 126:
        raise ParseError(f"out-of-range graph6 byte {b0} at offset 0")
    return b0 - 63, 1


def parse_graph6(text: str) -> Graph:
    """Decode a one-line graph6 string into a Graph.

    The optional ">>graph6<<" prefix is accepted and stripped. Only
    canonical encodings round-trip, so nonzero padding bits are rejected
    rather than ignored. The line is checked once, and its bits become
    the Graph as a batch of one (graphs_from_bits).
    """

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
    body = np.frombuffer(data, dtype=np.uint8)[None, offset:]
    bits, bad = _g6_unpack(body)
    if np.count_nonzero(bad):
        k = int(bad.argmax())
        raise ParseError(f"out-of-range graph6 byte {int(body[0, k])} at offset {offset + k}")
    if np.count_nonzero(bits[:, nbits:]):
        raise ParseError("nonzero graph6 padding bits; encoding is not canonical")
    return next(graphs_from_bits(n, bits[:, :nbits]))


def graph6_rows(n: int, lines: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Decode graph6 lines of n-vertex graphs as one array, checked once.

    Returns the (G, C(n, 2)) bits of the lines, for graphs_from_bits, and
    a (G,) mask of the lines that are not the plain graph6 text of an
    n-vertex graph: a line of another length, another header, a byte
    outside 63..126 or nonzero padding. Flagged rows hold no graph; the
    caller raises for the first (parse_graph6 of it gives its error).
    Lines carry no prefix and no surrounding whitespace, and n <= 62, so
    the header is the one byte n + 63.
    """

    nbits = n * (n - 1) // 2
    width = 1 + (nbits + 5) // 6
    # each line cut or padded (with code 0, out of range) to the width of an n-vertex line
    codes = np.array(lines, dtype=f"<U{width}").view(np.uint32).reshape(len(lines), width)
    bits, bad_bytes = _g6_unpack(codes[:, 1:])
    lengths = np.fromiter(map(len, lines), dtype=np.intp, count=len(lines))
    bad = (lengths != width) | (codes[:, 0] != 63 + n) | bad_bytes.any(axis=1)
    return bits[:, :nbits], bad | bits[:, nbits:].any(axis=1)


def _g6_unpack(body: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bits of (G, nbytes) graph6 data codes, and the mask of codes outside 63..126.

    Each code holds 6 bits, most significant first; the (G, 6 * nbytes)
    bits include the padding.
    """

    chunks = body - body.dtype.type(63)  # codes below 63 wrap to values above 63
    bits = np.unpackbits(chunks.astype(np.uint8)[..., None], axis=-1)[..., 2:]
    return bits.reshape(body.shape[0], 6 * body.shape[1]), chunks > 63


def graphs_from_bits(n: int, bits: np.ndarray) -> Iterator[Graph]:
    """One Graph per row of a (G, C(n, 2)) 0/1 array in graph6 bit order, made lazily.

    The array is checked once; its graphs are not validated one by one.
    The pairs of the set bits of _DECODE_ROWS rows at a time are found in
    one pass (_pairs_at), and graph k's ends are the read-only slice of
    them that row k sets: in range, loop-free, in graph6 order and
    without repeats by construction, so they are the ends Graph(n, pairs)
    would store.
    """

    _require_positive("n", n)
    bits = np.asarray(bits, dtype=bool)
    if bits.ndim != 2 or bits.shape[1] != n * (n - 1) // 2:
        raise DomainError(
            f"graph bits for n={n} need shape (G, {n * (n - 1) // 2}), got {bits.shape}"
        )
    width = max(bits.shape[1], 1)  # n = 1 has no bits to index
    for first in range(0, len(bits), _DECODE_ROWS):
        chunk = bits[first:first + _DECODE_ROWS]
        k = np.flatnonzero(chunk)  # bit b of row r is r * width + b
        cuts = k.searchsorted(np.arange(len(chunk) + 1) * width).tolist()  # row r: cuts[r]..
        k %= width  # in place: index arrays are the decode's largest temporaries
        ends = _read_only(_pairs_at(n, k))
        for start, stop in zip(cuts, cuts[1:]):
            yield _graph(n, ends[start:stop])


_DECODE_ROWS = 128  # graphs per decoding pass: small arrays; a graph keeps only its pass's pairs


def _graph(n: int, ends: np.ndarray) -> Graph:
    """A Graph on read-only (m, 2) int64 ends that hold its invariants; nothing is checked."""

    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "ends", ends)
    return g


def _pairs_at(n: int, k: np.ndarray) -> np.ndarray:
    """The pairs (i, j), i < j, at graph6 bit indices k of an n-vertex graph, as (len(k), 2) int64.

    Column j holds the j pairs (i, j), i < j, from bit j(j - 1)/2 on.
    """

    col = np.arange(n, dtype=np.int64)
    starts = col * (col - 1) // 2
    j = starts.searchsorted(k, side="right")
    j -= 1  # in place, like the subtraction below: no temporary of 8 bytes per pair
    pairs = np.empty((len(k), 2), dtype=np.int64)
    pairs[:, 1] = j
    np.subtract(k, starts[j], out=pairs[:, 0])
    return pairs


def emit_graph6(g: Graph) -> str:
    """Encode a Graph as graph6 for its given labeling (no relabeling)."""

    if g.n > _G6_MAX_N:
        raise DomainError(f"graph6 emission supports at most {_G6_MAX_N} vertices, got {g.n}")
    n = g.n
    if n <= 62:
        header = [n + 63]
    else:
        header = [126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    nbytes = (n * (n - 1) // 2 + 5) // 6
    bits = np.zeros(6 * nbytes, dtype=np.uint8)
    i, j = g.ends.T  # i < j
    bits[j * (j - 1) // 2 + i] = 1  # pair (i, j) is bit j(j - 1)/2 + i
    # six bits per byte, most significant first, then the offset 63
    body = (np.packbits(bits.reshape(-1, 6), axis=1)[:, 0] >> 2) + 63
    return (bytes(header) + body.tobytes()).decode("ascii")


# --------------------------------------------------------------------------
# edge-list format

def parse_edge_list(text: str) -> Graph:
    """Parse whitespace-separated "u v" lines, 0-based.

    An optional first nonblank line "n <count>" fixes the vertex count
    (needed for trailing isolated vertices); otherwise n is one more
    than the largest index seen. Duplicate lines collapse.
    """

    declared_n: int | None = None
    edges: set[Edge] = set()
    max_seen = -1
    first_content = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        if first_content and tokens[0] == "n":
            if len(tokens) != 2:
                raise ParseError(f"line {lineno}: vertex-count line must read 'n <count>'")
            try:
                declared_n = int(tokens[1])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer vertex count {tokens[1]!r}") from None
            if declared_n < 1:
                raise ParseError(f"line {lineno}: vertex count must be positive, got {declared_n}")
            first_content = False
            continue
        first_content = False
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected two endpoints, got {len(tokens)} tokens")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer endpoint in {raw.strip()!r}") from None
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: negative vertex index in {raw.strip()!r}")
        if u == v:
            raise ParseError(f"line {lineno}: loop edge ({u}, {v}) not allowed")
        edges.add((min(u, v), max(u, v)))
        max_seen = max(max_seen, u, v)
    if declared_n is None and max_seen < 0:
        raise ParseError("edge list has no edges and no 'n <count>' line")
    n = declared_n if declared_n is not None else max_seen + 1
    if max_seen >= n:
        raise ParseError(f"edge endpoint {max_seen} exceeds declared vertex count {n}")
    return Graph(n, edges)


# --------------------------------------------------------------------------
# derived matrices: one builder per kind, each written over a new
# adjacency stack, so one dense stack is alive while it is solved

def adjacency_stack(graphs: Sequence[Graph]) -> np.ndarray:
    """(G, n, n) float64 stack of the 0/1 adjacency matrices of graphs of one order, new."""

    n = common_order(graphs)
    a = np.zeros((len(graphs), n, n))
    k = np.repeat(np.arange(len(graphs)), [g.edge_count for g in graphs])
    u, v = np.concatenate([g.ends for g in graphs]).T
    a[k, u, v] = a[k, v, u] = 1.0
    return a


def unnormalized_stacks(a: np.ndarray) -> Iterator[np.ndarray]:
    """A, L = D - A, then Q = |L|, each written over the caller's stack a: read each in turn."""

    deg = a.sum(axis=2)  # sums of 0s and 1s: exact
    yield a
    yield diagonal_minus_stack(a, deg, out=a)
    yield np.abs(a, out=a)


def normalized_adjacency_stack(a: np.ndarray) -> np.ndarray:
    """The normalized adjacency a_ij * x_i * x_j, x = 1 / sqrt(deg), written over the stack a.

    An entry is 0 or the rounded product x_i * x_j, the same in either
    order, so symmetry holds to the last bit. Every vertex needs positive
    degree: the first isolated one, in the first matrix that has one,
    raises DomainError naming it, before a is written.
    """

    deg = a.sum(axis=2)
    isolated = deg == 0
    if isolated.any():
        k = int(isolated.any(axis=1).argmax())
        raise DomainError(
            f"normalized matrix undefined: vertex {int(isolated[k].argmax())} is isolated"
        )
    x = 1.0 / np.sqrt(deg)
    a *= x[:, :, None]
    a *= x[:, None, :]
    return a


def diagonal_minus_stack(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """B - A from a (G, n, n) stack A with zero diagonal and the (G, n) diagonals of B, into out."""

    x = np.subtract(0.0, a, out=out)  # +0.0, not -0.0, where A is 0
    diag = np.arange(a.shape[1])
    x[:, diag, diag] = b
    return x


def majorization_stack(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """B + A/(c - 1) as a new stack: A/(c[k] - 1) with b[k] added to its zero diagonal, per k."""

    stack = a / (c - 1)[:, None, None]
    diag = np.arange(a.shape[1])
    stack[:, diag, diag] += b
    return stack


UNNORMALIZED_KINDS = tuple(GraphMatrixKind)[:3]  # A, L and Q, as unnormalized_stacks builds them


def build_matrix(g: Graph, kind: GraphMatrixKind) -> np.ndarray:
    """One of the four derived matrices of g as a new array: a builder on a stack of one."""

    a = adjacency_stack([g])
    if kind is GraphMatrixKind.NORMALIZED_ADJACENCY:
        return normalized_adjacency_stack(a)[0]
    return next(itertools.islice(unnormalized_stacks(a), UNNORMALIZED_KINDS.index(kind), None))[0]


# --------------------------------------------------------------------------
# family generators
#
# Vertex labelings are fixed and documented per family so that equal
# parameters always produce equal edge sets.

def _require_positive(name: str, value: int) -> int:
    if not isinstance(value, int) or value < 1:
        raise DomainError(f"{name} must be a positive integer, got {value!r}")
    return value


def complete(n: int) -> Graph:
    """K_n on vertices 0..n-1."""

    _require_positive("n", n)
    return Graph(n, itertools.combinations(range(n), 2))


def complete_multipartite(parts: Sequence[int]) -> Graph:
    """Complete multipartite graph; part k occupies a consecutive block."""

    parts = list(parts)
    if not parts:
        raise DomainError("complete_multipartite needs at least one part")
    for p in parts:
        _require_positive("part size", p)
    part = np.repeat(np.arange(len(parts)), parts)  # the part of each vertex
    i, j = np.triu_indices(part.size, 1)
    across = part[i] != part[j]
    return Graph(part.size, np.array((i[across], j[across])).T)


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}: part one is 0..a-1, part two is a..a+b-1."""

    return complete_multipartite([a, b])


def cycle(n: int) -> Graph:
    """C_n with edges (i, i+1 mod n); needs n >= 3."""

    _require_positive("n", n)
    if n < 3:
        raise DomainError(f"cycle needs at least 3 vertices, got {n}")
    return Graph(n, ((i, (i + 1) % n) for i in range(n)))


def circulant(n: int, connection_set: Sequence[int]) -> Graph:
    """Circulant graph: i adjacent to (i +/- s) mod n for each offset s."""

    _require_positive("n", n)
    offsets = sorted(set(int(s) for s in connection_set))
    for s in offsets:
        if s < 1 or s > n // 2:
            raise DomainError(f"circulant offset {s} outside [1, {n // 2}] for n={n}")
    return Graph(n, [(i, (i + s) % n) for i in range(n) for s in offsets])


def barbell(k: int) -> Graph:
    """Two disjoint K_k (vertices 0..k-1 and k..2k-1) joined by the bridge (k-1, k)."""

    _require_positive("k", k)
    clique = list(itertools.combinations(range(k), 2))
    return Graph(2 * k, clique + [(k + i, k + j) for i, j in clique] + [(k - 1, k)])


def sun(k: int) -> Graph:
    """K_k hub (0..k-1) plus outer vertices k..2k-1; outer i joins hubs i and i+1 mod k."""

    _require_positive("k", k)
    edges = list(itertools.combinations(range(k), 2))
    for i in range(k):
        edges += [(i, k + i), ((i + 1) % k, k + i)]
    return Graph(2 * k, edges)


def windmill(copies: int, clique_size: int) -> Graph:
    """`copies` copies of K_{clique_size} sharing vertex 0.

    Copy j occupies vertex 0 together with the block
    1 + j*(clique_size-1) .. (j+1)*(clique_size-1).
    """

    _require_positive("copies", copies)
    _require_positive("clique_size", clique_size)
    if clique_size < 2:
        raise DomainError(f"windmill clique size must be at least 2, got {clique_size}")
    edges = set()
    for j in range(copies):
        block = [0] + list(range(1 + j * (clique_size - 1), 1 + (j + 1) * (clique_size - 1)))
        for b in range(len(block)):
            for a in range(b):
                edges.add((block[a], block[b]))
    return Graph(copies * (clique_size - 1) + 1, edges)


def mycielskian(g: Graph) -> Graph:
    """Mycielski construction: originals 0..n-1, twins n..2n-1, apex 2n.

    Twin n+i copies the neighborhood of i and also joins the apex; the
    result raises the chromatic number by one while adding no triangle
    to a triangle-free input.
    """

    n = g.n
    i, j = g.ends.T
    twins = np.arange(n, 2 * n)
    # the edges of g; the twin of j joins i and the twin of i joins j; every twin joins the apex
    u = np.concatenate((i, i, j, twins))
    v = np.concatenate((j, n + j, n + i, np.full(n, 2 * n)))
    return Graph(2 * n + 1, np.array((u, v)).T)


def petersen() -> Graph:
    """Petersen graph: outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- 5+i."""

    edges = []
    for i in range(5):
        edges += [(i, (i + 1) % 5), (5 + i, 5 + (i + 2) % 5), (i, 5 + i)]
    return Graph(10, edges)


_GENERATOR_SPEC = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*(?:\((.*)\))?\s*$", re.DOTALL)

# the families whose arguments are a list of integers: each one's builder,
# called with the integers, and its arity, None for one or more arguments
_INTEGER_FAMILIES = {
    "complete": (complete, 1),
    "complete_bipartite": (complete_bipartite, 2),
    "complete_multipartite": (lambda *parts: complete_multipartite(parts), None),
    "cycle": (cycle, 1),
    "barbell": (barbell, 1),
    "sun": (sun, 1),
    "windmill": (windmill, 2),
}


def generate_from_spec(spec: str) -> Graph:
    """Resolve a generator mini-language spec like "circulant(16;1,7,8)".

    Grammar: family or family(args). Integer args are comma-separated,
    and a family of integer args is one row of _INTEGER_FAMILIES: its
    builder and arity. circulant separates n from its connection set,
    one or more offsets, with a semicolon; the mycielskian takes a
    nested spec as its single argument; petersen takes none.

    Nested mycielskians are peeled in a loop, and d of them around an
    n-vertex graph make (n + 1) * 2^d - 1 vertices: a spec past
    _G6_MAX_N, the most a graph6 id names, is refused before any of
    them is built.
    """

    depth = 0
    while (m := _GENERATOR_SPEC.match(spec)) and m.group(1).lower() == "mycielskian":
        if m.group(2) is None or not m.group(2).strip():
            raise DomainError(f"mycielskian needs a nested generator spec in {spec!r}")
        depth, spec = depth + 1, m.group(2)
    g = _family_graph(spec)
    if depth and (g.n + 1) * 2**depth - 1 > _G6_MAX_N:
        raise DomainError(
            f"{depth} nested mycielskians of a {g.n}-vertex graph exceed "
            f"the {_G6_MAX_N} vertices a graph6 id can name"
        )
    for _ in range(depth):
        g = mycielskian(g)
    return g


def _family_graph(spec: str) -> Graph:
    """The graph of a spec whose family is not the mycielskian."""

    m = _GENERATOR_SPEC.match(spec)
    if not m:
        raise DomainError(f"unparseable generator spec {spec!r}")
    name = m.group(1).lower()
    args = m.group(2)
    has_args = args is not None and bool(args.strip())
    if name == "circulant":
        if args is None or ";" not in args:
            raise DomainError(
                f"circulant spec must read circulant(n;s1,s2,...), got {spec!r}"
            )
        head, tail = args.split(";", 1)
        if not tail.strip():
            raise DomainError(f"circulant needs offsets in {spec!r}")
        n, *offsets = _integers(spec, [head, *tail.split(",")])
        return circulant(n, offsets)
    if name == "petersen":
        if has_args:
            raise DomainError("petersen takes no arguments")
        return petersen()
    if name not in _INTEGER_FAMILIES:
        raise DomainError(f"unknown graph family {name!r}")
    builder, arity = _INTEGER_FAMILIES[name]
    ints = _integers(spec, args.split(",") if has_args else [])
    if arity is None and not ints:
        raise DomainError(f"{name} needs part sizes in {spec!r}")
    if arity is not None and len(ints) != arity:
        raise DomainError(f"generator spec {spec!r} expects {arity} integer argument(s), got {len(ints)}")
    # the builder runs outside the try of _integers: its DomainError is a
    # ValueError, which that try would rewrite
    return builder(*ints)


def _integers(spec: str, tokens: list[str]) -> list[int]:
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        raise DomainError(f"non-integer argument in generator spec {spec!r}") from None


# --------------------------------------------------------------------------
# reproducible G(n, p)
#
# One independent 64-bit draw per vertex pair, in lexicographic pair
# order, from the SplitMix64 output function evaluated at
# seed + (counter + 1) * GAMMA. Integer arithmetic mod 2^64: the same
# (n, p, seed) gives the same edge set on any platform. The pair is
# included iff its draw is below floor(p * 2^64), computed exactly from
# the binary expansion of p. random_gnp and random_gnp_adjacency share
# one draw routine, which walks the pairs in graph6 order in blocks of
# at most _PAIR_BLOCK draws; the latter draws many seeds at once and
# returns dense adjacency stacks without building a Graph.

_MASK64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_PAIR_BLOCK = 1 << 15  # draws made per block


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 output function on a uint64 array; products wrap mod 2^64."""

    z = (x ^ (x >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _gnp_draws(
    n: int, p: float, seeds: Sequence[int]
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The draws of G(n, p) at each seed, in blocks of pairs in graph6 order.

    Yields (i, j, keep) per block: the block's pairs (i, j), i < j, and a
    (G, block) keep mask, row k for seeds[k]. Pair (i, j) draws at its
    lexicographic counter, so its draw is the one a single evaluation
    over all C(n, 2) pairs gives; a block holds at most _PAIR_BLOCK draws
    (at least one pair), which bounds the working arrays at any n.
    Bad arguments raise here, before any block.
    """

    _require_positive("n", n)
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"edge probability must lie in [0, 1], got {p}")
    threshold = int(Fraction(p) * (1 << 64))
    starts = np.array([seed & _MASK64 for seed in seeds], dtype=np.uint64)[:, None]
    total = n * (n - 1) // 2
    step = max(1, _PAIR_BLOCK // max(1, len(starts)))

    def blocks():
        for first in range(0, total, step):
            i, j = _pairs_at(n, np.arange(first, min(first + step, total))).T
            # counter k + 1 belongs to the k-th pair in lexicographic order
            counters = (i * (2 * n - i - 1) // 2 + j - i).astype(np.uint64)
            draws = _splitmix64(starts + counters * _GAMMA)
            if threshold > _MASK64:  # p = 1: every 64-bit draw is below 2^64
                yield i, j, np.ones(draws.shape, dtype=bool)
            else:
                yield i, j, draws < np.uint64(threshold)

    return blocks()


def random_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) with counter-based, platform-independent seeding."""

    kept = (np.stack((i[keep], j[keep]), axis=1) for i, j, (keep,) in _gnp_draws(n, p, [seed]))
    # the blocks' pairs are in graph6 order, without repeats
    return _graph(n, _read_only(np.concatenate([np.empty((0, 2), dtype=np.int64), *kept])))


def random_gnp_adjacency(n: int, p: float, seeds: Sequence[int]) -> np.ndarray:
    """(G, n, n) float64 stack of 0/1 adjacency matrices, matrix k of G(n, p) at seeds[k].

    Matrix k equals random_gnp(n, p, seeds[k]).adjacency(); no Graph is built.
    """

    blocks = _gnp_draws(n, p, seeds)  # checks n and p before the stack is allocated
    a = np.zeros((len(seeds), n, n))
    for i, j, keep in blocks:
        a[:, i, j] = keep
        a[:, j, i] = keep
    return a
