"""Simple undirected graphs: representation, formats, and generators.

A Graph is a vertex count plus a frozen set of 0-based endpoint pairs.
This module owns the two text formats (graph6 and edge lists), the
deterministic family generators used by the comparison tables, and a
counter-based G(n, p) sampler that reproduces bit-identically across
platforms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, ParseError

Edge = tuple[int, int]


class GraphMatrixKind(Enum):
    """The six derived matrices a graph spectrum can be taken from."""

    ADJACENCY = "Adjacency"
    LAPLACIAN = "Laplacian"
    SIGNLESS_LAPLACIAN = "SignlessLaplacian"
    NORMALIZED_ADJACENCY = "NormalizedAdjacency"
    NORMALIZED_LAPLACIAN = "NormalizedLaplacian"
    NORMALIZED_SIGNLESS_LAPLACIAN = "NormalizedSignlessLaplacian"


NORMALIZED_KINDS = frozenset(
    {
        GraphMatrixKind.NORMALIZED_ADJACENCY,
        GraphMatrixKind.NORMALIZED_LAPLACIAN,
        GraphMatrixKind.NORMALIZED_SIGNLESS_LAPLACIAN,
    }
)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Edges are stored as a frozenset of (min, max) pairs; loops and
    duplicates are rejected at construction, so every Graph value in the
    system satisfies the invariants by construction.
    """

    n: int
    edges: frozenset[Edge] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise DomainError(f"vertex count must be a positive integer, got {self.n!r}")
        normalized = set()
        for e in self.edges:
            u, v = e
            if u == v:
                raise DomainError(f"loop edge ({u}, {v}) not allowed")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise DomainError(f"edge ({u}, {v}) outside vertex range [0, {self.n})")
            normalized.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(normalized))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        d = np.zeros(self.n, dtype=np.int64)
        for u, v in self.edges:
            d[u] += 1
            d[v] += 1
        return d

    def neighbors(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def has_isolated_vertex(self) -> bool:
        return bool((self.degrees() == 0).any())


def from_edges(n: int, edges: Iterable[Sequence[int]]) -> Graph:
    """Build a Graph from any iterable of endpoint pairs."""

    return Graph(n, frozenset((int(u), int(v)) for u, v in edges))


# --------------------------------------------------------------------------
# graph6 codec (McKay format: 6-bit chunks, offset 63, upper triangle
# in column-major order, zero padding to a multiple of 6)

_G6_MAX_N = 10000


def _g6_vertex_count(data: bytes) -> tuple[int, int]:
    """Decode the N(n) header; returns (n, data offset of the bit field)."""

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
        return n, 4
    if not 63 <= b0 <= 126:
        raise ParseError(f"out-of-range graph6 byte {b0} at offset 0")
    return b0 - 63, 1


def parse_graph6(text: str) -> Graph:
    """Decode a one-line graph6 string into a Graph.

    The optional ">>graph6<<" prefix is accepted and stripped. Only
    canonical encodings round-trip, so nonzero padding bits are rejected
    rather than ignored.
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
    return Graph(n, frozenset(edges))


def emit_graph6(g: Graph) -> str:
    """Encode a Graph as graph6 for its given labeling (no relabeling)."""

    if g.n > _G6_MAX_N:
        raise DomainError(f"graph6 emission supports at most {_G6_MAX_N} vertices, got {g.n}")
    n = g.n
    if n <= 62:
        header = [n + 63]
    else:
        header = [126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    present = g.edges
    out = list(header)
    chunk = 0
    filled = 0
    for j in range(1, n):
        for i in range(j):
            chunk = (chunk << 1) | ((i, j) in present)
            filled += 1
            if filled == 6:
                out.append(chunk + 63)
                chunk, filled = 0, 0
    if filled:
        out.append((chunk << (6 - filled)) + 63)
    return bytes(out).decode("ascii")


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
    return Graph(n, frozenset(edges))


# --------------------------------------------------------------------------
# derived matrices

def build_matrix(g: Graph, kind: GraphMatrixKind) -> np.ndarray:
    """Build one of the six derived matrices, exactly symmetric.

    Each off-diagonal entry is computed once and mirrored, so symmetry
    holds to the last bit. Normalized kinds require every vertex to
    have positive degree.
    """

    n = g.n
    deg = g.degrees()
    if kind in NORMALIZED_KINDS:
        isolated = np.nonzero(deg == 0)[0]
        if isolated.size:
            raise DomainError(
                f"normalized matrix undefined: vertex {int(isolated[0])} is isolated"
            )
    a = np.zeros((n, n), dtype=np.float64)
    if kind in NORMALIZED_KINDS:
        inv_sqrt = 1.0 / np.sqrt(deg.astype(np.float64))
        for u, v in g.edges:
            w = inv_sqrt[u] * inv_sqrt[v]
            a[u, v] = w
            a[v, u] = w
    else:
        for u, v in g.edges:
            a[u, v] = 1.0
            a[v, u] = 1.0
    if kind is GraphMatrixKind.ADJACENCY or kind is GraphMatrixKind.NORMALIZED_ADJACENCY:
        return a
    if kind is GraphMatrixKind.LAPLACIAN:
        return np.diag(deg.astype(np.float64)) - a
    if kind is GraphMatrixKind.SIGNLESS_LAPLACIAN:
        return np.diag(deg.astype(np.float64)) + a
    if kind is GraphMatrixKind.NORMALIZED_LAPLACIAN:
        return np.eye(n) - a
    if kind is GraphMatrixKind.NORMALIZED_SIGNLESS_LAPLACIAN:
        return np.eye(n) + a
    raise DomainError(f"unknown matrix kind {kind!r}")


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
    return Graph(n, frozenset((i, j) for j in range(n) for i in range(j)))


def complete_multipartite(parts: Sequence[int]) -> Graph:
    """Complete multipartite graph; part k occupies a consecutive block."""

    parts = list(parts)
    if not parts:
        raise DomainError("complete_multipartite needs at least one part")
    for p in parts:
        _require_positive("part size", p)
    bounds = np.cumsum([0] + parts)
    n = int(bounds[-1])
    edges = set()
    for k in range(len(parts)):
        for l in range(k + 1, len(parts)):
            for u in range(bounds[k], bounds[k + 1]):
                for v in range(bounds[l], bounds[l + 1]):
                    edges.add((u, v))
    return Graph(n, frozenset(edges))


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}: part one is 0..a-1, part two is a..a+b-1."""

    return complete_multipartite([a, b])


def cycle(n: int) -> Graph:
    """C_n with edges (i, i+1 mod n); needs n >= 3."""

    _require_positive("n", n)
    if n < 3:
        raise DomainError(f"cycle needs at least 3 vertices, got {n}")
    return Graph(n, frozenset((i, (i + 1) % n) for i in range(n)))


def circulant(n: int, connection_set: Sequence[int]) -> Graph:
    """Circulant graph: i adjacent to (i +/- s) mod n for each offset s."""

    _require_positive("n", n)
    offsets = sorted(set(int(s) for s in connection_set))
    for s in offsets:
        if s < 1 or s > n // 2:
            raise DomainError(f"circulant offset {s} outside [1, {n // 2}] for n={n}")
    edges = set()
    for i in range(n):
        for s in offsets:
            edges.add((min(i, (i + s) % n), max(i, (i + s) % n)))
    return Graph(n, frozenset(edges))


def barbell(k: int) -> Graph:
    """Two disjoint K_k (vertices 0..k-1 and k..2k-1) joined by the bridge (k-1, k)."""

    _require_positive("k", k)
    edges = set()
    for j in range(k):
        for i in range(j):
            edges.add((i, j))
            edges.add((k + i, k + j))
    edges.add((k - 1, k))
    return Graph(2 * k, frozenset(edges))


def sun(k: int) -> Graph:
    """K_k hub (0..k-1) plus outer vertices k..2k-1; outer i joins hubs i and i+1 mod k."""

    _require_positive("k", k)
    edges = set()
    for j in range(k):
        for i in range(j):
            edges.add((i, j))
    for i in range(k):
        edges.add((min(i, k + i), max(i, k + i)))
        succ = (i + 1) % k
        if succ != k + i:
            edges.add((min(succ, k + i), max(succ, k + i)))
    return Graph(2 * k, frozenset(edges))


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
    return Graph(copies * (clique_size - 1) + 1, frozenset(edges))


def mycielskian(g: Graph) -> Graph:
    """Mycielski construction: originals 0..n-1, twins n..2n-1, apex 2n.

    Twin n+i copies the neighborhood of i and also joins the apex; the
    result raises the chromatic number by one while adding no triangle
    to a triangle-free input.
    """

    n = g.n
    edges = set(g.edges)
    for u, v in g.edges:
        edges.add((min(u, n + v), max(u, n + v)))
        edges.add((min(v, n + u), max(v, n + u)))
    for i in range(n):
        edges.add((n + i, 2 * n))
    return Graph(2 * n + 1, frozenset(edges))


def petersen() -> Graph:
    """Petersen graph: outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- 5+i."""

    edges = set()
    for i in range(5):
        edges.add((min(i, (i + 1) % 5), max(i, (i + 1) % 5)))
        edges.add((min(5 + i, 5 + (i + 2) % 5), max(5 + i, 5 + (i + 2) % 5)))
        edges.add((i, 5 + i))
    return Graph(10, frozenset(edges))


_GENERATOR_SPEC = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*(?:\((.*)\))?\s*$", re.DOTALL)


def generate_from_spec(spec: str) -> Graph:
    """Resolve a generator mini-language spec like "circulant(16;1,7,8)".

    Grammar: family or family(args). Integer args are comma-separated;
    circulant separates n from its connection set with a semicolon; the
    mycielskian takes a nested spec as its single argument.
    """

    m = _GENERATOR_SPEC.match(spec)
    if not m:
        raise DomainError(f"unparseable generator spec {spec!r}")
    name = m.group(1).lower()
    args = m.group(2)

    def int_args() -> list[int]:
        if args is None or not args.strip():
            return []
        try:
            return [int(tok) for tok in args.split(",")]
        except ValueError:
            raise DomainError(f"non-integer argument in generator spec {spec!r}") from None

    if name == "complete":
        (n,) = _arity(spec, int_args(), 1)
        return complete(n)
    if name == "complete_bipartite":
        a, b = _arity(spec, int_args(), 2)
        return complete_bipartite(a, b)
    if name == "complete_multipartite":
        parts = int_args()
        if not parts:
            raise DomainError(f"complete_multipartite needs part sizes in {spec!r}")
        return complete_multipartite(parts)
    if name == "cycle":
        (n,) = _arity(spec, int_args(), 1)
        return cycle(n)
    if name == "circulant":
        if args is None or ";" not in args:
            raise DomainError(
                f"circulant spec must read circulant(n;s1,s2,...), got {spec!r}"
            )
        head, tail = args.split(";", 1)
        try:
            n = int(head)
            offsets = [int(tok) for tok in tail.split(",") if tok.strip()]
        except ValueError:
            raise DomainError(f"non-integer argument in generator spec {spec!r}") from None
        return circulant(n, offsets)
    if name == "barbell":
        (k,) = _arity(spec, int_args(), 1)
        return barbell(k)
    if name == "sun":
        (k,) = _arity(spec, int_args(), 1)
        return sun(k)
    if name == "windmill":
        a, b = _arity(spec, int_args(), 2)
        return windmill(a, b)
    if name == "mycielskian":
        if args is None or not args.strip():
            raise DomainError(f"mycielskian needs a nested generator spec in {spec!r}")
        return mycielskian(generate_from_spec(args))
    if name == "petersen":
        if args is not None and args.strip():
            raise DomainError("petersen takes no arguments")
        return petersen()
    raise DomainError(f"unknown graph family {name!r}")


def _arity(spec: str, got: list[int], want: int) -> list[int]:
    if len(got) != want:
        raise DomainError(f"generator spec {spec!r} expects {want} integer argument(s), got {len(got)}")
    return got


# --------------------------------------------------------------------------
# reproducible G(n, p)
#
# One independent 64-bit draw per vertex pair, in lexicographic pair
# order, from the SplitMix64 output function evaluated at
# seed + (counter + 1) * GAMMA. Pure integer arithmetic: the same
# (n, p, seed) gives the same edge set on any platform. The pair is
# included iff its draw is below floor(p * 2^64), computed exactly from
# the binary expansion of p.

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    z = x & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def random_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) with counter-based, platform-independent seeding."""

    _require_positive("n", n)
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"edge probability must lie in [0, 1], got {p}")
    threshold = int(Fraction(p) * (1 << 64))
    base = seed & _MASK64
    edges = []
    counter = 0
    for i in range(n):
        for j in range(i + 1, n):
            counter += 1
            if _splitmix64(base + counter * _GAMMA) < threshold:
                edges.append((i, j))
    return Graph(n, frozenset(edges))
