"""Exact ground truth at desk scale.

Colorings and the exact chromatic number: the Coloring type, the exact
k-coloring search and the chromatic number deepened through it,
exhaustive labeled enumeration for tiny n, the bundled deduplicated
corpora for 6 and 7 vertices, and the deterministic greedy coloring that
feeds the certificate machinery. The enumerations validate once per
array, not per graph: a corpus file is decoded and checked as one array
of lines, and the labeled graphs come from one table of bit masks, both
through graphs.graphs_from_bits.

The exact search (colorable_with) decides k-colorability by DSATUR
(Brélaz, CACM 22, 1979) on one int bitmask per color over the search
positions, and builds its witness by lexicographic descent: each
position in search order takes the smallest color with which the
colored prefix still completes. The witness is the one plain
backtracking in search order meets first, whatever order DSATUR
colors in. A move is undone by restoring what it changed, and every
trial of the descent starts from its fixed prefix, one mask per color.
One table per graph (_search_table) holds the search order and each
position's neighbors as a bitmask; every search on the graph, the
greedy coloring and the greedy clique read it.

Reach, on a 2-vCPU VM with Python 3.11: random_gnp(50, .5, s) takes
0.42 s over seeds 0-9 together (0.005-0.13 s each), and G(64, .5) 0.7-3.2
s a graph over seeds 0-4. There is no node budget yet, so a harder graph
of 64 vertices is not guaranteed to finish. The solver refuses rather
than guessing: any input past its 64-vertex ceiling raises instead of
returning an estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Iterator

import numpy as np

from .errors import DomainError, ParseError
from .graphs import Graph, computed_once, graph6_rows, graphs_from_bits, parse_graph6

_BACKTRACK_CEILING = 64


@dataclass(frozen=True)
class Coloring:
    """Vertex color assignment with an explicit palette size.

    Color classes may be empty; properness is relative to a graph and
    checked where a graph is in hand.
    """

    colors: tuple[int, ...]
    c: int

    def __post_init__(self) -> None:
        if not isinstance(self.c, int) or self.c < 1:
            raise DomainError(f"palette size must be a positive integer, got {self.c!r}")
        colors = tuple(int(x) for x in self.colors)
        if not colors:
            raise DomainError("coloring needs at least one vertex")
        for k, x in enumerate(colors):
            if not 0 <= x < self.c:
                raise DomainError(f"vertex {k} has color {x} outside [0, {self.c})")
        object.__setattr__(self, "colors", colors)

    @property
    def n(self) -> int:
        return len(self.colors)

    def with_palette(self, c: int) -> "Coloring":
        """Same assignment over a (weakly) larger palette."""

        return Coloring(self.colors, c)


@dataclass(frozen=True)
class ChromaticResult:
    """Exact chromatic number together with one witness coloring."""

    chi: int
    witness: Coloring


@computed_once
def _search_table(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The search order and the neighborhood of each search position.

    The order lists the vertices by degree, largest first, ties by
    index: the order the greedy coloring, the greedy clique and
    colorable_with take them in. Bit j of mask i says that positions i
    and j hold adjacent vertices. One pass over the edges builds it.
    """

    deg = g.degrees().tolist()
    order = sorted(range(g.n), key=lambda v: (-deg[v], v))
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    masks = [0] * g.n
    for u, v in g.ends.tolist():
        i, j = pos[u], pos[v]
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    return tuple(order), tuple(masks)


@computed_once
def greedy_coloring(g: Graph) -> Coloring:
    """Deterministic sequential coloring, largest degree first.

    May use more than chi colors; always proper. Ties in degree break
    by vertex index, so equal graphs always get equal colorings. Each
    vertex takes the first color class it has no neighbor in. It is
    computed once per graph, like Graph.degrees(): chromatic_number and
    the certificate coloring share it.
    """

    order, masks = _search_table(g)
    colors = [0] * g.n
    classes: list[int] = []  # bit i of entry c: search position i has color c
    for i, (v, adj) in enumerate(zip(order, masks)):
        color = 0
        while color < len(classes) and classes[color] & adj:
            color += 1
        if color == len(classes):
            classes.append(0)
        classes[color] |= 1 << i
        colors[v] = color
    return Coloring(tuple(colors), len(classes))


def _greedy_clique(g: Graph) -> list[int]:
    order, masks = _search_table(g)
    clique: list[int] = []
    members = 0  # by search position
    for i, (v, adj) in enumerate(zip(order, masks)):
        if adj & members == members:
            clique.append(v)
            members |= 1 << i
    return clique


def _check_ceiling(g: Graph) -> None:
    # the searches recurse once per position
    if g.n > _BACKTRACK_CEILING:
        raise DomainError(
            f"exact coloring supports at most {_BACKTRACK_CEILING} vertices, got {g.n}"
        )


def colorable_with(g: Graph, k: int) -> Coloring | None:
    """Decide k-colorability; returns a witness or None.

    The witness is the lexicographically first k-coloring in search
    order (degree descending, ties by index) whose colors open in order,
    the first vertex taking color 0: the coloring that backtracking over
    the vertices in that order, colors in index order, meets first. The
    exception is k >= n, where the search does not run and the witness
    is the identity coloring, vertex v taking color v.

    The decision is DSATUR over the search positions (completes): the
    state is one bitmask per color, bit j of forbidden[c] set once a
    neighbor of position j took color c, and the count of colors taken
    at each position, bit-sliced into one int per binary digit. The next
    position is an uncolored one with the most colors taken, the first
    in search order on a tie; colors are tried in index order, with a
    new one only after those in use; and a branch is cut when the AND of
    the k masks meets an uncolored position, one with no color left. A
    move is undone by value: its color's mask is put back, and the count
    planes from a snapshot taken before the move.

    The witness comes by descent over the positions in search order,
    from the coloring the decision found. At position i the colored
    prefix is fixed, bit j of prefix[c] set when a fixed neighbor of
    position j has color c, and sol completes it. If sol[i] is a color
    the prefix has not opened, it trades names in sol with the next
    color to open. Then each allowed color below sol[i] is tried in turn
    by one search of the later positions, from forbidden = prefix with
    position i's neighbors added to that color: the first that completes
    is taken, and its completion becomes sol; if none does, sol[i] is
    taken. The fixed positions' bits left in that state do no harm, as
    completes reads it only at uncolored positions. So each position
    takes the smallest color with which its prefix still completes.
    Past 64 vertices it raises DomainError. k = 0 is decidable too: no
    nonempty graph is 0-colorable.
    """

    if k < 0:
        raise DomainError(f"color count must be nonnegative, got {k}")
    _check_ceiling(g)
    if k == 0:
        return None
    if k >= g.n:
        return Coloring(tuple(range(g.n)), k)
    n = g.n
    order, masks = _search_table(g)
    forbidden = [0] * k
    # bit j of planes[b]: binary digit b, most significant first, of the
    # count of colors taken at position j, at most k
    planes = [0] * k.bit_length()
    low = len(planes) - 1

    def completes(uncolored: int, used: int, out: list[int]) -> bool:
        """Color the uncolored positions, given the used colors so far; writes out on success."""

        if not uncolored:
            return True
        best = uncolored
        for plane in planes:
            top = best & plane
            if top:
                best = top
        bit = best & -best
        i = bit.bit_length() - 1
        rest = uncolored ^ bit
        ahead = masks[i] & rest
        for color in range(used + 1 if used < k else k):
            mask = forbidden[color]
            if mask & bit:
                continue
            fresh = ahead & ~mask  # the neighbors that gain a taken color
            forbidden[color] = mask | ahead
            full = fresh  # only they can have every color taken now
            for other in forbidden:
                full &= other
                if not full:
                    break
            if not full:
                saved = planes[:]
                carry, b = fresh, low
                while carry:
                    plane = planes[b]
                    planes[b] = plane ^ carry
                    carry &= plane
                    b -= 1
                if completes(rest, used + (color == used), out):
                    out[i] = color
                    return True
                planes[:] = saved
            forbidden[color] = mask
        return False

    everything = (1 << n) - 1
    sol = [0] * n  # by search position
    if not completes(everything, 0, sol):
        return None
    prefix = [0] * k  # bit j of prefix[c]: a colored neighbor of position j has color c
    used = 0
    for i in range(n):
        if sol[i] > used:  # unopened: rename it to the next color to open
            old = sol[i]
            sol = [used if c == old else old if c == used else c for c in sol]
        target = sol[i]
        later = everything >> (i + 1) << (i + 1)
        for color in range(target):
            if prefix[color] >> i & 1:
                continue
            # A later position with every color taken needs no check here:
            # it is the most saturated, so completes takes it first and fails.
            forbidden[:] = prefix
            forbidden[color] |= masks[i]
            planes[:] = [0] * len(planes)
            for carry in forbidden:
                b = low
                while carry:
                    plane = planes[b]
                    planes[b] = plane ^ carry
                    carry &= plane
                    b -= 1
            trial = sol[:]
            trial[i] = color
            if completes(later, used, trial):
                sol, target = trial, color
                break
        prefix[target] |= masks[i]
        used += target == used
    colors = [0] * n
    for i, v in enumerate(order):
        colors[v] = sol[i]
    return Coloring(tuple(colors), k)


def chromatic_number(g: Graph) -> ChromaticResult:
    """Exact chi with witness, via iterative deepening from a clique seed."""

    _check_ceiling(g)
    if g.edge_count == 0:
        return ChromaticResult(1, Coloring((0,) * g.n, 1))
    lower = max(2, len(_greedy_clique(g)))
    greedy = greedy_coloring(g)
    upper = greedy.c
    if lower == upper:
        return ChromaticResult(upper, greedy)
    for k in range(lower, upper):
        witness = colorable_with(g, k)
        if witness is not None:
            return ChromaticResult(k, witness)
    return ChromaticResult(upper, greedy)


def labeled_graphs(n: int) -> Iterator[Graph]:
    """All 2^C(n,2) labeled graphs on 0..n-1; supported for n <= 6.

    Graph k has the pairs of the set bits of k, bit b the b-th pair in
    graph6 order: (0, 1), (0, 2), (1, 2), (0, 3), ...
    """

    if not 1 <= n <= 6:
        raise DomainError(f"labeled enumeration supports 1 <= n <= 6, got {n}")
    bit = np.arange(n * (n - 1) // 2)
    yield from graphs_from_bits(n, (np.arange(1 << bit.size)[:, None] >> bit) & 1 == 1)


@lru_cache(maxsize=None)
def _corpus_lines(n: int) -> tuple[str, ...]:
    """The graph6 lines of the bundled n-vertex corpus, stripped; graphs are decoded per use."""

    path = resources.files("spectral_chroma.data") / f"graphs{n}.g6"
    return tuple(filter(None, map(str.strip, path.read_text(encoding="ascii").splitlines())))


def all_graphs(n: int) -> Iterator[Graph]:
    """Every graph on n vertices: labeled for n <= 5, corpus classes for 6 and 7.

    A corpus file is decoded as one array and checked once, before its
    first graph is yielded: a line that is not the graph6 text of an
    n-vertex graph raises parse_graph6's error for the first such line,
    or names the vertex count of a graph of another order.
    """

    if n < 1:
        raise DomainError(f"vertex count must be positive, got {n}")
    if n > 7:
        raise DomainError(f"exhaustive enumeration supports at most 7 vertices, got {n}")
    if n <= 5:
        yield from labeled_graphs(n)
        return
    lines = _corpus_lines(n)
    bits, bad = graph6_rows(n, lines)
    if np.count_nonzero(bad):
        line = lines[int(bad.argmax())]
        k = parse_graph6(line).n  # raises the error of a malformed line
        if k != n:
            raise DomainError(f"corpus graphs{n}.g6 contains a graph on {k} vertices")
        raise ParseError(f"corpus graphs{n}.g6 line {line!r} is not plain graph6 of {n} vertices")
    yield from graphs_from_bits(n, bits)
