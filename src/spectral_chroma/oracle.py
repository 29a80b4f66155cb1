"""Exact ground truth at desk scale.

Backtracking chromatic numbers, exhaustive labeled enumeration for tiny
n, the bundled deduplicated corpora for 6 and 7 vertices, and the
deterministic greedy coloring that feeds the certificate machinery.

The backtracking keeps, for each vertex, an int bitmask of the colors
its colored neighbors hold, and checks forward: giving a vertex a
color marks it in every later neighbor's mask, and a neighbor left
with all k colors taken ends the branch. Such a branch holds no
coloring, so the search meets the colorings in the same order as
plain backtracking would, and returns the same witnesses.

Reach, on a 2-vCPU VM with Python 3.11: G(50, .5) takes about 1-2 s
(0.1-5.7 s over ten seeds), and G(64, .5) is not guaranteed to finish,
as there is no node budget yet. The solver refuses rather than
guessing: any input past its 64-vertex ceiling raises instead of
returning an estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Iterator

from .certify import Coloring
from .errors import DomainError
from .graphs import Graph, computed_once, from_edges, parse_graph6

_BACKTRACK_CEILING = 64
_ALL_PAIRS = {n: [(i, j) for j in range(n) for i in range(j)] for n in range(1, 7)}


@dataclass(frozen=True)
class ChromaticResult:
    """Exact chromatic number together with one witness coloring."""

    chi: int
    witness: Coloring


@computed_once
def greedy_coloring(g: Graph) -> Coloring:
    """Deterministic sequential coloring, largest degree first.

    May use more than chi colors; always proper. Ties in degree break
    by vertex index, so equal graphs always get equal colorings. It is
    computed once per graph, like Graph.degrees(): chromatic_number and
    the certificate coloring share it.
    """

    adj = g.neighbors()
    colors = [-1] * g.n
    for v in g.degree_order():
        taken = {colors[u] for u in adj[v] if colors[u] >= 0}
        color = 0
        while color in taken:
            color += 1
        colors[v] = color
    return Coloring(tuple(colors), max(colors) + 1)


def _greedy_clique(g: Graph) -> list[int]:
    adj = g.neighbors()
    clique: list[int] = []
    for v in g.degree_order():
        if all(v in adj[u] for u in clique):
            clique.append(v)
    return clique


def colorable_with(g: Graph, k: int) -> Coloring | None:
    """Decide k-colorability; returns a witness or None.

    Backtracking over vertices in degree-descending order (ties by
    index), colors tried in index order, with new color indices
    introduced only in order (the first vertex always takes color 0).
    Each search position holds a bitmask of the colors its earlier
    neighbors took. A color given to a vertex is set in the masks of
    its later neighbors, and the branch is cut as soon as one of them
    has all k bits set. Only branches without a complete coloring are
    cut, so the first coloring found, the witness, is the one plain
    backtracking in the same order finds. k = 0 is decidable too: no
    nonempty graph is 0-colorable.
    """

    if k < 0:
        raise DomainError(f"color count must be nonnegative, got {k}")
    if k == 0:
        return None
    if k >= g.n:
        return Coloring(tuple(range(g.n)), k)
    n = g.n
    order = g.degree_order()
    adj = g.neighbors()
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    # everything below is indexed by search position, not by vertex; later
    # neighbors are lists because freed small tuples stay in the interpreter's
    # free lists: they raised the peak RSS of 250 G(30, .5) calls by 1 MB
    later = [[pos[u] for u in adj[v] if pos[u] > i] for i, v in enumerate(order)]
    taken = [0] * n  # bit c set: a colored neighbor holds color c
    full = (1 << k) - 1
    assigned = [0] * n

    def backtrack(i: int, used: int) -> bool:
        if i == n:
            return True
        forbidden = taken[i]
        for color in range(min(k, used + 1)):
            bit = 1 << color
            if forbidden & bit:
                continue
            marked = []
            alive = True
            for j in later[i]:
                mask = taken[j]
                if not mask & bit:
                    mask |= bit
                    taken[j] = mask
                    marked.append(j)
                    if mask == full:
                        alive = False
                        break
            if alive:
                assigned[i] = color
                if backtrack(i + 1, max(used, color + 1)):
                    return True
            for j in marked:
                taken[j] ^= bit
        return False

    if not backtrack(0, 0):
        return None
    return Coloring(tuple(assigned[p] for p in pos), k)


def chromatic_number(g: Graph) -> ChromaticResult:
    """Exact chi with witness, via iterative deepening from a clique seed."""

    if g.n > _BACKTRACK_CEILING:
        raise DomainError(
            f"exact coloring supports at most {_BACKTRACK_CEILING} vertices, got {g.n}"
        )
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
    """All 2^C(n,2) labeled graphs on 0..n-1; supported for n <= 6."""

    if not 1 <= n <= 6:
        raise DomainError(f"labeled enumeration supports 1 <= n <= 6, got {n}")
    pairs = _ALL_PAIRS[n]
    for mask in range(1 << len(pairs)):
        edges = [pairs[b] for b in range(len(pairs)) if (mask >> b) & 1]
        yield from_edges(n, edges)


@lru_cache(maxsize=None)
def _corpus_lines(n: int) -> tuple[str, ...]:
    """The graph6 lines of the bundled n-vertex corpus; graphs are parsed per use."""

    path = resources.files("spectral_chroma.data") / f"graphs{n}.g6"
    lines = path.read_text(encoding="ascii").splitlines()
    return tuple(line for line in lines if line.strip())


def all_graphs(n: int) -> Iterator[Graph]:
    """Every graph on n vertices: labeled for n <= 5, corpus classes for 6 and 7."""

    if n < 1:
        raise DomainError(f"vertex count must be positive, got {n}")
    if n > 7:
        raise DomainError(f"exhaustive enumeration supports at most 7 vertices, got {n}")
    if n <= 5:
        yield from labeled_graphs(n)
        return
    for line in _corpus_lines(n):
        g = parse_graph6(line)
        if g.n != n:
            raise DomainError(f"corpus graphs{n}.g6 contains a graph on {g.n} vertices")
        yield g
