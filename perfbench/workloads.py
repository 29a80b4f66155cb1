"""Workload inputs, CLI invocations and output checks.

Every input is made from the run's seed. The G(n, p) graphs of
bounds-large and oracle-g30 come from this module's own RNG and graph6
writer, so a change to the program's ``random_gnp`` or graph6 code
cannot change what those workloads feed it.

An invocation is one ``spectral-chroma`` command line. Its check needs
no reference output; ``digest_failures`` adds the byte comparison
against stdout recorded at the reference commit, for inputs that were
recorded.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 1
BOUNDS_SIZES = (100, 200, 300)
ORACLE_N = 30
ORACLE_GRAPHS_PER_PASS = 250
# oracle passes cycle through this many graph sets, so every pass of the
# default seed has recorded reference output
ORACLE_CYCLE = 8
TABLE_N, TABLE_P, TABLE_SAMPLES = 50, 0.5, 1000
CORPUS_COUNTS = (1, 2, 8, 64, 1024, 156, 1044)  # graphs per n = 1..7
# Passes of these workloads run pinned to one CPU. corpus-check's pool
# keeps its default of one thread per CPU, but its threads then hand the
# GIL over on one CPU: across two CPUs a pass took 1-2x as long as on one,
# from one pass to the next, which no number of runs averages out.
ONE_CPU = frozenset({"corpus-n7"})

BOUND_IDS = (
    "Hoffman", "NikiforovHybrid", "Kolotilina1", "Kolotilina2", "LOAN",
    "GenHoffman", "GenNikiforov", "GenKolotilina1", "GenKolotilina2",
    "NormalizedHoffman", "GenNormalizedHoffman", "KolotilinaChain317",
    "HansenLucas", "Cvetkovic", "IntegerC",
)

Check = Callable[[str], "str | None"]


@dataclass(frozen=True)
class Invocation:
    """One CLI command line, with the files it reads and its output check."""

    argv: tuple[str, ...]
    inputs: str  # argv with each @file replaced by its content: the digest key
    check: Check  # stdout -> failure message, or None when it passes


def short_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# --------------------------------------------------------------------------
# graph generation, independent of the program


def gnp_edges(n: int, p: float, key: str) -> list[tuple[int, int]]:
    """G(n, p) edge list (i < j) drawn from a string-seeded stdlib RNG."""

    rng = random.Random(key)
    return [(i, j) for j in range(1, n) for i in range(j) if rng.random() < p]


def graph6(n: int, edges: list[tuple[int, int]]) -> str:
    """graph6 text of a graph on 0..n-1 (upper triangle, column-major)."""

    if not 1 <= n <= 258047:
        raise ValueError(f"graph6 here supports 1 <= n <= 258047, got {n}")
    if n <= 62:
        out = [n + 63]
    else:
        out = [126] + [((n >> shift) & 63) + 63 for shift in (12, 6, 0)]
    present = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [(i, j) in present for j in range(1, n) for i in range(j)]
    bits += [False] * (-len(bits) % 6)
    for k in range(0, len(bits), 6):
        chunk = 0
        for bit in bits[k:k + 6]:
            chunk = (chunk << 1) | bit
        out.append(chunk + 63)
    return bytes(out).decode("ascii")


# --------------------------------------------------------------------------
# checks that need no reference output


def check_corpus(stdout: str) -> str | None:
    expected = [
        f"n={n} graphs={count} soundness_violations=0 certification_failures=0"
        for n, count in enumerate(CORPUS_COUNTS, start=1)
    ]
    expected.append(
        f"checked {sum(CORPUS_COUNTS)} graphs: 0 soundness violations, "
        "0 certification failures"
    )
    got = stdout.splitlines()
    if got != expected:
        return f"corpus-check reported {got[-1:] or 'nothing'}"
    return None


def _round_display(value: float) -> str:
    return str(Decimal(repr(value)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def check_random_table(stdout: str) -> str | None:
    lines = stdout.splitlines()
    if len(lines) != 2 or lines[0] != "n p samples hoffman kolo1 kolo2 bollobas":
        return "random-table output is not a header and one row"
    cells = lines[1].split()
    if cells[:3] != [str(TABLE_N), repr(TABLE_P), str(TABLE_SAMPLES)] or len(cells) != 7:
        return f"random-table row is {lines[1]!r}"
    # the estimate column is closed-form: 0.5 n / log_b(n), b = 1 / (1 - p)
    b = 1.0 / (1.0 - TABLE_P)
    bollobas = 0.5 * TABLE_N / (math.log(TABLE_N) / math.log(b))
    if cells[6] != _round_display(bollobas):
        return f"bollobas column {cells[6]} != {_round_display(bollobas)}"
    for cell in cells[3:6]:
        if not 1.0 <= float(cell) <= TABLE_N:
            return f"averaged bound {cell} outside [1, {TABLE_N}]"
    return None


def make_bounds_check(g6: str, n: int, edge_count: int) -> Check:
    def check(stdout: str) -> str | None:
        lines = stdout.splitlines()
        if not lines or lines[0] != f"graph {g6} n={n} edges={edge_count}":
            return "bounds header does not describe the input graph"
        seen = []
        for line in lines[1:]:
            match = re.fullmatch(r"(\w+) (n/a|[0-9]+(?:\.[0-9])?)(?: m=([0-9]+))?", line)
            if match is None:
                return f"unparseable bound line {line!r}"
            bound_id, value, m = match.groups()
            seen.append(bound_id)
            if value != "n/a" and not 1.0 <= float(value) <= n:
                # every valid bound is a lower bound on chi <= n
                return f"{bound_id} = {value} outside [1, {n}]"
            if m is not None and not 1 <= int(m) <= n:
                return f"{bound_id} best m={m} outside [1, {n}]"
        if len(seen) != len(set(seen)) or not set(BOUND_IDS) <= set(seen):
            return "bounds output does not list every bound exactly once"
        return None

    return check


def make_chromatic_check(n: int, edges: list[tuple[int, int]]) -> Check:
    def check(stdout: str) -> str | None:
        lines = stdout.splitlines()
        if len(lines) != 3 or lines[0] != f"graph n={n} edges={len(edges)}":
            return "chromatic output does not describe the input graph"
        chi = int(lines[1].removeprefix("chi "))
        colors = [int(c) for c in lines[2].removeprefix("coloring ").split()]
        if len(colors) != n:
            return f"witness colors {len(colors)} vertices, graph has {n}"
        if set(colors) != set(range(chi)):
            return f"witness does not use exactly colors 0..{chi - 1}"
        for u, v in edges:
            if colors[u] == colors[v]:
                return f"witness is improper on edge ({u}, {v})"
        return None

    return check


# --------------------------------------------------------------------------
# the workloads


def corpus_n7(seed: int, pass_index: int, workdir: Path) -> list[Invocation]:
    argv = ("corpus-check", "--max-n", "7")
    return [Invocation(argv, " ".join(argv), check_corpus)]


def random_table_n50(seed: int, pass_index: int, workdir: Path) -> list[Invocation]:
    argv = (
        "random-table", "--rows", f"{TABLE_N}:{TABLE_P}",
        "--samples", str(TABLE_SAMPLES), "--seed", str(seed),
    )
    return [Invocation(argv, " ".join(argv), check_random_table)]


def bounds_large(seed: int, pass_index: int, workdir: Path) -> list[Invocation]:
    out = []
    for n in BOUNDS_SIZES:
        edges = gnp_edges(n, 0.5, f"bounds-large:{seed}:{n}")
        g6 = graph6(n, edges)
        path = workdir / f"bounds-large-{seed}-{n}.g6"
        path.write_text(g6 + "\n", encoding="ascii")
        out.append(
            Invocation(
                ("bounds", f"@{path}"),
                f"bounds @{g6}",
                make_bounds_check(g6, n, len(edges)),
            )
        )
    return out


def oracle_g30(seed: int, pass_index: int, workdir: Path) -> list[Invocation]:
    out = []
    group = pass_index % ORACLE_CYCLE
    for k in range(ORACLE_GRAPHS_PER_PASS):
        edges = gnp_edges(ORACLE_N, 0.5, f"oracle:{seed}:{group}:{k}")
        g6 = graph6(ORACLE_N, edges)
        out.append(
            Invocation(("chromatic", g6), f"chromatic {g6}", make_chromatic_check(ORACLE_N, edges))
        )
    return out


WORKLOADS: dict[str, Callable[[int, int, Path], list[Invocation]]] = {
    "corpus-n7": corpus_n7,
    "random-table-n50": random_table_n50,
    "bounds-large": bounds_large,
    "oracle-g30": oracle_g30,
}

# the passes whose stdout is recorded at the reference commit
RECORDED_PASSES = {
    "corpus-n7": 1,
    "random-table-n50": 1,
    "bounds-large": 1,
    "oracle-g30": ORACLE_CYCLE,
}


# --------------------------------------------------------------------------
# reference digests


def pass_key(invocations: list[Invocation]) -> str:
    return short_hash("\n".join(inv.inputs for inv in invocations))


def load_digests(path: Path) -> dict[str, list[str]]:
    """Map from a pass's input key to the stdout hash of each invocation."""

    entries = json.loads(path.read_text(encoding="utf-8"))
    return {entry["inputs"]: entry["stdout"] for entry in entries.values()}


def digest_failures(
    invocations: list[Invocation], stdouts: list[str], digests: dict[str, list[str]]
) -> list[str | None]:
    """Per invocation: a failure message when recorded stdout differs."""

    recorded = digests.get(pass_key(invocations))
    if recorded is None:
        return [None] * len(invocations)
    return [
        None if short_hash(out) == want else "stdout differs from the reference output"
        for out, want in zip(stdouts, recorded)
    ]
