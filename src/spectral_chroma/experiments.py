"""Comparison tables: named graphs, random-graph averages, machine formats.

Reproduces the two published comparison exercises: per-graph bound
tables for a fixed list of named generators, and averaged Hoffman /
Kolotilina values over random G(n, p) samples next to the deterministic
Bollobas estimate. Everything is seeded explicitly and reduces in a
fixed order, so identical inputs give byte-identical output.

The random table works on chunks of samples. A chunk's G(n, p) draws
become one adjacency stack with no Graph built, returned with the seed
of each sample as drawn, a redraw's included, which a failed solve
names next to the sample; its A, L and Q stacks are solved and
validated by one spectra_batch call each, and the classical bounds run
once on the chunk's spectra. The main thread draws
the chunks in sample order; up to `workers` of them are solved at once
on as many threads (eigh releases the GIL), and their values are taken
in chunk order. `workers` is the process's CPUs over BLAS's own thread
count, the first positive integer among OPENBLAS_NUM_THREADS,
GOTO_NUM_THREADS and OMP_NUM_THREADS, or every CPU when none is set.
So default BLAS settings stay serial (two eigh callers that each have
BLAS threads on every CPU are slower than one), and
OPENBLAS_NUM_THREADS=1 gives one worker per CPU. The chunks in flight
share one byte budget per (G, n, n) float64 stack (_STACK_BYTES, about
320 kB): at n = 50 a chunk is 16 samples on one worker, 8 on two. From
n = 142 on a sample fills half the budget, so a row runs on one worker,
and one worker starts no thread.
"""

from __future__ import annotations

import collections
import io
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable

import numpy as np

from .bounds import (
    _CLASSICAL_IDS,
    BoundId,
    BoundReport,
    _classical_values,
    _generalized_values,
    full_report,
    round_display,
    unnormalized_spectra,
)
from .errors import DomainError, SpectralChromaError
from .graphs import (
    _G6_MAX_N,
    Graph,
    generate_from_spec,
    parse_edge_list,
    parse_graph6,
    random_gnp_adjacency,
)
from .linalg import matrices_named
from .oracle import chromatic_number

_ORACLE_N_LIMIT = 24


def bollobas_estimate(n: int, p: float) -> float:
    """Asymptotic chromatic estimate 0.5 n / log_b(n), b = 1/(1-p).

    The vanishing correction term is dropped, matching the printed
    column this reproduces.
    """

    if n < 2:
        raise DomainError(f"estimate needs n >= 2, got {n}")
    if not 0.0 < p < 1.0:
        raise DomainError(f"estimate needs 0 < p < 1, got {p}")
    b = 1.0 / (1.0 - p)
    return 0.5 * n / (math.log(n) / math.log(b))


@dataclass(frozen=True)
class RandomTableRow:
    """One (n, p) row of averaged classical bounds over sampled graphs.

    The fields are the table's columns in order, the JSON keys; the CSV
    has all but regenerated. bollobas is None at p = 1, where the
    estimate's formula is undefined but the averaged columns still make
    sense.
    """

    n: int
    p: float
    samples: int
    seed_base: int
    hoffman_avg: float
    kolo1_avg: float
    kolo2_avg: float
    bollobas: float | None
    regenerated: tuple[tuple[int, int], ...] = field(default_factory=tuple)
    # (sample index, auxiliary seed) pairs for edgeless draws that were redrawn

    def display(self) -> dict[str, str | None]:
        """The estimates as printed: round_display, or None where there is no estimate."""

        cells = {}
        for f in fields(self)[4:-1]:  # every field after seed_base but regenerated
            value = getattr(self, f.name)
            cells[f.name] = None if value is None else round_display(value)
        return cells


_REDRAW_CAP = 1000
# the byte budget of one (G, n, n) float64 stack of random_table samples
_STACK_BYTES = 320_000
_HOFFMAN, _KOLO1, _KOLO2 = (
    _CLASSICAL_IDS.index(b) for b in (BoundId.HOFFMAN, BoundId.KOLOTILINA_1, BoundId.KOLOTILINA_2)
)


def _edged_samples(
    n: int, p: float, seed_base: int, samples: int, start: int, stop: int,
    regenerated: list[tuple[int, int]],
) -> tuple[np.ndarray, list[int]]:
    """Adjacency stack of samples start..stop-1, each with at least one edge, and their seeds.

    Sample i is drawn with seed seed_base + i. An edgeless draw is
    replaced, in sample order, by the draw of the next auxiliary seed
    seed_base + samples + len(regenerated), and the (sample, seed) pair
    is appended to regenerated. Entry k of the seeds is the seed of
    matrix k as drawn.
    """

    seeds = list(range(seed_base + start, seed_base + stop))
    a = random_gnp_adjacency(n, p, seeds)
    for k in np.flatnonzero(~a.any(axis=(1, 2))).tolist():
        while not a[k].any():
            if len(regenerated) >= _REDRAW_CAP:
                raise DomainError(
                    f"gave up after {_REDRAW_CAP} edgeless redraws at n={n}, p={p}"
                )
            seeds[k] = seed_base + samples + len(regenerated)
            regenerated.append((start + k, seeds[k]))
            a[k] = random_gnp_adjacency(n, p, [seeds[k]])[0]
    return a, seeds


def _blas_free_cpus() -> int:
    """The process's CPUs over BLAS's thread count: how many solves can run side by side.

    BLAS's thread count is read as OpenBLAS reads it, the first positive
    integer among OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and
    OMP_NUM_THREADS; with none set, BLAS takes every CPU and this is 1.
    """

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            blas = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if blas > 0:
            return max(1, cpus // blas)
    return 1


def _table_workers(n: int) -> int:
    """How many chunks of a random_table row at n are solved at once.

    The CPUs BLAS leaves free, capped so that the chunks in flight each
    hold at least one sample within _STACK_BYTES.
    """

    return max(1, min(_blas_free_cpus(), _STACK_BYTES // (8 * n * n)))


def _chunk_values(a: np.ndarray, name: Callable[[int], str]) -> np.ndarray:
    """(G, 4) classical values of an adjacency stack; a failed solve names name(k)."""

    with matrices_named(name):
        mu, th, dl = unnormalized_spectra(a)
    return _classical_values(mu, _generalized_values(mu, th, dl))


def _sample_values(
    n: int, p: float, seed_base: int, samples: int, regenerated: list[tuple[int, int]]
) -> np.ndarray:
    """(samples, 4) classical values of one random_table row, in sample order.

    The chunks are drawn here in sample order. With one worker, or one
    chunk, each is solved where it is drawn and no thread starts.
    Otherwise at most _table_workers(n) chunks are in flight, plus the
    one being drawn, and their values are taken in chunk order. The
    error raised is the one a serial run raises: an earlier chunk's
    failed solve before a later chunk's failed draw. Pending solves are
    cancelled on any error.
    """

    workers = _table_workers(n)
    chunk = max(1, _STACK_BYTES // (workers * 8 * n * n))

    def drawn(start: int) -> tuple[np.ndarray, Callable[[int], str]]:
        stop = min(start + chunk, samples)
        a, seeds = _edged_samples(n, p, seed_base, samples, start, stop, regenerated)
        return a, lambda k: f"sample {start + k} (seed {seeds[k]})"

    starts = range(0, samples, chunk)
    if len(starts) == 1 or workers == 1:
        return np.concatenate([_chunk_values(*drawn(start)) for start in starts])
    from concurrent.futures import ThreadPoolExecutor

    out: list[np.ndarray] = []
    pending: collections.deque = collections.deque()
    pool = ThreadPoolExecutor(workers)
    try:
        for start in starts:
            try:
                job = drawn(start)
            except DomainError:  # the redraw cap, after any earlier chunk's failed solve
                for future in pending:
                    future.result()
                raise
            if len(pending) == workers:
                out.append(pending.popleft().result())
            pending.append(pool.submit(_chunk_values, *job))
        out.extend(future.result() for future in pending)
    finally:
        pool.shutdown(cancel_futures=True)
    return np.concatenate(out)


def _valid_mean(values: np.ndarray) -> float:
    """Compensated mean of the valid (not -inf) values, in their order."""

    valid = values[values != -np.inf].tolist()
    return math.fsum(valid) / len(valid)


def random_table(
    rows: list[tuple[int, float]], samples: int, seed_base: int
) -> list[RandomTableRow]:
    """Averaged Hoffman / Kolotilina1 / Kolotilina2 per (n, p) cell.

    Sample index i uses seed seed_base + i. An edgeless draw (possible
    at tiny p) is replaced using auxiliary seeds seed_base + samples,
    seed_base + samples + 1, ... and the substitution is recorded on
    the row. Samples go in chunks sized by _STACK_BYTES and solved on
    the CPUs BLAS leaves free (see the module docstring), so memory
    does not grow with the sample count. Valid values are kept in
    sample order and averaged with compensated summation, so neither
    the chunk length nor the worker count can shift results. A failed
    solve names the sample and the seed it was drawn with. Every row is
    checked before any is drawn: n from 2 to 10 000, the most a graph6
    id names, and 0 < p <= 1.
    """

    if samples < 1:
        raise DomainError(f"need at least one sample, got {samples}")
    for n, p in rows:
        if n < 2:
            raise DomainError(f"table rows need n >= 2, got {n}")
        if n > _G6_MAX_N:
            raise DomainError(
                f"table rows need n <= {_G6_MAX_N}, the most a graph6 id can name, got {n}"
            )
        if not 0.0 < p <= 1.0:
            raise DomainError(f"table rows need 0 < p <= 1, got {p}")
    out = []
    for n, p in rows:
        regenerated: list[tuple[int, int]] = []
        values = _sample_values(n, p, seed_base, samples, regenerated)
        out.append(
            RandomTableRow(
                n=n,
                p=p,
                hoffman_avg=_valid_mean(values[:, _HOFFMAN]),
                kolo1_avg=_valid_mean(values[:, _KOLO1]),
                kolo2_avg=_valid_mean(values[:, _KOLO2]),
                bollobas=bollobas_estimate(n, p) if p < 1.0 else None,
                samples=samples,
                seed_base=seed_base,
                regenerated=tuple(regenerated),
            )
        )
    return out


def _csv_text(rows: list[list]) -> str:
    """Rows as CSV with LF endings; only a cell with a comma, quote or newline is quoted."""

    import csv  # here, so that commands without --csv do not import it

    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def random_table_csv(rows: list[RandomTableRow]) -> str:
    """CSV with a header, '.' decimals, LF endings, full-precision averages.

    csv writes each float as its repr and a missing Bollobas estimate as
    an empty cell.
    """

    header = [f.name for f in fields(RandomTableRow)[:-1]]
    return _csv_text([header, *([getattr(r, name) for name in header] for r in rows)])


def random_table_json(rows: list[RandomTableRow]) -> str:
    """Each row's fields in order, then its display cells."""

    return json.dumps([asdict(r) | {"display": r.display()} for r in rows], indent=2)


# --------------------------------------------------------------------------
# named-graph comparisons

DEFAULT_NAMED = (
    "gen:circulant(16;1,7,8)",
    "gen:barbell(8)",
    "gen:sun(8)",
    "gen:windmill(3,6)",
    "gen:petersen",
    "gen:mycielskian(cycle(5))",
)


# the most bytes a graph file may hold: room for the 8 332 504-byte graph6
# line of a 10 000-vertex graph, the largest a graph6 id names
_GRAPH_FILE_MAX_BYTES = 64 << 20


def resolve_graph_input(text: str) -> Graph:
    """One input grammar everywhere: gen:spec, @file, or a graph6 literal.

    Files are sniffed: any line with two or more whitespace-separated
    tokens means an edge list, otherwise the first nonblank line is
    graph6. A file is read up to one byte past _GRAPH_FILE_MAX_BYTES, and
    refused if it holds more, so an endless file such as /dev/zero ends.
    """

    text = text.strip()
    if not text:
        raise DomainError("empty graph input")
    if text.startswith("gen:"):
        return generate_from_spec(text[len("gen:"):])
    if text.startswith("@"):
        if text == "@":
            raise DomainError("empty graph file name after '@'")
        path = Path(text[1:])
        try:
            with path.open("rb") as f:
                data = f.read(_GRAPH_FILE_MAX_BYTES + 1)
        except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the name
            raise DomainError(f"cannot read graph file {path}: {exc}") from None
        if len(data) > _GRAPH_FILE_MAX_BYTES:
            raise DomainError(
                f"graph file {path} is larger than the {_GRAPH_FILE_MAX_BYTES}-byte (64 MiB) "
                f"limit on graph files"
            )
        try:
            content = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise DomainError(f"graph file {path} is not ASCII: {exc}") from None
        return parse_graph_file(content)
    return parse_graph6(text)


def parse_graph_file(content: str) -> Graph:
    """Sniff edge-list vs graph6 content and parse accordingly."""

    for line in content.splitlines():
        if len(line.split()) >= 2:
            return parse_edge_list(content)
    for line in content.splitlines():
        if line.strip():
            return parse_graph6(line)
    raise DomainError("graph file has no content")


@dataclass(frozen=True)
class ComparisonRow:
    """Full bound table for one named graph; error text if it failed."""

    name: str
    report: BoundReport | None = None
    chi: int | None = None
    error: str | None = None


def named_comparison(names: list[str]) -> list[ComparisonRow]:
    """Bound reports (plus exact chi at desk scale) in input order.

    A row that fails to resolve or compute carries its error message and
    the run continues.
    """

    rows = []
    for name in names:
        try:
            g = resolve_graph_input(name)
            report = full_report(g)
            chi = chromatic_number(g).chi if g.n <= _ORACLE_N_LIMIT else None
            rows.append(ComparisonRow(name=name, report=report, chi=chi))
        except SpectralChromaError as exc:
            rows.append(ComparisonRow(name=name, error=str(exc)))
    return rows


def comparison_csv(rows: list[ComparisonRow]) -> str:
    """One CSV row per graph: name, chi, then each bound's 1-decimal display.

    A failed row has its error text in the chi column and empty bound cells.
    """

    lines = [["name", "chi"] + [b.value for b in BoundId]]
    for row in rows:
        if row.report is None:
            lines.append([row.name, f"error:{row.error}"] + [""] * len(BoundId))
            continue
        cells = [v.display if v.valid else "" for v in row.report.values]
        lines.append([row.name, row.chi] + cells)
    return _csv_text(lines)


def report_json_payload(report: BoundReport, chi: int | None = None) -> dict:
    """The fixed regression schema for one graph's bound report."""

    payload: dict = {
        "graph": report.graph_id,
        "bounds": [
            {"id": v.id.value, "value": v.value, "best_m": v.best_m, "valid": v.valid}
            for v in report.values
        ],
        "display": {v.id.value: v.display for v in report.values},
    }
    if chi is not None:
        payload["chi"] = chi
    return payload


def comparison_json(rows: list[ComparisonRow]) -> str:
    """One JSON object per row, each with its "name": a report's payload, or the error text."""

    payload = []
    for row in rows:
        if row.report is None:
            payload.append({"name": row.name, "error": row.error})
        else:
            entry = report_json_payload(row.report, row.chi)
            entry["name"] = row.name
            payload.append(entry)
    return json.dumps(payload, indent=2)
