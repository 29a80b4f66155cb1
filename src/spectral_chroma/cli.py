"""Command-line front end: bound tables, sweeps, certificates, corpora.

Exit codes: 0 success, 1 usage error, 2 computation or domain error,
3 verification failure (a residual or soundness breach).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys

import numpy as np

from .bounds import (
    SWEPT_IDS,
    BoundId,
    BoundReport,
    full_report,
    full_reports,
    generalized_sweep,
    normalized_spectra,
    normalized_sweep,
    report_spectra,
)
from .certify import certify_graphs, greedy_certificate_coloring
from .errors import (
    DomainError,
    NumericError,
    ParseError,
    VerificationError,
)
from .experiments import (
    DEFAULT_NAMED,
    comparison_csv,
    comparison_json,
    named_comparison,
    random_table,
    random_table_csv,
    random_table_json,
    report_json_payload,
    resolve_graph_input,
)
from .graphs import Graph
from .linalg import CERT_RESIDUAL_LIMIT, SOUNDNESS_SLACK
from .oracle import Coloring, all_graphs, chromatic_number, colorable_with

# corpus-check batch size: per-call overhead is spread as well as over a
# whole order, while only this many graphs and their caches are alive
CORPUS_CHUNK = 128

_SHOW_M = set(SWEPT_IDS) | {BoundId.INTEGER_C}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(message)


# --------------------------------------------------------------------------
# per-command handlers


def _report_lines(report: BoundReport) -> list[str]:
    lines = [f"graph {report.graph_id} n={report.n} edges={report.edge_count}"]
    for value in report.values:
        if not value.valid:
            lines.append(f"{value.id.value} n/a")
        elif value.id in _SHOW_M:
            lines.append(f"{value.id.value} {value.display} m={value.best_m}")
        else:
            lines.append(f"{value.id.value} {value.display}")
    return lines


def _cmd_bounds(args) -> int:
    g = resolve_graph_input(args.input)
    report = full_report(g)
    if args.json:
        print(json.dumps(report_json_payload(report), indent=2))
    else:
        print("\n".join(_report_lines(report)))
    return 0


def _cmd_sweep(args) -> int:
    g = resolve_graph_input(args.input)
    bound_id = BoundId(args.bound)
    # the graph's cached spectra through the accessors full_reports reads:
    # the normalized A alone, or A, L and Q
    if bound_id is BoundId.GEN_NORMALIZED_HOFFMAN:
        column = normalized_sweep(normalized_spectra([g])[0])
    else:
        column = generalized_sweep(*report_spectra([g])[:, 0])[bound_id]
    print("m,value")
    for m, value in enumerate(column, start=1):
        print(f"{m}," if value is None else f"{m},{value!r}")
    return 0


def _certify_coloring(g: Graph, colors: int | None) -> Coloring:
    if colors is None:
        return greedy_certificate_coloring(g)
    col = colorable_with(g, colors)
    if col is None:
        raise DomainError(f"graph admits no proper coloring with {colors} colors")
    return col


def _cmd_certify(args) -> int:
    g = resolve_graph_input(args.input)
    col = _certify_coloring(g, args.colors)
    batch = certify_graphs([g], [col])  # a refused coloring prints nothing
    print(f"graph n={g.n} edges={g.edge_count} colors={col.c}")
    cert = batch.conversions.certificate(0)  # raises VerificationError on a conversion breach
    print(f"conversion residual {cert.residual:.3e} tolerance {cert.tolerance:.3e} ok")
    for label, steps in batch.steps.items():
        step = steps.row(0)
        margins = step.spectral_margins
        margin = f"{margins.min():.3e}" if margins.size else "n/a"  # no m < n at n = 1
        state = "ok" if step.ok else "FAIL"
        print(
            f"majorization B={label} residual {step.identity_residual:.3e} "
            f"min_margin {margin} {state}"
        )
    loan = batch.loan(0)
    if loan is not None:
        state = "ok" if loan.ok else "FAIL"
        print(
            f"loan residual {loan.identity_residual:.3e} "
            f"rayleigh {loan.rayleigh_value:.6f} {state}"
        )
    else:
        print("loan skipped (needs an edge)")

    print("certified" if batch.ok[0] else "FAILED")
    return 0 if batch.ok[0] else 3


def _cmd_chromatic(args) -> int:
    g = resolve_graph_input(args.input)
    result = chromatic_number(g)
    print(f"graph n={g.n} edges={g.edge_count}")
    print(f"chi {result.chi}")
    print("coloring " + " ".join(str(c) for c in result.witness.colors))
    return 0


def _cmd_random_table(args) -> int:
    rows = random_table(args.rows, samples=args.samples, seed_base=args.seed)
    if args.json:
        print(random_table_json(rows))
    elif args.csv:
        print(random_table_csv(rows), end="")
    else:
        print("n p samples hoffman kolo1 kolo2 bollobas")
        for row in rows:
            cells = [str(row.n), repr(row.p), str(row.samples)]
            cells.extend("-" if text is None else text for text in row.display().values())
            print(" ".join(cells))
    return 0


def _cmd_compare(args) -> int:
    names = list(DEFAULT_NAMED) if args.named else []
    names.extend(args.inputs)
    if not names:
        raise _UsageError("compare needs graph inputs or --named default")
    rows = named_comparison(names)
    if args.json:
        print(comparison_json(rows))
    elif args.csv:
        print(comparison_csv(rows), end="")
    else:
        blocks = []
        for row in rows:
            if row.error is not None:
                blocks.append(f"{row.name} error: {row.error}")
                continue
            chi = "?" if row.chi is None else str(row.chi)
            lines = [f"{row.name} chi={chi}"]
            lines.extend("  " + text for text in _report_lines(row.report)[1:])
            blocks.append("\n".join(lines))
        print("\n\n".join(blocks))
    return 0


def _check_chunk(graphs: list[Graph]) -> tuple[int, int]:
    """Soundness violations and certification failures among graphs of one order."""

    # each batch of reports is dropped once its values are read, so one is
    # alive at a time; the spectra it solved stay with the graphs, for
    # certify_graphs
    values = np.array([report.value_row for report in full_reports(graphs)])
    chi = np.array([chromatic_number(g).chi for g in graphs])
    # an invalid bound is -inf, which any chi passes
    sound = (np.ceil(values - SOUNDNESS_SLACK) <= chi[:, None]).all(axis=1)
    batch = certify_graphs(graphs, [greedy_certificate_coloring(g) for g in graphs])
    certified = batch.ok & (batch.conversions.residual < CERT_RESIDUAL_LIMIT)
    total = len(graphs)
    return total - int(np.count_nonzero(sound)), total - int(np.count_nonzero(certified))


def _cmd_corpus_check(args) -> int:
    unsound = 0
    uncertified = 0
    total = 0
    for n in range(1, args.max_n + 1):
        count = bad_sound = bad_cert = 0
        graphs = iter(all_graphs(n))
        # CORPUS_CHUNK graphs, with their caches, alive at a time
        while chunk := list(itertools.islice(graphs, CORPUS_CHUNK)):
            chunk_unsound, chunk_uncertified = _check_chunk(chunk)
            count += len(chunk)
            bad_sound += chunk_unsound
            bad_cert += chunk_uncertified
        print(
            f"n={n} graphs={count} "
            f"soundness_violations={bad_sound} certification_failures={bad_cert}"
        )
        unsound += bad_sound
        uncertified += bad_cert
        total += count
    print(
        f"checked {total} graphs: {unsound} soundness violations, "
        f"{uncertified} certification failures"
    )
    return 3 if unsound or uncertified else 0


# --------------------------------------------------------------------------
# argument wiring


def _parse_rows(text: str) -> list[tuple[int, float]]:
    rows = []
    for chunk in text.split(","):
        parts = chunk.split(":")
        if len(parts) != 2:
            raise argparse.ArgumentTypeError(
                f"row {chunk!r} is not of the form n:p (like 20:0.5)"
            )
        try:
            rows.append((int(parts[0]), float(parts[1])))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"row {chunk!r} is not of the form n:p (like 20:0.5)"
            ) from None
    return rows


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built on the first main call and reused by later ones.

    parse_args makes a fresh namespace per call and leaves the parser
    unchanged, so no flag or default carries over from one call to the next.
    """

    parser = _Parser(
        prog="spectral-chroma",
        description="Spectral lower bounds on the chromatic number.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="every bound for one graph")
    p.add_argument("input", help="graph6 string, @file, or gen:family(args)")
    p.add_argument("--json", action="store_true", help="full-precision JSON")
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("sweep", help="per-m values of a generalized bound, CSV")
    p.add_argument("input")
    p.add_argument("--bound", required=True, choices=[b.value for b in SWEPT_IDS])
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("certify", help="conversion and identity certificates")
    p.add_argument("input")
    p.add_argument("--colors", type=int, help="use an exact coloring with this many colors")
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("chromatic", help="exact chromatic number with witness")
    p.add_argument("input")
    p.set_defaults(handler=_cmd_chromatic)

    p = sub.add_parser("random-table", help="averaged bounds on random graphs")
    p.add_argument("--rows", required=True, type=_parse_rows, help="like 20:0.5,20:0.7")
    p.add_argument("--samples", type=int, default=15)
    p.add_argument("--seed", type=int, default=0)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p.set_defaults(handler=_cmd_random_table)

    p = sub.add_parser("compare", help="bound tables across a list of graphs")
    p.add_argument("inputs", nargs="*", help="graph inputs, same forms as bounds")
    p.add_argument("--named", choices=["default"], help="include the built-in list")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("corpus-check", help="exhaustive soundness and certification")
    p.add_argument("--max-n", type=int, default=7, choices=range(1, 8))
    p.set_defaults(handler=_cmd_corpus_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help prints and exits 0
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, DomainError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
