"""Exit codes, output formats, and determinism of the command line."""

import csv
import io
import itertools
import json
import os
import random
import re
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from spectral_chroma import certify, cli, experiments, oracle
from spectral_chroma.bounds import SWEPT_IDS, BoundId
from spectral_chroma.certify import greedy_certificate_coloring
from spectral_chroma.cli import main
from spectral_chroma.errors import VerificationError
from spectral_chroma.experiments import DEFAULT_NAMED, named_comparison
from spectral_chroma.graphs import Graph, emit_graph6, parse_graph6, petersen, random_gnp
from spectral_chroma.oracle import all_graphs, chromatic_number

RESIDUAL = re.compile(r"residual (\S+)")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoundsCommand:
    def test_complete_four_table(self, capsys):
        code, out, _ = run(capsys, "bounds", "gen:complete(4)")
        assert code == 0
        lines = out.splitlines()
        assert "Hoffman 4.0" in lines
        assert "IntegerC 4 m=1" in lines
        assert lines[0].startswith("graph C~ n=4 edges=6")

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "bounds", "gen:petersen", "--json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"graph", "bounds", "display"}
        assert payload["graph"] == emit_graph6(petersen())
        assert len(payload["bounds"]) == 15
        hoffman = next(b for b in payload["bounds"] if b["id"] == "Hoffman")
        assert abs(hoffman["value"] - 2.5) < 1e-12
        assert {"id", "value", "best_m", "valid"} == set(hoffman)

    def test_graph6_literal_input(self, capsys):
        code, out, _ = run(capsys, "bounds", emit_graph6(petersen()))
        assert code == 0
        assert "Hoffman 2.5" in out.splitlines()

    def test_bad_graph_input(self, capsys):
        code, _, err = run(capsys, "bounds", "gen:complete(-3)")
        assert code == 2
        assert "error" in err

    def test_malformed_graph6(self, capsys):
        code, _, err = run(capsys, "bounds", "C")
        assert code == 2
        assert err

    def test_empty_file_name_is_domain_error(self, capsys):
        # Path("") is the working directory, which must not be read as a file
        for text in ("@", " @ "):
            code, out, err = run(capsys, "bounds", text)
            assert code == 2 and out == ""
            assert err == "error: empty graph file name after '@'\n"

    def test_deep_mycielskian_refused_before_building(self, capsys):
        # the nesting is peeled in a loop, not recursion, and refused before any
        # level is built: 13 levels around K_1 make 2^14 - 1 vertices
        for depth in (1200, 13):
            spec = "gen:" + "mycielskian(" * depth + "complete(1)" + ")" * depth
            start = time.perf_counter()
            code, out, err = run(capsys, "bounds", spec)
            assert time.perf_counter() - start < 1.0
            assert code == 2 and out == ""
            assert err == (
                f"error: {depth} nested mycielskians of a 1-vertex graph exceed "
                "the 10000 vertices a graph6 id can name\n"
            )

    def test_oversize_inputs_refused_before_building(self, capsys, tmp_path):
        # a generator spec and an edge list past the 10 000 vertices of a graph6 id
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n2 10001\n", encoding="ascii")
        for text, error in (
            (
                "gen:complete_multipartite(3000,3000,3000,1002)",
                "generator spec 'complete_multipartite(3000,3000,3000,1002)' has 10002 "
                "vertices, past the 10000 a graph6 id can name",
            ),
            (f"@{path}", "edge list vertex count 10002 exceeds the supported maximum 10000"),
        ):
            start = time.perf_counter()
            code, out, err = run(capsys, "bounds", text)
            assert time.perf_counter() - start < 1.0
            assert code == 2 and out == ""
            assert err == f"error: {error}\n"

    def test_nested_mycielskian_built(self, capsys):
        code, out, _ = run(capsys, "chromatic", "gen:mycielskian(mycielskian(cycle(5)))")
        assert code == 0
        assert out.splitlines()[:2] == ["graph n=23 edges=71", "chi 5"]

    def test_non_ascii_file_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "bad.g6"
        path.write_bytes(b"B\xff\n")
        code, _, err = run(capsys, "bounds", f"@{path}")
        assert code == 2
        assert err.startswith("error:")

    def test_endless_file_is_refused_at_the_cap(self, capsys):
        # /dev/zero never ends: the read stops one byte past the cap
        start = time.perf_counter()
        code, out, err = run(capsys, "bounds", "@/dev/zero")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == (
            "error: graph file /dev/zero is larger than the 67108864-byte (64 MiB) "
            "limit on graph files\n"
        )

    def test_file_one_byte_over_the_cap_is_refused(self, capsys, tmp_path):
        path = tmp_path / "big.g6"
        with path.open("wb") as f:
            f.truncate(experiments._GRAPH_FILE_MAX_BYTES + 1)  # sparse: no data blocks written
        code, out, err = run(capsys, "bounds", f"@{path}")
        assert code == 2 and out == ""
        assert err.startswith(f"error: graph file {path} is larger than the 67108864-byte")

    def test_nul_byte_in_file_name_is_domain_error(self, capsys):
        # no file name holds a NUL byte; open() raises ValueError, not OSError
        code, out, err = run(capsys, "bounds", "@a\x00b")
        assert code == 2 and out == ""
        assert err == "error: cannot read graph file a\x00b: embedded null byte\n"


class TestSweepCommand:
    def test_csv_body(self, capsys):
        code, out, _ = run(capsys, "sweep", "gen:circulant(16;1,7,8)", "--bound", "GenHoffman")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "m,value"
        assert len(lines) == 17
        m3 = float(lines[3].split(",")[1])
        assert abs(m3 - 2.90132662893401) < 1e-12
        assert lines[16] == "16,"  # whole-spectrum sum is inadmissible

    def test_normalized_variant(self, capsys):
        code, out, _ = run(capsys, "sweep", "gen:complete(4)", "--bound", "GenNormalizedHoffman")
        assert code == 0
        m1 = float(out.splitlines()[1].split(",")[1])
        assert abs(m1 - 4.0) < 1e-12

    def test_classical_bound_rejected(self, capsys):
        code, _, err = run(capsys, "sweep", "gen:complete(4)", "--bound", "Hoffman")
        assert code == 1
        assert "usage error" in err


class TestCertifyCommand:
    def test_greedy_coloring_petersen(self, capsys):
        code, out, _ = run(capsys, "certify", "gen:petersen")
        assert code == 0
        assert out.splitlines()[-1] == "certified"
        values = [float(tok) for tok in RESIDUAL.findall(out)]
        assert len(values) == 5  # conversion, three B choices, loan
        assert all(v < 1e-10 for v in values)

    def test_forced_palette_size(self, capsys):
        code, out, _ = run(capsys, "certify", "gen:petersen", "--colors", "5")
        assert code == 0
        assert "colors=5" in out.splitlines()[0]

    def test_palette_wider_than_n_refused(self, capsys, monkeypatch):
        # refused before a unitary of the palette is built
        def unbuilt(cols):
            raise AssertionError("unitaries built")

        monkeypatch.setattr(certify, "_unitary_stack", unbuilt)
        code, out, err = run(capsys, "certify", "gen:petersen", "--colors", "11")
        assert code == 2 and out == ""
        assert err == "error: 11 colors exceed the graph's 10 vertices\n"

    def test_exact_palette_refused_above_the_search_ceiling(self, capsys):
        # the exact search recurses once per vertex: past its 64-vertex
        # ceiling it is refused, not run into Python's recursion limit
        for n in (65, 1000):
            code, out, err = run(capsys, "certify", f"gen:cycle({n})", "--colors", "3")
            assert code == 2 and out == ""
            assert err == f"error: exact coloring supports at most 64 vertices, got {n}\n"

    def test_failed_solve_names_graph_and_step(self, capsys, monkeypatch):
        # eigh calls: the A, L and Q spectra, then the right side for B = D
        solve = np.linalg.eigh
        calls = []

        def perturbed(a, *args, **kwargs):
            w, v = solve(a, *args, **kwargs)
            if len(calls) == 3:
                w = w.copy()
                w[0, 0] += 1e-3
            calls.append(len(a))
            return w, v

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        code, out, err = run(capsys, "certify", "gen:petersen")
        assert code == 2 and out == ""
        assert err.startswith("error: graph 0 majorization B=deg: eigenpair residual")

    def test_infeasible_color_count(self, capsys):
        code, _, err = run(capsys, "certify", "gen:petersen", "--colors", "2")
        assert code == 2
        assert "no proper coloring" in err

    def test_single_vertex(self, capsys):
        # the greedy palette is widened to two colors, and --colors 2 is
        # accepted as it is by certify_graphs: c <= max(2, n)
        for palette in ([], ["--colors", "2"]):
            code, out, _ = run(capsys, "certify", "gen:complete(1)", *palette)
            assert code == 0
            assert out.splitlines()[0] == "graph n=1 edges=0 colors=2"
            assert "loan skipped" in out
            assert out.count(" min_margin n/a ok\n") == 3  # no m < n
            assert out.splitlines()[-1] == "certified"

    def test_min_margin_is_over_m_below_n(self, capsys):
        # at m = n both sums are tr B, a rounding term that is not printed
        code, out, _ = run(capsys, "certify", "gen:circulant(16;1,7,8)")
        assert code == 0
        margins = re.findall(r"^majorization B=\S+ residual \S+ min_margin (\S+) ok$", out, re.M)
        assert margins == ["1.333e+00"] * 3


class TestChromaticCommand:
    def test_petersen(self, capsys):
        code, out, _ = run(capsys, "chromatic", "gen:petersen")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "chi 3"
        assert len(lines[2].split()) == 11  # "coloring" + one color per vertex

    def test_size_refusal(self, capsys):
        code, _, err = run(capsys, "chromatic", "gen:complete(65)")
        assert code == 2
        assert "65" in err


class TestRandomTableCommand:
    def test_identical_stdout_on_repeat(self, capsys):
        argv = ("random-table", "--rows", "20:0.5", "--samples", "15", "--seed", "1")
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_json_mode_parses(self, capsys):
        code, out, _ = run(
            capsys, "random-table", "--rows", "12:0.5,12:0.7", "--samples", "5",
            "--seed", "3", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert [row["n"] for row in payload] == [12, 12]
        assert all("hoffman_avg" in row and "display" in row for row in payload)

    def test_csv_mode(self, capsys):
        code, out, _ = run(
            capsys, "random-table", "--rows", "10:0.5", "--samples", "4",
            "--seed", "2", "--csv",
        )
        assert code == 0
        assert out.startswith("n,p,samples,seed_base,")

    def test_formats_agree_column_by_column(self, capsys):
        # G(2, .3) draws edgeless graphs, which are redrawn; at p = 1 there
        # is no Bollobas estimate
        argv = ("random-table", "--rows", "2:0.3,7:1.0", "--samples", "6", "--seed", "-4")
        outs = {}
        for fmt, extra in (("text", ()), ("csv", ("--csv",)), ("json", ("--json",))):
            code, outs[fmt], _ = run(capsys, *argv, *extra)
            assert code == 0
        payload = json.loads(outs["json"])
        assert payload[0]["regenerated"] and payload[1]["bollobas"] is None
        header, *csv_rows = csv.reader(io.StringIO(outs["csv"]))
        keys = list(payload[0])
        assert header == keys[:keys.index("regenerated")]
        text_rows = [line.split() for line in outs["text"].splitlines()[1:]]
        for row, csv_row, text_row in zip(payload, csv_rows, text_rows, strict=True):
            assert csv_row == ["" if row[k] is None else str(row[k]) for k in header]
            assert text_row[-4:] == ["-" if v is None else v for v in row["display"].values()]

    def test_row_syntax_error(self, capsys):
        code, _, err = run(capsys, "random-table", "--rows", "20-0.5")
        assert code == 1
        assert "usage error" in err

    def test_probability_out_of_range(self, capsys):
        code, _, err = run(capsys, "random-table", "--rows", "20:1.5", "--samples", "2")
        assert code == 2
        assert err

    @pytest.mark.parametrize("rows", ["1_0:0.5", "10:0.5_0", "\u0661\u0660:0.5", "10:0.\u0665"])
    def test_non_ascii_or_grouped_row_refused(self, capsys, rows):
        # int() and float() would read each as the row 10:0.5
        code, out, err = run(capsys, "random-table", "--rows", rows, "--samples", "2")
        assert code == 1 and out == ""
        assert err == (
            f"usage error: argument --rows: row {rows!r} is not of the form n:p (like 20:0.5)\n"
        )

    def test_row_past_the_graph6_limit_refused(self, capsys):
        # refused before its 20 000-vertex samples are drawn
        start = time.perf_counter()
        code, out, err = run(capsys, "random-table", "--rows", "20000:0.5", "--samples", "1")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == (
            "error: table rows need n <= 10000, the most a graph6 id can name, got 20000\n"
        )


class TestCompareCommand:
    def test_json_error_row_is_name_and_error(self, capsys):
        code, out, _ = run(capsys, "compare", "--json", "gen:nosuch", "A_")
        assert code == 0
        error, report = json.loads(out)
        assert error == {
            "name": "gen:nosuch", "error": "unknown graph family 'nosuch'",
        }
        assert list(report) == ["graph", "bounds", "display", "chi", "name"]
        assert report["graph"] == "A_" == report["name"]

    def test_named_default_json(self, capsys):
        code, out, _ = run(capsys, "compare", "--named", "default", "--json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 6
        assert all("bounds" in row or "error" in row for row in payload)

    def test_table_includes_error_rows(self, capsys):
        code, out, _ = run(capsys, "compare", "gen:complete(3)", "gen:nosuch(2)")
        assert code == 0
        assert "gen:complete(3) chi=3" in out
        assert "gen:nosuch(2) error:" in out

    def test_non_ascii_file_is_an_error_row(self, capsys, tmp_path):
        path = tmp_path / "bad.g6"
        path.write_bytes(b"B\xff\n")
        code, out, _ = run(capsys, "compare", "gen:complete(3)", f"@{path}")
        assert code == 0
        assert "gen:complete(3) chi=3" in out
        assert f"@{path} error:" in out

    def test_nul_byte_in_file_name_is_an_error_row(self, capsys):
        code, out, _ = run(capsys, "compare", "gen:complete(3)", "@a\x00b")
        assert code == 0
        assert "gen:complete(3) chi=3" in out
        assert "@a\x00b error: cannot read graph file a\x00b: embedded null byte" in out

    @pytest.mark.parametrize(
        "argv, names",
        [
            (["--named", "default"], list(DEFAULT_NAMED)),
            (["gen:petersen", "gen:nope", "xx"], ["gen:petersen", "gen:nope", "xx"]),
        ],
    )
    def test_csv_rows_parse_to_the_header_width(self, capsys, argv, names):
        # the circulant and windmill names and the "xx" error text hold commas
        code, out, _ = run(capsys, "compare", "--csv", *argv)
        assert code == 0
        header, *rows = csv.reader(io.StringIO(out, newline=""))
        assert header == ["name", "chi"] + [b.value for b in BoundId]
        assert all(len(row) == len(header) for row in rows)
        expected = named_comparison(names)
        assert [row[0] for row in rows] == [r.name for r in expected]
        for row, r in zip(rows, expected):
            if r.error is not None:
                assert row[1:] == [f"error:{r.error}"] + [""] * len(BoundId)
        assert any("," in row[0] or "," in row[1] for row in rows)

    def test_no_inputs_is_usage_error(self, capsys):
        code, _, err = run(capsys, "compare")
        assert code == 1
        assert "usage error" in err


class TestProbeSolveFailure:
    """An integer-search probe whose solve does not converge is a computation error."""

    ERROR = "symmetric eigensolver failed to converge: Eigenvalues did not converge"

    @pytest.fixture(autouse=True)
    def diverge(self, monkeypatch):
        # eigh converges, so the spectra solve; only the probes fail
        def diverge(a, *args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", diverge)

    def test_bounds_exits_2(self, capsys):
        code, out, err = run(capsys, "bounds", "gen:petersen")
        assert (code, out, err) == (2, "", f"error: {self.ERROR}\n")

    def test_compare_prints_each_row_error(self, capsys):
        code, out, _ = run(capsys, "compare", "gen:petersen", "gen:cycle(5)")
        assert code == 0
        assert out == f"gen:petersen error: {self.ERROR}\n\ngen:cycle(5) error: {self.ERROR}\n"


class TestCorpusCheckCommand:
    def test_small_sweep_clean(self, capsys):
        code, out, _ = run(capsys, "corpus-check", "--max-n", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n=1 graphs=1 soundness_violations=0 certification_failures=0"
        assert lines[-1] == "checked 75 graphs: 0 soundness violations, 0 certification failures"

    def test_chunk_solves_each_stack_once(self, monkeypatch):
        # the reports solve A, L, Q and the normalized A; the certificates
        # read A, L and Q from them, derive -A, -D - A and A/(c-1), and
        # solve only B + A/(c-1) for B = D and -D
        chunk = list(itertools.islice(all_graphs(7), cli.CORPUS_CHUNK))
        assert len(chunk) == 128 and sum(g.edge_count == 0 for g in chunk) == 1
        shapes = []
        solve = np.linalg.eigh

        def counting(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        assert cli._check_chunk(chunk) == (0, 0)
        assert len(shapes) == 6
        assert all(len(s) == 3 and s[1:] == (7, 7) for s in shapes)

    def test_greedy_coloring_computed_once_per_graph(self):
        # counts the calls of the functions' own bodies, not of their caches
        bodies = {
            oracle.greedy_coloring.__wrapped__.__code__: 0,
            oracle._search_table.__wrapped__.__code__: 0,
        }

        def count(frame, event, arg):
            if event == "call" and frame.f_code in bodies:
                bodies[frame.f_code] += 1

        chunk = list(itertools.islice(all_graphs(7), cli.CORPUS_CHUNK))
        assert len(chunk) == 128 and sum(g.edge_count == 0 for g in chunk) == 1
        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            assert cli._check_chunk(chunk) == (0, 0)
        finally:
            sys.setprofile(previous)
        assert list(bodies.values()) == [len(chunk), len(chunk)]
        # the shared coloring changes no witness: it is the sequential
        # coloring in degree order, and fresh copies of the graphs, with
        # nothing cached, color the same whichever caller comes first
        for g in chunk:
            deg = g.degrees()
            colors = [-1] * g.n
            for v in sorted(range(g.n), key=lambda v: (-deg[v], v)):
                taken = {colors[u] for u in g.neighbors()[v]}
                colors[v] = min(set(range(g.n + 1)) - taken)
            assert greedy_certificate_coloring(g).colors == tuple(colors)
            fresh = Graph(g.n, g.edges)
            assert greedy_certificate_coloring(fresh) == greedy_certificate_coloring(g)
            assert chromatic_number(fresh) == chromatic_number(g)
            fresh = Graph(g.n, g.edges)
            assert chromatic_number(fresh) == chromatic_number(g)
            assert greedy_certificate_coloring(fresh) == greedy_certificate_coloring(g)

    def test_conversion_breach_is_one_failed_verdict(self, monkeypatch, capsys):
        # one graph's conversion residual is pushed past its tolerance: a
        # unit diagonal entry added to its adjacency commutes with every
        # U_s, so its conversion sum is c, not 0. The rest of the chunk is
        # certified from the same batch, with no graph certified again
        chunk = list(itertools.islice(all_graphs(7), cli.CORPUS_CHUNK))
        g = chunk[40]
        target = g.adjacency()
        conversions = certify._conversions

        def breached(a, cols, c):
            a = a.copy()
            a[(a == target).all(axis=(1, 2)), 0, 0] += 1.0
            return conversions(a, cols, c)

        batches = []
        certify_graphs = cli.certify_graphs

        def counting(graphs, cols):
            batches.append(len(graphs))
            return certify_graphs(graphs, cols)

        monkeypatch.setattr(certify, "_conversions", breached)
        monkeypatch.setattr(cli, "certify_graphs", counting)
        assert cli._check_chunk(chunk) == (0, 1)
        assert batches == [len(chunk)]
        batch = certify_graphs(chunk, [greedy_certificate_coloring(h) for h in chunk])
        assert np.flatnonzero(~batch.ok).tolist() == [40] and batch.steps["deg"].ok[40]
        with pytest.raises(VerificationError, match="^conversion residual"):
            batch.conversions.certificate(40)
        # certify on the graph alone still stops at the breach, exit 3
        c = greedy_certificate_coloring(g).c
        code, out, err = run(capsys, "certify", emit_graph6(g))
        assert code == 3
        assert out == f"graph n=7 edges={g.edge_count} colors={c}\n"
        prefix = f"verification failure: conversion residual {c:.3e} exceeds tolerance "
        assert re.fullmatch(re.escape(prefix) + r"\S+\n", err)

    def test_max_n_out_of_range(self, capsys):
        code, _, err = run(capsys, "corpus-check", "--max-n", "9")
        assert code == 1
        assert "usage error" in err


class TestTopLevel:
    def test_missing_subcommand(self, capsys):
        code, _, err = run(capsys, )
        assert code == 1
        assert "usage error" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1
        assert "invalid choice" in err

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "corpus-check" in out

    def test_parser_is_reused_without_leaks(self, capsys):
        # one process, one parser: each call prints what a fresh parser prints,
        # so no flag or default carries over from the call before
        sequence = [
            ("bounds", "--json", "gen:petersen"),
            ("bounds", "gen:sun(8)"),
            ("random-table", "--rows", "7:0.3", "--samples", "3", "--csv"),
            ("random-table", "--rows", "7:0.3", "--samples", "3"),
            ("compare", "gen:petersen", "--json"),
            ("compare", "gen:cycle(5)"),
            ("certify", "gen:petersen", "--colors", "4"),
            ("certify", "gen:petersen"),
            ("--help",),
            ("bounds", "--colors", "3", "gen:petersen"),
            ("bounds", "gen:complete(4)"),
        ]
        fresh = []
        for argv in sequence:
            cli._build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        cli._build_parser.cache_clear()
        reused = [run(capsys, *argv) for argv in sequence]
        assert reused == fresh
        assert cli._build_parser.cache_info().misses == 1
        assert [code for code, _, _ in fresh] == [0] * 8 + [0, 1, 0]

    @pytest.mark.parametrize(
        "argv",
        [
            ["random-table", "--rows", "10:0.5", "--samples", "1_0"],
            ["random-table", "--rows", "10:0.5", "--seed", "\u0663"],
            ["certify", "gen:petersen", "--colors", "\u0663"],
            ["corpus-check", "--max-n", "\u0665"],
        ],
    )
    def test_integer_option_is_plain_ascii(self, capsys, argv):
        # int() would read each, "1_0" as 10 and an Arabic-Indic digit as its value
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        option, value = argv[-2:]
        assert err == f"usage error: argument {option}: invalid int value: {value!r}\n"

    @pytest.mark.parametrize(
        "argv", [["bounds", "gen:petersen"], ["compare", "--named", "default", "--json"]]
    )
    def test_closed_stdout_exits_as_sigpipe(self, argv):
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "spectral_chroma.cli", *argv],
                stdout=write, stderr=subprocess.PIPE, text=True,
                env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            )
        finally:
            os.close(write)
        assert done.returncode == 141
        assert "Traceback" not in done.stderr

    def test_parser_is_not_built_at_import(self):
        code = (
            "import spectral_chroma.cli as cli; "
            "print(cli._build_parser.cache_info().currsize)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        ).stdout
        assert out.strip() == "0"


class TestInputSurfaceFuzz:
    """A seeded fuzz of main over every input form, for the four one-graph commands.

    Well-formed gen: specs name at most 40 vertices; corruptions insert
    or delete non-digit characters and truncate, so no number grows,
    and the only large sizes are the ones refused before building.
    Graph6-like strings take headers of at most 40 vertices, or long
    headers with too short a body.
    """

    CALLS = 600
    ALARM_S = 5

    @staticmethod
    def spec(rng):
        r = rng.randint
        wellformed = rng.choice([
            lambda: f"complete({r(1, 40)})",
            lambda: f"cycle({r(3, 40)})",
            lambda: f"complete_bipartite({r(1, 20)},{r(1, 20)})",
            lambda: f"complete_multipartite({','.join(str(r(1, 8)) for _ in range(r(1, 5)))})",
            lambda: f"barbell({r(1, 20)})",
            lambda: f"sun({r(1, 20)})",
            lambda: f"windmill({r(1, 6)},{r(2, 7)})",
            lambda: f"circulant({r(1, 40)};{','.join(str(r(0, 20)) for _ in range(r(1, 3)))})",
            lambda: "petersen",
            lambda: (lambda d: "mycielskian(" * d + f"cycle({r(3, 5)})" + ")" * d)(r(1, 2)),
        ])()
        roll = rng.random()
        if roll < 0.1:  # an argument out of range, small or past the graph6 limit
            return re.sub(r"\d+", lambda m: str(rng.choice([-1, 0, 10**5, 10**30])),
                          wellformed, count=1)
        if roll < 0.4:
            text = wellformed
            for _ in range(r(1, 2)):
                at = r(0, len(text))
                edit = rng.random()
                if edit < 0.5:
                    text = text[:at] + rng.choice(" ()-;,.x_") + text[at:]
                elif edit < 0.8 and at < len(text) and not text[at].isdigit():
                    text = text[:at] + text[at + 1:]
                else:
                    text = text[:at]
            return text
        return wellformed

    @staticmethod
    def graph6_like(rng):
        roll = rng.random()
        n = rng.randint(1, 40)
        nbytes = (n * (n - 1) // 2 + 5) // 6
        if roll < 0.4:
            text = emit_graph6(random_gnp(n, rng.random(), rng.randrange(1000)))
            if rng.random() < 0.5:  # one character swapped, added or dropped
                at = rng.randrange(len(text))
                edit = rng.choice(["", chr(rng.randint(33, 126)), text[at] * 2])
                text = text[:at] + edit + text[at + 1:]
            return rng.choice(["", ">>graph6<<"]) + text
        if roll < 0.7:
            size = max(0, nbytes + rng.randint(-1, 1))
            return chr(63 + n) + "".join(chr(rng.randint(63, 126)) for _ in range(size))
        if roll < 0.85:  # long headers: non-canonical, or the body cut short
            head = "~" + "".join(chr(rng.randint(63, 126)) for _ in range(3))
            return head + "".join(chr(rng.randint(63, 126)) for _ in range(rng.randint(0, 5)))
        return rng.choice(["", " ", "~", "~~", ">>graph6<<", "Aé", "?", "@"])

    @staticmethod
    def path(rng, tmp_path, index):
        roll = rng.random()
        file = tmp_path / f"in{index}.txt"
        if roll < 0.45:
            n = rng.randint(2, 40)
            lines = [f"{u} {v}" for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
            lines = lines or ["0 1"]
            if rng.random() < 0.3:
                lines[rng.randrange(len(lines))] = rng.choice(
                    ["0", "a b", "-1 2", "3 3", "0 10001", "0 1 2", "n 0", "n x", "1.5 2"]
                )
            if rng.random() < 0.3:
                lines.insert(0, f"n {rng.randint(1, 40)}")
            file.write_text("\n".join(lines) + "\n", encoding="ascii")
        elif roll < 0.7:
            file.write_text(TestInputSurfaceFuzz.graph6_like(rng) + "\n", encoding="utf-8")
        elif roll < 0.8:
            file.write_bytes(rng.choice([b"", b"\n\n  \n", b"B\xff\n", b"\x00\x01"]))
        else:
            return rng.choice(["@", f"@{tmp_path}", f"@{tmp_path / 'missing.g6'}", "@a\x00b"])
        return f"@{file}"

    def test_every_call_answers_or_refuses(self, capsys, tmp_path):
        def expired(signum, frame):
            raise TimeoutError(f"no answer within {self.ALARM_S} s")

        rng = random.Random(32)
        bounds = [b.value for b in SWEPT_IDS] + ["Hoffman"]
        previous = signal.signal(signal.SIGALRM, expired)
        try:
            for index in range(self.CALLS):
                form = rng.choice(["gen", "graph6", "path"])
                if form == "gen":
                    text = "gen:" + self.spec(rng)
                elif form == "graph6":
                    text = self.graph6_like(rng)
                else:
                    text = self.path(rng, tmp_path, index)
                command = rng.choice(["bounds", "sweep", "certify", "chromatic"])
                argv = [command, text]
                if command == "bounds" and rng.random() < 0.3:
                    argv.append("--json")
                elif command == "sweep":
                    argv += ["--bound", rng.choice(bounds)]
                elif command == "certify" and rng.random() < 0.5:
                    argv += ["--colors", str(rng.randint(-1, 12))]
                signal.alarm(self.ALARM_S)
                try:
                    code, _, err = run(capsys, *argv)
                finally:
                    signal.alarm(0)
                assert code in (0, 2, 3) or (code == 1 and "usage error" in err), (argv, code, err)
                if form == "graph6" and code == 0:
                    assert emit_graph6(parse_graph6(text)) == text.removeprefix(">>graph6<<"), argv
        finally:
            signal.signal(signal.SIGALRM, previous)
