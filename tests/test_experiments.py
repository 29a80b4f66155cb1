"""Named comparisons, random tables, the deterministic estimate, formats."""

import json
import math
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest
from conftest import load_no_perfect_matching, small_and_named_graphs
from paper_lemmas import graph_spectrum

from spectral_chroma import experiments
from spectral_chroma.bounds import BoundId, classical_bounds, full_report, round_display
from spectral_chroma.errors import DomainError, NumericError, ParseError
from spectral_chroma.experiments import (
    _REDRAW_CAP,
    _sample_values,
    _table_workers,
    DEFAULT_NAMED,
    RandomTableRow,
    bollobas_estimate,
    comparison_csv,
    comparison_json,
    named_comparison,
    parse_graph_file,
    random_table,
    random_table_csv,
    random_table_json,
    report_json_payload,
    resolve_graph_input,
)
from spectral_chroma.graphs import (
    GraphMatrixKind,
    circulant,
    emit_graph6,
    petersen,
    random_gnp,
)

# --------------------------------------------------------------------------
# reference: the per-sample loop random_table replaced, one Graph, three
# graph_spectrum solves and one classical_bounds call per sample


def reference_samples(n, p, samples, seed_base):
    """Each sample's classical bounds, in sample order, and the row's redraws."""

    per_sample = []
    regenerated = []
    for i in range(samples):
        g = random_gnp(n, p, seed_base + i)
        while g.edge_count == 0:
            if len(regenerated) >= _REDRAW_CAP:
                raise DomainError(f"gave up after {_REDRAW_CAP} edgeless redraws at n={n}, p={p}")
            aux_seed = seed_base + samples + len(regenerated)
            regenerated.append((i, aux_seed))
            g = random_gnp(n, p, aux_seed)
        spec_a = graph_spectrum(g, GraphMatrixKind.ADJACENCY)
        spec_l = graph_spectrum(g, GraphMatrixKind.LAPLACIAN)
        spec_q = graph_spectrum(g, GraphMatrixKind.SIGNLESS_LAPLACIAN)
        per_sample.append(classical_bounds(spec_a, spec_l, spec_q))
    return per_sample, regenerated


def reference_random_table(rows, samples, seed_base):
    if samples < 1:
        raise DomainError(f"need at least one sample, got {samples}")
    out = []
    for n, p in rows:
        if n < 2:
            raise DomainError(f"table rows need n >= 2, got {n}")
        if not 0.0 < p <= 1.0:
            raise DomainError(f"table rows need 0 < p <= 1, got {p}")
        buckets = {BoundId.HOFFMAN: [], BoundId.KOLOTILINA_1: [], BoundId.KOLOTILINA_2: []}
        per_sample, regenerated = reference_samples(n, p, samples, seed_base)
        for bounds in per_sample:
            for v in bounds:
                if v.id in buckets and v.valid:
                    buckets[v.id].append(v.value)
        hoffman, kolo1, kolo2 = buckets.values()
        out.append(
            RandomTableRow(
                n=n,
                p=p,
                hoffman_avg=math.fsum(hoffman) / len(hoffman),
                kolo1_avg=math.fsum(kolo1) / len(kolo1),
                kolo2_avg=math.fsum(kolo2) / len(kolo2),
                bollobas=bollobas_estimate(n, p) if p < 1.0 else None,
                samples=samples,
                seed_base=seed_base,
                regenerated=tuple(regenerated),
            )
        )
    return out


def row_key(r: RandomTableRow) -> tuple:
    """Every field of a row, floats as their exact hex form."""

    floats = (r.p, r.hoffman_avg, r.kolo1_avg, r.kolo2_avg)
    return (r.n, *(x.hex() for x in floats), r.bollobas and r.bollobas.hex(),
            r.samples, r.seed_base, r.regenerated)


def force_free_cpus(monkeypatch, count):
    """Have random_table see count CPUs left free by BLAS: count workers up to its byte cap."""

    monkeypatch.setattr(experiments, "_blas_free_cpus", lambda: count)


class TestBollobasEstimate:
    @pytest.mark.parametrize(
        "n,p,display",
        [
            (20, 0.5, "2.3"),
            (20, 0.7, "4.0"),
            (20, 0.9, "7.7"),
            (50, 0.5, "4.4"),
            (50, 0.7, "7.7"),
            (50, 0.9, "14.7"),
        ],
    )
    def test_printed_column(self, n, p, display):
        assert round_display(bollobas_estimate(n, p)) == display

    def test_closed_form_at_half(self):
        assert abs(bollobas_estimate(20, 0.5) - 10 / math.log2(20)) <= 1e-12

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_degenerate_p_rejected(self, p):
        with pytest.raises(DomainError):
            bollobas_estimate(20, p)

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            bollobas_estimate(1, 0.5)

    def test_strictly_increasing_in_p(self):
        for n in (3, 10, 50):
            grid = [0.05 * k for k in range(1, 20)]
            values = [bollobas_estimate(n, p) for p in grid]
            assert all(b > a for a, b in zip(values, values[1:]))


class TestRandomTable:
    def test_deterministic_output_bytes(self):
        rows1 = random_table([(12, 0.5), (8, 0.7)], samples=20, seed_base=7)
        rows2 = random_table([(12, 0.5), (8, 0.7)], samples=20, seed_base=7)
        assert random_table_csv(rows1) == random_table_csv(rows2)
        assert random_table_json(rows1) == random_table_json(rows2)

    def test_complete_graph_row(self):
        row = random_table([(5, 1.0)], samples=1, seed_base=0)[0]
        assert row.hoffman_avg == 5.0
        assert row.bollobas is None

    def test_average_within_sample_range(self):
        samples, seed_base = 25, 99
        row = random_table([(10, 0.5)], samples=samples, seed_base=seed_base)[0]
        values = []
        for i in range(samples):
            g = random_gnp(10, 0.5, seed_base + i)
            spec_a = graph_spectrum(g, GraphMatrixKind.ADJACENCY)
            spec_l = graph_spectrum(g, GraphMatrixKind.LAPLACIAN)
            spec_q = graph_spectrum(g, GraphMatrixKind.SIGNLESS_LAPLACIAN)
            values.append(classical_bounds(spec_a, spec_l, spec_q)[0].value)
        assert min(values) <= row.hoffman_avg <= max(values)
        assert row.regenerated == ()

    def test_edgeless_redraw_recorded(self):
        # n=2, tiny p: the first draws are usually edgeless and must be
        # replaced deterministically from the auxiliary seed sequence:
        # seeds 8, 9, ... in order, sample 0 first, then 1, then 2
        row = random_table([(2, 0.01)], samples=3, seed_base=5)[0]
        assert row.samples == 3
        indices = [0] * 189 + [1] * 99 + [2] * 177
        assert row.regenerated == tuple((i, 8 + k) for k, i in enumerate(indices))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize(
        "rows,samples,seed_base",
        [
            ([(2, 0.01)], 3, 5),  # 465 redraws
            ([(5, 1.0)], 4, 0),  # complete graphs, no estimate
            ([(12, 0.5), (8, 0.7)], 20, 7),
            ([(3, 0.2)], 300, 11),  # 348 redraws, spread over the samples
            ([(50, 0.5)], 37, 1),  # chunks of 16, 16 and 5 on one worker
            ([(2, 0.3), (3, 0.2)], 37, -4),  # negative seed, 114 and 50 redraws
            ([(63, 0.3), (200, 0.5)], 3, 2**64 + 3),  # chunks of 10 and of 1 on one worker
            ([(60, 0.0005)], 40, 3),  # 36 redraws over 8 chunks on two workers
        ],
    )
    def test_rows_match_reference(self, monkeypatch, rows, samples, seed_base, workers):
        force_free_cpus(monkeypatch, workers)
        got = random_table(rows, samples, seed_base)
        want = reference_random_table(rows, samples, seed_base)
        assert [row_key(r) for r in got] == [row_key(r) for r in want]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n,p,samples,seed_base", [(50, 0.5, 37, 1), (60, 0.0005, 40, 3)])
    def test_values_in_sample_order(self, monkeypatch, n, p, samples, seed_base, workers):
        # the averages are exactly rounded sums, which no order of the
        # samples changes; the per-sample values must be in sample order too
        force_free_cpus(monkeypatch, workers)
        per_sample, regenerated = reference_samples(n, p, samples, seed_base)
        got_regenerated = []
        got = _sample_values(n, p, seed_base, samples, got_regenerated)
        assert got.tolist() == [[v.value if v.valid else -math.inf for v in s] for s in per_sample]
        assert got_regenerated == regenerated

    def test_chunks_solved_on_worker_threads(self, monkeypatch):
        force_free_cpus(monkeypatch, 2)
        solve = np.linalg.eigh
        callers = set()

        def recorded(a, *args, **kwargs):
            callers.add(threading.current_thread() is threading.main_thread())
            return solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recorded)
        random_table([(50, 0.5)], 37, 1)
        assert callers == {False}

    def test_redraw_cap_matches_reference(self):
        # about 1 800 redraws would be needed at p = .05 for 300 samples
        with pytest.raises(DomainError) as want:
            reference_random_table([(3, 0.05)], 300, 11)
        with pytest.raises(DomainError) as got:
            random_table([(3, 0.05)], 300, 11)
        assert str(got.value) == str(want.value) == (
            f"gave up after {_REDRAW_CAP} edgeless redraws at n=3, p=0.05"
        )

    @staticmethod
    def poison(monkeypatch, adjacency):
        """Shift one eigenvalue of each matrix equal to adjacency, in any eigh call on any thread."""

        solve = np.linalg.eigh

        def perturbed(a, *args, **kwargs):
            w, v = solve(a, *args, **kwargs)
            if a.shape[1:] == adjacency.shape:
                hit = (a == adjacency).all(axis=(1, 2))
                if hit.any():
                    w = w.copy()
                    w[hit, 0] += 1e-3
            return w, v

        monkeypatch.setattr(np.linalg, "eigh", perturbed)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_failed_solve_names_sample_and_seed(self, monkeypatch, workers):
        # the A stack holding sample 19's adjacency fails, whichever chunk it is in
        force_free_cpus(monkeypatch, workers)
        self.poison(monkeypatch, random_gnp(50, 0.5, 20).adjacency())
        with pytest.raises(NumericError, match=r"^sample 19 \(seed 20\): eigenpair residual"):
            random_table([(50, 0.5)], 37, 1)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_failed_solve_names_the_redrawn_seed(self, monkeypatch, workers):
        # n = 60, p = .0005: sample 39 was redrawn, so its graph comes from the
        # last auxiliary seed recorded for it, not from seed_base + 39; that
        # graph is drawn for no other sample
        force_free_cpus(monkeypatch, workers)
        assert random_table([(60, 0.0005)], 40, 3)[0].regenerated[-1] == (39, 78)
        self.poison(monkeypatch, random_gnp(60, 0.0005, 78).adjacency())
        with pytest.raises(NumericError, match=r"^sample 39 \(seed 78\): eigenpair"):
            random_table([(60, 0.0005)], 40, 3)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_failed_solve_before_redraw_cap(self, monkeypatch, workers):
        # n = 60, p = .0005, seed 3: with a cap of 12 the 13th redraw, sample
        # 14's, gives up. Serially sample 3 (seed 6) fails its solve first,
        # in the first chunk of 11; on more workers that chunk is still in
        # flight, or queued, when the draw gives up, and its error must win
        monkeypatch.setattr(experiments, "_REDRAW_CAP", 12)
        threads = threading.active_count()
        force_free_cpus(monkeypatch, workers)
        with pytest.raises(DomainError, match="^gave up after 12 edgeless redraws at n=60"):
            random_table([(60, 0.0005)], 40, 3)
        assert threading.active_count() == threads
        self.poison(monkeypatch, random_gnp(60, 0.0005, 6).adjacency())
        force_free_cpus(monkeypatch, 1)
        with pytest.raises(NumericError) as serial:
            random_table([(60, 0.0005)], 40, 3)
        force_free_cpus(monkeypatch, workers)
        with pytest.raises(NumericError) as threaded:
            random_table([(60, 0.0005)], 40, 3)
        assert str(threaded.value) == str(serial.value)
        assert str(serial.value).startswith("sample 3 (seed 6): eigenpair residual")
        assert threading.active_count() == threads

    def test_memory_flat_in_samples(self, monkeypatch):
        # chunks are sized by bytes: at n = 200 one sample's A stack is
        # 320 kB, while a chunk of 64 would hold 20 MB per stack; two free
        # CPUs still give one worker, as one sample fills the budget
        force_free_cpus(monkeypatch, 2)

        def refused(thread):
            raise AssertionError(f"started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refused)
        tracemalloc.start()
        try:
            random_table([(200, 0.5)], samples=64, seed_base=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_no_samples_rejected(self):
        with pytest.raises(DomainError):
            random_table([(10, 0.5)], samples=0, seed_base=1)

    def test_p_zero_rejected(self):
        with pytest.raises(DomainError):
            random_table([(5, 0.0)], samples=2, seed_base=1)

    def test_every_row_checked_before_any_is_drawn(self, monkeypatch):
        def undrawn(*args, **kwargs):
            raise AssertionError("a row was drawn")

        monkeypatch.setattr(experiments, "random_gnp_adjacency", undrawn)
        for bad, error in (
            ((10001, 0.5), "table rows need n <= 10000, the most a graph6 id can name, got 10001"),
            ((20, 0.0), "table rows need 0 < p <= 1, got 0.0"),
        ):
            with pytest.raises(DomainError, match=f"^{re.escape(error)}$"):
                random_table([(20, 0.5), bad], samples=1, seed_base=1)

    def test_csv_shape(self):
        rows = random_table([(6, 0.5)], samples=4, seed_base=3)
        text = random_table_csv(rows)
        lines = text.split("\n")
        assert lines[0] == "n,p,samples,seed_base,hoffman_avg,kolo1_avg,kolo2_avg,bollobas"
        assert len(lines) == 3 and lines[-1] == ""
        assert text.endswith("\n") and "\r" not in text

    def test_json_parses_with_display(self):
        rows = random_table([(6, 0.5)], samples=4, seed_base=3)
        payload = json.loads(random_table_json(rows))
        assert payload[0]["display"]["hoffman_avg"] == round_display(rows[0].hoffman_avg)


class TestTableWorkers:
    BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

    @pytest.fixture
    def machine(self, monkeypatch):
        """machine(cpus, **env): the process's CPUs and the BLAS variables that are set."""

        def configure(cpus, **env):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            for name in self.BLAS_VARIABLES:
                monkeypatch.delenv(name, raising=False)
            for name, value in env.items():
                monkeypatch.setenv(name, value)

        return configure

    @pytest.mark.parametrize(
        "cpus,env,workers",
        [
            (2, {}, 1),  # BLAS threads on every CPU
            (2, {"OPENBLAS_NUM_THREADS": "1"}, 2),
            (2, {"OPENBLAS_NUM_THREADS": "2"}, 1),
            (2, {"OMP_NUM_THREADS": "1"}, 2),
            (2, {"GOTO_NUM_THREADS": "1"}, 2),
            (2, {"OPENBLAS_NUM_THREADS": "abc"}, 1),  # not an integer: unset
            (2, {"OPENBLAS_NUM_THREADS": "abc", "OMP_NUM_THREADS": "1"}, 2),
            (2, {"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "1"}, 2),
            (2, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),  # the first one wins
            (2, {"OPENBLAS_NUM_THREADS": "4"}, 1),
            (1, {"OPENBLAS_NUM_THREADS": "1"}, 1),
            (8, {"OPENBLAS_NUM_THREADS": "2"}, 4),
        ],
    )
    def test_cpus_over_blas_threads(self, machine, cpus, env, workers):
        machine(cpus, **env)
        assert _table_workers(50) == workers

    def test_cpu_count_without_affinity(self, machine, monkeypatch):
        machine(1, OPENBLAS_NUM_THREADS="1")
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert _table_workers(50) == 3

    @pytest.mark.parametrize("n,workers", [(50, 8), (100, 4), (141, 2), (142, 1), (200, 1)])
    def test_a_sample_per_worker_within_budget(self, machine, n, workers):
        # 320 kB holds two 141 x 141 float64 matrices, but not two of 142
        machine(8, OPENBLAS_NUM_THREADS="1")
        assert _table_workers(n) == workers


class TestResolveGraphInput:
    def test_generator_spec(self):
        g = resolve_graph_input("gen:petersen")
        assert g.edges == petersen().edges

    def test_graph6_literal(self):
        g = resolve_graph_input(emit_graph6(petersen()))
        assert g.edges == petersen().edges

    def test_file_edge_list(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n", encoding="ascii")
        g = resolve_graph_input(f"@{path}")
        assert g.n == 3 and g.edge_count == 2

    def test_file_graph6(self, tmp_path):
        path = tmp_path / "g.g6"
        path.write_text(emit_graph6(circulant(16, [1, 7, 8])) + "\n", encoding="ascii")
        g = resolve_graph_input(f"@{path}")
        assert g.edges == circulant(16, [1, 7, 8]).edges

    def test_file_at_the_cap_is_read(self, tmp_path):
        # the cap is inclusive: a file of exactly _GRAPH_FILE_MAX_BYTES is
        # parsed, here as one graph6 line of NUL bytes, which the parser refuses
        path = tmp_path / "cap.g6"
        with path.open("wb") as f:
            f.truncate(experiments._GRAPH_FILE_MAX_BYTES)
        with pytest.raises(ParseError, match="^out-of-range graph6 byte 0 at offset 0$"):
            resolve_graph_input(f"@{path}")

    def test_missing_file(self):
        with pytest.raises(DomainError, match="cannot read"):
            resolve_graph_input("@/nonexistent/path.g6")

    def test_empty_input(self):
        with pytest.raises(DomainError):
            resolve_graph_input("   ")

    def test_empty_file_content(self):
        with pytest.raises(DomainError, match="no content"):
            parse_graph_file("\n\n")


class TestNamedComparison:
    def test_default_rows_match_reports(self):
        rows = named_comparison(list(DEFAULT_NAMED))
        assert [r.name for r in rows] == list(DEFAULT_NAMED)
        circ = rows[0]
        assert circ.error is None
        assert circ.chi == 4
        assert circ.report.display(BoundId.HOFFMAN) == "2.7"
        barb = rows[1]
        assert barb.report.display(BoundId.HOFFMAN) == "4.8"
        assert barb.report.display(BoundId.KOLOTILINA_2) == "7.3"
        sun_row = rows[2]
        assert sun_row.report.display(BoundId.HOFFMAN) == "4.1"
        assert sun_row.report.display(BoundId.KOLOTILINA_1) == "5.5"
        wind = rows[3]
        assert wind.report.display(BoundId.HOFFMAN) == "3.7"
        assert wind.report.display(BoundId.NORMALIZED_HOFFMAN) == "6.0"

    def test_error_row_continues(self):
        rows = named_comparison(["gen:nosuchfamily(3)", "gen:petersen"])
        assert rows[0].error is not None and rows[0].report is None
        assert rows[1].error is None and rows[1].chi == 3

    def test_csv_layout(self):
        rows = named_comparison(["gen:complete(4)", "gen:nosuch(1)"])
        text = comparison_csv(rows)
        lines = text.strip().split("\n")
        header = lines[0].split(",")
        assert header[:2] == ["name", "chi"]
        assert header[2:] == [b.value for b in BoundId]
        good = lines[1].split(",")
        assert good[0] == "gen:complete(4)" and good[1] == "4"
        assert good[2] == "4.0"  # Hoffman display
        assert lines[2].startswith("gen:nosuch(1),error:")

    def test_json_schema_fields(self):
        rows = named_comparison(["gen:complete(4)"])
        payload = json.loads(comparison_json(rows))
        entry = payload[0]
        assert set(entry) >= {"graph", "bounds", "display", "chi", "name"}
        assert {b["id"] for b in entry["bounds"]} == {b.value for b in BoundId}
        assert all(set(b) == {"id", "value", "best_m", "valid"} for b in entry["bounds"])

    def test_report_payload_without_chi(self):
        payload = report_json_payload(full_report(petersen()))
        assert "chi" not in payload
        assert payload["graph"] == emit_graph6(petersen())

    def test_report_payload_display_is_each_values_display(self):
        for g in small_and_named_graphs():
            report = full_report(g)
            expected = {b.value: report.value(b).display for b in BoundId}
            assert report_json_payload(report)["display"] == expected


class TestExternalGraph:
    def test_env_variable_wins(self, tmp_path, monkeypatch):
        path = tmp_path / "npm.g6"
        path.write_text(emit_graph6(petersen()) + "\n", encoding="ascii")
        monkeypatch.setenv("SPECTRAL_CHROMA_NPM_FILE", str(path))
        g = load_no_perfect_matching()
        assert g is not None and g.n == 10

    def test_absent_returns_none(self, monkeypatch):
        monkeypatch.delenv("SPECTRAL_CHROMA_NPM_FILE", raising=False)
        assert load_no_perfect_matching() is None

    def test_empty_variable_returns_none(self, monkeypatch):
        monkeypatch.setenv("SPECTRAL_CHROMA_NPM_FILE", "")
        assert load_no_perfect_matching() is None
