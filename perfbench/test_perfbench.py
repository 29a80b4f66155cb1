"""Tests of the benchmark's own helpers.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import random
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spectral_chroma.graphs import parse_graph6  # noqa: E402


def span(span_id, parent, start, end, name="x", thread=1):
    return [span_id, parent, name, thread, start, end, None]


# --------------------------------------------------------------------------
# self time


def test_self_time_subtracts_nested_children():
    own = spans.self_times(
        [
            span(1, None, 0.0, 10.0),
            span(2, 1, 1.0, 4.0),
            span(3, 2, 2.0, 3.0),
            span(4, 1, 5.0, 6.0),
        ]
    )
    assert own == pytest.approx({1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0})


def test_self_time_counts_overlapping_children_once():
    # two pool threads under one parent: their spans overlap in time
    own = spans.self_times(
        [
            span(1, None, 0.0, 10.0, thread=1),
            span(2, 1, 1.0, 6.0, thread=2),
            span(3, 1, 4.0, 8.0, thread=3),
            span(4, 1, 7.5, 9.0, thread=3),
        ]
    )
    assert own[1] == pytest.approx(10.0 - 8.0)  # children cover [1, 9]
    assert sum(own.values()) == pytest.approx(2.0 + 5.0 + 4.0 + 1.5)  # more than the wall


def test_self_time_clips_children_to_the_parent():
    own = spans.self_times([span(1, None, 0.0, 2.0), span(2, 1, 1.5, 3.0)])
    assert own[1] == pytest.approx(1.5)


def test_peak_threads_counts_concurrent_outermost_spans():
    trace = [
        span(1, None, 0.0, 10.0, thread=1),
        span(2, 1, 1.0, 6.0, thread=2),
        span(3, 2, 2.0, 3.0, thread=2),
        span(4, 1, 4.0, 8.0, thread=3),
    ]
    assert spans.peak_threads(trace) == 3
    assert spans.peak_threads(trace[:3]) == 2


def test_tracer_nests_and_links_pool_threads_to_the_root():
    tracer = spans.Tracer()
    root = tracer.open("root")
    child = tracer.open("child")
    tracer.close(child)

    def worker():
        s = tracer.open("pool")
        tracer.close(s)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    tracer.close(root)
    parents = {s[2]: s[1] for s in tracer.spans}
    assert parents["child"] == root[0]
    assert parents["pool"] == root[0]
    assert parents["root"] is None
    assert len(tracer.spans) == 6
    assert len({s[0] for s in tracer.spans}) == 6


def test_wrapped_generator_span_covers_its_iteration():
    tracer = spans.Tracer()

    def inner():
        s = tracer.open("inner")
        tracer.close(s)

    def gen(n):
        for i in range(n):
            inner()
            yield i

    wrapped = spans.wrap(gen, "oracle.all_graphs", tracer)
    assert list(wrapped(3)) == [0, 1, 2]
    outer = [s for s in tracer.spans if s[2] == "oracle.all_graphs"]
    assert len(outer) == 1
    assert all(s[1] == outer[0][0] for s in tracer.spans if s[2] == "inner")


def test_layer_metrics_compute_work_and_outcomes():
    trace = [
        [1, None, "bounds.integer_c_search", 1, 0.0, 1.0, {"work": 10, "stack_bytes": 80}],
        [2, 1, "linalg.eigenvalues_sym", 1, 0.1, 0.2, {"work": 8}],
        [3, None, "oracle.colorable_with", 1, 1.0, 2.0, {"hit": 1}],
        [4, None, "oracle.colorable_with", 1, 2.0, 3.0, {"hit": 0}],
        [5, None, "certify.build_conversion", 1, 3.0, 4.0, {"failed": 1}],
    ]
    m = spans.layer_metrics(trace)
    assert m["bounds.integer_c_search.self_s"] == pytest.approx(0.9)
    assert m["bounds.integer_c_search.work"] == 10
    assert m["bounds.integer_c_search.stack_bytes"] == 80
    assert m["oracle.colorable_with.calls"] == 2
    assert m["oracle.colorable_with.hit_ratio"] == 0.5
    assert m["certify.build_conversion.failures"] == 1
    assert m["oracle.chromatic_number.calls"] == 0


# --------------------------------------------------------------------------
# percentile rule


@pytest.mark.parametrize(
    "count, percentile",
    [(5, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, percentile):
    samples = [float(i) for i in range(1, count + 1)]
    random.Random(count).shuffle(samples)
    got = run.tail_percentile(samples)
    if percentile is None:
        assert got is None
    else:
        p, value = got
        assert p == percentile
        assert sum(1 for s in samples if s > value) >= 10


# --------------------------------------------------------------------------
# inputs and checks


@pytest.mark.parametrize("n", [1, 2, 6, 7, 62, 63, 64, 100, 300])
def test_graph6_writer_round_trips_through_the_parser(n):
    edges = workloads.gnp_edges(n, 0.5, f"round-trip:{n}")
    text = workloads.graph6(n, edges)
    assert (text[0] == "~") == (n >= 63)  # 4-byte header from n = 63
    g = parse_graph6(text)
    assert g.n == n
    assert g.edges == frozenset(edges)


def test_inputs_repeat_for_a_seed_and_change_with_it(tmp_path):
    a = workloads.oracle_g30(3, 0, tmp_path)
    b = workloads.oracle_g30(3, 0, tmp_path)
    c = workloads.oracle_g30(4, 0, tmp_path)
    assert [i.inputs for i in a] == [i.inputs for i in b]
    assert workloads.pass_key(a) != workloads.pass_key(c)
    assert workloads.pass_key(a) == workloads.pass_key(
        workloads.oracle_g30(3, workloads.ORACLE_CYCLE, tmp_path)
    )


def test_chromatic_check_rejects_an_improper_or_padded_witness():
    check = workloads.make_chromatic_check(3, [(0, 1), (1, 2)])
    assert check("graph n=3 edges=2\nchi 2\ncoloring 0 1 0\n") is None
    assert "improper" in check("graph n=3 edges=2\nchi 2\ncoloring 0 0 1\n")
    assert "exactly" in check("graph n=3 edges=2\nchi 3\ncoloring 0 1 0\n")


def test_corpus_check_needs_zero_violations():
    good = "".join(
        f"n={n} graphs={c} soundness_violations=0 certification_failures=0\n"
        for n, c in enumerate(workloads.CORPUS_COUNTS, start=1)
    ) + "checked 2299 graphs: 0 soundness violations, 0 certification failures\n"
    assert workloads.check_corpus(good) is None
    assert workloads.check_corpus(good.replace("soundness_violations=0", "soundness_violations=1", 1))


def test_altered_stdout_fails_the_digest_check():
    digests = workloads.load_digests(HERE / "digests.json")
    invocations = workloads.corpus_n7(workloads.DEFAULT_SEED, 0, Path("."))
    good = "".join(
        f"n={n} graphs={c} soundness_violations=0 certification_failures=0\n"
        for n, c in enumerate(workloads.CORPUS_COUNTS, start=1)
    ) + "checked 2299 graphs: 0 soundness violations, 0 certification failures\n"
    assert workloads.digest_failures(invocations, [good], digests) == [None]
    altered = good.replace("checked", "Checked")
    assert workloads.digest_failures(invocations, [altered], digests) == [
        "stdout differs from the reference output"
    ]


def test_unrecorded_inputs_skip_the_digest_check(tmp_path):
    invocations = workloads.oracle_g30(12345, 0, tmp_path)
    assert workloads.digest_failures(invocations, ["x"] * len(invocations), {}) == [None] * len(
        invocations
    )
