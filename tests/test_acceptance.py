"""Acceptance gate: every numbered criterion, one printed verdict line each.

Each test evaluates one criterion end to end, prints
``criterion N: PASS/FAIL (...)`` and only then asserts, so the verdict
also survives into the failure report (conftest echoes all verdicts
after the run summary). Two reference cells of criterion 1 were corrected
to "2.9" and "2.2": the circulant GenKolotilina1 m=3 cell must equal the
GenHoffman m=3 cell on a regular graph, and the windmill Kolotilina1
closed form 2.1646... rounds, not truncates, to 2.2; both cells also
check the raw value behind the display.
"""

import math
import random
import time

import numpy as np
import pytest

from conftest import from_edges, load_no_perfect_matching, record_verdict
from paper_lemmas import (
    PinchingInstance,
    graph_spectrum,
    ky_fan,
    pinch,
    pinch_via_unitaries,
    pinching_corollary_check,
    random_hermitian,
)
from spectral_chroma.bounds import (
    BoundId,
    classical_bounds,
    full_report,
    generalized_sweep,
    normalized_bounds,
    normalized_sweep,
    round_display,
)
from spectral_chroma.certify import (
    build_conversion,
    verify_loan_identity,
    verify_majorization_step,
)
from spectral_chroma.errors import VerificationError
from spectral_chroma.experiments import (
    bollobas_estimate,
    random_table,
)
from spectral_chroma.graphs import (
    Graph,
    GraphMatrixKind,
    barbell,
    build_matrix,
    circulant,
    complete,
    emit_graph6,
    sun,
    windmill,
)
from spectral_chroma.linalg import eigenvalues_sym
from spectral_chroma.oracle import (
    all_graphs,
    chromatic_number,
    greedy_coloring,
    labeled_graphs,
)

SOUNDNESS_SLACK = 1e-6
DOMINANCE_TOL = 1e-8


def _verdict(number: int, failures: list[str], detail: str = "") -> None:
    if failures:
        line = f"criterion {number}: FAIL ({'; '.join(failures)})"
    else:
        line = f"criterion {number}: PASS" + (f" ({detail})" if detail else "")
    record_verdict(line)
    print(line)
    assert not failures, line


@pytest.fixture(scope="session")
def corpus():
    """(graph, chi, bound values) over every labeled graph on <= 6
    vertices plus the deduplicated 7-vertex corpus, and the build time."""

    t0 = time.perf_counter()
    entries = []
    for n in range(1, 7):
        for g in labeled_graphs(n):
            entries.append((g, chromatic_number(g).chi, full_report(g).values))
    for g in all_graphs(7):
        entries.append((g, chromatic_number(g).chi, full_report(g).values))
    return entries, time.perf_counter() - t0


def _sweep_displays(report):
    return generalized_sweep(
        report.spectra[GraphMatrixKind.ADJACENCY],
        report.spectra[GraphMatrixKind.LAPLACIAN],
        report.spectra[GraphMatrixKind.SIGNLESS_LAPLACIAN],
    )


def test_criterion_1_named_graph_golden_displays():
    t0 = time.perf_counter()
    failures = []

    def cell(label, got, expected):
        if got != expected:
            failures.append(f"{label}: got {got}, expected {expected}")

    circ = circulant(16, [1, 7, 8])
    report = full_report(circ)
    cell("circulant Hoffman", report.display(BoundId.HOFFMAN), "2.7")
    cell("circulant Kolotilina1", report.display(BoundId.KOLOTILINA_1), "2.7")
    cell(
        "circulant NormalizedHoffman",
        report.display(BoundId.NORMALIZED_HOFFMAN),
        "2.7",
    )
    sweep = _sweep_displays(report)
    # 5-regular: delta_i = 5 + mu_i and theta_i = 5 - mu_(n+1-i), so the
    # GenKolotilina1 denominator equals the GenHoffman one at every m
    gen_k1 = sweep[BoundId.GEN_KOLOTILINA_1][2]
    gen_h = sweep[BoundId.GEN_HOFFMAN][2]
    if abs(gen_k1 - gen_h) > 1e-9:
        failures.append(
            f"circulant m=3: GenKolotilina1 {gen_k1!r} differs from GenHoffman {gen_h!r}"
        )
    cell("circulant GenKolotilina1 m=3", round_display(gen_k1), "2.9")
    cell("circulant GenHoffman m=3", round_display(gen_h), "2.9")
    norm = normalized_sweep(report.spectra[GraphMatrixKind.NORMALIZED_ADJACENCY])
    cell("circulant GenNormalizedHoffman m=3", round_display(norm[2]), "2.9")
    cell("circulant chi", chromatic_number(circ).chi, 4)

    report = full_report(barbell(8))
    cell("barbell Hoffman", report.display(BoundId.HOFFMAN), "4.8")
    cell("barbell Kolotilina2", report.display(BoundId.KOLOTILINA_2), "7.3")

    report = full_report(sun(8))
    cell("sun Hoffman", report.display(BoundId.HOFFMAN), "4.1")
    cell("sun Kolotilina1", report.display(BoundId.KOLOTILINA_1), "5.5")
    ic = report.value(BoundId.INTEGER_C)
    if not (ic.valid and ic.value >= 7 and ic.best_m == 1):
        failures.append(
            f"sun integer c: got value {ic.value} at m={ic.best_m}, expected >= 7 at m=1"
        )

    report = full_report(windmill(3, 6))
    # equitable partition {hub, rest}: mu_1 = 2 + sqrt(19), theta_1 = 16 and
    # delta_1 = 12 + 2 sqrt(6), so Kolotilina1 = 2.16465...
    kolo1 = report.value(BoundId.KOLOTILINA_1).value
    closed = 1.0 + (2.0 + math.sqrt(19)) / (6.0 + math.sqrt(19) - 2.0 * math.sqrt(6))
    if abs(kolo1 - closed) > 1e-12 * closed:
        failures.append(f"windmill Kolotilina1: {kolo1!r}, closed form {closed!r}")
    cell("windmill Kolotilina1", report.display(BoundId.KOLOTILINA_1), "2.2")
    cell("windmill Hoffman", report.display(BoundId.HOFFMAN), "3.7")
    cell("windmill Kolotilina2", report.display(BoundId.KOLOTILINA_2), "3.7")
    cell(
        "windmill NormalizedHoffman",
        report.display(BoundId.NORMALIZED_HOFFMAN),
        "6.0",
    )

    npm = load_no_perfect_matching()
    if npm is None:
        note = "matching-free row skipped, no external file"
    else:
        note = "matching-free row included"
        report = full_report(npm)
        cell("matching-free Hoffman", report.display(BoundId.HOFFMAN), "2.5")
        cell("matching-free Kolotilina1", report.display(BoundId.KOLOTILINA_1), "2.7")
        sweep = _sweep_displays(report)
        cell(
            "matching-free GenHoffman m=3",
            round_display(sweep[BoundId.GEN_HOFFMAN][2]),
            "2.8",
        )
        cell(
            "matching-free GenKolotilina1 m=3",
            round_display(sweep[BoundId.GEN_KOLOTILINA_1][2]),
            "2.9",
        )

    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s, budget 5s")
    _verdict(1, failures, f"{note}, {elapsed:.1f}s")


def test_criterion_2_bollobas_column():
    failures = []
    targets = {
        (20, 0.5): "2.3",
        (20, 0.7): "4.0",
        (20, 0.9): "7.7",
        (50, 0.5): "4.4",
        (50, 0.7): "7.7",
        (50, 0.9): "14.7",
    }
    for (n, p), expected in targets.items():
        got = round_display(bollobas_estimate(n, p))
        if got != expected:
            failures.append(f"({n},{p}): got {got}, expected {expected}")
    _verdict(2, failures)


RANDOM_TABLE_TARGETS = {
    (20, 0.5): (3.5, 3.1, 2.7),
    (20, 0.7): (4.4, 4.1, 3.3),
    (20, 0.9): (6.5, 7.8, 4.7),
    (50, 0.5): (4.6, 4.0, 3.4),
    (50, 0.7): (6.2, 5.3, 4.5),
    (50, 0.9): (10.1, 9.9, 6.6),
}


def test_criterion_3_random_table_statistics():
    t0 = time.perf_counter()
    failures = []
    rows = random_table(list(RANDOM_TABLE_TARGETS), samples=1000, seed_base=20130101)
    worst = 0.0
    for row in rows:
        targets = RANDOM_TABLE_TARGETS[(row.n, row.p)]
        cells = (row.hoffman_avg, row.kolo1_avg, row.kolo2_avg)
        for label, got, want in zip(("hoffman", "kolo1", "kolo2"), cells, targets):
            deviation = abs(got - want)
            worst = max(worst, deviation)
            if deviation > 0.4:
                failures.append(
                    f"n={row.n} p={row.p} {label}: {got:.2f} vs {want} "
                    f"(deviation {deviation:.2f})"
                )
    elapsed = time.perf_counter() - t0
    if elapsed >= 180:
        failures.append(f"runtime {elapsed:.0f}s, budget 180s")
    _verdict(3, failures, f"18 cells, max deviation {worst:.2f}, {elapsed:.0f}s")


def test_criterion_4_exhaustive_soundness(corpus):
    entries, build_time = corpus
    t0 = time.perf_counter()
    failures = []
    violations = 0
    for g, chi, values in entries:
        for v in values:
            if v.valid and math.ceil(v.value - SOUNDNESS_SLACK) > chi:
                violations += 1
                if len(failures) < 5:
                    failures.append(
                        f"{v.id.value}={v.value:.6f} exceeds chi={chi} "
                        f"on {emit_graph6(g)}"
                    )
    if violations > len(failures):
        failures.append(f"{violations} violations in total")
    elapsed = build_time + (time.perf_counter() - t0)
    if elapsed >= 120:
        failures.append(f"runtime {elapsed:.0f}s, budget 120s")
    _verdict(4, failures, f"{len(entries)} graphs, {elapsed:.0f}s")


def test_criterion_5_certification_suite(corpus):
    entries, _ = corpus
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for g, _chi, _values in entries:
        if len(failures) >= 5:
            break
        col = greedy_coloring(g)
        if col.c < 2:
            # the construction needs two color classes; pad the palette
            col = col.with_palette(2)
        g6 = emit_graph6(g)
        try:
            cert = build_conversion(g, col)
        except VerificationError as exc:
            failures.append(f"conversion rejected on {g6}: {exc}")
            continue
        if cert.residual >= 1e-10:
            failures.append(f"conversion residual {cert.residual:.2e} on {g6}")
        a = build_matrix(g, GraphMatrixKind.ADJACENCY)
        deg = np.diag(g.degrees().astype(np.float64))
        for label, b in (("zero", np.zeros_like(a)), ("deg", deg), ("negdeg", -deg)):
            if not verify_majorization_step(a, b, col).ok:
                failures.append(f"majorization step B={label} failed on {g6}")
        if g.edge_count >= 1 and not verify_loan_identity(g, col).ok:
            failures.append(f"average-degree identity failed on {g6}")
        checked += 1
    elapsed = time.perf_counter() - t0
    _verdict(5, failures, f"{checked} graphs certified, {elapsed:.0f}s")


def _random_pinching_instance(n: int, seed: int) -> PinchingInstance:
    rng = np.random.default_rng(seed)
    c = int(rng.integers(2, 5))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    cuts = np.sort(rng.choice(np.arange(1, n), size=c - 1, replace=False))
    blocks = np.split(np.arange(n), cuts)
    projectors = tuple(q[:, idx] @ q[:, idx].T for idx in blocks)
    x = rng.standard_normal((n, n))
    return PinchingInstance(projectors, (x + x.T) / 2.0)


def test_criterion_6_majorization_properties():
    failures = []
    tol = 1e-9
    worst_slack = float("inf")

    # 1000 random symmetric pairs: top-sum subadditivity and its
    # difference form, for every m. (The split form of subadditivity is
    # the identical inequality when only two summands are involved.)
    base = 61000
    for k in range(1000):
        if len(failures) >= 5:
            break
        x = random_hermitian(6, base + 2 * k)
        y = random_hermitian(6, base + 2 * k + 1)
        sx = eigenvalues_sym(x)
        sy = eigenvalues_sym(y)
        ssum = eigenvalues_sym(x + y)
        sdiff = eigenvalues_sym(x - y)
        for m in range(1, 7):
            sub_slack = ky_fan(sx, m) + ky_fan(sy, m) - ky_fan(ssum, m)
            diff_slack = ky_fan(sdiff, m) - (ky_fan(sx, m) - ky_fan(sy, m))
            worst_slack = min(worst_slack, sub_slack, diff_slack)
            if sub_slack < -tol:
                failures.append(f"subadditivity violated at pair {k}, m={m}")
            if diff_slack < -tol:
                failures.append(f"difference form violated at pair {k}, m={m}")

    # 500 random projector resolutions: the two pinching routes agree
    agree_worst = 0.0
    for k in range(500):
        if len(failures) >= 10:
            break
        inst = _random_pinching_instance(6, 62000 + k)
        gap = float(np.linalg.norm(pinch(inst) - pinch_via_unitaries(inst)))
        agree_worst = max(agree_worst, gap)
        if gap > 1e-10:
            failures.append(f"pinching routes disagree by {gap:.2e} at instance {k}")

    # 500 instances: the pinching corollary for every m
    for k in range(500):
        if len(failures) >= 15:
            break
        inst = _random_pinching_instance(6, 63000 + k)
        for m in range(1, 7):
            if not pinching_corollary_check(inst, m):
                failures.append(f"pinching corollary failed at instance {k}, m={m}")

    _verdict(
        6,
        failures,
        f"min inequality slack {worst_slack:.2e}, max route gap {agree_worst:.2e}",
    )


def _connected(g: Graph) -> bool:
    adj = g.neighbors()
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == g.n


def _random_connected_bipartite(rng: random.Random) -> Graph:
    while True:
        n1 = rng.randint(2, 6)
        n2 = rng.randint(2, 6)
        edges = [
            (i, n1 + j)
            for i in range(n1)
            for j in range(n2)
            if rng.random() < 0.55
        ]
        if not edges:
            continue
        g = from_edges(n1 + n2, edges)
        if _connected(g):
            return g


def test_criterion_7_exactness_families():
    failures = []

    rng = random.Random(20130707)
    for k in range(50):
        g = _random_connected_bipartite(rng)
        spec_na = graph_spectrum(g, GraphMatrixKind.NORMALIZED_ADJACENCY)
        value = normalized_bounds(spec_na)[0].value
        if abs(value - 2.0) > DOMINANCE_TOL:
            failures.append(f"bipartite sample {k}: NormalizedHoffman {value!r}")

    exact_ids = (
        BoundId.HOFFMAN,
        BoundId.KOLOTILINA_1,
        BoundId.KOLOTILINA_2,
        BoundId.NORMALIZED_HOFFMAN,
    )
    for n in range(3, 9):
        report = full_report(complete(n))
        for bound_id in exact_ids:
            value = report.value(bound_id).value
            if abs(value - n) > DOMINANCE_TOL:
                failures.append(f"complete({n}) {bound_id.value}: {value!r}")

    rng = random.Random(20130708)
    collapse_tol = 1e-9
    for k in range(20):
        n = rng.randint(6, 16)
        jumps = [s for s in range(1, n // 2 + 1) if rng.random() < 0.5]
        if not jumps:
            jumps = [rng.randint(1, n // 2)]
        g = circulant(n, jumps)
        spec_a = graph_spectrum(g, GraphMatrixKind.ADJACENCY)
        spec_l = graph_spectrum(g, GraphMatrixKind.LAPLACIAN)
        spec_q = graph_spectrum(g, GraphMatrixKind.SIGNLESS_LAPLACIAN)
        spec_na = graph_spectrum(g, GraphMatrixKind.NORMALIZED_ADJACENCY)
        classical = {v.id: v.value for v in classical_bounds(spec_a, spec_l, spec_q)}
        hoffman = classical[BoundId.HOFFMAN]
        others = (
            classical[BoundId.NIKIFOROV_HYBRID],
            classical[BoundId.KOLOTILINA_1],
            classical[BoundId.KOLOTILINA_2],
            normalized_bounds(spec_na)[0].value,
        )
        if any(abs(v - hoffman) > collapse_tol for v in others):
            failures.append(f"circulant sample {k} (n={n}, jumps={jumps}): classical spread")
        sweep = generalized_sweep(spec_a, spec_l, spec_q)
        ref = sweep[BoundId.GEN_HOFFMAN]
        for other_id in (BoundId.GEN_KOLOTILINA_1, BoundId.GEN_KOLOTILINA_2):
            column = sweep[other_id]
            for m0 in range(n):
                lhs, rhs = ref[m0], column[m0]
                if (lhs is None) != (rhs is None):
                    failures.append(
                        f"circulant sample {k}: admissibility differs at m={m0 + 1}"
                    )
                elif lhs is not None and abs(lhs - rhs) > collapse_tol:
                    failures.append(
                        f"circulant sample {k}: sweep spread {abs(lhs - rhs):.2e} "
                        f"at m={m0 + 1}"
                    )

    _verdict(7, failures, "50 bipartite, complete 3..8, 20 circulants")


def test_criterion_8_dominance_invariants(corpus):
    entries, _ = corpus
    failures = []
    checked = 0
    for g, _chi, values in entries:
        if len(failures) >= 5:
            break
        by_id = {v.id: v for v in values}
        chain = (
            ("Kolotilina1 >= NikiforovHybrid", BoundId.KOLOTILINA_1, BoundId.NIKIFOROV_HYBRID),
            ("Kolotilina1 >= degree chain head", BoundId.KOLOTILINA_1, BoundId.KOLOTILINA_CHAIN_317),
            ("degree chain head >= middle", BoundId.KOLOTILINA_CHAIN_317, BoundId.HANSEN_LUCAS),
            ("chain middle >= tail", BoundId.HANSEN_LUCAS, BoundId.CVETKOVIC),
        )
        for label, hi_id, lo_id in chain:
            hi, lo = by_id[hi_id], by_id[lo_id]
            if hi.valid and lo.valid and hi.value < lo.value - DOMINANCE_TOL:
                failures.append(
                    f"{label} violated on {emit_graph6(g)}: "
                    f"{hi.value:.9f} < {lo.value:.9f}"
                )
        checked += 1
    _verdict(8, failures, f"{checked} graphs")
