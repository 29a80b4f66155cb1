"""Benchmark of the spectral-chroma CLI on four workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --record-digests

A run makes the workload's inputs from the seed, then runs passes until
``--seconds`` have gone by (at least ``MIN_PASSES``). A pass is one fresh
process (child.py) that imports the CLI and runs every invocation of
the workload in it. Each invocation's stdout is checked (workloads.py).
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json:

- ``setup_s``: spawn of a child until ``spectral_chroma.cli`` is
  imported; median over ``SETUP_PROBES`` import-only children and the
  passes.
- ``wall_s``: median over passes of the summed wall time of the pass's
  invocations.
- ``peak_rss_mb``: median over passes of the child's peak RSS.

``--trace 1`` alternates untraced and traced passes on the same inputs
and reports the per-layer metrics of BENCHMARK.json, as medians over
the traced passes, plus ``trace.overhead_s``, the median of traced minus
untraced pass wall time.

``--all`` runs the benchmark's self-tests and then one timed run of each
workload, and prints setup_s, wall_s, peak_rss_mb and failed_ratio per
workload. ``--record-digests`` runs the recorded passes of the default
seed and writes their stdout hashes to digests.json.

Children get ``OPENBLAS_NUM_THREADS=1`` and ``PYTHONPATH=src``;
``SPECTRAL_CHROMA_THREADS`` is removed so the CLI uses its default.
Passes of the workloads in ``workloads.ONE_CPU`` run pinned to one CPU.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
MIN_PASSES = 3
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150.0
RUN_LIMIT_S = 150.0  # no pass starts after this much of a run
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
WORKDIR = Path(".perfbench_work")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value.

    Uses the nearest-rank percentile: the p-th is the ceil(p/100 * N)-th
    smallest sample, and the samples beyond it are the rest.
    """

    ordered = sorted(samples)
    best = None
    for p in PERCENTILES:
        rank = math.ceil(round(p * len(ordered) / 100.0, 9))
        if rank >= 1 and len(ordered) - rank >= 10:
            best = (p, ordered[rank - 1])
    return best


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["OPENBLAS_NUM_THREADS"] = "1"
    env.pop("SPECTRAL_CHROMA_THREADS", None)
    return env


def spawn(args: list[str], root: Path) -> tuple[float, str]:
    """Run a child to completion; returns its spawn time and stdout."""

    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=root,
            env=child_env(root),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args} ran past {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"child {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return started, proc.stdout


def check_module(root: Path, module: str) -> None:
    if not Path(module).resolve().is_relative_to((root / "src").resolve()):
        raise BenchError(f"imported the CLI from {module}, not from this checkout")


def probe_setup(root: Path) -> tuple[float, dict]:
    started, out = spawn(["--setup"], root)
    info = json.loads(out)
    check_module(root, info["module"])
    return info["imported"] - started, info


@dataclass
class PassResult:
    setup_s: float
    wall_s: float
    peak_rss_mb: float
    seconds: list[float]
    failures: list[str]
    stdout_hashes: list[str]
    spans: list | None = None


def run_pass(
    root: Path, name: str, seed: int, pass_index: int, trace: bool, digests: dict
) -> PassResult:
    invocations = workloads.WORKLOADS[name](seed, pass_index, WORKDIR)
    tag = f"{name}-{seed}-{pass_index}-{int(trace)}"
    job_path = root / WORKDIR / f"job-{tag}.json"
    result_path = root / WORKDIR / f"result-{tag}.json"
    job = {
        "invocations": [inv.argv for inv in invocations],
        "trace": trace,
        "one_cpu": name in workloads.ONE_CPU,
        "result": str(result_path),
    }
    job_path.write_text(json.dumps(job), encoding="utf-8")
    started, _ = spawn([str(job_path)], root)
    result = json.loads(result_path.read_text(encoding="utf-8"))
    job_path.unlink()
    result_path.unlink()
    check_module(root, result["module"])
    runs = result["runs"]
    stdouts = [run["stdout"] for run in runs]
    failures = []
    for inv, run, digest_msg in zip(
        invocations, runs, workloads.digest_failures(invocations, stdouts, digests)
    ):
        if run["exit"] != 0:
            msg = f"exit code {run['exit']}: {run['stderr'].strip()[-300:]}"
        else:
            msg = inv.check(run["stdout"]) or digest_msg
        if msg:
            failures.append(f"{' '.join(inv.argv)[:80]}: {msg}")
    return PassResult(
        setup_s=result["imported"] - started,
        wall_s=sum(run["seconds"] for run in runs),
        peak_rss_mb=result["peak_rss_mb"],
        seconds=[run["seconds"] for run in runs],
        failures=failures,
        stdout_hashes=[workloads.short_hash(out) for out in stdouts],
        spans=result["spans"],
    )


def keep_going(passes: list, started: float, seconds: float, minimum: int) -> bool:
    elapsed = time.monotonic() - started
    if elapsed > RUN_LIMIT_S:
        return False
    return len(passes) < minimum or elapsed < seconds


def timed_run(root, name, seed, seconds, digests, spec) -> tuple[dict, list[PassResult], list[str]]:
    setups = [probe_setup(root)[0] for _ in range(SETUP_PROBES)]
    passes: list[PassResult] = []
    started = time.monotonic()
    while keep_going(passes, started, seconds, MIN_PASSES):
        passes.append(run_pass(root, name, seed, len(passes), False, digests))
    setups += [p.setup_s for p in passes]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
    }
    lines = [
        f"setup_s {values['setup_s']:.4f} s (median of {len(setups)} set-ups)",
        f"wall_s {values['wall_s']:.4f} s (median of {len(passes)} passes: "
        + ", ".join(f"{p.wall_s:.3f}" for p in passes) + ")",
        f"peak_rss_mb {values['peak_rss_mb']:.1f} MB (median of {len(passes)} passes)",
    ]
    return {m: {"value": values[m], "unit": u} for m, u in units.items()}, passes, lines


def traced_run(root, name, seed, seconds, digests, spec) -> tuple[dict, list[PassResult], list[str]]:
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    started = time.monotonic()
    while keep_going(traced, started, seconds, 1):
        plain.append(run_pass(root, name, seed, 0, False, digests))
        traced.append(run_pass(root, name, seed, 0, True, digests))
    per_pass = [spans.layer_metrics(p.spans) for p in traced]
    overhead = statistics.median(t.wall_s - u.wall_s for t, u in zip(traced, plain))
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    metrics = {}
    for metric_name, unit in units.items():
        if metric_name == "trace.overhead_s":
            value = overhead
        else:
            value = statistics.median(m[metric_name] for m in per_pass)
        metrics[metric_name] = {"value": value, "unit": unit}
    lines = [
        f"traced passes {len(traced)}, spans per pass {per_pass[0]['trace.spans']}",
        f"trace.overhead_s {overhead:.4f} s (traced minus untraced wall, median of pairs)",
        f"trace.self_sum_s {metrics['trace.self_sum_s']['value']:.4f} s over "
        f"{metrics['cli.threads_seen']['value']} threads with spans open at once; "
        f"traced wall_s {statistics.median(t.wall_s for t in traced):.4f} s",
    ]
    return metrics, plain + traced, lines


def load_spec(root: Path) -> dict:
    path = root / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    return json.loads(path.read_text(encoding="utf-8"))


def require_program(root: Path) -> None:
    if not (root / "src" / "spectral_chroma" / "cli.py").is_file():
        raise BenchError(f"no spectral_chroma sources under {root / 'src'}")


def one_run(args) -> int:
    root = Path.cwd()
    require_program(root)
    spec = load_spec(root)
    (root / WORKDIR).mkdir(exist_ok=True)
    digests = workloads.load_digests(HERE / "digests.json")
    _, info = probe_setup(root)
    print(
        f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}; "
        f"nproc {os.cpu_count()}, python {info['python']}, numpy {info['numpy']}, "
        f"{info['blas']}, OPENBLAS_NUM_THREADS=1, SPECTRAL_CHROMA_THREADS unset"
    )
    run = traced_run if args.trace else timed_run
    metrics, passes, lines = run(root, args.workload, args.seed, args.seconds, digests, spec)
    seconds = [s for p in passes for s in p.seconds]
    failures = [f for p in passes for f in p.failures]
    for line in lines:
        print(line)
    print(f"failed_ratio {len(failures) / len(seconds):.4f} ratio ({len(failures)} of {len(seconds)} invocations)")
    tail = tail_percentile(seconds)
    print(
        f"invocation_s median {statistics.median(seconds):.4f} s, "
        + (f"p{tail[0]:g} {tail[1]:.4f} s" if tail else "no percentile has ten samples beyond it")
        + f" ({len(seconds)} invocations)"
    )
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(seconds),
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


def run_all(args) -> int:
    root = Path.cwd()
    require_program(root)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    tests = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(HERE / "test_perfbench.py")],
        cwd=root,
        env=env,
    )
    status = 0 if tests.returncode == 0 else 1
    rows = []
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=root,
            capture_output=True,
            text=True,
        )
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            rows.append(f"{name:<18} did not run")
            status = 1
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        m = {k: v["value"] for k, v in result["metrics"].items()}
        ratio = result["failed"] / result["attempted"]
        rows.append(
            f"{name:<18} setup_s {m['setup_s']:.4f} s  wall_s {m['wall_s']:.4f} s  "
            f"peak_rss_mb {m['peak_rss_mb']:.1f} MB  failed_ratio {ratio:.4f} ratio"
        )
        status |= not result["correct"]
    print("\n".join(rows))
    return status


def record_digests(args) -> int:
    root = Path.cwd()
    require_program(root)
    (root / WORKDIR).mkdir(exist_ok=True)
    seed = workloads.DEFAULT_SEED
    entries = {}
    for name, count in workloads.RECORDED_PASSES.items():
        for k in range(count):
            invocations = workloads.WORKLOADS[name](seed, k, WORKDIR)
            result = run_pass(root, name, seed, k, False, {})
            if result.failures:
                raise BenchError(f"{name} pass {k} failed its checks: {result.failures[:3]}")
            entries[f"{name} seed {seed} pass {k}"] = {
                "inputs": workloads.pass_key(invocations),
                "stdout": result.stdout_hashes,
            }
            print(f"recorded {name} pass {k}")
    body = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in entries.items())
    (HERE / "digests.json").write_text("{\n" + body + "\n}\n", encoding="utf-8")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=list(workloads.WORKLOADS))
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--record-digests", action="store_true")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.all:
            return run_all(args)
        if args.record_digests:
            return record_digests(args)
        return one_run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
