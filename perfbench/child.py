"""One pass of a workload, in a fresh process.

    python3 child.py JOB.json     run the job's CLI invocations in-process
    python3 child.py --setup      import the CLI and report when that ended

The CLI is imported before anything else, so the parent can time
set-up from its own spawn time to ``imported`` (both on the system-wide
monotonic clock). Each invocation calls ``spectral_chroma.cli.main``
with stdout and stderr captured. With ``"trace": true`` the layer
functions are wrapped (see spans.py) and the spans are written out with
the result. With ``"one_cpu": true`` the process is pinned to one CPU
before the first invocation, so the threads it starts share that CPU.
"""

import sys
import time

import spectral_chroma.cli

IMPORTED = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def run_job(job: dict) -> dict:
    if job["one_cpu"]:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    entry = spectral_chroma.cli.main
    tracer = None
    if job["trace"]:
        import spans

        tracer = spans.Tracer()
        entry = spans.install(tracer)["cli.main"]
    runs = []
    for argv in job["invocations"]:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = entry(list(argv))
            except Exception:  # a crash is a failed invocation, not a failed pass
                traceback.print_exc()
                code = None
        runs.append(
            {
                "exit": code,
                "seconds": time.perf_counter() - start,
                "stdout": out.getvalue(),
                "stderr": err.getvalue()[-2000:],
            }
        )
    return {
        "imported": IMPORTED,
        "module": spectral_chroma.cli.__file__,
        "runs": runs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.spans if tracer else None,
    }


def main() -> int:
    if sys.argv[1:] == ["--setup"]:
        import numpy

        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {
            "imported": IMPORTED,
            "module": spectral_chroma.cli.__file__,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
        }
        print(json.dumps(info))
        return 0
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    result = run_job(job)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
