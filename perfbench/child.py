"""One benchmark repeat: a fresh process that runs the CLI chain in-process.

Usage: python3 child.py PLAN.json RESULT.json

The parent starts this script with BLAS pinned to one thread through the
environment and PYTHONPATH pointing at the checkout's `src`. It parses the
corpus files (part of set-up), then runs each stage of the plan through
`opinesum.cli.main`, and writes the end of set-up, stage times, exit
codes, peak RSS, the environment and, when tracing, all spans as JSON. A
plan without stages measures set-up alone.
"""

import json
import os
import platform
import resource
import sys
import time

PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _environment(numpy):
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in PINNED},
    }


def main(plan_path, result_path):
    if any(os.environ.get(k) != "1" for k in PINNED):
        raise SystemExit(f"child: {', '.join(PINNED)} must all be 1 before numpy loads")
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)

    import numpy
    import opinesum.cli as cli

    src = os.path.realpath(plan["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"child: imported {cli.__file__}, not the checkout under {src}")

    tracer = None
    if plan["trace"]:
        import tracing

        tracer = tracing.Tracer(plan["run_id"])
        tracing.install(tracer)
    from opinesum import textcorpus

    for path in plan["corpora"]:
        textcorpus.load_clusters(path)
    setup_end = time.perf_counter()

    stages = []
    for name, argv in plan["stages"]:
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.span("cli." + name):
                    code = cli.main(argv)
        except Exception as exc:  # a failed stage is reported, not fatal
            code = f"{type(exc).__name__}: {exc}"
        stages.append([name, start, time.perf_counter(), code])
        if code != 0:
            break
    result = {
        "setup_end": setup_end,
        "stages": stages,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": _environment(numpy),
        "spans": tracer.spans if tracer else [],
        "counts": dict(tracer.counts) if tracer else {},
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:])
