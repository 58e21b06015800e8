"""One repetition of one workload, in a fresh process started by run.py.

Sets up the inputs, runs the job, checks its outputs and prints one JSON
line: set-up and job seconds, this process's peak RSS, the check counts,
and with --trace 1 the per-layer metrics. Tracing is imported and its
wrappers installed only with --trace 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import ecglab.cli  # noqa: E402,F401  (imported before any timing)
import numpy as np  # noqa: E402
import scipy  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def run(workload: str, seed: int, size: str, trace: bool, work: Path) -> dict:
    wl = WORKLOADS[workload](work, seed, size)
    t0 = time.perf_counter()
    wl.setup()
    setup_s = time.perf_counter() - t0

    tracer = None
    span = lambda name: contextlib.nullcontext()  # noqa: E731
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        span = tracer.span
    try:
        t0 = time.perf_counter()
        wl.job(span)
        job_s = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()

    tally = wl.check()
    result = {
        "setup_s": setup_s,
        "job_s": job_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
    }
    if tracer is not None:
        tracer.write_spans(work.parent / f"spans_{workload}_seed{seed}.csv")
        layers = tracing.layer_table(tracer.forwards, seed)
        result["metrics"] = tracing.traced_metrics(tracer, layers)
    return result


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=("paper", "tiny"), default="paper")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args.workload, args.seed, args.size, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
