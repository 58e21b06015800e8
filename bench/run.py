"""ecglab benchmark: runs one workload and prints its metrics.

    python3 bench/run.py --workload {gan_paper,denoiser_paper,cli_pipeline}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout. Each repetition of the workload
runs in its own fresh child process (bench/child.py), strictly one after
another, with BLAS threads capped at the number of usable cores.

--trace 0 repeats set-up + job until S seconds have passed (at least one
repetition) and reports the medians of setup_s, job_s and peak_rss_mb,
plus pass_ratio over every check made. --trace 1 runs one untraced and
one traced repetition and reports the per-layer metrics of the traced
one; trace.overhead_s is the difference of their job times.

The last line of standard output is the result JSON; the line before it
records the machine and library versions.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("gan_paper", "denoiser_paper", "cli_pipeline")
RUN_LIMIT_S = 170.0


def child_env() -> dict[str, str]:
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = str(ROOT / "src")
    # peak RSS of gan_paper is bimodal (2.82 / 3.03 GB) under random string hashing
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, size: str, trace: int, deadline: float) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "child.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-5:]
        raise RuntimeError(f"{workload} child exited {proc.returncode}: " + " | ".join(tail))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine(env: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        **env,
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("paper", "tiny"), default="paper",
                   help="tiny: small L, B and d for the smoke test")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "ecglab" / "__init__.py").is_file():
        print(f"bench: no ecglab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    try:
        if args.trace:
            plain = run_child(args.workload, args.seed, args.size, 0, deadline)
            traced = run_child(args.workload, args.seed, args.size, 1, deadline)
            reps = [plain, traced]
        else:
            reps = []
            while not reps or time.monotonic() - start < args.seconds:
                reps.append(run_child(args.workload, args.seed, args.size, 0, deadline))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    for r in reps:
        for problem in r["problems"]:
            print(f"bench: check failed: {problem}", file=sys.stderr)
    if args.trace:
        metrics = traced["metrics"]
        metrics["trace.overhead_s"] = {"value": traced["job_s"] - plain["job_s"], "unit": "s"}
        metrics["fail_ratio"] = {"value": failed / attempted, "unit": "ratio"}
    else:
        metrics = {name: {"value": median(r[name] for r in reps), "unit": unit}
                   for name, unit in (("setup_s", "s"), ("job_s", "s"), ("peak_rss_mb", "MB"))}
        metrics["pass_ratio"] = {"value": (attempted - failed) / attempted, "unit": "ratio"}
    runs = [{k: r[k] for k in ("setup_s", "job_s", "peak_rss_mb")} for r in reps]
    print(json.dumps({"machine": machine(reps[0]["environment"]), "repetitions": runs}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
