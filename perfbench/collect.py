"""Repeat benchmark runs over seeds and summarise each metric.

Usage, from the root of a checkout:

    python3 perfbench/collect.py --workloads boost-stump baselines --seeds 10 \
        --first-seed 1 --trace 0 --out perfbench/out/summary.json

Runs ``run.py`` once per (workload, seed), one run at a time, and writes for
every metric its ten values, median, quartiles (``statistics.quantiles`` with
n=4) and spread, the distance between the quartiles as a share of the
median, together with the environment the runs saw.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "memory_mib": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
            "machine": platform.machine()}


def summarise(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    summary = {"environment": environment(), "seconds": args.seconds, "trace": args.trace,
               "seeds": list(range(args.first_seed, args.first_seed + args.seeds)),
               "workloads": {}}
    for name in args.workloads:
        runs, run_seconds = [], []
        for seed in summary["seeds"]:
            t0 = time.perf_counter()
            out = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True)
            run_seconds.append(time.perf_counter() - t0)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(name, seed, json.dumps({k: v["value"] for k, v in result["metrics"].items()}),
                  flush=True)
        metrics = {key: summarise([r["metrics"][key]["value"] for r in runs])
                   for key in runs[0]["metrics"]}
        summary["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "all_correct": all(r["correct"] for r in runs),
            "run_wall_s": {"median": statistics.median(run_seconds), "max": max(run_seconds)},
            "metrics": metrics,
        }
        for key, m in metrics.items():
            print(f"  {name} {key}: median {m['median']:.6g} spread {m['spread']:.4f}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
