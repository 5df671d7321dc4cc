"""The resmoteboost benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload boost-stump --seed 0 --seconds 20 --trace 0

It runs sweeps in this single process, with the library's default of one
worker, until ``--seconds`` have passed. Sweep ``i`` generates the
workload's data from seed ``seed + i`` (untimed) and makes one
``run_experiment`` call per configuration of the workload with base seed
``seed + i``, so no two sweeps repeat the same work and a run averages over
as many datasets as it has sweeps. Every report is checked
(see ``check.py``); at the default seed each report must also match the
digest recorded in ``digests.json``. A call that raises or fails a check
counts as failed and the run goes on.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced runs of the same sweeps and
reports the per-layer metrics; the spans go to
``perfbench/out/trace-<workload>-seed<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from check import check_report, report_digest
from tracing import Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
SETUP_PROBES = 3     # fresh processes timed for setup_s; the median is reported
COUNT_SWEEPS = 2     # traced sweeps whose counts are reported; every traced run does them
TAIL_BEYOND = 10     # samples the reported tail percentile must have beyond it


def import_library():
    """Import resmoteboost from this checkout's src/, never from elsewhere."""
    package = SRC / "resmoteboost"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no library source at {package}")
    sys.path.insert(0, str(SRC))
    import resmoteboost
    if Path(resmoteboost.__file__).resolve().parent != package:
        sys.exit(f"perfbench: resmoteboost imported from {resmoteboost.__file__}, "
                 f"not from {package}")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def load_digests() -> dict:
    path = BENCH / "digests.json"
    if not path.is_file():
        return {}
    with open(path) as fh:
        return json.load(fh)


class Runner:
    """Runs and checks the sweeps of one workload, counting attempted and
    failed run_experiment calls."""

    def __init__(self, workload, seed: int, digests: dict):
        from resmoteboost import experiment
        self.experiment = experiment
        self.workload = workload
        self.seed = seed
        expected = digests.get(workload.name) if seed == DEFAULT_SEED else None
        self.expected = expected["sweeps"] if expected else []
        self.attempted = 0
        self.failed = 0

    def sweep(self, i: int):
        """One pass over the workload's configurations with base seed seed + i.

        Returns (wall seconds, CPU seconds, replications, good reports); only
        the run_experiment calls are timed.
        """
        data = self.workload.make_data(self.seed + i)
        wall = cpu = 0.0
        replications = 0
        reports = []
        for op, (method, learner) in enumerate(self.workload.configs):
            cfg = self.experiment.ExperimentConfig(
                method=method, base_learner=learner,
                replications=self.workload.replications, seed=self.seed + i)
            self.attempted += 1
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                report = self.experiment.run_experiment(data, cfg)
            except Exception:
                report = None
                print(f"sweep {i} {method}/{learner} raised:", file=sys.stderr)
                traceback.print_exc()
            wall += time.perf_counter() - t0
            cpu += time.process_time() - c0
            if report is None:
                self.failed += 1
                continue
            problems = check_report(report, data.y)
            if i < len(self.expected) and report_digest(report) != self.expected[i][op]:
                problems.append("report digest differs from the one recorded")
            if problems:
                self.failed += 1
                print(f"sweep {i} {method}/{learner}: " + "; ".join(problems), file=sys.stderr)
                continue
            replications += len(report["replications"])
            reports.append(report)
        return wall, cpu, replications, reports


def setup_seconds(workload_name: str, seed: int) -> float:
    """Median wall time of fresh processes that import the library and
    generate the workload's data."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__)), "--setup-probe",
                        "--workload", workload_name, "--seed", str(seed)],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def tail(samples):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it, or None when that percentile would not lie above the median."""
    ordered = sorted(samples)
    n = len(ordered)
    idx = n - TAIL_BEYOND - 1
    if idx <= (n - 1) / 2:
        return None
    return ordered[idx], 100.0 * (idx + 1) / n


def end_to_end(runner: Runner, seconds: float) -> dict:
    walls, replications, reports = [], 0, []
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        wall, _, reps, good = runner.sweep(i)
        walls.append(wall)
        replications += reps
        reports.extend(good)
        i += 1
    auc = [r["summaries"]["auc"]["mean"] for r in reports]
    f1 = [r["summaries"]["positive_class.f1"]["mean"] for r in reports]
    metrics = {
        "replications_per_s": replications / sum(walls),
        "sweep_s.p50": statistics.median(walls),
        "setup_s": setup_seconds(runner.workload.name, runner.seed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_ratio": (runner.attempted - runner.failed) / runner.attempted,
        "auc_mean": statistics.fmean(auc) if auc else 0.0,
        "f1_mean": statistics.fmean(f1) if f1 else 0.0,
    }
    print(f"sweeps: {len(walls)}, replications: {replications}")
    print(f"failed_ratio: {runner.failed / runner.attempted} 1")
    sweep_tail = tail(walls)
    if sweep_tail is None:
        print(f"sweep_s.tail: omitted, {len(walls)} sweeps are too few for a percentile "
              f"above the median with {TAIL_BEYOND} beyond it")
    else:
        print(f"sweep_s.tail: {sweep_tail[0]} s (p{sweep_tail[1]:.1f} of {len(walls)} sweeps)")
    return metrics


def per_layer(runner: Runner, seconds: float) -> dict:
    tracer = Tracer()
    untraced_wall = untraced_cpu = traced_wall = covered = 0.0
    untraced_reps = 0
    traced_sweeps = 0
    count_reports = []
    start = time.perf_counter()
    i = 0
    while i < COUNT_SWEEPS or time.perf_counter() - start < seconds:
        # alternate which side runs first, so drift in machine speed cancels
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if not traced:
                wall, cpu, reps, _ = runner.sweep(i)
                untraced_wall += wall
                untraced_cpu += cpu
                untraced_reps += reps
                continue
            first_span = len(tracer.spans)
            tracer.sweep = i
            with tracer.installed():
                wall, _, _, good = runner.sweep(i)
            traced_wall += wall
            traced_sweeps += 1
            covered += sum(s.duration for s in tracer.spans[first_span:] if s.parent is None)
            if i < COUNT_SWEEPS:
                count_reports.extend(good)
        i += 1
    count_spans = [s for s in tracer.spans if s.sweep < COUNT_SWEEPS]
    metrics = layer_metrics(tracer.spans, count_spans, count_reports, traced_sweeps)
    metrics["experiment.cpu_s_per_replication"] = (
        untraced_cpu / untraced_reps if untraced_reps else 0.0)
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall - 1.0
    metrics["trace.uncovered_share"] = (traced_wall - covered) / traced_wall
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{runner.workload.name}-seed{runner.seed}.jsonl"
    tracer.write(path)
    print(f"traced sweeps: {traced_sweeps}, spans: {len(tracer.spans)} written to "
          f"{path.relative_to(ROOT)}")
    return metrics


def record_digests(runner: Runner, n_sweeps: int) -> None:
    """Write the report digests of the first n sweeps at the default seed."""
    sweeps = []
    for i in range(n_sweeps):
        reports = runner.sweep(i)[3]
        if runner.failed:
            sys.exit(f"perfbench: sweep {i} failed its checks; no digests recorded")
        sweeps.append([report_digest(report) for report in reports])
    digests = load_digests()
    digests[runner.workload.name] = {"seed": runner.seed, "sweeps": sweeps}
    with open(BENCH / "digests.json", "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import the library and generate the data")
    parser.add_argument("--record-digests", type=int, metavar="SWEEPS",
                        help="record report digests of the first SWEEPS sweeps "
                             "at the default seed, then exit")
    args = parser.parse_args(argv)
    # the benchmark measures the library's defaults: one worker
    os.environ.pop("REBALANCE_THREADS", None)

    import_library()
    from workloads import WORKLOADS, input_properties
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    data = workload.make_data(args.seed)
    if args.setup_probe:
        return 0
    if args.record_digests:
        if args.seed != DEFAULT_SEED:
            parser.error("digests are recorded at the default seed only")
        record_digests(Runner(workload, args.seed, {}), args.record_digests)
        return 0

    spec = load_spec()
    print(f"workload {workload.name}, seed {args.seed}: {workload.why}")
    print("inputs of sweep 0: " + json.dumps(input_properties(data)))
    runner = Runner(workload, args.seed, load_digests())
    if args.trace:
        metrics = per_layer(runner, args.seconds)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = end_to_end(runner, args.seconds)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if set(metrics) != set(units):
        sys.exit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} do not match "
                 f"BENCHMARK.json")
    for name in units:
        print(f"{name}: {metrics[name]} {units[name]}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
