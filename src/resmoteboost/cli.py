"""Command-line front end: `rebalance gen | run | compare-overlap`.

Flag names and output schemas are documented in docs/CLI.md and treated as a
compatibility surface. Errors print a single `error: ...` line on stderr and
exit nonzero.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from .data import (Dataset, imbalance_ratio, load_csv, make_gaussian_blobs,
                   partition_by_class, save_csv)
from .experiment import ExperimentConfig, METHODS, run_experiment
from .metrics import overlap_feature_count


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rebalance",
                                     description="Imbalanced-data resampling and boosting toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic two-blob CSV dataset")
    gen.add_argument("--n-maj", type=int, required=True, help="majority class size")
    gen.add_argument("--n-min", type=int, required=True, help="minority class size")
    gen.add_argument("--dim", type=int, default=2, help="feature dimension")
    gen.add_argument("--sep", type=float, default=2.0, help="blob center separation")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output CSV path")

    run = sub.add_parser("run", help="run a replicated experiment")
    run.add_argument("--data", required=True, help="input CSV path")
    run.add_argument("--label-column", default="label")
    run.add_argument("--positive-label", default="pos")
    run.add_argument("--method", default="none", choices=METHODS)
    run.add_argument("--base", default="stump", choices=("stump", "gnb", "knn"),
                     help="base learner")
    k_group = run.add_mutually_exclusive_group()
    k_group.add_argument("--k", type=int, default=None,
                         help="per-iteration over/under sample count")
    k_group.add_argument("--k-fraction", type=float, default=None,
                         help="k as a fraction of the class-size gap (converted once)")
    run.add_argument("--k-neighbors", type=int, default=5)
    run.add_argument("--t-max", default="heuristic",
                     help='iteration count, or "heuristic"')
    run.add_argument("--test-fraction", type=float, default=0.2)
    run.add_argument("--no-stratify", action="store_true")
    run.add_argument("--replications", type=int, default=100)
    run.add_argument("--cv", type=int, default=None,
                     help="k-fold cross-validation instead of repeated splits")
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--fresh-pools", action="store_true",
                     help="re-derive pools from the original train set each round")
    run.add_argument("--dump-resampled", default=None, metavar="PATH",
                     help="export replication 0's post-resampling training set")
    run.add_argument("--out", required=True, help="output report path (JSON)")

    cmp = sub.add_parser("compare-overlap", help="Fisher-ratio overlap comparison of two datasets")
    cmp.add_argument("data_a")
    cmp.add_argument("data_b")
    cmp.add_argument("--label-column", default="label")
    cmp.add_argument("--positive-label", default="pos")
    cmp.add_argument("--out", required=True, help="output JSON path")
    return parser


def cmd_gen(args) -> int:
    data = make_gaussian_blobs(args.n_maj, args.n_min, args.dim, args.sep, args.seed)
    save_csv(data, args.out)
    ir = imbalance_ratio(partition_by_class(data))
    print(f"wrote {len(data)} samples to {args.out} (IR {ir:.2f})")
    return 0


def _replication_csv_path(out_path: str) -> str:
    stem = out_path[:-5] if out_path.endswith(".json") else out_path
    return stem + "_replications.csv"


def _t_max(text: str):
    if text == "heuristic":
        return text
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"--t-max must be 'heuristic' or an integer >= 1, got {text!r}")
    return value


def cmd_run(args) -> int:
    data = load_csv(args.data, args.label_column, args.positive_label)
    k = args.k
    if args.k_fraction is not None:
        part = partition_by_class(data)
        gap = len(part.majority) - len(part.minority)
        scaled = args.k_fraction * gap
        if not (args.k_fraction > 0 and math.isfinite(args.k_fraction)
                and math.isfinite(scaled)):   # round(inf) raises OverflowError
            raise ValueError(f"--k-fraction must be > 0 and finite, got {args.k_fraction}")
        k = max(1, round(scaled))
    cfg = ExperimentConfig(
        method=args.method,
        base_learner=args.base,
        k=k,
        k_neighbors=args.k_neighbors,
        t_max=_t_max(args.t_max),
        test_fraction=args.test_fraction,
        stratified=not args.no_stratify,
        replications=args.replications,
        seed=args.seed,
        fresh_pools=args.fresh_pools,
        cv_folds=args.cv,
    )
    capture = {} if args.dump_resampled else None
    report = run_experiment(data, cfg, capture=capture)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)

    csv_path = _replication_csv_path(args.out)
    metric_names = ("accuracy", "precision", "recall", "f1", "g_means")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["replication"]
        header += [f"pos_{m}" for m in metric_names]
        header += [f"macro_{m}" for m in metric_names]
        header += ["auc"]
        writer.writerow(header)
        for rep in report["replications"]:
            m = rep["metrics"]
            row = [rep["replication"]]
            row += [repr(m["positive_class"][name]) for name in metric_names]
            row += [repr(m["macro"][name]) for name in metric_names]
            row += [repr(m["auc"]) if "auc" in m else ""]
            writer.writerow(row)

    if args.dump_resampled:
        dumped = Dataset(capture["X"], capture["y"], feature_names=data.feature_names)
        save_csv(dumped, args.dump_resampled)
        with open(args.dump_resampled + ".provenance.json", "w") as fh:
            json.dump({"synthetics": capture.get("synthetics", [])}, fh, indent=2)

    mean_acc = report["summaries"]["positive_class.accuracy"]["mean"]
    print(f"wrote {args.out} and {csv_path} "
          f"({len(report['replications'])} replications, mean accuracy {mean_acc:.4f})")
    return 0


def cmd_compare_overlap(args) -> int:
    a = load_csv(args.data_a, args.label_column, args.positive_label)
    b = load_csv(args.data_b, args.label_column, args.positive_label)
    report = overlap_feature_count(a, b)
    payload = report.to_json()
    payload["data_a"] = args.data_a
    payload["data_b"] = args.data_b
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"wrote {args.out} (A smaller on {report.count_a_smaller}, "
          f"B smaller on {report.count_b_smaller}, ties {report.ties})")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"gen": cmd_gen, "run": cmd_run, "compare-overlap": cmd_compare_overlap}
    try:
        return handlers[args.command](args)
    except (ValueError, FileNotFoundError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
