"""Measure class overlap before and after resampling with Fisher ratios.

Resamples an overlapping dataset with the double-pruning engine, then
compares per-feature Fisher discriminant ratios of the original and
resampled training sets — the same procedure the `compare-overlap` CLI
subcommand wraps.
"""

import numpy as np

from resmoteboost import (
    Dataset,
    POSITIVE,
    RandomSource,
    double_pruning,
    fisher_ratio,
    make_gaussian_blobs,
    overlap_feature_count,
    partition_by_class,
)


def main():
    data = make_gaussian_blobs(n_majority=300, n_minority=100, d=4,
                               separation=1.0, seed=11)
    part = partition_by_class(data)
    keep, rows = double_pruning(part.majority, part.minority, 60, 5, RandomSource(1))
    synthetics = Dataset(rows, np.full(len(rows), POSITIVE))
    resampled = part.majority.subset(keep).concat(part.minority).concat(synthetics)

    print("feature   original   resampled")
    for f in range(4):
        print(f"f{f}        {fisher_ratio(data, f):8.4f}   {fisher_ratio(resampled, f):8.4f}")

    report = overlap_feature_count(data, resampled)
    print(f"\noriginal smaller on {report.count_a_smaller} features, "
          f"resampled smaller on {report.count_b_smaller}, ties {report.ties}")
    print("ratios A:", np.round(report.ratios_a, 4))
    print("ratios B:", np.round(report.ratios_b, 4))


if __name__ == "__main__":
    main()
