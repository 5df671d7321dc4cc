"""Seeded workload generators for the resmoteboost benchmark.

A workload is one dataset, generated from the benchmark's seed, plus an
ordered list of method/learner configurations. One pass over that list is a
*sweep*; sweep ``i`` runs every configuration with base seed ``seed + i`` so
that no two sweeps repeat the same work.

Each workload is the only heavy user of some layer of the library, so every
layer has one workload that exercises it and one that bypasses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from resmoteboost import Dataset, NEGATIVE, POSITIVE, make_gaussian_blobs


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: tuple          # (method, base_learner) pairs, in sweep order
    replications: int       # replications per run_experiment call
    generator: Callable     # called with seed= and the shape arguments
    shape: dict

    def make_data(self, seed: int) -> Dataset:
        return self.generator(seed=seed, **self.shape)


def duplicate_grid(seed: int, n_majority: int, n_minority: int, d: int,
                   duplicate_share: float) -> Dataset:
    """Integer features in 1..10 shaped like the Wisconsin breast cancer data.

    Majority (benign) values lean low and minority (malignant) values lean
    high. Each class first gets distinct rows (distinct across both classes),
    then the remaining ``duplicate_share`` of its rows are copies of them, so
    the share of rows equal to an earlier row is exactly the one requested.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    values = np.arange(1, 11)
    p_majority = 0.72 ** values
    p_minority = 0.88 ** (10 - values)
    seen = set()
    blocks = []
    for n, p in ((n_majority, p_majority), (n_minority, p_minority)):
        n_distinct = n - round(n * duplicate_share)
        rows = []
        while len(rows) < n_distinct:
            row = rng.choice(values, size=d, p=p / p.sum())
            key = row.tobytes()
            if key not in seen:
                seen.add(key)
                rows.append(row)
        rows = np.array(rows)
        copies = rows[rng.integers(0, n_distinct, size=n - n_distinct)]
        blocks.append(np.vstack([rows, copies]))
    X = np.vstack(blocks).astype(float)
    y = np.concatenate([np.full(n_majority, NEGATIVE), np.full(n_minority, POSITIVE)])
    order = rng.permutation(len(y))
    return Dataset(X[order], y[order], source_tag=f"duplicate_grid(seed={seed})")


def input_properties(data: Dataset) -> dict:
    """Measured properties of a generated input, printed with every run."""
    n_majority, n_minority = data.n_negative, data.n_positive
    n_distinct_rows = len(np.unique(data.X, axis=0))
    return {
        "rows_majority": n_majority,
        "rows_minority": n_minority,
        "d": data.dimension,
        "imbalance_ratio": round(n_majority / n_minority, 4),
        "duplicate_row_share": round(1.0 - n_distinct_rows / len(data), 4),
        "distinct_values_per_feature": [int(len(np.unique(col))) for col in data.X.T],
    }


_DATA_LEVEL = ("none", "smote", "borderline_smote", "adasyn", "tomek_links", "random_under")

WORKLOADS = {w.name: w for w in (
    Workload(
        name="boost-stump",
        why="re_smoteboost with stumps on 2000/200 blobs, d=10: the ROADMAP headline "
            "shape and the only workload that runs the stump search",
        configs=(("re_smoteboost", "stump"),),
        replications=1,
        generator=make_gaussian_blobs,
        shape={"n_majority": 2000, "n_minority": 200, "d": 10, "separation": 1.5},
    ),
    Workload(
        name="boost-gnb-wide",
        why="re_smoteboost with naive Bayes on 5000/500 blobs, d=12: per-candidate "
            "pruning scans and the largest roulette matrix dominate; no stump search",
        configs=(("re_smoteboost", "gnb"),),
        replications=1,
        generator=make_gaussian_blobs,
        shape={"n_majority": 5000, "n_minority": 500, "d": 12, "separation": 1.5},
    ),
    Workload(
        name="boost-knn-dup",
        why="three boosting methods with k-NN on a 460/240 integer grid with one third "
            "duplicate rows: k-NN scoring and kept-row bookkeeping under duplicates",
        configs=(("rusboost", "knn"), ("smoteboost", "knn"), ("re_smoteboost", "knn")),
        replications=1,
        generator=duplicate_grid,
        shape={"n_majority": 460, "n_minority": 240, "d": 9, "duplicate_share": 1 / 3},
    ),
    Workload(
        name="baselines",
        why="six data-level methods with naive Bayes on 3000/300 blobs, d=8, sep=1.0: "
            "sampler, experiment and metrics code without boosting or double pruning",
        configs=tuple((method, "gnb") for method in _DATA_LEVEL),
        replications=2,
        generator=make_gaussian_blobs,
        shape={"n_majority": 3000, "n_minority": 300, "d": 8, "separation": 1.0},
    ),
)}
