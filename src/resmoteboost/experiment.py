"""Replicated experiment harness behind the `rebalance run` command.

Each replication derives its own seed from the base seed with a splitmix64
mix, splits the data, applies the configured resampling or boosting method to
the training side only, and evaluates on the untouched test split. Metrics
are aggregated across replications with mean and sample standard deviation.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .boosting import BoostConfig, fit_boosted, heuristic_tmax, make_learner_factory
from .data import (Dataset, NEGATIVE, POSITIVE, RandomSource, SplitSpec, _integer, _n_train,
                   mix_seed, partition_by_class, split_indices)
from .metrics import binary_metrics, confusion, replication_stats, roc_auc
from . import samplers

DATA_LEVEL_METHODS = ("none", "smote", "borderline_smote", "adasyn", "tomek_links",
                      "random_under")
BOOSTING_METHODS = ("smoteboost", "rusboost", "re_smoteboost", "plain_boost")
METHODS = DATA_LEVEL_METHODS + BOOSTING_METHODS

_REBALANCER_FOR = {"smoteboost": "smote", "rusboost": "random_under",
                   "re_smoteboost": "double_pruning", "plain_boost": "none"}


@dataclass
class ExperimentConfig:
    method: str = "none"
    base_learner: str = "stump"
    k: int | None = None                 # default: close the gap in ~10 rounds
    k_neighbors: int = 5
    t_max: int | str = "heuristic"
    test_fraction: float = 0.2
    stratified: bool = True
    replications: int = 100
    seed: int = 42
    fresh_pools: bool = False
    cv_folds: int | None = None          # k-fold alternative to repeated splits

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")
        make_learner_factory(self.base_learner)   # raises for an unknown learner
        if not _integer(self.replications) or self.replications < 1:
            raise ValueError(f"replications must be an integer >= 1, got {self.replications!r}")
        if self.t_max != "heuristic" and (not _integer(self.t_max) or self.t_max < 1):
            raise ValueError(f"t_max must be 'heuristic' or an integer >= 1, got {self.t_max!r}")
        for name in ("k", "k_neighbors", "cv_folds"):
            value = getattr(self, name)
            if value is not None and not _integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        # numpy integers become ints, so the report serialises as JSON
        for name in ("replications", "t_max", "k", "k_neighbors", "cv_folds"):
            if _integer(getattr(self, name)):
                setattr(self, name, int(getattr(self, name)))
        if self.k is not None and self.k < 1:
            raise ValueError(f"k must be None or >= 1, got {self.k}")
        if self.k_neighbors < 1:
            raise ValueError(f"k_neighbors must be >= 1, got {self.k_neighbors}")
        if self.cv_folds is not None and self.cv_folds < 2:
            raise ValueError(f"cv_folds must be None or >= 2, got {self.cv_folds}")

    def to_json(self) -> dict:
        return asdict(self)

    def split_spec(self) -> SplitSpec:
        return SplitSpec(train_fraction=1.0 - self.test_fraction, stratified=self.stratified)


def default_k(n_majority: int, n_minority: int) -> int:
    """Per-iteration sample count targeting roughly 10 boosting rounds."""
    return max(1, round((n_majority - n_minority) / 20))


def resample_train(train: Dataset, cfg: ExperimentConfig, rng: RandomSource) -> Dataset:
    """Apply a data-level method to the training set; returns the new train set."""
    if cfg.method == "none":
        return train
    part = partition_by_class(train)
    gap = len(part.majority) - len(part.minority)
    if cfg.method in ("smote", "borderline_smote", "adasyn"):
        oversample = getattr(samplers, cfg.method)
        return part.majority.concat(oversample(part, gap, cfg.k_neighbors, rng))
    if cfg.method == "tomek_links":
        return samplers.tomek_links(part)
    if cfg.method == "random_under":
        new_maj = samplers.random_under(part, gap, rng)
        return new_maj.concat(part.minority)
    raise ValueError(f"not a data-level method: {cfg.method}")


def _boost_config(train: Dataset, cfg: ExperimentConfig) -> BoostConfig:
    part = partition_by_class(train)
    n_maj, n_min = len(part.majority), len(part.minority)
    k = cfg.k if cfg.k is not None else default_k(n_maj, n_min)
    t_max = heuristic_tmax(n_maj, n_min, k) if cfg.t_max == "heuristic" else cfg.t_max
    return BoostConfig(
        t_max=t_max,
        k=k,
        k_neighbors=cfg.k_neighbors,
        rebalancer=_REBALANCER_FOR[cfg.method],
        fresh_pools=cfg.fresh_pools,
    )


def train_and_score(train: Dataset, test: Dataset, cfg: ExperimentConfig,
                    rng: RandomSource, capture: dict | None = None):
    """Fit the configured method and return (predictions, scores, model_info)."""
    factory = make_learner_factory(cfg.base_learner)
    if cfg.method in BOOSTING_METHODS:
        bcfg = _boost_config(train, cfg)
        ensemble = fit_boosted(train, bcfg, factory, rng, capture=capture)
        scores = ensemble.decision_function(test.X)
        info = {"t_max": bcfg.t_max, "k": bcfg.k,
                "training_log": ensemble.training_log}
    else:
        resampled = resample_train(train, cfg, rng)
        if capture is not None:
            capture["X"] = resampled.X
            capture["y"] = resampled.y
            capture.setdefault("synthetics", [])
        learner = factory()
        learner.fit(resampled.X, resampled.y, np.full(len(resampled), 1.0 / len(resampled)))
        scores = learner.score(test.X)
        info = {"train_size_before_resampling": len(train),
                "train_size_after_resampling": len(resampled)}
    # every model's predict: a zero margin resolves to the negative class
    return np.where(scores > 0, POSITIVE, NEGATIVE), scores, info


def _fold_indices(data: Dataset, folds: int, seed: int, fold: int):
    """Sorted (train_indices, test_indices) of one fold of the stratified
    k-fold split that RandomSource(seed) draws: each class is shuffled and
    dealt round-robin into the folds."""
    rng = RandomSource(seed)
    fold_of = np.empty(len(data), dtype=int)
    for cls in (NEGATIVE, POSITIVE):
        idx = np.flatnonzero(data.y == cls)
        fold_of[idx[rng.permutation(len(idx))]] = np.arange(len(idx)) % folds
    return np.flatnonzero(fold_of != fold), np.flatnonzero(fold_of == fold)


@lru_cache(maxsize=1)
def _index_ints(n: int) -> tuple:
    """The ints 0..n-1, shared by every report on data of n rows, so a
    report's test indices hold references rather than an int object each."""
    return tuple(range(n))


def run_replication(data: Dataset, cfg: ExperimentConfig, index: int,
                    capture: dict | None = None):
    """One replication: derived seed, split, resample/train, evaluate.

    The split is a fresh random split, or fold `index` of the k-fold split
    when cfg.cv_folds is set. Test indices are recorded before any resampling
    runs, so the audit trail shows the test split was never touched by a
    resampler.
    """
    seed_i = mix_seed(cfg.seed, index)
    rng = RandomSource(seed_i)
    if cfg.cv_folds:
        train_idx, test_idx = _fold_indices(data, cfg.cv_folds, cfg.seed, index)
    else:
        train_idx, test_idx = split_indices(data, cfg.split_spec(), rng)
    train, test = data.subset(train_idx), data.subset(test_idx)
    pred, scores, info = train_and_score(train, test, cfg, rng, capture=capture)
    report = binary_metrics(confusion(pred, test.y))
    if test.n_positive and test.n_negative:
        report.auc = roc_auc(scores, test.y)
    else:
        report.undefined.append("auc")   # a one-class test split ranks nothing
    return {"replication": index, "seed": seed_i, "metrics": report.to_json(),
            "model": info, "test_indices": list(map(_index_ints(len(data)).__getitem__,
                                                    test_idx.tolist()))}


def _summary(values, key: str) -> dict:
    """Mean, sample standard deviation and n over the defined (not None) values."""
    values = [v for v in values if v is not None]
    if len(values) >= 2:
        return replication_stats(values, key).to_json()
    return {"metric": key, "mean": values[0] if values else None, "std_dev": None,
            "n": len(values)}


def run_experiment(data: Dataset, cfg: ExperimentConfig, capture: dict | None = None) -> dict:
    """Full replicated run; returns the report as a JSON-ready dict. When
    `capture` is a dict it receives replication 0's resampled training set,
    as run_replication writes it."""
    if data.n_positive > data.n_negative:
        raise ValueError(f"the positive class ({data.n_positive} rows) outnumbers the negative "
                         f"class ({data.n_negative} rows); the positive label (--positive-label "
                         f"on the command line) must name the minority class")
    if cfg.cv_folds and cfg.cv_folds > min(data.n_positive, data.n_negative):
        raise ValueError(f"cv_folds={cfg.cv_folds} exceeds the smaller class count "
                         f"{min(data.n_positive, data.n_negative)}: some fold would test "
                         f"on one class")
    groups = (data.n_negative, data.n_positive) if cfg.stratified else (len(data),)
    if not cfg.cv_folds and all(_n_train(cfg.split_spec(), n) == n for n in groups):
        raise ValueError(f"test_fraction={cfg.test_fraction} rounds to no test rows for "
                         f"{data.n_negative} negative and {data.n_positive} positive rows")
    t0 = time.perf_counter()
    replications = [run_replication(data, cfg, i, capture=None if i else capture)
                    for i in range(cfg.cv_folds or cfg.replications)]
    elapsed = time.perf_counter() - t0

    summaries = {}
    for variant in ("positive_class", "macro"):
        for name in ("accuracy", "precision", "recall", "f1", "g_means"):
            key = f"{variant}.{name}"
            summaries[key] = _summary([r["metrics"][variant][name] for r in replications], key)
    summaries["auc"] = _summary([r["metrics"].get("auc") for r in replications], "auc")

    return {
        "config": cfg.to_json(),
        "replications": replications,
        "summaries": summaries,
        "timing": {"total_seconds": elapsed},
    }
