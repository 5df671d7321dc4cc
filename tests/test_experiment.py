"""Experiment-level degenerate cases: k-fold and k bounds, one-class test
splits, determinism per seed and finite summaries on degenerate data."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resmoteboost import (Dataset, ExperimentConfig, NEGATIVE, POSITIVE, RandomSource, SplitSpec,
                          make_gaussian_blobs, mix_seed, run_experiment, run_replication,
                          split_indices)
from resmoteboost.boosting import LEARNER_TYPES
from resmoteboost.experiment import (BOOSTING_METHODS, DATA_LEVEL_METHODS, METHODS,
                                    _fold_indices)


@pytest.mark.parametrize("folds", [-2, 0, 1])
def test_cv_folds_below_two_rejected(folds):
    with pytest.raises(ValueError, match="cv_folds must be None or >= 2"):
        ExperimentConfig(cv_folds=folds)


@pytest.mark.parametrize("k", [0, -1])
def test_k_below_one_rejected(k):
    with pytest.raises(ValueError, match="k must be None or >= 1"):
        ExperimentConfig(method="re_smoteboost", k=k)


@pytest.mark.parametrize("k_neighbors", [0, -3])
def test_k_neighbors_below_one_rejected(k_neighbors):
    with pytest.raises(ValueError, match="k_neighbors must be >= 1"):
        ExperimentConfig(method="smote", k_neighbors=k_neighbors)


@pytest.mark.parametrize("kwargs, message", [
    ({"method": "re_smoteboost", "base_learner": "bogus"}, "unknown base learner 'bogus'"),
    ({"method": "smote", "base_learner": "bogus"}, "unknown base learner 'bogus'"),
    ({"method": "re_smoteboost", "t_max": 0}, "t_max must be 'heuristic' or an integer >= 1"),
    ({"method": "re_smoteboost", "t_max": "abc"}, "t_max must be 'heuristic' or an integer"),
    ({"method": "re_smoteboost", "t_max": 2.5}, "t_max must be 'heuristic' or an integer"),
    ({"method": "re_smoteboost", "t_max": True}, "t_max must be 'heuristic' or an integer"),
    ({"method": "smote", "t_max": 0}, "t_max must be 'heuristic' or an integer >= 1"),
    ({"replications": 0}, "replications must be an integer >= 1"),
    ({"replications": 2.5}, "replications must be an integer >= 1, got 2.5"),
    ({"replications": True}, "replications must be an integer >= 1"),
    ({"method": "re_smoteboost", "k": 2.5}, "k must be an integer, got 2.5"),
    ({"method": "smote", "k_neighbors": 2.5}, "k_neighbors must be an integer, got 2.5"),
    ({"method": "smote", "cv_folds": 2.5}, "cv_folds must be an integer, got 2.5"),
])
def test_bad_learner_rounds_and_replications_rejected_at_construction(kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig(**kwargs)


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_bad_seed_rejected_at_construction(seed):
    message = f"seed must be an integer >= 0, got {seed!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig(seed=seed)


def test_numpy_integer_seed_becomes_int():
    cfg = ExperimentConfig(seed=np.uint64(7))
    assert type(cfg.seed) is int and cfg.seed == 7


def test_numpy_integer_options_accepted():
    data = make_gaussian_blobs(30, 10, 2, 1.5, 0)
    cfg = ExperimentConfig(method="rusboost", t_max=np.int64(2), replications=np.int64(2),
                           k=np.int64(3), k_neighbors=np.int32(4))
    report = run_experiment(data, cfg)
    assert [r["model"]["t_max"] for r in report["replications"]] == [2, 2]
    json.dumps(report)   # no numpy scalar left in the report


def test_cv_folds_above_smaller_class_rejected_before_any_fold():
    data = make_gaussian_blobs(40, 6, 2, 1.5, 0)
    with pytest.raises(ValueError, match="cv_folds=8 exceeds the smaller class count 6"):
        run_experiment(data, ExperimentConfig(method="smote", cv_folds=8))
    report = run_experiment(data, ExperimentConfig(method="smote", cv_folds=6))
    assert len(report["replications"]) == 6
    assert report["summaries"]["auc"]["n"] == 6


def test_positive_majority_rejected_before_any_replication(started_replications):
    # the positive label must name the minority class
    data = make_gaussian_blobs(300, 60, 2, 2.5, 0)
    with pytest.raises(ValueError, match=r"positive class \(300 rows\) outnumbers the "
                                         r"negative class \(60 rows\).*--positive-label"):
        run_experiment(Dataset(data.X, -data.y), ExperimentConfig(method="smote"))
    assert started_replications == []
    run_experiment(make_gaussian_blobs(20, 20, 2, 2.5, 0), ExperimentConfig(replications=2))
    assert started_replications == [0, 1]   # equal class sizes run


@pytest.fixture(scope="module")
def near_balanced_reports():
    """Every method on 21/20 blobs with unstratified splits: some training
    splits hold more positive than negative rows."""
    data = make_gaussian_blobs(21, 20, 2, 3.0, 0)
    return {m: run_experiment(data, ExperimentConfig(method=m, base_learner="gnb",
                                                     stratified=False, replications=20,
                                                     seed=42))
            for m in METHODS}


@pytest.mark.parametrize("method", [m for m in METHODS if m not in ("none", "plain_boost")])
def test_positive_majority_training_split_resamples_nothing(near_balanced_reports, method):
    plain = "plain_boost" if method in BOOSTING_METHODS else "none"
    report, reference = near_balanced_reports[method], near_balanced_reports[plain]
    routed = [r for r in report["replications"] if r["model"].get("resampling_skipped")]
    assert routed, "some unstratified training split should hold more positives"
    data = make_gaussian_blobs(21, 20, 2, 3.0, 0)
    for rep in report["replications"]:
        train = np.setdiff1d(np.arange(len(data)), rep["test_indices"])
        more_positives = (data.y[train] == POSITIVE).sum() > (data.y[train] == NEGATIVE).sum()
        assert bool(rep["model"].get("resampling_skipped")) == more_positives
    for rep in routed:
        same = reference["replications"][rep["replication"]]
        model = dict(rep["model"])
        assert model.pop("resampling_skipped") is True
        assert (rep["metrics"], model) == (same["metrics"], same["model"])
    assert report["config"]["method"] == method


def test_no_method_inverts_the_labels(near_balanced_reports):
    for method, report in near_balanced_reports.items():
        accuracies = [r["metrics"]["positive_class"]["accuracy"] for r in report["replications"]]
        assert min(accuracies) >= 0.2, method
    assert not any("resampling_skipped" in r["model"] for m in ("none", "plain_boost")
                   for r in near_balanced_reports[m]["replications"])


@pytest.mark.parametrize("stratified", [True, False])
def test_empty_test_split_rejected_before_any_replication(started_replications, stratified):
    # 0.9 of 3 and of 2 rows (or of 5) rounds up to every row
    data = make_gaussian_blobs(3, 2, 2, 2.0, 0)
    cfg = ExperimentConfig(test_fraction=0.1, stratified=stratified, replications=2)
    with pytest.raises(ValueError, match=r"test_fraction=0\.1 rounds to no test rows for "
                                         r"3 negative and 2 positive rows"):
        run_experiment(data, cfg)
    assert started_replications == []
    run_experiment(data, ExperimentConfig(test_fraction=0.2, stratified=stratified,
                                          replications=2))
    assert started_replications == [0, 1]   # 0.8 of 3 rounds to 2 training rows


def test_one_class_test_split_leaves_auc_undefined():
    data = make_gaussian_blobs(200, 6, 2, 1.5, 0)
    report = run_experiment(data, ExperimentConfig(stratified=False, replications=30, seed=0))
    missing = [r for r in report["replications"] if "auc" not in r["metrics"]]
    assert missing, "some unstratified split of 6 positives should hold none"
    assert all("auc" in r["metrics"]["undefined"] for r in missing)
    assert all("auc" not in r["metrics"]["undefined"]
               for r in report["replications"] if "auc" in r["metrics"])
    auc = report["summaries"]["auc"]
    assert auc["n"] == 30 - len(missing)
    defined = [r["metrics"]["auc"] for r in report["replications"] if "auc" in r["metrics"]]
    assert auc["mean"] == pytest.approx(sum(defined) / len(defined))
    # the other summaries still count every replication
    assert report["summaries"]["positive_class.f1"]["n"] == 30


def test_auc_summary_with_no_defined_value():
    data = make_gaussian_blobs(30, 2, 2, 1.5, 0)
    report = run_experiment(data, ExperimentConfig(stratified=False, test_fraction=0.1,
                                                   replications=1, seed=0))
    assert "auc" not in report["replications"][0]["metrics"]   # the 3 test rows are negative
    assert report["summaries"]["auc"] == {"metric": "auc", "mean": None, "std_dev": None, "n": 0}


STUMP_BOOSTING = ("re_smoteboost", "smoteboost", "rusboost", "plain_boost")
LEARNERS = ("stump", "gnb", "knn")


def _without_timing(report: dict) -> str:
    return json.dumps({k: v for k, v in report.items() if k != "timing"}, sort_keys=True)


def _finite_or_undefined(report: dict):
    for r in report["replications"]:
        m = r["metrics"]
        assert "auc" in m["undefined"] or math.isfinite(m["auc"])
        assert "f1" in m["undefined"] or math.isfinite(m["positive_class"]["f1"])


@settings(max_examples=24, deadline=None)
@given(method=st.sampled_from(STUMP_BOOSTING), n_maj=st.integers(20, 50),
       n_min=st.integers(5, 12), d=st.integers(1, 4), data_seed=st.integers(0, 2**32 - 1),
       seed=st.integers(0, 2**63 - 1))
def test_stump_boosting_is_deterministic_per_seed(method, n_maj, n_min, d, data_seed, seed):
    data = make_gaussian_blobs(n_maj, n_min, d, 1.0, data_seed)
    cfg = ExperimentConfig(method=method, base_learner="stump", replications=2, seed=seed)
    assert _without_timing(run_experiment(data, cfg)) == _without_timing(run_experiment(data, cfg))


@settings(max_examples=24, deadline=None)
@given(method=st.sampled_from(STUMP_BOOSTING), learner=st.sampled_from(("gnb", "knn")),
       n_maj=st.integers(20, 50), n_min=st.integers(5, 12), d=st.integers(1, 4),
       data_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**63 - 1))
def test_gnb_and_knn_boosting_is_deterministic_per_seed(method, learner, n_maj, n_min, d,
                                                        data_seed, seed):
    data = make_gaussian_blobs(n_maj, n_min, d, 1.0, data_seed)
    cfg = ExperimentConfig(method=method, base_learner=learner, replications=2, seed=seed)
    assert _without_timing(run_experiment(data, cfg)) == _without_timing(run_experiment(data, cfg))


@settings(max_examples=24, deadline=None)
@given(method=st.sampled_from(DATA_LEVEL_METHODS), learner=st.sampled_from(LEARNERS),
       n_maj=st.integers(20, 50), n_min=st.integers(5, 12), d=st.integers(1, 4),
       data_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**63 - 1))
def test_data_level_methods_are_deterministic_per_seed(method, learner, n_maj, n_min, d,
                                                       data_seed, seed):
    data = make_gaussian_blobs(n_maj, n_min, d, 1.0, data_seed)
    cfg = ExperimentConfig(method=method, base_learner=learner, replications=2, seed=seed)
    assert _without_timing(run_experiment(data, cfg)) == _without_timing(run_experiment(data, cfg))


@settings(max_examples=30, deadline=None)
@given(method=st.sampled_from(STUMP_BOOSTING), learner=st.sampled_from(LEARNERS),
       n_maj=st.integers(6, 40), d=st.integers(1, 3), data_seed=st.integers(0, 2**32 - 1),
       seed=st.integers(0, 2**63 - 1))
def test_two_row_training_minority_gives_finite_or_undefined_metrics(method, learner, n_maj, d,
                                                                     data_seed, seed):
    data = make_gaussian_blobs(n_maj, 3, d, 1.0, data_seed)   # 80/20 split: 2 train, 1 test
    report = run_experiment(data, ExperimentConfig(method=method, base_learner=learner,
                                                   replications=2, seed=seed))
    for r in report["replications"]:
        assert np.sum(data.y[r["test_indices"]] == POSITIVE) == 1
    _finite_or_undefined(report)


def _degenerate(case: str, seed: int) -> Dataset:
    data = make_gaussian_blobs(36, 9, 1 if case == "d=1" else 2, 1.5, seed)
    X = data.X
    if case == "constant column":
        X = np.column_stack([X, np.full(len(X), 3.0)])
    elif case == "all-duplicate majority":
        X = np.where((data.y == NEGATIVE)[:, None], X[0], X)
    elif case.startswith("scaled"):
        X = X * float(case.split()[1])
    return Dataset(X, data.y)


@settings(max_examples=40, deadline=None)
@given(method=st.sampled_from(STUMP_BOOSTING),
       case=st.sampled_from(("d=1", "constant column", "all-duplicate majority",
                             "scaled 1e150", "scaled 1e-150")),
       data_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**63 - 1))
def test_stump_boosting_summaries_finite_on_degenerate_data(method, case, data_seed, seed):
    data = _degenerate(case, data_seed)
    report = run_experiment(data, ExperimentConfig(method=method, base_learner="stump",
                                                   replications=3, seed=seed))
    reps = report["replications"]
    _finite_or_undefined(report)
    for key, name in (("auc", "auc"), ("positive_class.f1", "f1")):
        summary = report["summaries"][key]
        assert summary["mean"] is not None and math.isfinite(summary["mean"]) or all(
            name in r["metrics"]["undefined"] for r in reps)
        assert summary["std_dev"] is None or math.isfinite(summary["std_dev"])


@settings(max_examples=25, deadline=None)
@given(n_maj=st.integers(30, 80), n_min=st.integers(4, 20), sep=st.sampled_from([0.5, 1.5, 6.0]),
       k=st.integers(1, 6), data_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**63 - 1))
def test_balance_law_on_rounds_below_the_spin_cap(n_maj, n_min, sep, k, data_seed, seed):
    data = make_gaussian_blobs(n_maj, n_min, 2, sep, data_seed)
    report = run_experiment(data, ExperimentConfig(method="re_smoteboost", k=k, replications=2,
                                                   seed=seed))
    for r in report["replications"]:
        test_y = data.y[r["test_indices"]]
        majority = n_maj - int(np.sum(test_y == NEGATIVE))
        minority = n_min - int(np.sum(test_y == POSITIVE))
        for entry in r["model"]["training_log"]:
            k_eff = min(k, majority - 1)
            audit = entry["rebalance"]
            assert entry["n_majority"] == majority - k_eff
            assert entry["n_minority"] == minority + audit["retained"]
            if audit["spins"] < 50 * k_eff:   # the cap never stopped the candidate loop
                assert audit["accepted"] >= 2 * k_eff
                assert audit["retained"] == k_eff   # the gap closes by exactly 2k
            majority, minority = entry["n_majority"], entry["n_minority"]


@settings(max_examples=30, deadline=None)
@given(method=st.sampled_from(METHODS), learner=st.sampled_from(LEARNERS), cv=st.booleans(),
       n_maj=st.integers(20, 50), n_min=st.integers(6, 12), data_seed=st.integers(0, 2**32 - 1),
       seed=st.integers(0, 2**63 - 1))
def test_test_split_never_reaches_training(method, learner, cv, n_maj, n_min, data_seed, seed):
    data = make_gaussian_blobs(n_maj, n_min, 2, 1.0, data_seed)   # distinct rows
    cfg = ExperimentConfig(method=method, base_learner=learner, replications=2, seed=seed,
                           cv_folds=3 if cv else None)
    fitted = []

    class Recording(LEARNER_TYPES[learner]):
        def fit(self, X, y, w):
            fitted.append(np.array(X))
            return super().fit(X, y, w)

    for i in range(2):
        fitted.clear()
        capture = {}
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(LEARNER_TYPES, learner, Recording)
            r = run_replication(data, cfg, i, capture=capture)
        seed_i = mix_seed(seed, i)
        if cv:
            test_idx = _fold_indices(data, 3, seed, i)[1]
        else:
            spec = SplitSpec(train_fraction=0.8, stratified=True)
            test_idx = split_indices(data, spec, RandomSource(seed_i))[1]
        assert r["test_indices"] == test_idx.tolist()
        test_rows = {row.tobytes() for row in data.X[test_idx]}
        assert fitted
        for X in fitted + [capture["X"]]:
            assert not any(row.tobytes() in test_rows for row in X)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("learner", sorted(LEARNER_TYPES))
def test_one_replication_builds_datasets_only_at_the_edges(monkeypatch, method, learner):
    # the split's two subsets only; every step after the split, resampling
    # included, passes arrays
    built, init = [], Dataset.__init__

    def counted(self, *args, **kwargs):
        built.append(len(args[0]))
        init(self, *args, **kwargs)

    data = make_gaussian_blobs(48, 12, 2, 1.5, 3)
    monkeypatch.setattr(Dataset, "__init__", counted)
    run_replication(data, ExperimentConfig(method=method, base_learner=learner, seed=5), 0)
    assert len(built) == 2, built
