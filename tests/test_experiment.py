"""Experiment-level degenerate cases: k-fold bounds and one-class test splits."""

import pytest

from resmoteboost import ExperimentConfig, make_gaussian_blobs, run_experiment


@pytest.mark.parametrize("folds", [-2, 0, 1])
def test_cv_folds_below_two_rejected(folds):
    with pytest.raises(ValueError, match="cv_folds must be None or >= 2"):
        ExperimentConfig(cv_folds=folds)


def test_cv_folds_above_smaller_class_rejected_before_any_fold():
    data = make_gaussian_blobs(40, 6, 2, 1.5, 0)
    with pytest.raises(ValueError, match="cv_folds=8 exceeds the smaller class count 6"):
        run_experiment(data, ExperimentConfig(method="smote", cv_folds=8))
    report = run_experiment(data, ExperimentConfig(method="smote", cv_folds=6))
    assert len(report["replications"]) == 6
    assert report["summaries"]["auc"]["n"] == 6


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
