"""End-to-end acceptance suite.

One test per release criterion, at the stated tolerances and runtime budgets.
The real-data reproduction check is optional: it runs only when the
REBALANCE_WOBC environment variable points at a breast-cancer CSV in this
package's format (see README), and is skipped otherwise.
"""

import math
import os
import time

import numpy as np
import pytest
from scipy.stats import chisquare

from resmoteboost import (
    Dataset,
    ExperimentConfig,
    NEGATIVE,
    POSITIVE,
    RandomSource,
    binary_metrics,
    build_roulette,
    fisher_ratio,
    fit_boosted,
    fit_gnb,
    heuristic_tmax,
    load_csv,
    make_gaussian_blobs,
    overlap_feature_count,
    partition_by_class,
    roc_auc,
    run_experiment,
)
from resmoteboost.boosting import BoostConfig, DecisionStump
from resmoteboost.entropy import GaussianNBModel, entropy_batch, posterior_batch
from resmoteboost.pruning import _select

from test_pruning import grown_minority, pruned_classes, pruned_majority, stacked


def test_criterion_1_metric_oracles():
    r = binary_metrics({"tp": 50, "fp": 10, "fn": 5, "tn": 35})["positive_class"]
    assert r["accuracy"] == pytest.approx(0.85, abs=1e-4)
    assert r["precision"] == pytest.approx(0.83333, abs=1e-4)
    assert r["recall"] == pytest.approx(0.90909, abs=1e-4)
    assert r["f1"] == pytest.approx(0.86957, abs=1e-4)
    assert r["g_means"] == pytest.approx(0.87042, abs=1e-4)


def test_criterion_2_entropy_closed_forms():
    h = entropy_batch(np.array([[0.5, 0.5], [1.0, 0.0], [0.9, 0.1]]))
    assert h[0] == pytest.approx(1.0, abs=1e-12)
    assert h[1] == 0.0
    assert h[2] == pytest.approx(0.4690, abs=1e-4)
    # mirror-symmetric two-class model: the midpoint posterior is (1/2, 1/2)
    model = GaussianNBModel(priors=np.array([0.5, 0.5]),
                            means=np.array([[0.0], [2.0]]),
                            variances=np.array([[1.0], [1.0]]),
                            smoothing=1e-12)
    p = posterior_batch(model, np.array([[1.0]]))[0]
    assert p[0] == pytest.approx(0.5, abs=1e-9)
    assert p[1] == pytest.approx(0.5, abs=1e-9)


def test_criterion_3_randomized_pruning_properties():
    start = time.monotonic()
    master = np.random.default_rng(2024)
    for trial in range(1000):
        n_maj = int(master.integers(15, 45))
        n_min = int(master.integers(8, 20))
        assert n_maj + n_min <= 300
        sep = float(master.uniform(0.5, 4.0))
        data = make_gaussian_blobs(n_maj, n_min, 2, sep, int(master.integers(1 << 31)))
        part = partition_by_class(data)
        k = int(master.integers(1, 6))

        # (a) majority pruning removes exactly the k lowest-entropy samples
        pool = stacked(part.majority, part.minority)
        pruned = pruned_majority(part.majority, pool, k)
        model = fit_gnb(*pool)
        ent = entropy_batch(posterior_batch(model, part.majority))
        keep = np.sort(np.argsort(ent, kind="stable")[k:])
        np.testing.assert_array_equal(pruned, part.majority[keep])

        # (b) every retained synthetic obeys the regularization inequality and
        #     lies on a seed->neighbor segment (collinearity residual <= 1e-9)
        stats: dict = {}
        grown_minority(part.majority, part.minority, k, 3,
                       RandomSource(trial), stats=stats)
        for syn in stats.get("synthetics", []):
            assert syn["dist_min"] <= syn["dist_maj"] + 1e-12
            x = np.array(syn["x"])
            a = part.minority[syn["seed_index"]]
            b = part.minority[syn["neighbor_index"]]
            residual = (np.linalg.norm(x - a) + np.linalg.norm(x - b)
                        - np.linalg.norm(a - b))
            assert abs(residual) <= 1e-9
    assert time.monotonic() - start < 60.0


def test_criterion_4_balance_law():
    start = time.monotonic()
    # worked class sizes: one k=90 step takes 366 -> 276 and 193 -> 283
    data = make_gaussian_blobs(366, 193, 2, 12.0, 5)
    part = partition_by_class(data)
    maj, mino = pruned_classes(part.majority, part.minority, 90, 5, RandomSource(0))
    assert len(maj) == 276
    assert len(mino) == 283

    # carried rounds close the gap to within the (-2k, 2k) band
    k = 10
    data = make_gaussian_blobs(200, 60, 2, 8.0, 1)
    part = partition_by_class(data)
    maj, mino = part.majority, part.minority
    rng = RandomSource(3)
    for _ in range(heuristic_tmax(200, 60, k)):
        maj, mino = pruned_classes(maj, mino, k, 5, rng)
    assert -2 * k < len(maj) - len(mino) < 2 * k
    assert time.monotonic() - start < 10.0


def test_criterion_5_roulette_statistics():
    start = time.monotonic()
    # one majority point at 0; minority at 3 and 1 -> fitness (1/3, 1), so the
    # selection probabilities are exactly (0.25, 0.75)
    majority = np.array([[0.0]])
    minority = np.array([[3.0], [1.0]])
    wheel = build_roulette(minority, majority)
    np.testing.assert_allclose(wheel.probabilities, [0.25, 0.75], atol=1e-12)
    draws = _select(wheel, RandomSource(17).uniform(size=10_000))
    freq1 = np.mean(draws == 1)
    assert 0.737 <= freq1 <= 0.763

    # 4-seed wheel: chi-squared goodness of fit against the exact probabilities
    minority4 = np.array([[1.0], [2.0], [4.0], [8.0]])
    wheel4 = build_roulette(minority4, majority)
    draws4 = _select(wheel4, RandomSource(23).uniform(size=10_000))
    observed = np.bincount(draws4, minlength=4)
    _, p_value = chisquare(observed, f_exp=wheel4.probabilities * 10_000)
    assert p_value > 0.001
    assert time.monotonic() - start < 5.0


def test_criterion_6_boosting_sanity():
    start = time.monotonic()
    data = make_gaussian_blobs(120, 40, 2, 6.0, 0)
    cfg = BoostConfig(t_max=10, rebalancer="none")
    ens = fit_boosted(data, cfg, DecisionStump, RandomSource(1))
    assert np.mean(ens.predict(data.X) != data.y) == 0.0
    for entry in ens.training_log:
        assert entry["weight_sum"] == pytest.approx(1.0, abs=1e-9)
    again = fit_boosted(data, cfg, DecisionStump, RandomSource(1))
    np.testing.assert_allclose(ens.alphas, again.alphas, atol=1e-12)
    assert time.monotonic() - start < 10.0


def test_criterion_7_direction_of_effect():
    start = time.monotonic()
    data = make_gaussian_blobs(500, 100, 2, 1.5, 2)
    recall = {}
    for method in ("plain_boost", "smoteboost", "re_smoteboost"):
        cfg = ExperimentConfig(method=method, base_learner="stump",
                               replications=100, seed=42)
        summary = run_experiment(data, cfg)["summaries"]["positive_class.recall"]
        recall[method] = summary
    assert (recall["re_smoteboost"]["mean"]
            >= recall["plain_boost"]["mean"] + 0.05)
    assert recall["re_smoteboost"]["std_dev"] <= recall["smoteboost"]["std_dev"]
    assert time.monotonic() - start < 300.0


def test_criterion_8_roc_pr_oracles():
    start = time.monotonic()

    def brute_force(scores, truth):
        pos = scores[truth == POSITIVE]
        neg = scores[truth == NEGATIVE]
        wins = (pos[:, None] > neg[None]).sum() + 0.5 * (pos[:, None] == neg[None]).sum()
        return wins / (len(pos) * len(neg))

    rng = np.random.default_rng(88)
    trials = 0
    while trials < 1000:
        scores = np.round(rng.random(12), 1)
        truth = np.where(rng.random(12) < 0.5, POSITIVE, NEGATIVE)
        if len(set(truth)) < 2:
            continue
        trials += 1
        assert roc_auc(scores, truth) == brute_force(scores, truth)
    # invariance under a strictly increasing transform
    scores = rng.normal(size=40)
    truth = np.where(rng.random(40) < 0.4, POSITIVE, NEGATIVE)
    truth[0], truth[1] = POSITIVE, NEGATIVE
    base = roc_auc(scores, truth)
    assert roc_auc(np.tanh(scores) * 5 + 2, truth) == pytest.approx(base, abs=1e-12)
    assert time.monotonic() - start < 30.0


def test_criterion_9_fisher_overlap():
    start = time.monotonic()
    # two points per class with sample variance 1 and means 0 and 2
    h = math.sqrt(2) / 2
    X = np.array([[-h], [h], [2 - h], [2 + h]])
    y = np.array([NEGATIVE, NEGATIVE, POSITIVE, POSITIVE])
    assert fisher_ratio(Dataset(X, y), 0) == pytest.approx(2.0, abs=1e-12)

    rng = np.random.default_rng(6)
    X = np.concatenate([rng.normal(0, 1, 150), rng.normal(2, 1, 150)])[:, None]
    y = np.concatenate([np.full(150, NEGATIVE), np.full(150, POSITIVE)])
    base = fisher_ratio(Dataset(X, y), 0)
    assert fisher_ratio(Dataset(X + 5.0, y), 0) == pytest.approx(base, rel=1e-9)
    # widening each class around its own mean by c scales the ratio by 1/c^2
    c = 3.0
    widened = X.copy()
    for label in (NEGATIVE, POSITIVE):
        mask = y == label
        mu = widened[mask].mean(axis=0)
        widened[mask] = mu + c * (widened[mask] - mu)
    assert fisher_ratio(Dataset(widened, y), 0) == pytest.approx(base / c**2, rel=1e-9)

    for seed in range(5):
        a = make_gaussian_blobs(40, 20, 6, 1.0, seed)
        b = make_gaussian_blobs(40, 20, 6, 2.0, seed + 50)
        r = overlap_feature_count(a, b)
        assert r["count_a_smaller"] + r["count_b_smaller"] + r["ties"] == 6
    assert time.monotonic() - start < 5.0


WOBC_PATH = os.environ.get("REBALANCE_WOBC", "data/wobc.csv")


@pytest.mark.skipif(not os.path.exists(WOBC_PATH),
                    reason="breast-cancer CSV not supplied (set REBALANCE_WOBC)")
def test_criterion_10_real_data_reproduction():
    data = load_csv(WOBC_PATH, "label", "pos")
    cfg = ExperimentConfig(method="re_smoteboost", base_learner="stump",
                           replications=100, seed=42)
    report = run_experiment(data, cfg)
    means = (report["summaries"]["positive_class.precision"]["mean"],
             report["summaries"]["macro.precision"]["mean"])
    assert any(abs(m - 0.9309) <= 0.03 for m in means), means
