import functools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resmoteboost import (
    BoostConfig,
    BoostedEnsemble,
    Dataset,
    DecisionStump,
    ExperimentConfig,
    NEGATIVE,
    POSITIVE,
    RandomSource,
    fit_boosted,
    heuristic_tmax,
    make_gaussian_blobs,
    make_learner_factory,
    run_experiment,
)
from resmoteboost import boosting, pruning, samplers
from resmoteboost.boosting import KNNLearner, fit_stump_params


class TestHeuristicTmax:
    def test_direct_substitution(self):
        assert heuristic_tmax(100, 60, 10) == 2

    def test_large_k_single_round(self):
        assert heuristic_tmax(366, 193, 90) == 1

    def test_balanced_floor(self):
        assert heuristic_tmax(50, 50, 5) == 1

    def test_no_gap_floor(self):
        # a training split with more positives than negatives has no gap to close
        assert heuristic_tmax(16, 17, 1) == 1

    def test_bad_k(self):
        with pytest.raises(ValueError):
            heuristic_tmax(10, 5, 0)


class TestFitStump:
    def test_forced_split(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([NEGATIVE, NEGATIVE, POSITIVE, POSITIVE])
        w = np.full(4, 0.25)
        stump = DecisionStump().fit(X, y, w)
        assert stump.threshold == pytest.approx(1.5)
        assert stump.polarity == 1
        assert np.array_equal(stump.predict(X), y)

    def test_weight_concentration_forces_isolation(self):
        # a heavily weighted mislabeled point drags the split toward it
        X = np.array([[0.0], [1.0], [2.0], [3.0], [10.0]])
        y = np.array([NEGATIVE, NEGATIVE, NEGATIVE, NEGATIVE, POSITIVE])
        w = np.array([0.01, 0.01, 0.01, 0.01, 0.96])
        stump = DecisionStump().fit(X, y, w)
        assert np.sum(w[stump.predict(X) != y]) == pytest.approx(0.0)
        # brute-force oracle over all candidate splits
        best = min(
            np.sum(w[np.where(p * (X[:, 0] - t) > 0, POSITIVE, NEGATIVE) != y])
            for t in np.concatenate([[-np.inf, np.inf], (X[:-1, 0] + X[1:, 0]) / 2])
            for p in (1, -1)
        )
        assert np.sum(w[stump.predict(X) != y]) == pytest.approx(best)

    def test_error_bounded_by_constant_classifier(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            X = rng.normal(size=(30, 3))
            y = np.where(rng.random(30) < 0.4, POSITIVE, NEGATIVE)
            if len(set(y)) < 2:
                continue
            w = rng.random(30)
            w = w / w.sum()
            stump = DecisionStump().fit(X, y, w)
            err = np.sum(w[stump.predict(X) != y])
            assert err <= min(w[y == POSITIVE].sum(), w[y == NEGATIVE].sum()) + 1e-12

    def test_degenerate_constant_features(self):
        X = np.ones((4, 2))
        y = np.array([NEGATIVE, NEGATIVE, NEGATIVE, POSITIVE])
        w = np.full(4, 0.25)
        stump = DecisionStump().fit(X, y, w)
        # majority-weight constant stump: everything negative
        assert np.all(stump.predict(X) == NEGATIVE)

    def test_scale_invariance_of_weights(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(25, 2))
        y = np.where(X[:, 0] + 0.3 * rng.normal(size=25) > 0, POSITIVE, NEGATIVE)
        w = rng.random(25)
        a = fit_stump_params(X, y, w)
        b = fit_stump_params(X, y, 7.5 * w)
        assert a == b


class TestBaseLearnerContract:
    @pytest.mark.parametrize("name", ["stump", "gnb", "knn"])
    def test_predict_is_sign_of_score(self, name):
        data = make_gaussian_blobs(40, 20, 2, 2.0, 1)
        learner = make_learner_factory(name)()
        learner.fit(data.X, data.y, np.full(len(data), 1.0 / len(data)))
        score = learner.score(data.X)
        pred = learner.predict(data.X)
        np.testing.assert_array_equal(pred, np.where(score > 0, POSITIVE, NEGATIVE))


class TestLearnerValidation:
    @pytest.mark.parametrize("n_neighbors", [0, -1, 2.5, True, None, "3"])
    def test_knn_rejects_anything_but_a_positive_integer(self, n_neighbors):
        with pytest.raises(ValueError, match="n_neighbors must be an integer >= 1"):
            KNNLearner(n_neighbors)

    def test_knn_accepts_numpy_integers(self):
        assert KNNLearner(np.int64(3)).n_neighbors == 3


class TestFitBoosted:
    def test_separable_blobs_reach_zero_training_error(self):
        data = make_gaussian_blobs(80, 40, 2, 6.0, 0)
        cfg = BoostConfig(t_max=10, rebalancer="none")
        ens = fit_boosted(data, cfg, DecisionStump, RandomSource(1))
        assert np.mean(ens.predict(data.X) != data.y) == 0.0

    def test_alpha_formula(self):
        # E=0.1 -> alpha = 0.5 ln 9
        assert 0.5 * math.log(9) == pytest.approx(1.0986, abs=1e-4)

    def test_weights_sum_to_one_each_round(self):
        data = make_gaussian_blobs(60, 20, 2, 1.0, 2)
        cfg = BoostConfig(t_max=8, k=4, rebalancer="double_pruning")
        ens = fit_boosted(data, cfg, DecisionStump, RandomSource(5))
        # the normalization is internal; its effect shows in finite alphas
        assert all(math.isfinite(a) for a in ens.alphas)
        assert len(ens.alphas) == len(ens.learners)

    def test_same_seed_reproduces(self):
        data = make_gaussian_blobs(60, 20, 2, 1.5, 3)
        cfg = BoostConfig(t_max=6, k=4, rebalancer="double_pruning")
        a = fit_boosted(data, cfg, DecisionStump, RandomSource(11))
        b = fit_boosted(data, cfg, DecisionStump, RandomSource(11))
        np.testing.assert_allclose(a.alphas, b.alphas, atol=1e-12)
        for la, lb in zip(a.learners, b.learners):
            assert ((la.feature_index, la.threshold, la.polarity)
                    == (lb.feature_index, lb.threshold, lb.polarity))

    def test_tmax_one_equals_single_learner(self):
        data = make_gaussian_blobs(50, 25, 2, 2.0, 4)
        cfg = BoostConfig(t_max=1, rebalancer="none")
        ens = fit_boosted(data, cfg, DecisionStump, RandomSource(0))
        solo = DecisionStump().fit(data.X, data.y, np.full(len(data), 1.0 / len(data)))
        np.testing.assert_array_equal(ens.predict(data.X), solo.predict(data.X))

    def test_carried_pools_close_the_gap(self):
        data = make_gaussian_blobs(120, 40, 2, 8.0, 6)
        k = 10
        t_max = heuristic_tmax(120, 40, k)
        cfg = BoostConfig(t_max=t_max, k=k, rebalancer="double_pruning")
        ens = fit_boosted(data, cfg, DecisionStump, RandomSource(7))
        last = ens.training_log[-1]
        gap = last["n_majority"] - last["n_minority"]
        assert -2 * k < gap < 2 * k

    @settings(max_examples=25, deadline=None)
    @given(n_maj=st.integers(6, 40), n_min=st.integers(2, 6), k=st.integers(1, 5),
           seed=st.integers(0, 2**32))
    def test_all_duplicate_majority_keeps_balance_law(self, n_maj, n_min, k, seed):
        # one majority row repeated; a far minority cloud, so every candidate
        # is accepted and each round moves both pools by k_eff = min(k, |maj| - 1)
        rng = RandomSource(seed)
        X = np.vstack([np.zeros((n_maj, 2)), 10.0 + rng.normal(size=(n_min, 2))])
        y = np.concatenate([np.full(n_maj, NEGATIVE), np.full(n_min, POSITIVE)])
        cfg = BoostConfig(t_max=heuristic_tmax(n_maj, n_min, k), k=k,
                          rebalancer="double_pruning")
        ens = fit_boosted(Dataset(X, y), cfg, DecisionStump, rng)
        n_majority, n_minority = n_maj, n_min
        for entry in ens.training_log:
            k_eff = min(k, n_majority - 1)
            assert entry["rebalance"]["retained"] == k_eff
            assert entry["n_majority"] == n_majority - k_eff
            assert entry["n_minority"] == n_minority + k_eff
            n_majority, n_minority = entry["n_majority"], entry["n_minority"]
        assert len(ens.training_log) == cfg.t_max

    def test_misclassified_weights_increase(self):
        data = make_gaussian_blobs(50, 20, 2, 1.0, 9)
        N = len(data)
        w = np.full(N, 1.0 / N)
        stump = DecisionStump().fit(data.X, data.y, w)
        pred = stump.predict(data.X)
        err = float(w[pred != data.y].sum())
        assert err < 0.5
        alpha = 0.5 * math.log((1 - err) / err)
        w2 = w * np.exp(-alpha * data.y * pred)
        w2 = w2 / w2.sum()
        wrong = pred != data.y
        assert w2[wrong].min() > w2[~wrong].max()

    def test_single_class_errors(self):
        for label in (NEGATIVE, POSITIVE):
            with pytest.raises(ValueError, match="both classes present"):
                fit_boosted(Dataset(np.zeros((6, 1)), np.full(6, label)), BoostConfig(t_max=3),
                            DecisionStump, RandomSource(0))


class TestEnsemblePrediction:
    def build(self, alphas, votes):
        class Fixed:
            def __init__(self, v):
                self.v = v

            def predict(self, X):
                return np.full(len(np.atleast_2d(X)), self.v)

        return BoostedEnsemble(learners=[Fixed(v) for v in votes], alphas=list(alphas))

    def test_single_learner_identity(self):
        ens = self.build([1.0], [POSITIVE])
        assert ens.predict(np.zeros((1, 2)))[0] == POSITIVE

    def test_weighted_vote(self):
        ens = self.build([2.0, 1.0], [NEGATIVE, POSITIVE])
        assert ens.predict(np.zeros((1, 2)))[0] == NEGATIVE

    def test_zero_margin_ties_to_negative(self):
        ens = self.build([1.0, 1.0], [NEGATIVE, POSITIVE])
        assert ens.decision_function(np.zeros((1, 2)))[0] == 0.0
        assert ens.predict(np.zeros((1, 2)))[0] == NEGATIVE

    def test_margin_antisymmetry_and_bound(self):
        data = make_gaussian_blobs(40, 20, 2, 2.0, 1)
        cfg = BoostConfig(t_max=5, rebalancer="none")
        ens = fit_boosted(data, cfg, DecisionStump, RandomSource(2))
        margins = ens.decision_function(data.X)
        assert np.all(np.abs(margins) <= sum(abs(a) for a in ens.alphas) + 1e-12)


class TestNamedConfigurations:
    @pytest.mark.parametrize("rebalancer", ["none", "double_pruning", "smote", "random_under"])
    def test_all_rebalancers_train(self, rebalancer):
        data = make_gaussian_blobs(60, 20, 2, 2.0, 8)
        cfg = BoostConfig(t_max=4, k=5, rebalancer=rebalancer)
        ens = fit_boosted(data, cfg, DecisionStump, RandomSource(3))
        assert len(ens.learners) >= 1
        acc = np.mean(ens.predict(data.X) == data.y)
        assert acc > 0.7

    def test_rusboost_shrinks_majority(self):
        data = make_gaussian_blobs(60, 20, 2, 2.0, 8)
        cfg = BoostConfig(t_max=3, k=5, rebalancer="random_under")
        ens = fit_boosted(data, cfg, DecisionStump, RandomSource(4))
        sizes = [e["n_majority"] for e in ens.training_log]
        assert sizes == [55, 50, 45]

    def test_smoteboost_grows_minority(self):
        data = make_gaussian_blobs(60, 20, 2, 2.0, 8)
        cfg = BoostConfig(t_max=3, k=5, rebalancer="smote")
        ens = fit_boosted(data, cfg, DecisionStump, RandomSource(4))
        sizes = [e["n_minority"] for e in ens.training_log]
        assert sizes == [25, 30, 35]

    @pytest.mark.parametrize("rebalancer", ["smote", "double_pruning"])
    def test_k_neighbors_reaches_smote_interpolate(self, rebalancer, monkeypatch):
        seen = []
        original = pruning.smote_interpolate

        def recorded(X, n, k_neighbors, rng, seeds=None):
            seen.append(k_neighbors)
            return original(X, n, k_neighbors, rng, seeds)

        monkeypatch.setattr(boosting, "smote_interpolate", recorded)
        monkeypatch.setattr(pruning, "smote_interpolate", recorded)
        data = make_gaussian_blobs(60, 20, 2, 2.0, 8)
        cfg = BoostConfig(t_max=3, k=5, k_neighbors=3, rebalancer=rebalancer)
        fit_boosted(data, cfg, DecisionStump, RandomSource(3))
        assert len(seen) >= 3 and set(seen) == {3}

    def test_fresh_pools_do_not_accumulate(self):
        data = make_gaussian_blobs(60, 20, 2, 6.0, 8)
        cfg = BoostConfig(t_max=3, k=5, rebalancer="double_pruning", fresh_pools=True)
        ens = fit_boosted(data, cfg, DecisionStump, RandomSource(4))
        for entry in ens.training_log:
            assert entry["n_majority"] == 55


class TestBoostConfigValidation:
    @pytest.mark.parametrize("kwargs, message", [
        ({"t_max": 2.5}, "t_max must be an integer"),
        ({"t_max": True}, "t_max must be an integer"),
        ({"t_max": 3, "k": 2.5}, "k must be an integer"),
        ({"t_max": 3, "k": -2, "rebalancer": "smote"}, "k must be >= 0"),
        ({"t_max": 3, "k_neighbors": 2.5}, "k_neighbors must be an integer"),
        ({"t_max": 3, "k_neighbors": False}, "k_neighbors must be an integer"),
        ({"t_max": 3, "k_neighbors": 0}, "k_neighbors must be >= 1"),
        ({"t_max": 3, "k_neighbors": -2, "rebalancer": "smote"}, "k_neighbors must be >= 1"),
    ])
    def test_rejected_at_construction(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            BoostConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        cfg = BoostConfig(t_max=np.int64(3), k=np.int32(2), k_neighbors=np.int64(4),
                          rebalancer="double_pruning")
        ens = fit_boosted(make_gaussian_blobs(30, 10, 2, 6.0, 1), cfg, DecisionStump,
                          RandomSource(0))
        assert [e["n_majority"] for e in ens.training_log] == [28, 26, 24]


def test_rusboost_runs_random_under(monkeypatch):
    """random_under is wrapped in every resmoteboost module that holds it; a
    rusboost run calls it once per round that removed majority rows."""
    calls, original = [], samplers.random_under

    @functools.wraps(original)
    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name == "resmoteboost" or name.startswith("resmoteboost.")) and \
                getattr(module, "random_under", None) is original:
            monkeypatch.setattr(module, "random_under", counted)
    report = run_experiment(make_gaussian_blobs(80, 20, 2, 1.5, 0),
                            ExperimentConfig(method="rusboost", k=4, t_max=4,
                                             replications=2, seed=0))
    removed = [entry["rebalance"]["removed"] for rep in report["replications"]
               for entry in rep["model"]["training_log"] if "removed" in entry["rebalance"]]
    assert removed
    assert calls == removed
