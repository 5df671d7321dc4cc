import functools
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resmoteboost import (
    ExperimentConfig,
    NEGATIVE,
    POSITIVE,
    RandomSource,
    build_roulette,
    double_pruning,
    fit_gnb,
    make_gaussian_blobs,
    majority_class_pruning,
    minority_class_pruning,
    noise_filter,
    partition_by_class,
    regularization_accept,
    run_experiment,
    smote,
    smote_interpolate,
)
from resmoteboost import pruning
from resmoteboost.entropy import entropy_batch, posterior_batch


def blob_partition(n_maj=40, n_min=15, sep=2.0, seed=0):
    data = make_gaussian_blobs(n_maj, n_min, 2, sep, seed)
    return partition_by_class(data)


def stacked(majority, minority):
    """The pool (X, y) of the majority rows then the minority rows, the rows
    and labels double_pruning fits its model on."""
    return (np.vstack([majority, minority]),
            np.repeat([NEGATIVE, POSITIVE], [len(majority), len(minority)]))


def pruned_majority(majority, pool, k):
    """The majority rows majority_class_pruning keeps, its model fit on `pool`."""
    return majority[majority_class_pruning(majority, fit_gnb(*pool), k)]


def grown_minority(majority, minority, k, k_neighbors, rng, stats=None):
    """The minority rows grown by minority_class_pruning's rows, under the
    model double_pruning fits."""
    model = fit_gnb(*stacked(majority, minority))
    return np.vstack([minority, minority_class_pruning(majority, minority, k, k_neighbors,
                                                       model, rng, stats)])


def pruned_classes(majority, minority, k, k_neighbors, rng, stats=None):
    """double_pruning's (keep, rows) as the new (majority, minority) rows."""
    keep, rows = double_pruning(majority, minority, k, k_neighbors, rng, stats)
    return majority[keep], np.vstack([minority, rows])


class TestMajorityPruning:
    def test_removes_lowest_entropy(self):
        part = blob_partition(seed=3)
        pool = stacked(part.majority, part.minority)
        k = 10
        pruned = pruned_majority(part.majority, pool, k)
        assert len(pruned) == len(part.majority) - k
        # independent oracle: full sort of entropies computed from scratch
        model = fit_gnb(*pool)
        ent = entropy_batch(posterior_batch(model, part.majority))
        removed_set = {tuple(r) for r in part.majority} - {tuple(r) for r in pruned}
        order = np.argsort(ent, kind="stable")
        expected_removed = {tuple(part.majority[i]) for i in order[:k]}
        assert removed_set == expected_removed

    def test_k_zero_is_identity(self):
        part = blob_partition()
        pool = stacked(part.majority, part.minority)
        pruned = pruned_majority(part.majority, pool, 0)
        np.testing.assert_array_equal(pruned, part.majority)

    def test_k_too_large_errors(self):
        part = blob_partition(n_maj=5, n_min=3)
        pool = stacked(part.majority, part.minority)
        with pytest.raises(ValueError):
            pruned_majority(part.majority, pool, 5)

    @pytest.mark.parametrize("k", [-1, 40, 41, 2.5, True, "3"])
    def test_k_outside_the_majority_errors_naming_it(self, k):
        part = blob_partition()
        model = fit_gnb(*stacked(part.majority, part.minority))
        with pytest.raises(ValueError, match=rf"below the majority size 40, got {k!r}"):
            majority_class_pruning(part.majority, model, k)

    def test_retained_entropy_dominates_removed(self):
        for seed in range(5):
            part = blob_partition(seed=seed, sep=1.0)
            pool = stacked(part.majority, part.minority)
            pruned = pruned_majority(part.majority, pool, 12)
            model = fit_gnb(*pool)
            ent = entropy_batch(posterior_batch(model, part.majority))
            kept_rows = {tuple(r) for r in pruned}
            kept_ent = [e for e, r in zip(ent, part.majority) if tuple(r) in kept_rows]
            removed_ent = [e for e, r in zip(ent, part.majority) if tuple(r) not in kept_rows]
            assert min(kept_ent) >= max(removed_ent)


class TestRoulette:
    def test_manhattan_sums(self):
        minority = np.array([[0.0, 0.0]])
        majority = np.array([[1.0, 2.0], [4.0, 6.0]])
        wheel = build_roulette(minority, majority)
        assert wheel.distances[0] == pytest.approx(13.0)
        assert wheel.fitness[0] == pytest.approx(1.0 / 13.0)

    def test_normalization(self):
        # distances chosen so fitness is (1, 3)
        minority = np.array([[0.0], [2.0 / 3.0]])
        majority = np.array([[1.0]])
        wheel = build_roulette(minority, majority)
        np.testing.assert_allclose(wheel.probabilities, [0.25, 0.75], atol=1e-12)
        np.testing.assert_allclose(wheel.cumulative, [0.25, 1.0], atol=1e-12)

    def test_coincident_point_is_capped(self):
        minority = np.array([[1.0]])
        majority = np.array([[1.0]])
        wheel = build_roulette(minority, majority)
        assert np.isfinite(wheel.fitness[0])
        assert wheel.fitness[0] == pytest.approx(1e12)

    def test_spin_bucket_rule(self):
        # fitness (1, 4) gives exactly representable p = (0.2, 0.8)
        minority = np.array([[0.0], [0.75]])
        majority = np.array([[1.0]])
        wheel = build_roulette(minority, majority)
        # half-open buckets: r = q_0 falls in the second bucket
        draws = pruning._select(wheel, np.array([0.1, wheel.cumulative[0], 0.999]))
        assert list(draws) == [0, 1, 1]

    def test_single_seed_wheel(self):
        minority = np.array([[0.0]])
        majority = np.array([[1.0]])
        wheel = build_roulette(minority, majority)
        draws = pruning._select(wheel, RandomSource(4).uniform(size=20))
        assert set(draws) == {0}

    def test_empirical_frequency(self):
        minority = np.array([[0.0], [2.0 / 3.0]])
        majority = np.array([[1.0]])
        wheel = build_roulette(minority, majority)
        draws = pruning._select(wheel, RandomSource(123).uniform(size=10_000))
        freq = np.mean(draws == 1)
        assert 0.737 <= freq <= 0.763  # p=0.75 +- 3 binomial sigma


class TestInterpolate:
    def test_midpoint_geometry(self):
        minority = np.array([[0.0, 0.0], [2.0, 4.0]])

        class HalfRng:
            def rounds(self, highs, n):   # neighbor slot 0, alpha 0.5
                return np.tile([0.0, 0.5], (n, 1))

        x, _, nb, _ = smote_interpolate(minority, 1, 5, HalfRng(), [0])
        np.testing.assert_allclose(x[0], [1.0, 2.0])
        assert nb[0] == 1

    def test_alpha_zero_returns_seed(self):
        minority = np.array([[0.0, 0.0], [2.0, 4.0]])

        class ZeroRng:
            def rounds(self, highs, n):   # neighbor slot 0, alpha 0
                return np.zeros((n, 2))

        x = smote_interpolate(minority, 1, 5, ZeroRng(), [0])[0]
        np.testing.assert_array_equal(x[0], minority[0])

    def test_collinearity_over_many_draws(self):
        minority = np.random.default_rng(0).normal(size=(8, 3))
        x, seeds, nb, _ = smote_interpolate(minority, 1000, 3, RandomSource(5))
        seed, neighbor = minority[seeds], minority[nb]
        residual = (np.linalg.norm(x - seed, axis=1) + np.linalg.norm(x - neighbor, axis=1)
                    - np.linalg.norm(seed - neighbor, axis=1))
        assert np.all(np.abs(residual) <= 1e-9)

    def test_too_small_minority_errors(self):
        with pytest.raises(ValueError):
            smote_interpolate(np.array([[0.0]]), 1, 5, RandomSource(0), [0])

    @pytest.mark.parametrize("bad", [
        {"n": -3}, {"n": -1}, {"n": 2.5}, {"n": True},
        {"k_neighbors": 0}, {"k_neighbors": -3}, {"k_neighbors": 2.5}, {"k_neighbors": True},
    ], ids=lambda bad: repr(bad["n"]) if "n" in bad else f"k_neighbors={bad['k_neighbors']!r}")
    def test_bad_count_errors_naming_it(self, bad):
        (name, value), = bad.items()
        args = dict({"n": 5, "k_neighbors": 5}, **bad)
        message = rf"{name} must be an integer >= {0 if name == 'n' else 1}, got {value!r}"
        X = np.random.default_rng(0).normal(size=(6, 2))
        with pytest.raises(ValueError, match=message):
            smote_interpolate(X, args["n"], args["k_neighbors"], RandomSource(0))
        if name == "k_neighbors":   # the data-level sampler passes it through
            with pytest.raises(ValueError, match=message):
                smote(blob_partition(), 5, value, RandomSource(0))


class TestRegularizationAccept:
    def accept(self, x, seed, M):
        dist_min, dist_maj, ok = regularization_accept(np.array([x], float), np.array(M, float),
                                                       np.array([seed], float))
        return dist_min[0], dist_maj[0], ok[0]

    def test_accept(self):
        dist_min, dist_maj, ok = self.accept([0.0, 0.0], [1.0, 0.0], [[3.0, 0.0]])
        assert ok
        assert dist_min == pytest.approx(1.0)
        assert dist_maj == pytest.approx(3.0)

    def test_reject(self):
        assert not self.accept([0.0, 0.0], [4.0, 0.0], [[1.0, 0.0]])[2]

    def test_alpha_zero_always_accepts(self):
        assert self.accept([1.0, 0.0], [1.0, 0.0], [[0.5, 0.0]])[2]


class TestNoiseFilter:
    def test_top_k_retained(self):
        part = blob_partition(seed=2)
        model = fit_gnb(*stacked(part.majority, part.minority))
        candidates = smote_interpolate(part.minority, 6, 5, RandomSource(3))[0]
        order, ent = noise_filter(candidates, model, 3)
        assert len(order) == 3
        # independent oracle: sort entropies computed from scratch
        expected = sorted(entropy_batch(posterior_batch(model, candidates)), reverse=True)[:3]
        np.testing.assert_allclose(sorted(ent[order], reverse=True), expected, atol=1e-12)

    def test_k_exceeds_candidates(self):
        part = blob_partition()
        model = fit_gnb(*stacked(part.majority, part.minority))
        candidates = smote_interpolate(part.minority, 3, 5, RandomSource(1), [0, 0, 0])[0]
        order, ent = noise_filter(candidates, model, 10)
        assert len(order) == 3
        assert list(ent[order]) == sorted(ent, reverse=True)

    def test_empty_errors(self):
        part = blob_partition()
        model = fit_gnb(*stacked(part.majority, part.minority))
        with pytest.raises(ValueError):
            noise_filter(np.empty((0, 2)), model, 2)

    @pytest.mark.parametrize("k", [-2, 1.5, False])
    def test_bad_k_errors_naming_it(self, k):
        part = blob_partition()
        model = fit_gnb(*stacked(part.majority, part.minority))
        candidates = smote_interpolate(part.minority, 12, 5, RandomSource(3))[0]
        with pytest.raises(ValueError, match=rf"k must be an integer >= 0, got {k!r}"):
            noise_filter(candidates, model, k)


class TestMinorityPruning:
    def test_k_zero_identity(self):
        part = blob_partition()
        out = grown_minority(part.majority, part.minority, 0, 5, RandomSource(0))
        np.testing.assert_array_equal(out, part.minority)

    def test_full_acceptance_on_separated_blobs(self):
        for seed in range(20):
            part = blob_partition(sep=8.0, seed=seed)
            stats = {}
            out = grown_minority(part.majority, part.minority, 5, 5,
                                 RandomSource(seed), stats=stats)
            assert len(out) == len(part.minority) + 5
            assert stats["accepted"] == stats["spins"]  # acceptance rate 1

    def test_synthetics_verify_post_hoc(self):
        part = blob_partition(sep=3.0, seed=9)
        stats = {}
        out = grown_minority(part.majority, part.minority, 6, 5,
                             RandomSource(11), stats=stats)
        for record in stats["synthetics"]:
            x = np.array(record["x"])
            dist_maj = np.linalg.norm(part.majority - x, axis=1).min()
            seed = part.minority[record["seed_index"]]
            assert np.linalg.norm(x - seed) <= dist_maj + 1e-12
            nb = part.minority[record["neighbor_index"]]
            residual = (np.linalg.norm(x - seed) + np.linalg.norm(x - nb)
                        - np.linalg.norm(seed - nb))
            assert abs(residual) <= 1e-9


class TestDoublePruning:
    def test_exact_size_arithmetic(self):
        data = make_gaussian_blobs(366, 193, 2, 12.0, 0)
        part = partition_by_class(data)
        new_maj, new_min = pruned_classes(part.majority, part.minority, 90, 5,
                                          RandomSource(1))
        assert len(new_maj) == 276
        assert len(new_min) == 283

    def test_small_partition_arithmetic(self):
        data = make_gaussian_blobs(3, 2, 2, 10.0, 5)
        part = partition_by_class(data)
        new_maj, new_min = pruned_classes(part.majority, part.minority, 1, 5,
                                          RandomSource(0))
        assert len(new_maj) == 2
        assert len(new_min) in (2, 3)

    def test_inputs_not_mutated_and_deterministic(self):
        part = blob_partition(sep=4.0, seed=6)
        maj_before = part.majority.copy()
        a = pruned_classes(part.majority, part.minority, 4, 5, RandomSource(42))
        np.testing.assert_array_equal(part.majority, maj_before)
        b = pruned_classes(part.majority, part.minority, 4, 5, RandomSource(42))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_gap_shrinks_by_2k_under_full_acceptance(self):
        data = make_gaussian_blobs(60, 20, 2, 9.0, 2)
        part = partition_by_class(data)
        maj, mino = part.majority, part.minority
        k = 5
        rng = RandomSource(3)
        for _ in range(3):
            gap_before = len(maj) - len(mino)
            maj, mino = pruned_classes(maj, mino, k, 5, rng)
            assert (len(maj) - len(mino)) == gap_before - 2 * k


PIPELINE = ("double_pruning", "majority_class_pruning", "minority_class_pruning")


def test_boosting_runs_the_double_pruning_names(monkeypatch):
    """Each name is wrapped in every resmoteboost module that holds it; a
    re_smoteboost run calls each once per round that rebalanced."""
    calls = dict.fromkeys(PIPELINE, 0)
    modules = [m for name, m in sys.modules.items()
               if name == "resmoteboost" or name.startswith("resmoteboost.")]
    for name in PIPELINE:
        original = getattr(pruning, name)

        @functools.wraps(original)
        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    report = run_experiment(make_gaussian_blobs(80, 20, 2, 1.5, 0),
                            ExperimentConfig(method="re_smoteboost", k=4, t_max=4,
                                             replications=2, seed=0))
    rounds = sum("spins" in entry["rebalance"] for rep in report["replications"]
                 for entry in rep["model"]["training_log"])
    assert rounds > 0
    assert calls == dict.fromkeys(PIPELINE, rounds)


@st.composite
def duplicated_majority(draw):
    """Pools whose majority repeats at most 4 distinct rows 5 to 24 times, so
    it always holds duplicate rows, plus a pruning size k."""
    d = draw(st.integers(1, 3))
    row = st.lists(st.integers(-3, 3).map(float), min_size=d, max_size=d)
    distinct = draw(st.lists(row, min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=5, max_size=24))
    minority = draw(st.lists(row, min_size=2, max_size=8))
    majority = np.array([distinct[i] for i in picks])
    minority = np.array(minority)
    return majority, minority, draw(st.integers(1, len(picks) - 1))


class TestDuplicateRows:
    @settings(max_examples=60, deadline=None)
    @given(pools=duplicated_majority(), seed=st.integers(0, 2**32))
    def test_kept_positions_under_duplicates(self, pools, seed):
        majority, minority, k = pools
        keep, _ = double_pruning(majority, minority, k, 5, RandomSource(seed))
        # the removed rows are the k smallest by (entropy, position)
        ent = entropy_batch(posterior_batch(fit_gnb(*stacked(majority, minority)), majority))
        removed = np.lexsort((np.arange(len(majority)), ent))[:k]
        np.testing.assert_array_equal(keep, np.setdiff1d(np.arange(len(majority)), removed))
        new_majority, _ = pruned_classes(majority, minority, k, 5, RandomSource(seed))
        np.testing.assert_array_equal(new_majority, majority[keep])


class TestStepSizeValidation:
    """k reaches the step as a plain argument: both halves reject a k that
    is negative, non-integral or a bool, and take numpy integers."""

    @pytest.mark.parametrize("k", [-1, 2.5, True])
    def test_double_pruning_rejects_bad_k(self, k):
        part = blob_partition()
        with pytest.raises(ValueError, match=rf"k must be an integer >= 0.*, got {k!r}"):
            double_pruning(part.majority, part.minority, k, 5, RandomSource(0))

    @pytest.mark.parametrize("k", [-1, 2.5, True])
    def test_minority_class_pruning_rejects_bad_k(self, k):
        part = blob_partition()
        with pytest.raises(ValueError, match=rf"k must be an integer >= 0, got {k!r}"):
            grown_minority(part.majority, part.minority, k, 5, RandomSource(0))

    def test_numpy_integers_accepted(self):
        part = blob_partition(sep=8.0)
        a = pruned_classes(part.majority, part.minority, np.int64(3), np.int32(2),
                           RandomSource(0))
        b = pruned_classes(part.majority, part.minority, 3, 2, RandomSource(0))
        assert len(a[0]) == len(part.majority) - 3
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
