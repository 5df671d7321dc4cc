import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resmoteboost import (
    Dataset,
    NEGATIVE,
    POSITIVE,
    PruningConfig,
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
    smote_interpolate,
    spin,
)
from resmoteboost.entropy import entropy_batch, posterior_batch
from resmoteboost.pruning import pruning_step


def blob_partition(n_maj=40, n_min=15, sep=2.0, seed=0):
    data = make_gaussian_blobs(n_maj, n_min, 2, sep, seed)
    return partition_by_class(data)


class TestMajorityPruning:
    def test_removes_lowest_entropy(self):
        part = blob_partition(seed=3)
        pool = part.majority.concat(part.minority)
        k = 10
        pruned = majority_class_pruning(part.majority, pool, k)
        assert len(pruned) == len(part.majority) - k
        # independent oracle: full sort of entropies computed from scratch
        model = fit_gnb(pool)
        ent = entropy_batch(posterior_batch(model, part.majority.X))
        removed_set = {tuple(r) for r in part.majority.X} - {tuple(r) for r in pruned.X}
        order = np.argsort(ent, kind="stable")
        expected_removed = {tuple(part.majority.X[i]) for i in order[:k]}
        assert removed_set == expected_removed

    def test_k_zero_is_identity(self):
        part = blob_partition()
        pool = part.majority.concat(part.minority)
        pruned = majority_class_pruning(part.majority, pool, 0)
        np.testing.assert_array_equal(pruned.X, part.majority.X)

    def test_k_too_large_errors(self):
        part = blob_partition(n_maj=5, n_min=3)
        pool = part.majority.concat(part.minority)
        with pytest.raises(ValueError):
            majority_class_pruning(part.majority, pool, 5)

    def test_retained_entropy_dominates_removed(self):
        for seed in range(5):
            part = blob_partition(seed=seed, sep=1.0)
            pool = part.majority.concat(part.minority)
            pruned = majority_class_pruning(part.majority, pool, 12)
            model = fit_gnb(pool)
            ent = entropy_batch(posterior_batch(model, part.majority.X))
            kept_rows = {tuple(r) for r in pruned.X}
            kept_ent = [e for e, r in zip(ent, part.majority.X) if tuple(r) in kept_rows]
            removed_ent = [e for e, r in zip(ent, part.majority.X) if tuple(r) not in kept_rows]
            assert min(kept_ent) >= max(removed_ent)


class TestRoulette:
    def test_manhattan_sums(self):
        minority = Dataset(np.array([[0.0, 0.0]]), np.array([POSITIVE]))
        majority = Dataset(np.array([[1.0, 2.0], [4.0, 6.0]]), np.array([NEGATIVE, NEGATIVE]))
        wheel = build_roulette(minority, majority)
        assert wheel.distances[0] == pytest.approx(13.0)
        assert wheel.fitness[0] == pytest.approx(1.0 / 13.0)

    def test_normalization(self):
        # distances chosen so fitness is (1, 3)
        minority = Dataset(np.array([[0.0], [2.0 / 3.0]]), np.full(2, POSITIVE))
        majority = Dataset(np.array([[1.0]]), np.array([NEGATIVE]))
        wheel = build_roulette(minority, majority)
        np.testing.assert_allclose(wheel.probabilities, [0.25, 0.75], atol=1e-12)
        np.testing.assert_allclose(wheel.cumulative, [0.25, 1.0], atol=1e-12)

    def test_coincident_point_is_capped(self):
        minority = Dataset(np.array([[1.0]]), np.array([POSITIVE]))
        majority = Dataset(np.array([[1.0]]), np.array([NEGATIVE]))
        wheel = build_roulette(minority, majority, epsilon=1e-12)
        assert np.isfinite(wheel.fitness[0])
        assert wheel.fitness[0] == pytest.approx(1e12)

    def test_spin_bucket_rule(self):
        # fitness (1, 4) gives exactly representable p = (0.2, 0.8)
        minority = Dataset(np.array([[0.0], [0.75]]), np.full(2, POSITIVE))
        majority = Dataset(np.array([[1.0]]), np.array([NEGATIVE]))
        wheel = build_roulette(minority, majority)

        class FixedRng:
            def __init__(self, values):
                self.values = list(values)

            def uniform(self, size=None):
                return np.array([self.values.pop(0) for _ in range(size or 1)])

        # half-open buckets: r = q_0 falls in the second bucket
        draws = spin(wheel, 3, FixedRng([0.1, wheel.cumulative[0], 0.999]))
        assert list(draws) == [0, 1, 1]

    def test_single_seed_wheel(self):
        minority = Dataset(np.array([[0.0]]), np.array([POSITIVE]))
        majority = Dataset(np.array([[1.0]]), np.array([NEGATIVE]))
        wheel = build_roulette(minority, majority)
        draws = spin(wheel, 20, RandomSource(4))
        assert set(draws) == {0}

    def test_empirical_frequency(self):
        minority = Dataset(np.array([[0.0], [2.0 / 3.0]]), np.full(2, POSITIVE))
        majority = Dataset(np.array([[1.0]]), np.array([NEGATIVE]))
        wheel = build_roulette(minority, majority)
        draws = spin(wheel, 10_000, RandomSource(123))
        freq = np.mean(draws == 1)
        assert 0.737 <= freq <= 0.763  # p=0.75 +- 3 binomial sigma


class TestInterpolate:
    def test_midpoint_geometry(self):
        minority = Dataset(np.array([[0.0, 0.0], [2.0, 4.0]]), np.full(2, POSITIVE))

        class HalfRng:
            def rounds(self, highs, n):   # neighbor slot 0, alpha 0.5
                return np.tile([0.0, 0.5], (n, 1))

        x, _, nb, _ = smote_interpolate(minority.X, 1, 5, HalfRng(), [0])
        np.testing.assert_allclose(x[0], [1.0, 2.0])
        assert nb[0] == 1

    def test_alpha_zero_returns_seed(self):
        minority = Dataset(np.array([[0.0, 0.0], [2.0, 4.0]]), np.full(2, POSITIVE))

        class ZeroRng:
            def rounds(self, highs, n):   # neighbor slot 0, alpha 0
                return np.zeros((n, 2))

        x = smote_interpolate(minority.X, 1, 5, ZeroRng(), [0])[0]
        np.testing.assert_array_equal(x[0], minority.X[0])

    def test_collinearity_over_many_draws(self):
        minority = Dataset(np.random.default_rng(0).normal(size=(8, 3)), np.full(8, POSITIVE))
        x, seeds, nb, _ = smote_interpolate(minority.X, 1000, 3, RandomSource(5))
        seed, neighbor = minority.X[seeds], minority.X[nb]
        residual = (np.linalg.norm(x - seed, axis=1) + np.linalg.norm(x - neighbor, axis=1)
                    - np.linalg.norm(seed - neighbor, axis=1))
        assert np.all(np.abs(residual) <= 1e-9)

    def test_too_small_minority_errors(self):
        with pytest.raises(ValueError):
            smote_interpolate(np.array([[0.0]]), 1, 5, RandomSource(0), [0])


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
        model = fit_gnb(part.majority.concat(part.minority))
        candidates = smote_interpolate(part.minority.X, 6, 5, RandomSource(3))[0]
        order, ent = noise_filter(candidates, model, 3)
        assert len(order) == 3
        # independent oracle: sort entropies computed from scratch
        expected = sorted(entropy_batch(posterior_batch(model, candidates)), reverse=True)[:3]
        np.testing.assert_allclose(sorted(ent[order], reverse=True), expected, atol=1e-12)

    def test_k_exceeds_candidates(self):
        part = blob_partition()
        model = fit_gnb(part.majority.concat(part.minority))
        candidates = smote_interpolate(part.minority.X, 3, 5, RandomSource(1), [0, 0, 0])[0]
        order, ent = noise_filter(candidates, model, 10)
        assert len(order) == 3
        assert list(ent[order]) == sorted(ent, reverse=True)

    def test_empty_errors(self):
        part = blob_partition()
        model = fit_gnb(part.majority.concat(part.minority))
        with pytest.raises(ValueError):
            noise_filter(np.empty((0, 2)), model, 2)


class TestMinorityPruning:
    def test_k_zero_identity(self):
        part = blob_partition()
        out = minority_class_pruning(part.majority, part.minority,
                                     PruningConfig(k=0), RandomSource(0))
        np.testing.assert_array_equal(out.X, part.minority.X)

    def test_full_acceptance_on_separated_blobs(self):
        for seed in range(20):
            part = blob_partition(sep=8.0, seed=seed)
            cfg = PruningConfig(k=5)
            stats = {}
            out = minority_class_pruning(part.majority, part.minority, cfg,
                                         RandomSource(seed), stats=stats)
            assert len(out) == len(part.minority) + 5
            assert stats["accepted"] == stats["spins"]  # acceptance rate 1

    def test_synthetics_verify_post_hoc(self):
        part = blob_partition(sep=3.0, seed=9)
        cfg = PruningConfig(k=6)
        stats = {}
        out = minority_class_pruning(part.majority, part.minority, cfg,
                                     RandomSource(11), stats=stats)
        for record in stats["synthetics"]:
            x = np.array(record["x"])
            dist_maj = np.linalg.norm(part.majority.X - x, axis=1).min()
            seed = part.minority.X[record["seed_index"]]
            assert np.linalg.norm(x - seed) <= dist_maj + 1e-12
            nb = part.minority.X[record["neighbor_index"]]
            residual = (np.linalg.norm(x - seed) + np.linalg.norm(x - nb)
                        - np.linalg.norm(seed - nb))
            assert abs(residual) <= 1e-9


class TestDoublePruning:
    def test_exact_size_arithmetic(self):
        data = make_gaussian_blobs(366, 193, 2, 12.0, 0)
        part = partition_by_class(data)
        new_maj, new_min = double_pruning(part.majority, part.minority,
                                          PruningConfig(k=90), RandomSource(1))
        assert len(new_maj) == 276
        assert len(new_min) == 283

    def test_small_partition_arithmetic(self):
        data = make_gaussian_blobs(3, 2, 2, 10.0, 5)
        part = partition_by_class(data)
        new_maj, new_min = double_pruning(part.majority, part.minority,
                                          PruningConfig(k=1), RandomSource(0))
        assert len(new_maj) == 2
        assert len(new_min) in (2, 3)

    def test_inputs_not_mutated_and_deterministic(self):
        part = blob_partition(sep=4.0, seed=6)
        maj_before = part.majority.X.copy()
        cfg = PruningConfig(k=4)
        a = double_pruning(part.majority, part.minority, cfg, RandomSource(42))
        np.testing.assert_array_equal(part.majority.X, maj_before)
        b = double_pruning(part.majority, part.minority, cfg, RandomSource(42))
        np.testing.assert_array_equal(a[0].X, b[0].X)
        np.testing.assert_array_equal(a[1].X, b[1].X)

    def test_gap_shrinks_by_2k_under_full_acceptance(self):
        data = make_gaussian_blobs(60, 20, 2, 9.0, 2)
        part = partition_by_class(data)
        maj, mino = part.majority, part.minority
        k = 5
        rng = RandomSource(3)
        for _ in range(3):
            gap_before = len(maj) - len(mino)
            maj, mino = double_pruning(maj, mino, PruningConfig(k=k), rng)
            assert (len(maj) - len(mino)) == gap_before - 2 * k


@st.composite
def duplicated_majority(draw):
    """Pools whose majority repeats at most 4 distinct rows 5 to 24 times, so
    it always holds duplicate rows, plus a pruning size k."""
    d = draw(st.integers(1, 3))
    row = st.lists(st.integers(-3, 3).map(float), min_size=d, max_size=d)
    distinct = draw(st.lists(row, min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=5, max_size=24))
    minority = draw(st.lists(row, min_size=2, max_size=8))
    majority = Dataset([distinct[i] for i in picks], np.full(len(picks), NEGATIVE))
    minority = Dataset(minority, np.full(len(minority), POSITIVE))
    return majority, minority, draw(st.integers(1, len(picks) - 1))


class TestDuplicateRows:
    @settings(max_examples=60, deadline=None)
    @given(pools=duplicated_majority(), seed=st.integers(0, 2**32))
    def test_kept_positions_under_duplicates(self, pools, seed):
        majority, minority, k = pools
        cfg = PruningConfig(k=k)
        keep, _ = pruning_step(majority, minority, cfg, RandomSource(seed))
        # the removed rows are the k smallest by (entropy, position)
        ent = entropy_batch(posterior_batch(fit_gnb(majority.concat(minority)), majority.X))
        removed = np.lexsort((np.arange(len(majority)), ent))[:k]
        np.testing.assert_array_equal(keep, np.setdiff1d(np.arange(len(majority)), removed))
        new_majority, _ = double_pruning(majority, minority, cfg, RandomSource(seed))
        np.testing.assert_array_equal(new_majority.X, majority.subset(keep).X)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs, message", [
        ({"k": 2.5}, "k must be an integer"),
        ({"k": True}, "k must be an integer"),
        ({"k": -1}, "k must be >= 0"),
        ({"k": 3, "k_neighbors": 2.5}, "k_neighbors must be an integer"),
        ({"k": 3, "k_neighbors": False}, "k_neighbors must be an integer"),
        ({"k": 3, "spin_cap": 10.5}, "spin_cap must be an integer"),
        ({"k": 3, "spin_cap": True}, "spin_cap must be an integer"),
        ({"k": 3, "candidate_multiplier": float("nan")}, "candidate_multiplier must be finite"),
        ({"k": 3, "candidate_multiplier": float("inf")}, "candidate_multiplier must be finite"),
        ({"k": 3, "epsilon": float("nan")}, "epsilon must be finite"),
        ({"k": 3, "epsilon": float("inf")}, "epsilon must be finite"),
        ({"k": 3, "epsilon": 0.0}, "epsilon must be finite and positive"),
    ])
    def test_rejected_at_construction(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            PruningConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        cfg = PruningConfig(k=np.int64(3), k_neighbors=np.int32(2), spin_cap=np.int64(9))
        assert cfg.effective_spin_cap == 9
