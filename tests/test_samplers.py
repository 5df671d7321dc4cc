import numpy as np
import pytest

from resmoteboost import (
    ExperimentConfig,
    NEGATIVE,
    POSITIVE,
    RandomSource,
    adasyn,
    borderline_smote,
    make_gaussian_blobs,
    partition_by_class,
    random_under,
    smote,
    tomek_links,
)
from resmoteboost.data import ClassPartition
from resmoteboost.experiment import resample_train


def blob_partition(n_maj=40, n_min=15, sep=2.0, seed=0):
    return partition_by_class(make_gaussian_blobs(n_maj, n_min, 2, sep, seed))


def grown(part, rows):
    """The minority rows followed by an oversampler's synthetic rows."""
    return np.vstack([part.minority, rows])


def reduced(part, keep):
    """The majority rows an undersampler keeps followed by the minority rows."""
    return np.vstack([part.majority[keep], part.minority])


def assert_synthetics_collinear(minority_X, out):
    """Every row beyond the original minority lies on a segment between two
    minority points (brute-force search over all pairs)."""
    n = len(minority_X)
    for x in out[n:]:
        ok = False
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                a, b = minority_X[i], minority_X[j]
                residual = (np.linalg.norm(x - a) + np.linalg.norm(x - b)
                            - np.linalg.norm(a - b))
                if abs(residual) <= 1e-9:
                    ok = True
                    break
            if ok:
                break
        assert ok, f"synthetic {x} not on any minority segment"


class TestSmote:
    def test_identity_when_zero(self):
        part = blob_partition()
        out = grown(part, smote(part, 0, 5, RandomSource(0)))
        np.testing.assert_array_equal(out, part.minority)

    def test_two_point_minority_forces_segment(self):
        minority = np.array([[0.0, 0.0], [2.0, 2.0]])
        majority = np.zeros((5, 2)) + 10
        part = ClassPartition(majority=majority, minority=minority)
        out = grown(part, smote(part, 10, 5, RandomSource(3)))
        for x in out[2:]:
            assert x[0] == pytest.approx(x[1], abs=1e-12)
            assert 0.0 <= x[0] <= 2.0

    def test_collinearity(self):
        part = blob_partition(n_min=8)
        out = grown(part, smote(part, 20, 3, RandomSource(5)))
        assert len(out) == len(part.minority) + 20
        assert_synthetics_collinear(part.minority, out)

    def test_labels_all_positive(self):
        # the resampled set holds the majority rows, then the minority rows
        # and the synthetic rows
        train = make_gaussian_blobs(40, 15, 2, 2.0, 0)
        y = resample_train(train, ExperimentConfig(method="smote"), RandomSource(1))[1]
        assert np.all(y[40:] == POSITIVE)

    def test_small_minority_errors(self):
        minority = np.array([[0.0]])
        majority = np.array([[1.0]] * 3)
        with pytest.raises(ValueError):
            smote(ClassPartition(majority=majority, minority=minority), 2, 5, RandomSource(0))


class TestBorderlineSmote:
    def danger_fixture(self):
        # minority at origin cluster; one point pushed into the majority blob
        maj = np.vstack([np.zeros((8, 2)) + [5.0, 0.0] + np.eye(2)[0] * i * 0.1
                         for i in range(1)])
        majority_X = np.array([[5.0, 0.0], [5.2, 0.0], [5.0, 0.2], [5.2, 0.2],
                               [4.8, 0.0], [5.0, -0.2]])
        minority_X = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1],
                               [4.9, 0.1]])  # last one sits in majority territory
        return ClassPartition(majority=majority_X, minority=minority_X)

    def test_noise_point_never_seeds(self):
        part = self.danger_fixture()
        # the embedded point's 3 nearest neighbors are all majority -> NOISE
        out = grown(part, borderline_smote(part, 30, 3, RandomSource(2)))
        # all synthetics are interpolations among minority points; none should
        # start from the all-majority-neighborhood point as a seed, so every
        # synthetic stays near the origin cluster unless the segment crosses
        safe_cluster = out[len(part.minority):]
        assert len(safe_cluster) == 30

    def test_boundary_synthetics_closer_to_majority(self):
        rng_means = []
        for seed in range(20):
            part = blob_partition(n_maj=60, n_min=25, sep=2.0, seed=seed)
            centroid = part.majority.mean(axis=0)
            plain = grown(part, smote(part, 25, 5, RandomSource(seed)))
            border = grown(part, borderline_smote(part, 25, 5, RandomSource(seed)))
            n = len(part.minority)
            d_plain = np.linalg.norm(plain[n:] - centroid, axis=1).mean()
            d_border = np.linalg.norm(border[n:] - centroid, axis=1).mean()
            rng_means.append(d_border - d_plain)
        assert np.mean(rng_means) < 0

    def test_safe_only_falls_back(self):
        part = blob_partition(sep=50.0, seed=1)  # everything SAFE
        out = grown(part, borderline_smote(part, 5, 5, RandomSource(0)))
        assert len(out) == len(part.minority) + 5


class TestAdasyn:
    def test_uniform_when_equal_hardness(self):
        # symmetric geometry: every minority point has the same neighborhood mix
        minority = np.array([[0.0, 1.0], [0.0, -1.0]])
        majority = np.array([[1.0, 1.0], [1.0, -1.0]])
        part = ClassPartition(majority=majority, minority=minority)
        out = grown(part, adasyn(part, 10, 1, RandomSource(0)))
        assert len(out) == 2 + 10

    def test_interior_point_gets_nothing(self):
        # one minority point buried inside its own class, one at the border
        minority_X = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [3.9, 0.0]])
        majority_X = np.array([[4.0, 0.0], [4.1, 0.0], [4.0, 0.1], [4.2, 0.0], [4.1, 0.1]])
        part = ClassPartition(majority=majority_X, minority=minority_X)
        out = grown(part, adasyn(part, 12, 2, RandomSource(1)))
        # interior origin-cluster points have r_i = 0; all synthetics descend
        # from the border point, whose neighbors live near x=4 or the origin
        assert len(out) > 4

    def test_allocation_total_within_rounding(self):
        for seed in range(10):
            part = blob_partition(n_maj=50, n_min=12, sep=1.5, seed=seed)
            n_new = 30
            out = grown(part, adasyn(part, n_new, 5, RandomSource(seed)))
            added = len(out) - len(part.minority)
            assert n_new - len(part.minority) <= added <= n_new + len(part.minority)

    def test_collinearity(self):
        part = blob_partition(n_min=8, sep=1.0, seed=4)
        out = grown(part, adasyn(part, 15, 4, RandomSource(9)))
        assert_synthetics_collinear(part.minority, out)


class TestTomekLinks:
    def test_forced_link_removed(self):
        majority_X = np.array([[0.0, 0.0], [50.0, 50.0], [50.0, 51.0]])
        minority_X = np.array([[1.0, 0.0], [60.0, 60.0], [60.0, 61.0]])
        part = ClassPartition(majority=majority_X, minority=minority_X)
        out = reduced(part, tomek_links(part))
        assert len(out) == 5
        assert not any(np.array_equal(r, [0.0, 0.0]) for r in out)

    def test_separated_blobs_identity(self):
        part = blob_partition(sep=10.0, seed=0)
        out = reduced(part, tomek_links(part))
        assert len(out) == len(part.majority) + len(part.minority)

    def test_link_relation_symmetric_brute_force(self):
        part = blob_partition(n_maj=60, n_min=30, sep=0.5, seed=7)
        full_X = np.vstack([part.majority, part.minority])
        full_y = np.concatenate([np.full(60, NEGATIVE), np.full(30, POSITIVE)])
        # brute-force mutual-NN links
        n = len(full_X)
        d = np.linalg.norm(full_X[:, None] - full_X[None], axis=2)
        np.fill_diagonal(d, np.inf)
        nn = d.argmin(axis=1)
        links = {(a, int(nn[a])) for a in range(n)
                 if int(nn[int(nn[a])]) == a and full_y[a] != full_y[int(nn[a])]}
        assert all((b, a) in links for a, b in links)
        expected_removed = {a for a, b in links if full_y[a] == NEGATIVE}
        out = reduced(part, tomek_links(part))
        assert len(out) == n - len(expected_removed)

    def test_minority_untouched(self):
        train = make_gaussian_blobs(40, 15, 2, 0.5, 3)
        X, y = resample_train(train, ExperimentConfig(method="tomek_links"), RandomSource(0))
        out_min = X[y == POSITIVE]
        np.testing.assert_array_equal(out_min, partition_by_class(train).minority)


class TestRandomUnder:
    def test_identity_when_zero(self):
        part = blob_partition()
        out = random_under(part, 0, RandomSource(0))
        np.testing.assert_array_equal(part.majority[out], part.majority)

    def test_exact_parity(self):
        part = blob_partition(n_maj=40, n_min=15)
        out = random_under(part, 25, RandomSource(1))
        assert len(out) == 15

    def test_same_seed_same_removal(self):
        part = blob_partition()
        a = random_under(part, 10, RandomSource(5))
        b = random_under(part, 10, RandomSource(5))
        np.testing.assert_array_equal(a, b)

    def test_remove_all_errors(self):
        part = blob_partition(n_maj=10, n_min=5)
        with pytest.raises(ValueError):
            random_under(part, 10, RandomSource(0))


SIZED = {
    "smote": lambda part, n, rng: smote(part, n, 5, rng),
    "borderline_smote": lambda part, n, rng: borderline_smote(part, n, 5, rng),
    "adasyn": lambda part, n, rng: adasyn(part, n, 5, rng),
    "random_under": random_under,
}


class TestSizeValidation:
    @pytest.mark.parametrize("name", sorted(SIZED))
    @pytest.mark.parametrize("size", [-3, -2, 2.5, True, "4"])
    def test_bad_size_rejected(self, name, size):
        arg = "n_remove" if name == "random_under" else "n_new"
        with pytest.raises(ValueError, match=f"{arg} must be an integer >= 0, got {size!r}"):
            SIZED[name](blob_partition(30, 10), size, RandomSource(0))

    @pytest.mark.parametrize("name", sorted(SIZED))
    def test_numpy_integer_size_accepted(self, name):
        part = blob_partition(30, 10)
        a = SIZED[name](part, np.int64(4), RandomSource(0))
        b = SIZED[name](part, 4, RandomSource(0))
        np.testing.assert_array_equal(a, b)
