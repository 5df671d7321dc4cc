import math

import numpy as np
import pytest

from resmoteboost import (
    Dataset,
    NEGATIVE,
    POSITIVE,
    fit_gnb,
    make_gaussian_blobs,
    posterior,
    posterior_batch,
    shannon_entropy,
)
from resmoteboost.entropy import GaussianNBModel, entropy_batch, log_joint


def symmetric_model():
    # one feature, neg ~ N(0,1), pos ~ N(2,1), equal priors
    return GaussianNBModel(
        priors=np.array([0.5, 0.5]),
        means=np.array([[0.0], [2.0]]),
        variances=np.array([[1.0], [1.0]]),
        smoothing=1e-12,
    )


class TestFitGnb:
    def test_two_point_moments(self):
        X = np.array([[-1.0], [1.0], [0.5]])
        y = np.array([NEGATIVE, NEGATIVE, POSITIVE])
        model = fit_gnb(Dataset(X, y))
        assert model.means[0, 0] == pytest.approx(0.0)
        # population variance of {-1, +1} is 1, plus smoothing
        assert model.variances[0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_priors_are_class_frequencies(self):
        X = np.zeros((4, 1)) + np.arange(4)[:, None]
        y = np.array([NEGATIVE, NEGATIVE, NEGATIVE, POSITIVE])
        model = fit_gnb(Dataset(X, y))
        assert model.priors[0] == pytest.approx(0.75)
        assert model.priors[1] == pytest.approx(0.25)

    def test_constant_feature_gets_smoothing_floor(self):
        X = np.array([[1.0, 5.0], [1.0, 6.0], [1.0, 7.0], [1.0, 8.0]])
        y = np.array([NEGATIVE, NEGATIVE, POSITIVE, POSITIVE])
        model = fit_gnb(Dataset(X, y))
        assert np.all(model.variances > 0)
        p = posterior(model, np.array([1.0, 5.5]))
        assert math.isfinite(p[0]) and math.isfinite(p[1])

    def test_uniform_weights_match_unweighted(self):
        data = make_gaussian_blobs(30, 10, 3, 2.0, 5)
        a = fit_gnb(data)
        b = fit_gnb(data, weights=np.full(len(data), 0.7))
        np.testing.assert_allclose(a.means, b.means, atol=1e-12)
        np.testing.assert_allclose(a.variances, b.variances, atol=1e-12)
        np.testing.assert_allclose(a.priors, b.priors, atol=1e-12)

    def test_single_class_errors(self):
        X = np.zeros((3, 1))
        y = np.full(3, NEGATIVE)
        with pytest.raises(ValueError):
            fit_gnb(Dataset(X, y))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_moments_name_the_cause(self):
        data = make_gaussian_blobs(60, 15, 2, 1.0, 0)
        with pytest.raises(ValueError, match="overflowed; rescale the features"):
            fit_gnb(Dataset(data.X * 1e307, data.y))


class TestModelChecks:
    @pytest.mark.parametrize("field, value", [("smoothing", float("nan")),
                                              ("variances", np.array([[np.nan], [1.0]])),
                                              ("priors", np.array([np.nan, 0.5])),
                                              ("smoothing", 0.0),
                                              ("variances", np.array([[1e-13], [1.0]]))])
    def test_rejected(self, field, value):
        fields = {"priors": np.array([0.5, 0.5]), "means": np.array([[0.0], [2.0]]),
                  "variances": np.array([[1.0], [1.0]]), "smoothing": 1e-12}
        fields[field] = value
        with pytest.raises(ValueError):
            GaussianNBModel(**fields)

    def test_nan_smoothing_does_not_fit(self):
        data = make_gaussian_blobs(20, 10, 2, 2.0, 5)
        with pytest.raises(ValueError, match="variances must be >= smoothing > 0"):
            fit_gnb(data, var_smoothing=float("nan"))


class TestPosterior:
    def test_symmetry_midpoint(self):
        p = posterior(symmetric_model(), np.array([1.0]))
        assert p[0] == pytest.approx(0.5, abs=1e-9)
        assert p[1] == pytest.approx(0.5, abs=1e-9)

    def test_hand_computed_point(self):
        # at x=0: P(neg|x) = 1 / (1 + e^{-2})
        p = posterior(symmetric_model(), np.array([0.0]))
        assert p[0] == pytest.approx(1.0 / (1.0 + math.exp(-2.0)), abs=1e-9)

    def test_far_tail_limit(self):
        p = posterior(symmetric_model(), np.array([-100.0]))
        assert p[0] == pytest.approx(1.0, abs=1e-12)
        assert p[1] == pytest.approx(0.0, abs=1e-12)

    def test_no_overflow_high_dimension(self):
        rng = np.random.default_rng(0)
        data = Dataset(rng.normal(size=(100, 200)),
                       np.where(rng.random(100) < 0.3, POSITIVE, NEGATIVE))
        model = fit_gnb(data)
        post = posterior_batch(model, data.X * 50.0)
        assert np.all(np.isfinite(post))
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            posterior(symmetric_model(), np.array([0.0, 1.0]))


class TestShannonEntropy:
    def test_maximal(self):
        assert shannon_entropy((0.5, 0.5)) == pytest.approx(1.0)

    def test_degenerate(self):
        assert shannon_entropy((1.0, 0.0)) == 0.0

    def test_hand_value(self):
        assert shannon_entropy((0.9, 0.1)) == pytest.approx(0.4690, abs=1e-4)

    def test_symmetric(self):
        assert shannon_entropy((0.3, 0.7)) == pytest.approx(shannon_entropy((0.7, 0.3)))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            shannon_entropy((1.2, -0.2))
        with pytest.raises(ValueError):
            shannon_entropy((0.5, 0.4))

    def test_concavity_on_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            p, q = rng.random(2)
            if abs(p - q) < 1e-6:
                continue
            mid = shannon_entropy(((p + q) / 2, 1 - (p + q) / 2))
            avg = 0.5 * (shannon_entropy((p, 1 - p)) + shannon_entropy((q, 1 - q)))
            assert mid > avg

    def test_monotone_toward_uniform(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = rng.random() * 0.5  # start below 0.5, walk toward it
            ts = np.sort(rng.random(5))
            values = [shannon_entropy((p + t * (0.5 - p), 1 - p - t * (0.5 - p))) for t in ts]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestScoreEntropy:
    def test_midpoint_has_highest_entropy(self):
        X = np.array([[-1.0], [0.0], [1.0], [2.0], [3.0]])
        ent = entropy_batch(posterior_batch(symmetric_model(), X))
        assert np.argmax(ent) == 2  # x=1 is the symmetry midpoint

    def test_permutation_equivariance(self):
        data = make_gaussian_blobs(20, 10, 2, 1.0, 8)
        model = fit_gnb(data)
        ent = entropy_batch(posterior_batch(model, data.X))
        perm = np.random.default_rng(1).permutation(len(data))
        permuted = entropy_batch(posterior_batch(model, data.subset(perm).X))
        np.testing.assert_allclose(permuted, ent[perm], rtol=1e-6, atol=1e-12)

    def test_matches_composition(self):
        data = make_gaussian_blobs(15, 5, 2, 2.0, 3)
        model = fit_gnb(data)
        post = posterior_batch(model, data.X)
        ent = entropy_batch(post)
        for i in range(len(data)):
            p = posterior(model, data.X[i])
            assert post[i, 0] == pytest.approx(p[0], abs=1e-12)
            assert ent[i] == pytest.approx(shannon_entropy(p), abs=1e-12)

    def test_posterior_sums_to_one(self):
        data = make_gaussian_blobs(40, 15, 4, 1.5, 6)
        model = fit_gnb(data)
        post = posterior_batch(model, data.X)
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-9)


# The closed forms fit_gnb and log_joint are defined by, as first written:
# the kernels form the same terms in place and must keep their bits.
def moments_oracle(X, y, w):
    means, variances = [], []
    for cls in (NEGATIVE, POSITIVE):
        wc, Xc = w[y == cls], X[y == cls]
        w_sum = float(wc.sum())
        mu = (wc[:, None] * Xc).sum(axis=0) / w_sum
        means.append(mu)
        variances.append((wc[:, None] * (Xc - mu) ** 2).sum(axis=0) / w_sum)
    return np.array(means), np.array(variances)


def log_joint_oracle(model, X):
    diff = X[:, None, :] - model.means[None, :, :]
    ll = -0.5 * (np.log(2.0 * np.pi * model.variances)[None] + diff ** 2 / model.variances[None])
    return ll.sum(axis=2) + np.log(model.priors)[None]


# per feature: unit, offset by 1e6, squares near 1e300, squares that underflow
SCALES = (lambda v: v, lambda v: v + 1e6, lambda v: v * 1e150, lambda v: v * 1e-160)


def extreme_data(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(60, 6)) * rng.uniform(0.5, 3.0, size=6)
    X = np.column_stack([SCALES[s](X[:, j]) for j, s in enumerate(rng.integers(0, 4, 6))])
    y = np.where(rng.uniform(size=60) < 0.3, POSITIVE, NEGATIVE)
    y[:2] = NEGATIVE, POSITIVE
    return X, y, rng


class TestKernelArithmetic:
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("seed", range(8))
    def test_fit_gnb_moments_are_the_closed_form(self, weighted, seed):
        X, y, rng = extreme_data(seed)
        w = rng.uniform(0.0, 2.0, size=len(y)) if weighted else None
        model = fit_gnb(Dataset(X, y), weights=w)
        means, variances = moments_oracle(X, y, np.ones(len(y)) if w is None else w)
        assert model.means.tobytes() == means.tobytes()
        assert model.variances.tobytes() == (variances + model.smoothing).tobytes()
        assert model.smoothing == 1e-9 * float(np.var(X, axis=0).max())

    @pytest.mark.parametrize("seed", range(8))
    def test_log_joint_is_the_closed_form(self, seed):
        X, y, rng = extreme_data(seed)
        model = fit_gnb(Dataset(X, y), weights=rng.uniform(0.1, 2.0, size=len(y)))
        queries = np.vstack([X, X[rng.permutation(len(X))] * rng.uniform(0.5, 2.0, size=6)])
        assert log_joint(model, queries).tobytes() == log_joint_oracle(model, queries).tobytes()
        one = log_joint(model, queries[0])
        assert one.shape == (1, 2)
        assert one.tobytes() == log_joint_oracle(model, queries[:1]).tobytes()
