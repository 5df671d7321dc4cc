"""Gaussian naive Bayes posteriors and Shannon-entropy sample scoring.

The naive Bayes model here backs both the entropy-guided pruning steps and the
NB base learner. All posterior computation happens in log space: per-feature
Gaussian log densities are summed, the class prior log added, and the result
normalized after subtracting the max log-joint, so even extreme inputs do not
overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, NEGATIVE, POSITIVE

_CLASSES = (NEGATIVE, POSITIVE)  # row order inside the model arrays


@dataclass(frozen=True)
class GaussianNBModel:
    priors: np.ndarray      # (2,) = [P(neg), P(pos)]
    means: np.ndarray       # (2, d)
    variances: np.ndarray   # (2, d), already smoothed, strictly positive
    smoothing: float

    def __post_init__(self):
        # NaN fails both checks
        if not abs(float(self.priors.sum()) - 1.0) <= 1e-12:
            raise ValueError("priors must sum to 1")
        if not (np.all(self.variances >= self.smoothing) and self.smoothing > 0):
            raise ValueError("variances must be >= smoothing > 0")


def fit_gnb(data: Dataset, weights=None, var_smoothing: float = 1e-9) -> GaussianNBModel:
    """Fit per-class priors and per-feature Gaussian moments.

    Moments use the population convention (divide by total weight). The
    smoothing floor added to every variance is var_smoothing times the largest
    per-feature variance of the pooled data, matching the usual NB stabilizer;
    `var_smoothing` is exposed because the NB base classifier uses 1.0 while
    entropy scoring uses a tiny default. Moments that overflow raise
    ValueError.
    """
    if weights is None:
        weights = np.ones(len(data))
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (len(data),):
            raise ValueError("weights length must match dataset size")
        if np.any(weights < 0):
            raise ValueError("weights must be non-negative")

    with np.errstate(over="ignore", invalid="ignore"):   # checked below
        pooled_var = np.var(data.X, axis=0)
        max_var = float(pooled_var.max()) if data.dimension else 0.0
        epsilon = var_smoothing * max_var if max_var > 0 else max(var_smoothing, 1e-12)

        priors = np.empty(2)
        means = np.empty((2, data.dimension))
        variances = np.empty((2, data.dimension))
        total = 0.0
        for row, cls in enumerate(_CLASSES):
            mask = data.y == cls
            w = weights[mask]
            w_sum = float(w.sum())
            if w_sum <= 0:
                raise ValueError("each class needs positive total weight")
            Xc = data.X[mask]
            dev = w[:, None] * Xc
            mu = dev.sum(axis=0) / w_sum
            # the weighted squared deviations w (x - mu)^2, in place
            np.subtract(Xc, mu, out=dev)
            np.square(dev, out=dev)
            dev *= w[:, None]
            var = dev.sum(axis=0) / w_sum
            priors[row] = w_sum
            means[row] = mu
            variances[row] = var
            total += w_sum
    if not (np.isfinite(max_var) and np.all(np.isfinite(means))
            and np.all(np.isfinite(variances))):
        raise ValueError("the naive Bayes moments of the features overflowed; "
                         "rescale the features")
    variances += epsilon
    priors /= total
    return GaussianNBModel(priors=priors, means=means, variances=variances, smoothing=epsilon)


def log_joint(model: GaussianNBModel, X) -> np.ndarray:
    """(n, 2) array of log P(x, class) for class order (neg, pos)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != model.means.shape[1]:
        raise ValueError(f"dimension mismatch: model d={model.means.shape[1]}, x d={X.shape[1]}")
    # sum over features of log N(x; mu, var) + log prior, each term
    # -0.5 * (log(2 pi var) + (x - mu)^2 / var), formed in one (n, 2, d) buffer
    ll = np.subtract(X[:, None, :], model.means)
    np.square(ll, out=ll)
    ll /= model.variances
    ll += np.log(2.0 * np.pi * model.variances)
    ll *= -0.5
    return ll.sum(axis=2) + np.log(model.priors)[None]


def posterior_batch(model: GaussianNBModel, X) -> np.ndarray:
    """(n, 2) posteriors (P(neg|x), P(pos|x)), rows summing to 1."""
    lj = log_joint(model, X)
    lj = lj - lj.max(axis=1, keepdims=True)
    p = np.exp(lj)
    return p / p.sum(axis=1, keepdims=True)


def posterior(model: GaussianNBModel, x):
    """Posterior pair (P(neg|x), P(pos|x)) for a single feature vector."""
    p = posterior_batch(model, np.asarray(x, dtype=float)[None, :])[0]
    return float(p[0]), float(p[1])


def shannon_entropy(p) -> float:
    """Base-2 entropy of a two-class probability pair; 0*log0 taken as 0."""
    p = np.asarray(p, dtype=float)
    if np.any(p < 0) or np.any(p > 1):
        raise ValueError("probabilities must lie in [0, 1]")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError("probabilities must sum to 1")
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def entropy_batch(post: np.ndarray) -> np.ndarray:
    """Row-wise base-2 entropy of an (n, 2) posterior array."""
    safe = np.where(post > 0, post, 1.0)
    return -(post * np.log2(safe)).sum(axis=1)

