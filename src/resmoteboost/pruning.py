"""Double-pruning resampling engine.

The balancing step combines:

* majority pruning — drop the k lowest-entropy majority samples under a
  naive Bayes model fit on the current pool;
* minority oversampling — roulette-wheel seed selection where a minority
  sample's fitness is the reciprocal of its summed L1 distance to the
  majority class, SMOTE-style interpolation toward a minority neighbor, a
  regularization acceptance test (the synthetic must be at least as close to
  its seed as to the nearest majority sample), and an entropy noise filter
  that keeps only the k most class-ambiguous candidates.

All tie-breaks are "lower index first" so results are deterministic for a
given RandomSource.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, POSITIVE, RandomSource, _integer
from .entropy import entropy_batch, fit_gnb, posterior_batch

_BLOCK = 1 << 14   # distance-matrix entries computed at a time


@dataclass(frozen=True)
class PruningConfig:
    k: int                              # majority removals / synthetics retained per call
    k_neighbors: int = 5
    candidate_multiplier: float = 2.0   # accepted candidates gathered before noise filtering
    spin_cap: int | None = None         # default 50 * k
    epsilon: float = 1e-12              # guard for zero roulette distances

    def __post_init__(self):
        for name in ("k", "k_neighbors", "spin_cap"):
            value = getattr(self, name)
            if not _integer(value) and not (name == "spin_cap" and value is None):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.k < 0:
            raise ValueError("k must be >= 0")
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")
        if not math.isfinite(self.candidate_multiplier) or self.candidate_multiplier < 1.0:
            raise ValueError(f"candidate_multiplier must be finite and >= 1, "
                             f"got {self.candidate_multiplier!r}")
        if not math.isfinite(self.epsilon) or self.epsilon <= 0:
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon!r}")
        if self.spin_cap is not None and self.spin_cap < self.k:
            raise ValueError("spin_cap must be >= k")

    @property
    def effective_spin_cap(self) -> int:
        return 50 * max(self.k, 1) if self.spin_cap is None else self.spin_cap


@dataclass(frozen=True)
class RouletteWheel:
    seed_indices: np.ndarray   # minority indices, in minority order
    distances: np.ndarray      # summed L1 distance to the majority class
    fitness: np.ndarray        # 1 / max(distance, epsilon)
    probabilities: np.ndarray
    cumulative: np.ndarray     # non-decreasing, last element ~ 1

    def __post_init__(self):
        # written so that NaN fails every check
        if not abs(float(self.probabilities.sum()) - 1.0) <= 1e-9:
            raise ValueError("selection probabilities must sum to 1")
        if (not np.all(np.diff(self.cumulative) >= 0)
                or not abs(float(self.cumulative[-1]) - 1.0) <= 1e-9):
            raise ValueError("cumulative probabilities must be sorted and end at 1")


@dataclass
class SyntheticSample:
    x: np.ndarray
    seed_index: int
    neighbor_index: int
    alpha: float
    seed_x: np.ndarray
    dist_min: float = math.nan   # Euclidean distance to own seed
    dist_maj: float = math.nan   # min Euclidean distance to the majority class
    entropy: float = math.nan    # filled by the noise filter

    def to_json(self) -> dict:
        return {
            "x": [float(v) for v in self.x],
            "seed_index": int(self.seed_index),
            "neighbor_index": int(self.neighbor_index),
            "alpha": float(self.alpha),
            "dist_min": float(self.dist_min),
            "dist_maj": float(self.dist_maj),
            "entropy": float(self.entropy),
        }


def _entropy_keep(model, majority: Dataset, k: int) -> np.ndarray:
    """Sorted positions of the majority rows left after removing the k
    lowest-entropy rows; ties remove the lower position first."""
    ent = entropy_batch(posterior_batch(model, majority.X))
    order = np.argsort(ent, kind="stable")          # ascending; stable => lower index first
    return np.sort(order[k:])


def majority_class_pruning(majority: Dataset, pool: Dataset, k: int) -> Dataset:
    """Remove the k lowest-entropy majority samples.

    The entropy model is fit on `pool` (both classes); ties break toward
    removing the lower index first.
    """
    if k >= len(majority):
        raise ValueError(f"k={k} must be smaller than the majority size {len(majority)}")
    if k == 0:
        return majority
    return majority.subset(_entropy_keep(fit_gnb(pool), majority, k))


def build_roulette(minority: Dataset, majority: Dataset, epsilon: float = 1e-12) -> RouletteWheel:
    """Fitness-proportionate wheel over minority samples.

    Fitness is the reciprocal of the summed Manhattan distance to all
    majority samples, so minority points near the majority distribution (the
    overlap region) are more likely to seed synthetics.
    """
    if len(minority) == 0 or len(majority) == 0:
        raise ValueError("both classes must be non-empty")
    rows = max(1, _BLOCK // len(majority))
    M = np.concatenate([_cityblock(minority.X[lo:lo + rows], majority.X).sum(axis=1)
                        for lo in range(0, len(minority), rows)])
    fitness = 1.0 / np.maximum(M, epsilon)
    probabilities = fitness / fitness.sum()
    cumulative = np.cumsum(probabilities)
    cumulative[-1] = 1.0  # kill accumulated round-off at the top bucket
    return RouletteWheel(
        seed_indices=np.arange(len(minority)),
        distances=M,
        fitness=fitness,
        probabilities=probabilities,
        cumulative=cumulative,
    )


def _cityblock(X, Y) -> np.ndarray:
    """L1 distances: entry (i, j) adds |X[i, f] - Y[j, f]| over the features
    f in order, starting from 0, as scipy's cdist(X, Y, "cityblock") does."""
    out = np.zeros((len(X), len(Y)))
    with np.errstate(over="ignore", invalid="ignore"):   # inf and NaN flow into the sums
        for f in range(X.shape[1]):
            t = np.subtract.outer(X[:, f], Y[:, f])
            out += np.abs(t, out=t)
    return out


def spin(wheel: RouletteWheel, n_draws: int, rng: RandomSource) -> np.ndarray:
    """Draw n seed indices with repetition; r in bucket [q_{i-1}, q_i) selects i."""
    if n_draws == 0:
        return np.empty(0, dtype=int)
    return _select(wheel, np.atleast_1d(rng.uniform(size=n_draws)))


def _select(wheel: RouletteWheel, r):
    """The seed indices the uniforms r select on `wheel`."""
    idx = np.searchsorted(wheel.cumulative, r, side="right")
    return wheel.seed_indices[np.minimum(idx, len(wheel.seed_indices) - 1)]


_U = 2.0 ** -53   # unit roundoff of a double


def _roulette_sums(X, Y):
    """(sums, bounds): per row of X, its summed L1 distance to the rows of Y,
    from sorted centred columns of Y and their prefix sums, and a bound on
    its distance from build_roulette's _cityblock sum.

    Each column of Y is sorted and centred on its middle element c. A row's
    centred value a splits the column at p = searchsorted(z, a, "right"),
    so its summed distance is (p a - H) + ((T - H) - (n - p) a), with H the
    prefix sum of the p values z below the split and T the column total.
    """
    n, d = Y.shape
    Z = np.sort(Y, axis=0)
    c = Z[n // 2].copy()
    Z -= c                      # t -> fl(t - c) is monotone: columns stay sorted
    A = X - c
    P = np.zeros((n + 1, d))
    np.cumsum(Z, axis=0, out=P[1:])
    sums = np.zeros(len(X))
    with np.errstate(invalid="ignore", over="ignore"):   # non-finite sums fall back
        for j in range(d):
            a = A[:, j]
            p = np.searchsorted(Z[:, j], a, side="right")
            H = P[p, j]
            sums += (p * a - H) + ((P[n, j] - H) - (n - p) * a)
        W = n * np.abs(A).sum(axis=1) + np.abs(Z).sum()
    # Error bound, with u = 2^-53 and gamma_q = q u / (1 - q u), against the
    # exact sum D = sum_j sum_i |x_j - y_ij|. Writing w_j = n |a_j| +
    # sum_i |z_ij| for column j and W = sum_j w_j:
    # - centring: a = (x - c)(1 + t) and z = (y - c)(1 + t') with |t|, |t'| <= u,
    #   so sum |a - z| is within u/(1 - u) W of sum |x - y| (a sum or
    #   difference of doubles landing below 2^-1022 is exact, so these
    #   relative errors hold there too);
    # - one column: H and T come from sequential sums, each within
    #   gamma_{n-1} sum_i |z_i| of its exact value, and enter three times; the
    #   six remaining operations each round a result of size at most 2 w_j.
    #   So the column term is within gamma_{3n+9} w_j of sum_i |a - z_i|;
    # - the d column terms, each at most w_j (1 + gamma), add within
    #   gamma_{d-1} W (1 + gamma);
    # - build_roulette's _cityblock value of one pair rounds d subtractions and
    #   d - 1 additions, and its row sum adds n non-negative values in some
    #   order: within gamma_{n+d} D of D, and D <= W / (1 - u).
    # The sum of these is below gamma_{4n+2d+10} W. The bound doubles that
    # multiple, which covers the rounding of W and of the bound itself; the
    # absolute term covers bounds that underflow.
    bounds = (8 * n + 4 * d + 32) * _U * W + 1e-300
    return sums, bounds


def _certified_cumulative(X, Y, epsilon: float):
    """(cumulative, delta): a wheel's cumulative probabilities from the fast
    sums of _roulette_sums, and a delta such that every entry lies within
    delta of build_roulette(...).cumulative for the same rows. None when
    the bounds cannot certify that: a sum or bound is not finite, a row's
    sum minus its bound is at most 2 epsilon (the epsilon clamp could act
    on either side) or a sum is so large that fitness could underflow.
    """
    if len(X) == 0 or len(Y) == 0:
        return None             # build_roulette raises
    sums, bounds = _roulette_sums(X, Y)
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = float(np.max(bounds / (sums - bounds)))
    if not (np.all(np.isfinite(sums)) and np.all(np.isfinite(bounds))
            and np.min(sums - bounds) > 2 * epsilon
            and np.max(sums + bounds) <= 2.0 ** 1000 and rho <= 2.0 ** -10):
        return None
    # Every row has M - b > 2 epsilon for the fast sum M and its bound b, so
    # build_roulette's sum M' (within b of M) is above epsilon too and both
    # fitnesses are plain reciprocals. |M'/M - 1| <= b / (M - b) <= rho,
    # so after rounding each reciprocal the exact fitness is the fast one
    # times (1 + t) with |t| <= tau = rho + 3u (rho <= 2^-10). Scaling each
    # fitness by 1 + t moves a cumulative share c = A / (A + B) by at most
    # 2 tau c (1 - c) / (1 - tau) <= tau. Each path then rounds its total
    # (gamma_{m-1}), each quotient (u, or 2^-1075 below 2^-1022) and its
    # cumulative sum (gamma_m, all terms positive and summing to 1), so
    # each entry is within gamma_{2m+2} + m 2^-1074 of the rounding-free
    # share; the last entry is set to 1, its exact value. delta doubles
    # tau and the rounding terms, which also covers rounding r +- delta
    # when a spin is checked against it.
    fitness = 1.0 / sums
    cumulative = np.cumsum(fitness / fitness.sum())
    cumulative[-1] = 1.0
    return cumulative, 2.0 * (rho + 3 * _U) + (8 * len(sums) + 16) * _U


def _roulette_seeds(minority: Dataset, majority: Dataset, epsilon: float):
    """A map from an array of uniforms r to the seeds
    spin(build_roulette(minority, majority, epsilon), ...) selects for them.

    The uniforms are located on the certified fast wheel. Those within delta
    of a fast edge, where the exact wheel's edge might fall on the other
    side, are answered by the exact wheel, built at most once however often
    the map is called. When the fast wheel is not certified, the exact wheel
    answers every uniform.
    """
    fast = _certified_cumulative(minority.X, majority.X, epsilon)
    if fast is None:
        wheel = build_roulette(minority, majority, epsilon)
        return lambda r: _select(wheel, r)
    cumulative, delta = fast
    wheel = None

    def seeds(r):
        nonlocal wheel
        i = np.searchsorted(cumulative, r, side="right")   # < m: the last entry is 1 > r
        near = (((i > 0) & (cumulative[i - 1] > r - delta))
                | (cumulative[i] <= r + delta))
        if near.any():
            if wheel is None:
                wheel = build_roulette(minority, majority, epsilon)
            i[near] = _select(wheel, r[near])
        return i
    return seeds


def nearest_rows(Q, P, k: int, exclude=None) -> np.ndarray:
    """Positions of the k rows of Q nearest to each row of P, nearest first.

    Row i is ``np.argsort(np.linalg.norm(Q - P[i], axis=1), kind="stable")``
    without position ``exclude[i]`` (when `exclude` is given), cut to its
    first k entries; k is capped at the positions available.
    """
    return _nearest(Q, P, k, exclude)[0]


def _nearest(Q, P, k: int, exclude=None):
    """(positions, distances): nearest_rows(Q, P, k, exclude) and, entry for
    entry, np.linalg.norm(Q[position] - P[i], axis=1).

    Each block of P rows is screened with |q|^2 - 2 p.q, the squared
    distance less the row's constant |p|^2, from one matrix product. The
    rows within the screen's slack of the k-th smallest screened value are
    then recomputed with the np.linalg.norm arithmetic above and stably
    sorted, so distances, ties and their lower-position-first order are
    those of the full scan.
    """
    Q = np.asarray(Q, dtype=float)
    P = np.atleast_2d(np.asarray(P, dtype=float))
    k = min(k, len(Q) - (exclude is not None))
    out = np.empty((len(P), max(k, 0)), dtype=np.intp)
    dist = np.empty(out.shape)
    if k <= 0:
        return out, dist
    sq_q = np.einsum("ij,ij->i", Q, Q)
    sq_q_max = sq_q.max()
    Qt = -2.0 * Q.T
    rows = max(1, _BLOCK // len(Q))
    for lo in range(0, len(P), rows):
        B = P[lo:lo + rows]
        r = np.arange(len(B))
        sq_p = np.einsum("ij,ij->i", B, B)
        with np.errstate(over="ignore", invalid="ignore"):   # overflow falls back below
            s = B @ Qt
            s += sq_q
            if exclude is not None:
                ex = np.asarray(exclude[lo:lo + rows])
                s[r, ex] = np.inf
            kth = s.min(axis=1) if k == 1 else np.partition(s, k - 1, axis=1)[:, k - 1]
            # A screened value differs from the exact |q|^2 - 2 p.q, and the
            # square of the distance np.linalg.norm returns from the exact
            # |p - q|^2, each by at most about (2d + 7) * 2^-53 * (|p|^2 + |q|^2),
            # plus a few multiples of d subnormal units (2^-1074) where squares
            # underflow. Within a row the two differ by the constant |p|^2, so
            # every row of the exact top k screens at most twice that above the
            # k-th screened value, which the slack below exceeds for any d up
            # to about 10^6. Where |p|^2, some |q|^2, the bound or the bound
            # plus |p|^2 (about the k-th squared distance) is not finite, the
            # row takes the full exact scan: squares overflow near 1e154.
            bound = kth + (1e-9 * (sq_p + sq_q_max) + 1e-300)
            full = ~np.isfinite(bound + sq_p)
        keep = s <= bound[:, None]
        keep[full] = True
        if exclude is not None:
            keep[r, ex] = False
        i, j = np.nonzero(keep)              # j ascends within each row
        d = np.linalg.norm(Q[j] - B[i], axis=1)
        order = np.lexsort((d, i))           # stable: equal distances keep position order
        counts = np.bincount(i, minlength=len(B))
        at = order[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
        out[lo:lo + rows], dist[lo:lo + rows] = j[at], d[at]
    return out, dist


class _NeighbourLists:
    """Exact nearest_rows(P, Q, k) answers for fixed query rows Q while the
    pool P changes only by deleting rows and appending rows.

    Each pool row carries an integer key: keys rise with position, a row
    keeps its key while it stays in the pool, and appended rows get keys
    above every earlier one. Then ordering a query's pool rows by (distance,
    key) is nearest_rows' (distance, position) order, with the same
    np.linalg.norm distances. A query keeps the head of that order, up to
    2k entries, and its bound: the 2k-th distance the last time the list
    held 2k entries (inf before). A deletion leaves the list a head of the
    order. An appended row, whose key is larger than any the list ranked
    against, belongs in it only if strictly nearer than the bound. Queries
    left with fewer than k entries are searched again; so is everything
    when the pool is not the previous one minus some rows plus a tail of
    larger keys.
    """

    def __init__(self, Q):
        self.Q = np.atleast_2d(np.asarray(Q, dtype=float))
        self.keys = None   # pool keys at the last update; None: nothing kept

    def nearest(self, P, keys, k: int) -> np.ndarray:
        """nearest_rows(P, self.Q, k) for the pool P whose rows carry the
        non-negative `keys`; keys that are None or not rising search in full
        and keep nothing. P is kept to check the next pool against, so it
        must not be modified in place."""
        P = np.asarray(P, dtype=float)
        if keys is None or min(k, len(P)) < 1 or np.any(np.diff(keys) <= 0):
            self.keys = None
            return nearest_rows(P, self.Q, k)
        keys, prev = np.asarray(keys), self.keys
        reusable = prev is not None and k <= self.depth
        if reusable:   # the kept keys must still name the rows they named before
            tail = np.searchsorted(keys, prev[-1], side="right")
            at = np.searchsorted(prev, keys[:tail])
            reusable = (np.array_equal(prev[at], keys[:tail])
                        and np.array_equal(self.P[at], P[:tail]))
        if reusable:
            self._update(P, keys, tail)
            self._fill(P, keys, np.flatnonzero(self.count < min(k, len(P))))
        else:
            # per query: neighbour keys and distances in order, padded with
            # -1 and inf; the entry count; the bound
            self.depth = 2 * k
            self.nb_k = np.full((len(self.Q), self.depth), -1, dtype=keys.dtype)
            self.nb_d = np.full((len(self.Q), self.depth), np.inf)
            self.count = np.zeros(len(self.Q), dtype=np.intp)
            self.bound = np.full(len(self.Q), np.inf)
            self._fill(P, keys, np.arange(len(self.Q)))
        self.keys, self.P = keys, P
        return _position(keys, keys[-1])[self.nb_k[:, :min(k, len(P))]]

    def _fill(self, P, keys, rows):
        """Search the lists of query rows `rows` in full."""
        if len(rows) == 0:
            return
        nn, d = _nearest(P, self.Q[rows], self.depth)
        n = nn.shape[1]
        self.nb_k[rows] = -1
        self.nb_d[rows] = np.inf
        self.nb_k[rows, :n] = keys[nn]
        self.nb_d[rows, :n] = d
        self.count[rows] = n
        self.bound[rows] = self.nb_d[rows, -1]   # inf while the pool is smaller than the list

    def _update(self, P, keys, tail):
        """Drop the deleted rows from every list, then merge in the rows
        appended at positions tail.. that are strictly nearer than the bound."""
        D, n_app = self.depth, len(P) - tail
        alive = _position(keys, max(keys[-1], self.keys[-1]))[self.nb_k] >= 0
        d_app = _pair_distances(P, self.Q, np.tile(np.arange(tail, len(P)), len(self.Q)),
                                np.repeat(np.arange(len(self.Q)), n_app)
                                ).reshape(len(self.Q), n_app)
        admit = d_app < self.bound[:, None]
        n_alive = alive.sum(axis=1)
        rows = np.flatnonzero((n_alive < self.count) | admit.any(axis=1))
        if len(rows) == 0:
            return
        # NaN sorts after every distance, inf included; a stable sort keeps
        # equal distances in key order: the list's entries, then the appended rows
        d = np.concatenate([np.where(alive[rows], self.nb_d[rows], np.nan),
                            np.where(admit[rows], d_app[rows], np.nan)], axis=1)
        key = np.concatenate([self.nb_k[rows],
                              np.broadcast_to(keys[tail:], (len(rows), n_app))], axis=1)
        order = np.argsort(d, axis=1, kind="stable")[:, :D]
        count = np.minimum(n_alive[rows] + admit[rows].sum(axis=1), D)
        empty = np.arange(D) >= count[:, None]
        self.nb_d[rows] = np.where(empty, np.inf, np.take_along_axis(d, order, axis=1))
        self.nb_k[rows] = np.where(empty, -1, np.take_along_axis(key, order, axis=1))
        self.count[rows] = count
        full = rows[count == D]   # a list of all 2k entries is a fresh fill
        self.bound[full] = self.nb_d[full, -1]


def _position(keys, top):
    """Pool position by key for keys up to `top`; -1 for a key not in the
    pool and for the padding key -1."""
    position = np.full(top + 2, -1, dtype=np.intp)
    position[keys] = np.arange(len(keys))
    return position


def _pair_distances(P, Q, j, i) -> np.ndarray:
    """np.linalg.norm(P[j] - Q[i], axis=1), the distance form of _nearest,
    _BLOCK pairs at a time."""
    out = np.empty(len(j))
    for lo in range(0, len(j), _BLOCK):
        s = slice(lo, lo + _BLOCK)
        out[s] = np.linalg.norm(P[j[s]] - Q[i[s]], axis=1)
    return out


def smote_points(X, n: int, k_neighbors: int, rng: RandomSource, seeds=None):
    """n SMOTE points from the rows of X: row i is X[s] + alpha * (X[nb] - X[s]),
    where nb is a uniformly drawn one of the min(k_neighbors, len(X) - 1)
    nearest other rows of X to X[s]. Per point the draws are, in order, the
    seed position s, the neighbor slot and alpha ~ U[0, 1); all n rounds
    come from one rng.rounds call. `seeds` holds the n seed positions (no
    seed draw), or is None to draw each s uniformly from the rows of X, or
    a function mapping an array of uniform() draws to seed positions.

    Returns (points, seeds, neighbor positions, alphas).
    """
    n_slots = min(k_neighbors, len(X) - 1)
    if seeds is None or callable(seeds):
        draws = rng.rounds([len(X) if seeds is None else None, n_slots, None], n)
        first, draws = draws[:, 0], draws[:, 1:]
        seeds = first if seeds is None else seeds(first)
    else:
        draws = rng.rounds([n_slots, None], n)
    return _interpolate(X, np.asarray(seeds).astype(np.intp), draws[:, 0].astype(np.intp),
                        draws[:, 1])


def _interpolate(X, seeds, slots, alphas):
    """smote_points' result for the drawn seed positions, neighbor slots and alphas."""
    unique, inverse = np.unique(seeds, return_inverse=True)
    nb = nearest_rows(X, X[unique], int(slots.max(initial=-1)) + 1, exclude=unique)[inverse, slots]
    S = X[seeds]
    return S + alphas[:, None] * (X[nb] - S), seeds, nb, alphas


def smote_interpolate(seed, minority: Dataset, seed_index: int, k_neighbors: int,
                      rng: RandomSource) -> SyntheticSample:
    """Linear interpolation between a minority seed and one of its minority
    nearest neighbors: x = seed + alpha * (neighbor - seed), alpha ~ U[0,1).
    `seed` must be row `seed_index` of the minority set. The neighbor slot
    and alpha are drawn as smote_points draws them."""
    if len(minority) < 2:
        raise ValueError("need at least 2 minority samples to interpolate")
    seed_x = minority.X[seed_index]
    if not np.array_equal(np.asarray(seed, dtype=float), seed_x):
        raise ValueError(f"seed is not minority row {seed_index}")
    slot = rng.integers(0, min(k_neighbors, len(minority) - 1))
    alpha = float(rng.uniform())
    x, _, nb, _ = _interpolate(minority.X, np.array([seed_index], dtype=np.intp),
                               np.array([slot], dtype=np.intp), np.array([alpha]))
    return SyntheticSample(x=x[0], seed_index=int(seed_index), neighbor_index=int(nb[0]),
                           alpha=alpha, seed_x=seed_x)


def _accept(C, S, M):
    """(dist_min, dist_maj, accepted) for candidate rows C with seed rows S
    against majority rows M: the regularization test dist_min <= dist_maj."""
    dist_maj = _nearest(M, C, 1)[1][:, 0]
    # per row, the arithmetic of the 1-D np.linalg.norm, sqrt(v.dot(v)): it
    # can differ in the last bit from the 2-D form's
    dist_min = np.sqrt([v.dot(v) for v in C - S])
    return dist_min, dist_maj, dist_min <= dist_maj


def regularization_accept(candidate: SyntheticSample, majority: Dataset) -> bool:
    """Keep a synthetic only if it sits at least as close to its own seed as
    to the nearest majority sample. Both distances are stored on the
    candidate for auditing.
    """
    if len(majority) == 0:
        raise ValueError("majority must be non-empty")
    dist_min, dist_maj, ok = _accept(np.atleast_2d(candidate.x), [candidate.seed_x], majority.X)
    candidate.dist_min, candidate.dist_maj = float(dist_min[0]), float(dist_maj[0])
    return bool(ok[0])


def _top_entropy(model, X, k: int):
    """(order, entropies): the positions of the min(k, n) highest-entropy
    rows of X under `model` in descending entropy order, ties keeping the
    lower position first, and every row's entropy."""
    ent = entropy_batch(posterior_batch(model, X))
    return np.argsort(-ent, kind="stable")[: min(k, len(X))], ent


def _entropy_filter(model, candidates, k: int):
    """The min(k, n) highest-entropy candidates under `model`, each carrying
    its entropy, in descending entropy order; ties keep the lower index first."""
    order, ent = _top_entropy(model, np.vstack([c.x for c in candidates]), k)
    for c, h in zip(candidates, ent):
        c.entropy = float(h)
    return [candidates[i] for i in order]


def noise_filter(candidates, pool: Dataset, k: int):
    """Keep the min(k, n) highest-entropy candidates under a model fit on pool.

    Returned samples carry their entropy and come back in descending entropy
    order; ties keep the lower candidate index first.
    """
    if len(candidates) == 0:
        raise ValueError("no candidates to filter")
    return _entropy_filter(fit_gnb(pool), candidates, k)


def _oversample(majority: Dataset, minority: Dataset, cfg: PruningConfig, model,
                rng: RandomSource, stats: dict | None):
    """The synthetics minority_class_pruning adds, noise-filtered under `model`."""
    seeds_of = _roulette_seeds(minority, majority, cfg.epsilon)
    target = math.ceil(cfg.candidate_multiplier * cfg.k)
    cap = cfg.effective_spin_cap
    X = minority.X
    chunks = []   # per chunk, the accepted rows of its candidate arrays
    accepted = spins = 0
    while accepted < target and spins < cap:
        # Each spin accepts at most one candidate, so spinning one at a time
        # would make every spin of this chunk too.
        n = min(target - accepted, cap - spins)
        spins += n
        C, seeds, nb, alphas = smote_points(X, n, cfg.k_neighbors, rng, seeds_of)
        dist_min, dist_maj, ok = _accept(C, X[seeds], majority.X)
        chunks.append([a[ok] for a in (C, seeds, nb, alphas, dist_min, dist_maj)])
        accepted += int(ok.sum())
    retained = []
    if accepted:
        C, seeds, nb, alphas, dist_min, dist_maj = (np.concatenate(a) for a in zip(*chunks))
        order, ent = _top_entropy(model, C, cfg.k)
        retained = [SyntheticSample(x=C[i], seed_index=int(seeds[i]), neighbor_index=int(nb[i]),
                                    alpha=float(alphas[i]), seed_x=X[seeds[i]],
                                    dist_min=float(dist_min[i]), dist_maj=float(dist_maj[i]),
                                    entropy=float(ent[i]))
                    for i in order]
    if stats is not None:
        stats.update(spins=spins, accepted=accepted, retained=len(retained))
        if retained:
            stats["synthetics"] = [c.to_json() for c in retained]
    return retained


def _with_synthetics(minority: Dataset, retained) -> Dataset:
    if not retained:
        return minority
    syn = Dataset(np.vstack([c.x for c in retained]),
                  np.full(len(retained), POSITIVE),
                  feature_names=minority.feature_names,
                  source_tag=minority.source_tag)
    return minority.concat(syn)


def minority_class_pruning(majority: Dataset, minority: Dataset, cfg: PruningConfig,
                           rng: RandomSource, stats: dict | None = None) -> Dataset:
    """Grow the minority class by up to cfg.k filtered synthetic samples.

    Accepted candidates are gathered (up to ceil(candidate_multiplier * k),
    bounded by spin_cap roulette spins), then the entropy noise filter keeps
    the top k. If the acceptance region is tiny the result may gain fewer
    than k samples; the caller sees the actual count.
    """
    if len(minority) < 2:
        raise ValueError("need at least 2 minority samples")
    if len(majority) == 0:
        raise ValueError("majority must be non-empty")
    model = fit_gnb(majority.concat(minority))
    return _with_synthetics(minority, _oversample(majority, minority, cfg, model, rng, stats))


def pruning_step(majority: Dataset, minority: Dataset, cfg: PruningConfig,
                 rng: RandomSource, stats: dict | None = None):
    """One double-pruning step. A single naive Bayes model, fit on
    majority ∪ minority, scores both the majority rows and the candidates.

    Returns (keep, retained): the sorted positions of the majority rows kept
    (all but the cfg.k lowest-entropy ones) and the retained synthetics
    (at most cfg.k, in descending entropy order). With k = 0 the candidate
    target is 0, so nothing is removed or added.
    """
    if cfg.k >= len(majority):
        raise ValueError(f"k={cfg.k} must be smaller than the majority size {len(majority)}")
    if len(minority) < 2:
        raise ValueError("need at least 2 minority samples")
    model = fit_gnb(majority.concat(minority))
    keep = _entropy_keep(model, majority, cfg.k)
    return keep, _oversample(majority, minority, cfg, model, rng, stats)


def double_pruning(majority: Dataset, minority: Dataset, cfg: PruningConfig,
                   rng: RandomSource, stats: dict | None = None):
    """One balancing step: prune k majority samples, add up to k synthetics.

    Returns (new_majority, new_minority); inputs are never mutated.
    """
    keep, retained = pruning_step(majority, minority, cfg, rng, stats=stats)
    return majority.subset(keep), _with_synthetics(minority, retained)
