"""Double-pruning resampling engine.

The balancing step, double_pruning, fits one naive Bayes model on the
current pool and runs:

* majority_class_pruning — drop the k lowest-entropy majority samples
  under that model;
* minority_class_pruning — roulette-wheel seed selection where a minority
  sample's fitness is the reciprocal of its summed L1 distance to the
  majority class (one wheel per round, its sums taken from sorted majority
  columns and their prefix sums), SMOTE-style interpolation toward a
  minority neighbor, a regularization acceptance test (the synthetic must
  be at least as close to its seed as to the nearest majority sample), and
  an entropy noise filter that keeps only the k most class-ambiguous
  candidates.

All tie-breaks are "lower index first" so results are deterministic for a
given RandomSource.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import NEGATIVE, POSITIVE, RandomSource, _integer
from .entropy import entropy_batch, fit_gnb, posterior_batch

_BLOCK = 1 << 14            # distance-matrix entries computed at a time
_FEW_BLOCK = 1 << 16        # the same, for _nearest_few
_FEW_MIN = 1 << 13          # entries below which _nearest_few calls _nearest
_CANDIDATES_PER_SYNTHETIC = 2   # accepted candidates gathered per retained synthetic
_SPINS_PER_SYNTHETIC = 50       # roulette spin cap per retained synthetic
_MIN_DISTANCE = 1e-12           # guard for zero roulette distances


@dataclass(frozen=True)
class RouletteWheel:
    distances: np.ndarray      # summed L1 distance to the majority class, per minority row
    fitness: np.ndarray        # 1 / max(distance, _MIN_DISTANCE)
    probabilities: np.ndarray
    cumulative: np.ndarray     # non-decreasing, last element ~ 1

    def __post_init__(self):
        # written so that NaN fails every check
        if not abs(float(self.probabilities.sum()) - 1.0) <= 1e-9:
            raise ValueError("selection probabilities must sum to 1")
        if (not np.all(np.diff(self.cumulative) >= 0)
                or not abs(float(self.cumulative[-1]) - 1.0) <= 1e-9):
            raise ValueError("cumulative probabilities must be sorted and end at 1")


def majority_class_pruning(majority, model, k: int) -> np.ndarray:
    """Sorted positions of the majority rows left after removing the k
    lowest-entropy rows under `model`; ties remove the lower position first.
    The pruned rows are majority[keep]."""
    if not _integer(k) or not 0 <= k < len(majority):
        raise ValueError(f"k must be an integer >= 0 and below the majority size "
                         f"{len(majority)}, got {k!r}")
    ent = entropy_batch(posterior_batch(model, majority))
    order = np.argsort(ent, kind="stable")          # ascending; stable => lower index first
    return np.sort(order[k:])


def build_roulette(minority, majority) -> RouletteWheel:
    """Fitness-proportionate wheel over the minority rows.

    Fitness is the reciprocal of the summed Manhattan distance to all
    majority samples, so minority points near the majority distribution (the
    overlap region) are more likely to seed synthetics.

    The sums come from each majority column sorted and centred on its middle
    element c, and its prefix sums, with no minority x majority matrix. A
    row's centred value a splits the column z at p = searchsorted(z, a,
    "right"), so its summed distance to the column is (p a - H) + ((T - H)
    - (n - p) a), with H the sum of the p values below the split and T the
    column total. This arithmetic defines the wheel; each sum is within
    (8n + 4d + 32) 2^-53 W of scipy's cdist(X, Y, "cityblock").sum(axis=1),
    where W = n sum_j |a_j| + sum_ij |z_ij|. Sums that overflow raise
    ValueError.

    The columns are sorted and summed as the rows of a (d, n) transpose, and
    each column's minority values are searched in ascending order, which
    lets each search start where the last one ended; a split p does not
    depend on that order, and the column terms are added in column order,
    so the wheel is the same bits. The cost is O((n log n + m log m) d) time
    for m minority rows, and O((n + m) d) memory.
    """
    if len(minority) == 0 or len(majority) == 0:
        raise ValueError("both classes must be non-empty")
    n, d = majority.shape
    Z = majority.T.copy()       # (d, n), C order: one row per column
    Z.sort(axis=1)
    c = Z[:, n // 2].copy()
    Z -= c[:, None]             # t -> fl(t - c) is monotone: rows stay sorted
    A = minority.T.copy()
    A -= c[:, None]
    order = np.argsort(A, axis=1)             # each row's keys searched in order
    p = np.empty(A.shape, dtype=np.intp)
    P = np.zeros((d, n + 1))
    M = np.zeros(len(minority))
    with np.errstate(over="ignore", invalid="ignore"):   # checked below
        np.cumsum(Z, axis=1, out=P[:, 1:])
        for j in range(d):
            p[j, order[j]] = np.searchsorted(Z[j], A[j, order[j]], side="right")
        H = np.take_along_axis(P, p, axis=1)
        T = (p * A - H) + ((P[:, n:] - H) - (n - p) * A)
        for t in T:     # column by column, as the definition adds them; a sum
            M += t      # over axis 0 of one minority row can pair them up
    if not np.all(np.isfinite(M)):
        raise ValueError("the summed L1 distances from the minority to the majority "
                         "rows overflowed; rescale the features")
    fitness = 1.0 / np.maximum(M, _MIN_DISTANCE)
    probabilities = fitness / fitness.sum()
    # the running sum can round above 1 before the top bucket: clip, then
    # kill the round-off at the top bucket
    cumulative = np.minimum(np.cumsum(probabilities), 1.0)
    cumulative[-1] = 1.0
    return RouletteWheel(distances=M, fitness=fitness, probabilities=probabilities,
                         cumulative=cumulative)


def _select(wheel: RouletteWheel, r):
    """The seed indices the uniforms r select on `wheel`."""
    idx = np.searchsorted(wheel.cumulative, r, side="right")
    return np.minimum(idx, len(wheel.cumulative) - 1)


def nearest_rows(Q, P, k: int, exclude=None) -> np.ndarray:
    """Positions of the k rows of Q nearest to each row of P, nearest first.

    Row i is ``np.argsort(np.linalg.norm(Q - P[i], axis=1), kind="stable")``
    without position ``exclude[i]`` (when `exclude` is given), cut to its
    first k entries; k is capped at the positions available.
    """
    return _nearest(Q, P, k, exclude)[0]


def _screen_bound(kth, sq_p, sq_q_max, b2=0.0):
    """(bound, full) for screened values s = |q|^2 - 2 p.q, the squared
    distance from row p to column q less the row's constant |p|^2: every
    pair a caller needs has s <= bound, except in the rows marked full,
    which keep every pair. For the top k, kth is each row's k-th smallest
    screened value, and the columns of the exact top k are needed. For
    admission, kth is b2 - |p|^2 for a distance bound b with b2 = b * b,
    the slack's scale adds b2, and the columns whose np.linalg.norm
    distance is strictly below b are needed. So in a row whose (k + 1)-th
    smallest value is above the bound, the k smallest are the exact top k
    (_nearest_few), and any other row keeps the pairs within the bound.

    A screened value, whether the product's d terms get |q|^2 added after
    or take it as a (d + 1)-th term, is within about (3d + 2) * 2^-53 *
    (|p|^2 + |q|^2) of the exact |q|^2 - 2 p.q, and the square of the
    np.linalg.norm distance within (2d + 8) * 2^-53 * (|p|^2 + |q|^2) of
    |p - q|^2; each gains a few multiples of d subnormal units (2^-1074)
    where squares underflow. So a column of the exact top k screens at most
    (10d + 20) * 2^-53 * (|p|^2 + max |q|^2) above the k-th value. A norm
    below b has |p - q|^2 < b^2 * (1 + (d + 5) * 2^-53); with b2 within
    2^-53 of b^2 and the limit's two roundings, its screened value is at
    most b2 - |p|^2 plus (3d + 10) * 2^-53 * (|p|^2 + |q|^2 + b2). The
    slack below exceeds both for any d up to about 9 * 10^5. Where |p|^2,
    some |q|^2, b2, the bound or the bound plus |p|^2 is not finite, the
    row is full: squares overflow near 1e154. _nearest_few also marks full
    a row with a NaN or infinite value among those below its k-th. Call it
    with overflow and invalid-value warnings off.
    """
    bound = kth + (1e-9 * (sq_p + sq_q_max + b2) + 1e-300)
    return bound, ~np.isfinite(bound + sq_p)


def _kept_pairs(s, bound, full, R, C):
    """(i, j, d) for the screened values s of the rows R against the
    columns C: the pairs with s <= bound in their row, and every pair of the
    rows marked full, with i ascending and j ascending within a row, and
    each pair's exact distance np.linalg.norm(C[j] - R[i], axis=1)."""
    keep = s <= bound[:, None]
    keep[full] = True
    i, j = np.nonzero(keep)
    return i, j, np.linalg.norm(C[j] - R[i], axis=1)


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
            bound, full = _screen_bound(kth, sq_p, sq_q_max)
        i, j, d = _kept_pairs(s, bound, full, B, Q)
        if exclude is not None:   # an excluded pair is kept only in a full row
            mine = j != ex[i]
            i, j, d = i[mine], j[mine], d[mine]
        order = np.lexsort((d, i))           # stable: equal distances keep position order
        counts = np.bincount(i, minlength=len(B))
        at = order[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
        out[lo:lo + rows], dist[lo:lo + rows] = j[at], d[at]
    return out, dist


def _nearest_few(Q, P, k: int, exclude=None):
    """_nearest(Q, P, k, exclude), bit for bit, for a few neighbours k.

    In blocks of _FEW_BLOCK entries, one matrix product of the block with a
    ones column appended and -2 Q^T with |q|^2 appended as a row gives the
    screened values |q|^2 - 2 p.q, the excluded column set to +inf. k argmin
    passes take each row's k least values, in order, setting each to +inf
    once taken; a last pass takes the row's runner-up, its (k + 1)-th least
    value, and _screen_bound the bound from the k-th. A row whose runner-up
    is above the bound has exactly those k columns within it: they are its
    answer, with their np.linalg.norm distances, ordered by (distance,
    position). The other rows (near ties, duplicates, and the rows marked
    full, by the bound or by a NaN or infinite value among the k taken) get
    the k values back and take _kept_pairs as _nearest does. A search of
    fewer than _FEW_MIN pairs is _nearest's: the passes' fixed cost would
    exceed what they save.
    """
    Q = np.asarray(Q, dtype=float)
    P = np.atleast_2d(np.asarray(P, dtype=float))
    (n, d), m = Q.shape, len(P)
    if m * n < _FEW_MIN:
        return _nearest(Q, P, k, exclude)
    k = max(min(k, n - (exclude is not None)), 0)
    if k == 0:
        return np.empty((m, 0), dtype=np.intp), np.empty((m, 0))
    right = np.empty((d + 1, n))
    np.multiply(Q.T, -2.0, out=right[:d])
    np.einsum("ij,ij->i", Q, Q, out=right[d])
    sq_q_max = right[d].max()
    left = np.ones((m, d + 1))
    left[:, :d] = P
    sq_p = np.einsum("ij,ij->i", P, P)
    rows = max(1, _FEW_BLOCK // n)
    at = np.arange(0, min(rows, m) * n, n)   # the flat offset of each block row
    F = np.empty((k, m), dtype=np.intp)      # flat offsets of each row's k least, in order
    V = np.empty((k + 1, m))                 # their values, then the runner-up's
    # every block's product goes into one buffer: a fresh block-sized
    # array has its pages faulted in again on each block
    buf = np.empty((min(rows, m), n))
    ties = []
    with np.errstate(over="ignore", invalid="ignore"):   # overflow falls back below
        for lo in range(0, m, rows):
            hi = min(lo + rows, m)
            a = at[:hi - lo]
            s = np.matmul(left[lo:hi], right, out=buf[:hi - lo])
            flat = s.reshape(-1)
            if exclude is not None:
                ex = np.asarray(exclude[lo:hi])
                flat[a + ex] = np.inf
            for t in range(k):
                f = np.add(a, s.argmin(axis=1), out=F[t, lo:hi])
                flat.take(f, out=V[t, lo:hi])
                flat[f] = np.inf
            s.min(axis=1, out=V[k, lo:hi])
            bound, full = _screen_bound(V[k - 1, lo:hi], sq_p[lo:hi], sq_q_max)
            # a NaN (argmin takes it first) or overflow taken before the k-th
            full |= ~np.isfinite(V[:k - 1, lo:hi]).all(axis=0)
            tied = np.flatnonzero((V[k, lo:hi] <= bound) | full)
            if len(tied):
                g = tied + lo
                flat[F[:, g]] = V[:k, g]
                i, j, dk = _kept_pairs(s[tied], bound[tied], full[tied], P[g], Q)
                if exclude is not None:   # an excluded pair is kept only in a full row
                    mine = j != ex[tied][i]
                    i, j, dk = i[mine], j[mine], dk[mine]
                ties.append((g, i, j, dk))
    J = F.T % n
    D = np.linalg.norm((Q[J] - P[:, None, :]).reshape(-1, d), axis=1).reshape(m, k)
    if k > 1:
        order = np.lexsort((J, D))
        order += np.arange(0, m * k, k)[:, None]
        J, D = J.ravel()[order], D.ravel()[order]
    for g, i, j, dk in ties:   # as _nearest orders its kept pairs
        order = np.lexsort((dk, i))
        counts = np.bincount(i, minlength=len(g))
        pick = order[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
        J[g], D[g] = j[pick], dk[pick]
    return J, D


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
    against, belongs in it only if strictly nearer than the bound. The
    appended rows are screened against every bound with one matrix product,
    and only the pairs the screen keeps, every admissible one among them,
    get the exact distance. Queries left with fewer than k entries are
    searched again; so is everything when the pool is not the previous one
    minus some rows plus a tail of larger keys.
    """

    def __init__(self, Q):
        self.Q = np.atleast_2d(np.asarray(Q, dtype=float))
        with np.errstate(over="ignore"):   # an overflowing square opens its row in _update
            self.sq_q = np.einsum("ij,ij->i", self.Q, self.Q)
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
        A = P[tail:]
        with np.errstate(over="ignore", invalid="ignore"):   # overflow opens rows below
            sq_a = np.einsum("ij,ij->i", A, A)
            v = self.Q @ (-2.0 * A.T)
            v += sq_a
            b2 = self.bound * self.bound
            limit, full = _screen_bound(b2 - self.sq_q, self.sq_q, sq_a.max(initial=0.0), b2)
        i, j, dk = _kept_pairs(v, limit, full, self.Q, A)
        d_app = np.full(v.shape, np.inf)   # inf is never admitted
        d_app[i, j] = dk
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


def smote_interpolate(X, n: int, k_neighbors: int, rng: RandomSource, seeds=None):
    """n SMOTE points from the rows of X: row i is X[s] + alpha * (X[nb] - X[s]),
    where nb is a uniformly drawn one of the min(k_neighbors, len(X) - 1)
    nearest other rows of X to X[s]. Per point the draws are, in order, the
    seed position s, the neighbor slot and alpha ~ U[0, 1); all n rounds
    come from one rng.rounds call. `seeds` holds the n seed positions (no
    seed draw), or is None to draw each s uniformly from the rows of X, or
    a function mapping an array of uniform() draws to seed positions. Given
    or returned seeds must be n integer positions in [0, len(X)), else
    ValueError. The neighbors come from _nearest_few over the distinct
    seeds, each without its own row.

    Returns (points, seeds, neighbor positions, alphas).
    """
    if not _integer(n) or n < 0:
        raise ValueError(f"n must be an integer >= 0, got {n!r}")
    if not _integer(k_neighbors) or k_neighbors < 1:
        raise ValueError(f"k_neighbors must be an integer >= 1, got {k_neighbors!r}")
    if len(X) < 2:
        raise ValueError("need at least 2 minority samples to interpolate")
    n_slots = min(k_neighbors, len(X) - 1)
    if seeds is None:
        draws = rng.rounds([len(X), n_slots, None], n)
        seeds, draws = draws[:, 0].astype(np.intp), draws[:, 1:]
    else:
        if callable(seeds):
            draws = rng.rounds([None, n_slots, None], n)
            seeds, draws = seeds(draws[:, 0]), draws[:, 1:]
        else:
            draws = rng.rounds([n_slots, None], n)
        seeds = np.asarray(seeds)
        if seeds.shape != (n,) or (n and not (np.issubdtype(seeds.dtype, np.integer)
                                              and 0 <= seeds.min() and seeds.max() < len(X))):
            raise ValueError(f"seeds must be {n} integer positions in [0, {len(X)}), "
                             f"got {seeds.dtype} values of shape {seeds.shape}")
        seeds = seeds.astype(np.intp, copy=False)
    slots, alphas = draws[:, 0].astype(np.intp), draws[:, 1]
    unique, inverse = np.unique(seeds, return_inverse=True)
    k = int(slots.max(initial=-1)) + 1
    nb = _nearest_few(X, X[unique], k, exclude=unique)[0][inverse, slots]
    S = X[seeds]
    return S + alphas[:, None] * (X[nb] - S), seeds, nb, alphas


def regularization_accept(candidates, majority, seeds):
    """(dist_min, dist_maj, accepted) for the candidate rows against the
    majority rows, each candidate with its seed row (`seeds` has the shape
    of `candidates`): the Euclidean distance to the seed, to the nearest
    majority row, and the regularization test dist_min <= dist_maj (a
    synthetic sits at least as close to its own seed as to the majority
    class). dist_maj is column 0 of _nearest_few's distances, the
    np.linalg.norm distance of the full scan."""
    if len(majority) == 0:
        raise ValueError("majority must be non-empty")
    if np.shape(candidates) != np.shape(seeds):
        raise ValueError(f"candidates and seeds must have the same shape, got "
                         f"{np.shape(candidates)} and {np.shape(seeds)}")
    dist_maj = _nearest_few(majority, candidates, 1)[1][:, 0]
    # per row, the arithmetic of the 1-D np.linalg.norm, sqrt(v.dot(v)), which
    # a stack of 1 x d by d x 1 products shares; the 2-D form's can differ in
    # the last bit
    D = np.atleast_2d(candidates) - seeds
    dist_min = np.sqrt((D[:, None, :] @ D[:, :, None])[:, 0, 0])
    return dist_min, dist_maj, dist_min <= dist_maj


def noise_filter(candidates, model, k: int):
    """(order, entropies): the positions of the min(k, n) highest-entropy
    candidate rows under `model` in descending entropy order, ties keeping
    the lower position first, and every row's entropy."""
    if not _integer(k) or k < 0:
        raise ValueError(f"k must be an integer >= 0, got {k!r}")
    if len(candidates) == 0:
        raise ValueError("no candidates to filter")
    ent = entropy_batch(posterior_batch(model, candidates))
    return np.argsort(-ent, kind="stable")[: min(k, len(ent))], ent


def minority_class_pruning(majority, minority, k: int, k_neighbors: int, model,
                           rng: RandomSource, stats: dict | None = None):
    """The rows of up to k filtered synthetic minority samples, in
    descending entropy order.

    Accepted candidates are gathered (up to 2k, bounded by 50 max(k, 1)
    roulette spins), each a SMOTE step toward one of the seed's k_neighbors
    nearest minority rows, then the entropy noise filter keeps the top k
    under `model`. If the acceptance region is tiny fewer than k rows come
    back. `stats` receives the counts and, when some are retained, one
    provenance record per row ("synthetics").
    """
    if not _integer(k) or k < 0:
        raise ValueError(f"k must be an integer >= 0, got {k!r}")
    wheel = build_roulette(minority, majority)
    target = _CANDIDATES_PER_SYNTHETIC * k
    cap = _SPINS_PER_SYNTHETIC * max(k, 1)
    chunks = []   # per chunk, the accepted rows of its candidate arrays
    accepted = spins = 0
    while accepted < target and spins < cap:
        # Each spin accepts at most one candidate, so spinning one at a time
        # would make every spin of this chunk too.
        n = min(target - accepted, cap - spins)
        spins += n
        C, seeds, nb, alphas = smote_interpolate(minority, n, k_neighbors, rng,
                                                  lambda r: _select(wheel, r))
        dist_min, dist_maj, ok = regularization_accept(C, majority, minority[seeds])
        chunks.append([a[ok] for a in (C, seeds, nb, alphas, dist_min, dist_maj)])
        accepted += int(ok.sum())
    rows, records = np.empty((0, minority.shape[1])), []
    if accepted:
        C, seeds, nb, alphas, dist_min, dist_maj = (np.concatenate(a) for a in zip(*chunks))
        order, ent = noise_filter(C, model, k)
        rows = C[order]
        columns = (a[order].tolist() for a in (C, seeds, nb, alphas, dist_min, dist_maj, ent))
        records = [{"x": x, "seed_index": s, "neighbor_index": j, "alpha": a, "dist_min": dn,
                    "dist_maj": dj, "entropy": h} for x, s, j, a, dn, dj, h in zip(*columns)]
    if stats is not None:
        stats.update(spins=spins, accepted=accepted, retained=len(rows))
        if records:
            stats["synthetics"] = records
    return rows


def double_pruning(majority, minority, k: int, k_neighbors: int, rng: RandomSource,
                   stats: dict | None = None):
    """One balancing step of size k on the majority and minority feature
    rows. A single naive Bayes model, fit on the majority rows then the
    minority rows, scores both the majority rows and the candidates.

    Returns (keep, rows): majority_class_pruning's kept positions (all but
    the k lowest-entropy rows) and minority_class_pruning's synthetic rows
    (at most k, interpolated over k_neighbors nearest minority rows). With
    k = 0 the candidate target is 0, so nothing is removed or added. Inputs
    are never mutated.
    """
    model = fit_gnb(np.vstack([majority, minority]),
                    np.repeat([NEGATIVE, POSITIVE], [len(majority), len(minority)]))
    keep = majority_class_pruning(majority, model, k)
    return keep, minority_class_pruning(majority, minority, k, k_neighbors, model, rng, stats)
