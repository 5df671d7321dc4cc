"""Exactness of the screened neighbour search against full-scan oracles.

`nearest_rows` must return, row for row, the positions a full
`np.argsort(np.linalg.norm(Q - p, axis=1), kind="stable")` returns, and every
caller that moved onto it must reproduce the full-scan loops it replaced: the
same points, distances and decisions bit for bit, the same statistics and the
same random-number state afterwards. The oracles below keep the old code, so
they share no helper with the code under test.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist

from resmoteboost import (ClassPartition, KNNLearner, NEGATIVE, POSITIVE,
                          RandomSource, build_roulette, fit_gnb,
                          make_gaussian_blobs, regularization_accept, smote_interpolate,
                          tomek_links)
from resmoteboost.entropy import entropy_batch, posterior_batch
from resmoteboost import pruning
from resmoteboost.pruning import _nearest, _nearest_few, minority_class_pruning, nearest_rows
from resmoteboost.samplers import _majority_neighbor_counts


DEFAULT_FEW_MIN = pruning._FEW_MIN


@pytest.fixture(autouse=True, scope="module")
def few_kernel_on_any_size():
    """_nearest_few hands inputs of fewer than _FEW_MIN entries to _nearest;
    in this module it runs its own passes on every input, however small."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pruning, "_FEW_MIN", 0)
        yield


def argsort_oracle(Q, P, k, exclude=None):
    rows = []
    for i, p in enumerate(P):
        order = np.argsort(np.linalg.norm(Q - p, axis=1), kind="stable")
        if exclude is not None:
            order = order[order != exclude[i]]
        rows.append(order[:k])
    return np.array(rows, dtype=np.intp).reshape(len(P), -1)


def make_rows(kind: str, n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "grid":          # exact ties everywhere, duplicate rows likely
        return rng.integers(0, 3, size=(n, d)).astype(float)
    if kind == "duplicates":    # a few distinct rows, each repeated
        return rng.normal(size=(max(1, n // 4), d))[rng.integers(0, max(1, n // 4), size=n)]
    if kind == "jitter":        # near-ties inside the screen's slack
        return rng.normal(size=d) + 1e-12 * rng.normal(size=(n, d))
    if kind == "near-overflow":  # squares overflow to inf near 1e154
        return rng.choice([-1.0, 1.0], size=(n, d)) * rng.uniform(0.3, 3.0, size=(n, d)) * 1e154
    if kind == "subnormal":     # squares and products underflow below 2^-1022
        return rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-162, -155)
    scale = {"unit": 1.0, "huge": 1e150, "tiny": 1e-150}[kind]
    return rng.normal(size=(n, d)) * scale


KINDS = ("unit", "huge", "tiny", "subnormal", "grid", "duplicates", "jitter", "near-overflow")


class TestNearestRows:
    # squares near 1e154 overflow in the oracle's norms as in the full scan
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(KINDS), n=st.integers(1, 40), d=st.integers(1, 5),
           m=st.integers(1, 12), k=st.integers(1, 45), excluded=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_argsort_oracle(self, kind, n, d, m, k, excluded, seed):
        rng = np.random.default_rng(seed)
        Q = make_rows(kind, n, d, rng)
        if excluded:
            exclude = rng.integers(0, n, size=m)
            P = Q[exclude]                   # a row's own position is removed
        else:
            exclude = None
            # fresh rows, rows of Q, and rows of Q moved slightly
            near = Q[rng.integers(0, n, m)] + 1e-3 * make_rows(kind, m, d, rng)
            P = np.vstack([make_rows(kind, m, d, rng), Q, near])[rng.permutation(2 * m + n)[:m]]
        got = nearest_rows(Q, P, k, exclude=exclude)
        np.testing.assert_array_equal(got, argsort_oracle(Q, P, k, exclude))
        assert got.shape == (m, min(k, n - excluded))
        # the distances the kernel returns with them are the norms of those rows
        positions, distances = _nearest(Q, P, k, exclude)
        np.testing.assert_array_equal(positions, got)
        for i, idx in enumerate(got):
            assert distances[i].tobytes() == np.linalg.norm(Q[idx] - P[i], axis=1).tobytes()

    def test_many_blocks(self):
        # enough rows that the screen runs in several blocks
        rng = np.random.default_rng(3)
        Q = rng.integers(0, 4, size=(3000, 3)).astype(float)
        P = Q[:200]
        exclude = np.arange(200)
        np.testing.assert_array_equal(nearest_rows(Q, P, 7, exclude=exclude),
                                      argsort_oracle(Q, P, 7, exclude))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_distances_keep_position_order(self):
        # both squared distances overflow, so both distances are inf and
        # position 0 comes first; the screened values leave out |p|^2 = 1e308,
        # stay finite and rank position 1 first, so the row takes the full scan
        Q = np.array([[-0.5e154], [-0.4e154]])
        P = np.array([[1e154]])
        np.testing.assert_array_equal(argsort_oracle(Q, P, 1), [[0]])
        np.testing.assert_array_equal(nearest_rows(Q, P, 1), [[0]])

    def test_single_query_vector(self):
        Q = np.array([[0.0], [2.0], [1.0], [1.0]])
        np.testing.assert_array_equal(nearest_rows(Q, np.array([1.0]), 3), [[2, 3, 0]])
        np.testing.assert_array_equal(nearest_rows(Q, [[1.0]], 9, exclude=[2]), [[3, 0, 1]])
        assert nearest_rows(Q[:1], [[1.0]], 3, exclude=[0]).shape == (1, 0)


def full_scan(Q, P, k, exclude=None):
    """(positions, distances) of the full scan: argsort_oracle's positions and
    the np.linalg.norm distance of each."""
    width = max(min(k, len(Q) - (exclude is not None)), 0)
    positions = argsort_oracle(Q, P, k, exclude) if len(P) else np.empty((0, width), np.intp)
    distances = [np.linalg.norm(Q[idx] - p, axis=1) for idx, p in zip(positions, P)]
    return positions, np.array(distances).reshape(positions.shape)


def assert_same_bits(got, want):
    for a, b in zip(got, want, strict=True):
        b = np.asarray(b, dtype=a.dtype)
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def with_nan_rows(P, rng):
    """P with a NaN in one coordinate of some of its rows."""
    P = P.copy()
    rows = rng.random(len(P)) < 0.3
    P[rows, rng.integers(0, P.shape[1], rows.sum())] = np.nan
    return P


class TestNearestFew:
    """_nearest_few answers each row from its k least screened values when the
    runner-up is outside the bound, and from _kept_pairs otherwise; either
    way, positions and distances are _nearest's and the full scan's bits."""

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("kind", ["unit", "grid", "duplicates", "jitter", "near-overflow"])
    @pytest.mark.parametrize("k", [1, 2, 5, 30])
    @pytest.mark.parametrize("excluded", [False, True])
    def test_matches_nearest_and_full_scan(self, kind, k, excluded):
        rng = np.random.default_rng(k)
        Q = make_rows(kind, 40, 3, rng)
        if excluded:
            exclude = rng.integers(0, 40, size=25)
            P = Q[exclude]
        else:
            exclude = None
            P = np.vstack([make_rows(kind, 10, 3, rng), Q[:10], Q[10:15] + 1e-3])
        P = with_nan_rows(P, rng)
        got = _nearest_few(Q, P, k, exclude)
        assert_same_bits(got, _nearest(Q, P, k, exclude))
        assert_same_bits(got, full_scan(Q, P, k, exclude))

    # squares near 1e154 overflow in the oracle's norms as in the full scan
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(KINDS), n=st.integers(1, 40), d=st.integers(1, 5),
           m=st.integers(0, 12), k=st.integers(1, 45), excluded=st.booleans(),
           nan=st.booleans(), budget=st.sampled_from([1, 40, 1 << 16]),
           seed=st.integers(0, 2**32 - 1))
    def test_property_matches_nearest(self, kind, n, d, m, k, excluded, nan, budget, seed):
        rng = np.random.default_rng(seed)
        Q = make_rows(kind, n, d, rng)
        if excluded:
            exclude = rng.integers(0, n, size=m)
            P = Q[exclude]
        else:
            exclude = None
            near = Q[rng.integers(0, n, m)] + 1e-3 * make_rows(kind, m, d, rng)
            P = np.vstack([make_rows(kind, m, d, rng), Q, near])[rng.permutation(2 * m + n)[:m]]
        if nan:
            P = with_nan_rows(P, rng)
        with pytest.MonkeyPatch.context() as patch:   # blocks of budget // n rows
            patch.setattr(pruning, "_FEW_BLOCK", budget)
            got = _nearest_few(Q, P, k, exclude)
        assert_same_bits(got, _nearest(Q, P, k, exclude))
        assert_same_bits(got, full_scan(Q, P, k, exclude))

    def test_default_size_threshold(self, monkeypatch):
        # below the default threshold _nearest answers; above it, the passes
        rng = np.random.default_rng(5)
        Q = rng.integers(0, 4, size=(3000, 3)).astype(float)
        monkeypatch.setattr(pruning, "_FEW_MIN", DEFAULT_FEW_MIN)
        for m in (1, 200):
            exclude = np.arange(m)
            assert_same_bits(_nearest_few(Q, Q[:m], 7, exclude), _nearest(Q, Q[:m], 7, exclude))
            assert_same_bits(_nearest_few(Q[:20], Q[:m], 3), full_scan(Q[:20], Q[:m], 3))

    def test_small_and_empty_inputs(self):
        Q = np.array([[0.0], [2.0], [1.0], [1.0]])
        assert_same_bits(_nearest_few(Q, [1.0], 3), ([[2, 3, 0]], [[0.0, 0.0, 1.0]]))
        positions, distances = _nearest_few(Q, [[1.0]], 9, exclude=[2])
        assert positions.tolist() == [[3, 0, 1]] and distances.tolist() == [[0.0, 1.0, 1.0]]
        for P, k, exclude, shape in [(np.empty((0, 1)), 2, None, (0, 2)),
                                     ([[1.0]], 3, None, (1, 3)),
                                     (Q[:1], 3, [0], (1, 0))]:
            got = _nearest_few(Q[:1] if exclude else Q[:3], P, k, exclude)
            assert got[0].shape == got[1].shape == shape
            assert got[0].dtype == np.intp


class TestNearestDistance:
    """The acceptance test's nearest-majority distance: column 0 of
    _nearest_few(Q, P, 1)'s distances."""

    # squares near 1e154 overflow in the norms as in the full scan
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(KINDS), n=st.integers(1, 40), d=st.integers(1, 5),
           m=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
    def test_matches_nearest(self, kind, n, d, m, seed):
        rng = np.random.default_rng(seed)
        Q = make_rows(kind, n, d, rng)
        # fresh rows, rows of Q (exact ties on duplicates), and rows of Q moved slightly
        near = Q[rng.integers(0, n, m)] + 1e-3 * make_rows(kind, m, d, rng)
        P = np.vstack([make_rows(kind, m, d, rng), Q, near])[rng.permutation(2 * m + n)[:m]]
        got = _nearest_few(Q, P, 1)[1][:, 0]
        assert got.tobytes() == _nearest(Q, P, 1)[1][:, 0].tobytes()
        full_scan = [np.linalg.norm(Q - p, axis=1).min() for p in P]
        assert got.tobytes() == np.array(full_scan).tobytes()

    def test_one_row_and_empty_inputs(self):
        Q = np.array([[3.0, 4.0]])
        assert _nearest_few(Q, np.zeros((2, 2)), 1)[1][:, 0].tolist() == [5.0, 5.0]
        assert _nearest_few(Q, np.empty((0, 2)), 1)[1][:, 0].shape == (0,)
        assert _nearest_few(Q, [0.0, 0.0], 1)[1][:, 0].tolist() == [5.0]

    def test_nan_distance_sorts_last(self):
        # as in _nearest, a NaN distance is the answer only where every one is
        Q = np.array([[np.nan, 0.0], [3.0, 4.0]])
        P = np.array([[0.0, 0.0], [np.nan, 1.0]])
        got = _nearest_few(Q, P, 1)[1][:, 0]
        assert got.tobytes() == _nearest(Q, P, 1)[1][:, 0].tobytes()
        assert got[0] == 5.0 and np.isnan(got[1])


class TestRunnerUpScreen:
    """_nearest_few takes a row's k least screened values alone unless the
    runner-up is within the slack or the row is marked full; those rows take
    the exact distances of their kept pairs first, and then one norm over
    every row's k least gives the others theirs. One block may mix both
    paths, and each must give _nearest's bits."""

    # a line of rows 10 apart; row 8 repeats row 2, row 9 is row 5 moved
    # by 1e-12, inside the screen's slack
    BASE = 10.0 * np.arange(8)[:, None] * np.array([1.0, 0.5, -0.25])
    Q = np.vstack([BASE, BASE[2], BASE[5] + 1e-12])

    def norm_inputs(self, monkeypatch, Q, P, k=1):
        """(_nearest_few(Q, P, k)'s distances, the shape of each array it
        takes norms of)."""
        shapes, norm = [], np.linalg.norm

        def recording_norm(x, *args, **kwargs):
            shapes.append(x.shape)
            return norm(x, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "norm", recording_norm)
            got = _nearest_few(Q, P, k)
        assert_same_bits(got, _nearest(Q, P, k))
        assert_same_bits(got, full_scan(Q, P, k))
        return got[1], shapes

    def test_ties_and_near_ties_take_the_kept_pairs(self, monkeypatch):
        # rows 1 and 3 have two candidates each (an exact duplicate, a
        # runner-up within the slack); the others have one
        P = self.BASE[[0, 2, 4, 5, 7]] + 0.1
        got, shapes = self.norm_inputs(monkeypatch, self.Q, P)
        assert shapes == [(4, 3), (5, 3)]
        assert got[1, 0] == np.linalg.norm(self.BASE[2] + 0.1 - self.BASE[2])
        # with k = 2 the tied pairs are the two least: only row 3's runner-up,
        # row 5 moved by 1e-12, is screened with them
        got, shapes = self.norm_inputs(monkeypatch, self.Q, P, 2)
        assert shapes == [(3, 3), (10, 3)]

    def test_lone_candidates_skip_the_kept_pairs(self, monkeypatch):
        P = self.BASE[[0, 4, 7]] - 0.2
        _, shapes = self.norm_inputs(monkeypatch, self.Q, P)
        assert shapes == [(3, 3)]
        _, shapes = self.norm_inputs(monkeypatch, self.Q, P, 2)
        assert shapes == [(6, 3)]

    # squares near 1e154 overflow in the norms as in the full scan
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_nan_and_overflow_rows_take_every_pair(self, monkeypatch):
        # a NaN row and an overflowing row are marked full, beside a tie
        # and two lone candidates in the same block
        P = np.vstack([self.BASE[0] + 0.1, [np.nan, 0.0, 1.0], self.BASE[2] + 0.1,
                       [3e154, -2e154, 1.0], self.BASE[6] + 0.1])
        got, shapes = self.norm_inputs(monkeypatch, self.Q, P)
        assert shapes == [(2 * len(self.Q) + 2, 3), (5, 3)]
        assert np.isnan(got[1, 0]) and got[3, 0] == np.inf and np.all(np.isfinite(got[[0, 2, 4]]))
        # a NaN is the first of the k values taken, and its row is full
        got, shapes = self.norm_inputs(monkeypatch, self.Q, P[[1]], 3)
        assert shapes == [(len(self.Q), 3), (3, 3)] and np.isnan(got).all()
        # an overflowing majority row makes every row full
        Q = np.vstack([self.Q, [1e155, 0.0, 0.0]])
        _, shapes = self.norm_inputs(monkeypatch, Q, P)
        assert shapes == [(5 * len(Q), 3), (5, 3)]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("kind", ["unit", "grid", "duplicates", "jitter", "near-overflow"])
@pytest.mark.parametrize("rows", [1, 2])
def test_blocks_match_one_full_block(monkeypatch, kind, rows):
    # both kernels answer each P row on its own, so blocks of 1 and 2 rows
    # give the bits of one block holding every row, NaN rows among them
    rng = np.random.default_rng(7)
    Q = make_rows(kind, 30, 3, rng)
    P = np.vstack([make_rows(kind, 9, 3, rng), Q[:6], [np.nan, 0.0, 1.0]])
    exclude = np.r_[rng.integers(0, 30, 9), np.arange(6), 0]

    def answers(budget):
        monkeypatch.setattr(pruning, "_BLOCK", budget)
        monkeypatch.setattr(pruning, "_FEW_BLOCK", budget)
        return [*_nearest(Q, P, 1), *_nearest(Q, P, 5, exclude),
                *_nearest_few(Q, P, 1), *_nearest_few(Q, P, 5, exclude)]

    full = answers(len(Q) * len(P))
    for got, want in zip(answers(len(Q) * rows), full, strict=True):
        assert got.tobytes() == want.tobytes()


def old_smote_interpolate(seed, minority, seed_index, k_neighbors, rng):
    """The per-call full-scan interpolation the candidate loop used to make:
    (x, neighbor index, alpha)."""
    seed = np.asarray(seed, dtype=float)
    d = np.linalg.norm(minority - seed, axis=1)
    order = np.argsort(d, kind="stable")
    order = order[order != seed_index]
    neighbors = order[: min(k_neighbors, len(minority) - 1)]
    neighbor_index = int(neighbors[int(rng.integers(0, len(neighbors)))])
    alpha = float(rng.uniform())
    return seed + alpha * (minority[neighbor_index] - seed), neighbor_index, alpha


def old_regularization_accept(x, seed, M):
    """The full-scan acceptance test the candidate loop used to make:
    (dist_min, dist_maj, accepted)."""
    dist_maj = float(np.linalg.norm(M - x, axis=1).min())
    dist_min = float(np.linalg.norm(x - seed))
    return dist_min, dist_maj, dist_min <= dist_maj


def old_entropy_filter(model, candidates, k):
    """The per-candidate noise filter the candidate loop used to apply."""
    ent = entropy_batch(posterior_batch(model, np.vstack([c["x"] for c in candidates])))
    for c, h in zip(candidates, ent):
        c["entropy"] = float(h)
    return [candidates[i] for i in np.argsort(-ent, kind="stable")[:k]]


def oversample_oracle(majority, minority, k, k_neighbors, model, rng, stats):
    """One spin, one candidate and one acceptance test at a time, gathering
    up to 2k accepted candidates in at most 50 max(k, 1) spins."""
    wheel = build_roulette(minority, majority)
    accepted = []
    spins = 0
    while len(accepted) < 2 * k and spins < 50 * max(k, 1):
        seed_index = int(pruning._select(wheel, rng.uniform(size=1))[0])
        spins += 1
        seed = minority[seed_index]
        x, neighbor_index, alpha = old_smote_interpolate(seed, minority, seed_index,
                                                         k_neighbors, rng)
        dist_min, dist_maj, ok = old_regularization_accept(x, seed, majority)
        if ok:
            accepted.append({"x": x, "seed_index": seed_index, "neighbor_index": neighbor_index,
                             "alpha": alpha, "dist_min": dist_min, "dist_maj": dist_maj})
    retained = old_entropy_filter(model, accepted, k) if accepted else []
    stats.update(spins=spins, accepted=len(accepted), retained=len(retained))
    if retained:
        stats["synthetics"] = [dict(c, x=[float(v) for v in c["x"]]) for c in retained]
    return [c["x"] for c in retained]


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(("unit", "huge", "tiny", "grid", "duplicates")), n=st.integers(2, 25),
       d=st.integers(1, 4), k_neighbors=st.integers(1, 7), m=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_smote_interpolate_matches_full_scan(kind, n, d, k_neighbors, m, seed):
    rng = np.random.default_rng(seed)
    minority = make_rows(kind, n, d, rng)
    seeds = rng.integers(0, n, size=m)
    rng_new, rng_old = RandomSource(seed), RandomSource(seed)
    X, got_seeds, nb, alphas = smote_interpolate(minority, m, k_neighbors, rng_new, seeds)
    np.testing.assert_array_equal(got_seeds, seeds)
    for i, s in enumerate(seeds):
        x, neighbor_index, alpha = old_smote_interpolate(minority[s], minority, s,
                                                         k_neighbors, rng_old)
        assert X[i].tobytes() == x.tobytes()
        assert (int(nb[i]), float(alphas[i])) == (neighbor_index, alpha)
    assert rng_new.bit_generator.state == rng_old.bit_generator.state


class TestRegularizationAccept:
    # squares near 1e154 overflow in the oracle's norms as in the full scan
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(KINDS), n=st.integers(1, 30), d=st.integers(1, 5),
           mirror=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_matches_full_scan(self, kind, n, d, mirror, seed):
        rng = np.random.default_rng(seed)
        M = make_rows(kind, n, d, rng)
        rows = np.vstack([make_rows(kind, 3, d, rng), M[rng.integers(0, n, 3)]])
        x, s = rows[rng.integers(0, len(rows), 2)]
        if mirror:   # the seed as far from x as x's nearest majority row: a tie on grids
            s = 2 * x - M[argsort_oracle(M, [x], 1)[0, 0]]
        dist_min, dist_maj, ok = regularization_accept(x[None], M, s[None])
        old_min, old_maj, old_ok = old_regularization_accept(x, s, M)
        assert bool(ok[0]) == old_ok
        assert dist_min[0].tobytes() == np.float64(old_min).tobytes()
        assert dist_maj[0].tobytes() == np.float64(old_maj).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(d=st.integers(1, 40), m=st.integers(0, 50), wide=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_seed_distance_is_the_row_loop(self, d, m, wide, seed):
        # dist_min keeps the 1-D np.linalg.norm arithmetic, sqrt(v.dot(v)),
        # byte for byte, including rows whose entries span many magnitudes
        rng = np.random.default_rng(seed)
        C, S = rng.normal(size=(2, m, d))
        if wide:
            C *= 10.0 ** rng.uniform(-150, 150, size=(m, d))
        dist_min = regularization_accept(C, rng.normal(size=(4, d)), S)[0]
        assert dist_min.tobytes() == np.sqrt([v.dot(v) for v in C - S]).tobytes()

    def test_tie_accepts(self):
        M = np.array([[2.0, 0.0], [0.0, 5.0]])
        dist_min, dist_maj, ok = regularization_accept(np.zeros((1, 2)), M, [[0.0, -2.0]])
        assert ok[0]
        assert dist_min[0] == dist_maj[0] == 2.0


def old_majority_neighbor_counts(partition, k_neighbors):
    """The full-matrix count loop Borderline-SMOTE and ADASYN used to make."""
    full = np.vstack([partition.majority, partition.minority])
    m_off = len(partition.majority)
    d = cdist(partition.minority, full)
    counts = np.empty(len(partition.minority), dtype=int)
    for i in range(len(partition.minority)):
        order = np.argsort(d[i], kind="stable")
        order = order[order != m_off + i]                 # drop self
        nn = order[: min(k_neighbors, len(order))]
        counts[i] = int(np.sum(nn < m_off))
    return counts


class TestMajorityNeighborCounts:
    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(("grid", "unit", "duplicates", "jitter")), n_maj=st.integers(1, 30),
           n_min=st.integers(1, 30), d=st.integers(1, 4), k=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_old_loop(self, kind, n_maj, n_min, d, k, seed):
        rng = np.random.default_rng(seed)
        n_min = min(n_min, n_maj)
        X = make_rows(kind, n_maj + n_min, d, rng)   # duplicate rows may span both classes
        part = ClassPartition(majority=X[:n_maj], minority=X[n_maj:])
        got = _majority_neighbor_counts(part, k)
        if kind == "grid":       # cdist and norm are both exact on small integers
            np.testing.assert_array_equal(got, old_majority_neighbor_counts(part, k))
        nn = argsort_oracle(X, X[n_maj:], k, exclude=n_maj + np.arange(n_min))
        np.testing.assert_array_equal(got, (nn < n_maj).sum(axis=1))


def pools(kind: str, n_maj: int, n_min: int, d: int, seed: int):
    if kind == "grid":
        rng = np.random.default_rng(seed)
        X_maj = rng.integers(0, 3, size=(n_maj, d)).astype(float)
        X_min = rng.integers(1, 4, size=(n_min, d)).astype(float)
    else:
        data = make_gaussian_blobs(n_maj, n_min, d, {"overlap": 0.3, "apart": 3.0}[kind], seed)
        X_maj, X_min = data.X[data.y == NEGATIVE], data.X[data.y == POSITIVE]
    return X_maj, X_min


def assert_matches_oracle(majority, minority, k, k_neighbors, seed):
    """minority_class_pruning against oversample_oracle: the same rows bit for
    bit, the same stats (provenance records included) and the same generator
    state. Returns the stats."""
    model = fit_gnb(np.vstack([majority, minority]),
                    np.repeat([NEGATIVE, POSITIVE], [len(majority), len(minority)]))
    rng_new, rng_old = RandomSource(seed), RandomSource(seed)
    stats_new, stats_old = {}, {}
    rows = minority_class_pruning(majority, minority, k, k_neighbors, model, rng_new, stats_new)
    old = oversample_oracle(majority, minority, k, k_neighbors, model, rng_old, stats_old)
    assert stats_new == stats_old
    expected = np.array(old).reshape(len(old), minority.shape[1])
    assert rows.shape == expected.shape and rows.tobytes() == expected.tobytes()
    assert rng_new.bit_generator.state == rng_old.bit_generator.state
    return stats_new


class TestOversampleOracle:
    @settings(max_examples=120, deadline=None)
    @given(kind=st.sampled_from(("overlap", "apart", "grid")), n_maj=st.integers(3, 60),
           n_min=st.integers(2, 25), d=st.integers(1, 4), k=st.integers(0, 12),
           k_neighbors=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
    def test_matches_one_at_a_time_loop(self, kind, n_maj, n_min, d, k, k_neighbors, seed):
        majority, minority = pools(kind, n_maj, n_min, d, seed)
        assert_matches_oracle(majority, minority, k, k_neighbors, seed)

    def test_spin_cap_stops_the_loop(self):
        # Two minority rows, each the other's only neighbour, and a majority
        # row on each seed-to-neighbour segment at 2% of its length: a
        # candidate is accepted only when alpha <= 0.01. The distant majority
        # rows make k < n_maj without moving any candidate's nearest one.
        X_min = np.array([[0.0, 0.0], [1.0, 0.0]])
        X_maj = np.vstack([[[0.02, 0.0], [0.98, 0.0]],
                           100.0 * np.array([[0, 1], [1, 1], [1, 0], [0, -1], [-1, -1], [-1, 0]])])
        k = 4
        stats = assert_matches_oracle(X_maj, X_min, k, 5, 0)
        assert stats["spins"] == 50 * k and 0 < stats["accepted"] < 2 * k


def old_knn_score(learner, X):
    k = min(learner.n_neighbors, len(learner._X))
    out = np.empty(len(X))
    for i, x in enumerate(X):
        nn = np.argsort(np.linalg.norm(learner._X - x, axis=1), kind="stable")[:k]
        out[i] = float((learner._w[nn] * learner._y[nn]).sum())
    return out


@settings(max_examples=60, deadline=None)
@given(grid=st.booleans(), n=st.integers(1, 50), n_neighbors=st.integers(1, 15),
       seed=st.integers(0, 2**32 - 1))
def test_knn_score_matches_row_loop(grid, n, n_neighbors, seed):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 3, size=(n, 3)).astype(float) if grid else rng.normal(size=(n, 3))
    y = rng.choice([NEGATIVE, POSITIVE], size=n)
    w = rng.dirichlet(np.ones(n))
    learner = KNNLearner(n_neighbors).fit(X, y, w)
    queries = np.vstack([X, rng.integers(0, 3, size=(7, 3)).astype(float)])
    assert learner.score(queries).tobytes() == old_knn_score(learner, queries).tobytes()


def test_blocked_tomek_links_match_full_matrix():
    data = make_gaussian_blobs(250, 90, 2, 0.5, 11)      # several blocks
    X = np.round(data.X, 1)                              # tied neighbours
    X_maj, X_min = X[data.y == NEGATIVE], X[data.y == POSITIVE]
    part = ClassPartition(majority=X_maj, minority=X_min)
    full_X = np.vstack([X_maj, X_min])
    d = cdist(full_X, full_X)
    np.fill_diagonal(d, np.inf)
    nn = np.argmin(d, axis=1)
    drop = {a for a in range(250) if nn[a] >= 250 and nn[nn[a]] == a}
    expected = [i for i in range(250) if i not in drop]
    assert len(drop) > 0
    np.testing.assert_array_equal(tomek_links(part), expected)


def old_tomek_links(partition):
    """The full self-search Tomek links made before it searched only the
    rows a link can involve: every row's nearest other row, then the
    majority rows whose nearest row is a minority row naming them back.
    Returns the positions of the majority rows kept."""
    full = np.vstack([partition.majority, partition.minority])
    m_off = len(partition.majority)
    nn = argsort_oracle(full, full, 1, exclude=np.arange(len(full)))[:, 0]
    drop = [a for a in range(m_off) if nn[a] >= m_off and nn[nn[a]] == a]
    return np.setdiff1d(np.arange(m_off), drop)


# squares near 1e154 overflow in the norms as in the full search
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(KINDS), n_maj=st.integers(1, 40), n_min=st.integers(1, 20),
       d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_tomek_links_match_full_self_search(kind, n_maj, n_min, d, seed):
    rng = np.random.default_rng(seed)
    n_min = min(n_min, n_maj)
    X = make_rows(kind, n_maj + n_min, d, rng)   # duplicate rows may span both classes
    part = ClassPartition(majority=X[:n_maj], minority=X[n_maj:])
    got, want = tomek_links(part), old_tomek_links(part)
    assert got.tobytes() == want.tobytes()
