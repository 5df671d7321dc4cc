"""Neighbour lists carried across pools that lose rows and gain appended rows.

`_NeighbourLists.nearest(P, keys, k)` must return exactly `nearest_rows(P, Q,
k)` after any sequence of deletions and appends, and boosting with k-NN must
give the same reports, ensembles and margins as a full search per round and
per member. An update, which screens the appended rows with one matrix
product, must leave the lists exactly as one that computes every (query,
appended row) distance.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import cdist

from resmoteboost import (BoostConfig, BoostedEnsemble, Dataset, ExperimentConfig, KNNLearner,
                          NEGATIVE, POSITIVE, RandomSource, fit_boosted, make_gaussian_blobs,
                          run_experiment)
from resmoteboost import pruning
from resmoteboost.pruning import _NeighbourLists, nearest_rows

from test_nearest import KINDS, make_rows


def grid_with_duplicates(seed: int, n_maj: int = 60, n_min: int = 24) -> Dataset:
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.integers(0, 4, size=(n_maj, 3)), rng.integers(2, 6, size=(n_min, 3))])
    y = np.concatenate([np.full(n_maj, NEGATIVE), np.full(n_min, POSITIVE)])
    return Dataset(X.astype(float), y)


class TestAgainstFullSearch:
    # squares near 1e154 overflow in the distances as in the full search
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    # integer grids, where distances tie with the bound, are drawn most often
    @given(kind=st.sampled_from(KINDS + ("grid",) * 4), n0=st.integers(0, 30),
           n_q=st.integers(1, 12), d=st.integers(1, 4), k=st.integers(1, 8),
           steps=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_delete_and_append_sequences(self, kind, n0, n_q, d, k, steps, seed):
        rng = np.random.default_rng(seed)
        P = make_rows(kind, n0, d, rng)
        keys = np.cumsum(rng.integers(1, 3, size=n0))   # rising, with gaps
        next_key = keys.max(initial=0) + 1
        # queries: rows of the pool (duplicates of it) and fresh rows
        Q = np.vstack([P[rng.integers(0, n0, size=n_q // 2)] if n0 else np.empty((0, d)),
                       make_rows(kind, n_q - (n_q // 2 if n0 else 0), d, rng)])
        lists = _NeighbourLists(Q)
        for _ in range(steps):
            got = lists.nearest(P, keys, k)
            want = nearest_rows(P, Q, k)
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)
            # delete none, some or most rows, then append a few above every key
            kept = rng.random(len(P)) >= rng.choice([0.0, 0.1, 0.3, 0.9])
            n_new = int(rng.integers(0, 6))
            P = np.vstack([P[kept], make_rows(kind, n_new, d, rng)])
            keys = np.concatenate([keys[kept], next_key + np.arange(n_new)])
            next_key += n_new
            if rng.random() < 0.15:     # every row new, keys in any order
                keys = next_key + rng.permutation(len(P))
                next_key += len(P)
            if rng.random() < 0.1 and len(P):   # a row changed under its old key
                P[rng.integers(0, len(P))] = make_rows(kind, 1, d, rng)
            if rng.random() < 0.1:      # a different k; beyond the kept depth it searches anew
                k = int(rng.integers(1, 12))

    def test_appended_row_tying_the_bound_waits_behind_unlisted_rows(self):
        # k = 1 keeps 2 entries: keys 0 (distance 1) and 1 (distance 2), bound 2;
        # key 2, also at distance 2, is unlisted
        Q = np.array([[0.0]])
        lists = _NeighbourLists(Q)
        P, keys = np.array([[1.0], [2.0], [2.0]]), np.array([0, 1, 2])
        np.testing.assert_array_equal(lists.nearest(P, keys, 1), [[0]])
        # delete key 1 and append key 3 at distance 2: it goes after key 2
        P, keys = np.array([[1.0], [2.0], [2.0]]), np.array([0, 2, 3])
        np.testing.assert_array_equal(lists.nearest(P, keys, 1), [[0]])
        P, keys = np.array([[2.0], [2.0]]), np.array([2, 3])
        np.testing.assert_array_equal(lists.nearest(P, keys, 1), [[0]])

    def test_bound_outlives_deletions(self):
        # keys 0, 1 kept with bound 2; deleting key 1 leaves one entry and the
        # bound 2, so a row appended at 3.5 stays out while key 2 (at 3) is unlisted
        Q = np.array([[0.0]])
        lists = _NeighbourLists(Q)
        lists.nearest(np.array([[1.0], [2.0], [3.0]]), np.array([0, 1, 2]), 1)
        lists.nearest(np.array([[1.0], [3.0]]), np.array([0, 2]), 1)
        lists.nearest(np.array([[1.0], [3.0], [3.5]]), np.array([0, 2, 3]), 1)
        np.testing.assert_array_equal(
            lists.nearest(np.array([[3.0], [3.5]]), np.array([2, 3]), 1), [[0]])

    def test_without_keys_nothing_is_kept(self):
        Q = np.array([[0.0], [5.0]])
        P = np.array([[1.0], [4.0], [6.0]])
        lists = _NeighbourLists(Q)
        np.testing.assert_array_equal(lists.nearest(P, None, 2), nearest_rows(P, Q, 2))
        assert lists.keys is None
        assert lists.nearest(P[:0], np.array([], dtype=int), 2).shape == (2, 0)


def full_update(lists, P, keys, tail):
    """(keys, distances, counts, bounds) of the lists after an update of the
    pool to P whose rows from `tail` on are appended, with every (query,
    appended row) distance computed exactly and each list merged row by row."""
    Q, D, n_app = lists.Q, lists.depth, len(P) - tail
    d_app = np.linalg.norm(P[np.tile(np.arange(tail, len(P)), len(Q))]
                           - Q[np.repeat(np.arange(len(Q)), n_app)], axis=1).reshape(len(Q), n_app)
    nb_k, nb_d = np.full_like(lists.nb_k, -1), np.full_like(lists.nb_d, np.inf)
    count, bound = lists.count.copy(), lists.bound.copy()
    for r in range(len(Q)):
        entries = [(lists.nb_d[r, c], lists.nb_k[r, c]) for c in range(lists.count[r])
                   if lists.nb_k[r, c] in keys]
        entries += [(d_app[r, j], keys[tail + j]) for j in range(n_app) if d_app[r, j] < bound[r]]
        entries.sort(key=lambda e: e[0])   # stable: list entries first, then by key
        entries = entries[:D]
        count[r] = len(entries)
        for c, (dist, key) in enumerate(entries):
            nb_d[r, c], nb_k[r, c] = dist, key
        if count[r] == D:
            bound[r] = nb_d[r, -1]
    return nb_k, nb_d, count, bound


class TestScreenedUpdate:
    # squares near 1e154 overflow in the distances as in the full computation
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(KINDS + ("grid",) * 4), n0=st.integers(1, 30),
           n_q=st.integers(1, 12), d=st.integers(1, 4), k=st.integers(1, 6),
           n_tie=st.integers(0, 4), n_new=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
    def test_update_matches_the_full_pair_computation(self, kind, n0, n_q, d, k, n_tie, n_new,
                                                      seed):
        rng = np.random.default_rng(seed)
        P = make_rows(kind, n0, d, rng)
        Q = np.vstack([P[rng.integers(0, n0, size=n_q // 2)],
                       make_rows(kind, n_q - n_q // 2, d, rng)])
        lists = _NeighbourLists(Q)
        lists.nearest(P, np.arange(n0), k)
        # appended: copies of some queries' last listed rows, exactly at their
        # bound distance once the lists are full, copies of queries and fresh rows
        last = lists.nb_k[rng.integers(0, n_q, size=n_tie), lists.count[0] - 1]
        A = np.vstack([P[last], Q[rng.integers(0, n_q, size=rng.integers(0, 3))],
                       make_rows(kind, n_new, d, rng)])
        kept = rng.random(n0) >= rng.choice([0.0, 0.1, 0.5])
        P2 = np.vstack([P[kept], A])
        if len(P2) == 0:
            return
        keys2 = np.concatenate([np.flatnonzero(kept), n0 + np.arange(len(A))])
        want = full_update(lists, P2, keys2, int(kept.sum()))
        lists._update(P2, keys2, int(kept.sum()))
        np.testing.assert_array_equal(lists.nb_k, want[0])
        assert lists.nb_d.tobytes() == want[1].tobytes()
        np.testing.assert_array_equal(lists.count, want[2])
        assert lists.bound.tobytes() == want[3].tobytes()

    def test_near_ties_below_the_rounding_of_the_squares_are_admitted(self):
        # |q|^2 = 9 rounds at about 1e-15, the squared distances are below 4e-24
        Q = np.array([[3.0]])
        P = 3.0 + np.array([[1e-12], [2e-12]])
        for t in range(1, 20):
            lists = _NeighbourLists(Q)
            lists.nearest(P, np.arange(2), 1)
            appended = np.vstack([P, [[3.0 + t * 1e-13]]])
            np.testing.assert_array_equal(lists.nearest(appended, np.arange(3), 1),
                                          nearest_rows(appended, Q, 1))
            assert 2 in lists.nb_k[0]   # nearer than the bound, about 2e-12

    # the query's 2k = 2 entries, at 3e153 and 4e153, set the bound; the
    # appended row at 1.5e153 is nearer and must be admitted
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("q, appended", [
        (1.2e154, 1.35e154),   # |a|^2 overflows; |q|^2 + b^2 does not
        (2.0e154, 2.15e154),   # both overflow
        (-2.0e154, -2.15e154),
    ])
    def test_overflowing_squares_admit_near_rows(self, q, appended):
        Q = np.array([[q]])
        P = np.array([[q - 3e153], [q + 4e153]])
        lists = _NeighbourLists(Q)
        np.testing.assert_array_equal(lists.nearest(P, np.arange(2), 1), [[0]])
        P = np.vstack([P, [[appended]]])
        np.testing.assert_array_equal(lists.nearest(P, np.arange(3), 1), [[2]])
        np.testing.assert_array_equal(lists.nb_k, [[2, 0]])

    def test_far_appended_rows_get_no_exact_distance(self, monkeypatch):
        rng = np.random.default_rng(0)
        Q, P = rng.normal(size=(20, 3)), rng.normal(size=(40, 3))
        lists = _NeighbourLists(Q)
        lists.nearest(P, np.arange(40), 3)   # 40 rows fill every list of 2k = 6
        A = np.vstack([Q[:2], 1e3 + rng.normal(size=(30, 3))])   # 30 rows far away
        P2 = np.vstack([P, A])
        want = nearest_rows(P2, Q, 3)
        admitted = (cdist(Q, A) < lists.bound[:, None]).sum()
        assert 2 <= admitted <= 40
        pairs = []
        real = np.linalg.norm

        def counting(x, *args, **kwargs):
            pairs.append(len(x))
            return real(x, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "norm", counting)
        got = lists.nearest(P2, np.arange(len(P2)), 3)
        monkeypatch.undo()
        np.testing.assert_array_equal(got, want)
        assert sum(pairs) == admitted   # of 20 * 32 pairs


class SearchCounter:
    """Counts the exact searches (the _nearest kernel behind nearest_rows and
    the neighbour lists) and the query rows of each."""

    def __init__(self, monkeypatch):
        self.queries = []
        real = pruning._nearest

        def counting(Q, P, k, exclude=None):
            self.queries.append(len(np.atleast_2d(P)))
            return real(Q, P, k, exclude)
        monkeypatch.setattr(pruning, "_nearest", counting)


def test_plain_boost_searches_the_training_rows_once(monkeypatch):
    counter = SearchCounter(monkeypatch)
    data = grid_with_duplicates(1)
    ens = fit_boosted(data, BoostConfig(t_max=6, rebalancer="none"), KNNLearner, RandomSource(0))
    assert len(ens.learners) > 1
    assert counter.queries == [len(data)]
    ens.decision_function(data.X[:17])
    assert counter.queries == [len(data), 17]


def test_plain_boost_experiment_searches_once_per_side_and_replication(monkeypatch):
    counter = SearchCounter(monkeypatch)
    data = grid_with_duplicates(2)
    report = run_experiment(data, ExperimentConfig(method="plain_boost", base_learner="knn",
                                                   t_max=5, replications=3, seed=4))
    train = len(data) - len(report["replications"][0]["test_indices"])
    assert counter.queries == [train, len(data) - train] * 3


@pytest.mark.parametrize("rebalancer", ["double_pruning", "smote", "random_under"])
@pytest.mark.parametrize("fresh", [False, True])
def test_loaded_ensemble_margin_is_bitwise_equal(rebalancer, fresh):
    data = grid_with_duplicates(3)
    cfg = BoostConfig(t_max=6, k=5, rebalancer=rebalancer, fresh_pools=fresh)
    ens = fit_boosted(data, cfg, KNNLearner, RandomSource(9))
    X = np.vstack([data.X, np.random.default_rng(0).integers(0, 6, size=(30, 3))])
    loaded = BoostedEnsemble.from_json(ens.to_json())
    assert all(learner.pool_keys is None for learner in loaded.learners)
    assert loaded.decision_function(X).tobytes() == ens.decision_function(X).tobytes()


def _full_search(self, P, keys, k):
    return nearest_rows(P, self.Q, k)


@settings(max_examples=20, deadline=None)
@given(method=st.sampled_from(["re_smoteboost", "smoteboost", "rusboost", "plain_boost"]),
       grid=st.booleans(), fresh=st.booleans(), n_maj=st.integers(25, 60),
       n_min=st.integers(4, 15), data_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**32))
def test_reports_equal_a_full_search_every_round(method, grid, fresh, n_maj, n_min, data_seed,
                                                 seed):
    data = (grid_with_duplicates(data_seed, n_maj, n_min) if grid
            else make_gaussian_blobs(n_maj, n_min, 2, 1.0, data_seed))
    cfg = ExperimentConfig(method=method, base_learner="knn", replications=2, seed=seed,
                           fresh_pools=fresh)
    carried = run_experiment(data, cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_NeighbourLists, "nearest", _full_search)
        full = run_experiment(data, cfg)
    carried.pop("timing"), full.pop("timing")
    assert carried == full
