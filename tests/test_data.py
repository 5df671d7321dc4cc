import copy
import pickle
import re

import numpy as np
import pytest

from resmoteboost import (
    Dataset,
    NEGATIVE,
    POSITIVE,
    RandomSource,
    SplitSpec,
    load_csv,
    make_gaussian_blobs,
    partition_by_class,
    save_csv,
    split_indices,
)


def write_csv(path, text):
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_three_row_parse(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,b,label\n0,1,yes\n2,3,no\n4,5,no\n")
        data = load_csv(p, "label", "yes")
        assert len(data) == 3
        assert data.dimension == 2
        assert data.n_positive == 1
        assert data.n_negative == 2
        assert data.feature_names == ("a", "b")

    def test_unparseable_cell_names_row_and_column(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,b,label\n0,abc,yes\n1,2,no\n")
        with pytest.raises(ValueError, match=r"row 1.*'b'"):
            load_csv(p, "label", "yes")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", "label", "yes")

    def test_missing_label_column(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,b\n0,1\n2,3\n")
        with pytest.raises(ValueError, match="not found"):
            load_csv(p, "label", "yes")

    def test_duplicate_label_column(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,label,label\n0,yes,no\n1,no,no\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_csv(p, "label", "yes")

    def test_too_few_rows(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,label\n0,yes\n")
        with pytest.raises(ValueError, match="at least 2"):
            load_csv(p, "label", "yes")

    def test_single_label_value(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "a,label\n0,no\n1,no\n")
        with pytest.raises(ValueError, match="one label"):
            load_csv(p, "label", "yes")

    def test_label_column_by_index(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "label,a\nyes,0\nno,1\n")
        data = load_csv(p, 0, "yes")
        assert data.dimension == 1
        assert data.n_positive == 1

    def test_round_trip(self, tmp_path):
        data = make_gaussian_blobs(20, 10, 3, 1.7, 5)
        save_csv(data, tmp_path / "out.csv")
        back = load_csv(tmp_path / "out.csv", "label", "pos")
        np.testing.assert_array_equal(back.X, data.X)
        np.testing.assert_array_equal(back.y, data.y)


class TestPartition:
    def test_counts(self):
        X = np.zeros((10, 1))
        y = np.array([NEGATIVE] * 7 + [POSITIVE] * 3)
        part = partition_by_class(Dataset(X, y))
        assert len(part.majority) == 7
        assert len(part.minority) == 3

    def test_role_swap(self):
        # positives outnumber negatives: roles are not swapped, majority
        # still means the negative rows
        X = np.arange(10.0).reshape(10, 1)
        y = np.array([NEGATIVE] * 3 + [POSITIVE] * 7)
        part = partition_by_class(Dataset(X, y, source_tag="t"))
        np.testing.assert_array_equal(part.majority[:, 0], [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(part.minority[:, 0], np.arange(3.0, 10.0))
        assert len(part.majority) / len(part.minority) == pytest.approx(3 / 7)

    def test_single_class_errors(self):
        X = np.zeros((5, 1))
        y = np.full(5, NEGATIVE)
        with pytest.raises(ValueError):
            partition_by_class(Dataset(X, y))

    def test_union_preserves_multiset(self):
        data = make_gaussian_blobs(30, 10, 2, 1.0, 3)
        part = partition_by_class(data)
        merged = np.vstack([part.majority, part.minority])
        assert sorted(map(tuple, merged)) == sorted(map(tuple, data.X))


class TestImbalanceRatio:
    @staticmethod
    def ratio(data):
        part = partition_by_class(data)
        return len(part.majority) / len(part.minority)

    def test_direct(self):
        data = make_gaussian_blobs(190, 100, 2, 1.0, 0)
        assert self.ratio(data) == pytest.approx(1.90)

    def test_balanced(self):
        data = make_gaussian_blobs(100, 100, 2, 1.0, 0)
        # equal sizes: ratio exactly 1
        assert self.ratio(data) == 1.0


class TestSubset:
    data = make_gaussian_blobs(3, 2, 1, 1.0, 0)

    def test_integer_positions_in_order(self):
        sub = self.data.subset(np.array([4, 0, 4], dtype=np.uint8))
        np.testing.assert_array_equal(sub.X, self.data.X[[4, 0, 4]])
        np.testing.assert_array_equal(sub.y, self.data.y[[4, 0, 4]])

    @pytest.mark.parametrize("indices", [[False, False, True, True, True], [2.7, 3.2]])
    def test_mask_or_float_positions_rejected(self, indices):
        # a mask was read as the positions 0 and 1, floats were truncated
        dtype = np.asarray(indices).dtype
        with pytest.raises(ValueError, match=f"integer positions, got dtype {dtype}"):
            self.data.subset(indices)

    @pytest.mark.parametrize("indices", [[], np.array([], dtype=int)])
    def test_empty_positions_give_an_empty_dataset(self, indices):
        sub = self.data.subset(indices)
        assert len(sub) == 0 and sub.dimension == 1


def split(data, spec, rng):
    train_idx, test_idx = split_indices(data, spec, rng)
    return data.subset(train_idx), data.subset(test_idx)


class TestStratifiedSplit:
    def test_proportional_allocation(self):
        data = make_gaussian_blobs(80, 20, 2, 2.0, 0)
        train, test = split(data, SplitSpec(train_fraction=0.8), RandomSource(1))
        assert (train.n_negative, train.n_positive) == (64, 16)
        assert (test.n_negative, test.n_positive) == (16, 4)

    def test_half_split(self):
        data = make_gaussian_blobs(4, 2, 2, 2.0, 0)
        train, test = split(data, SplitSpec(train_fraction=0.5), RandomSource(1))
        assert (train.n_negative, train.n_positive) == (2, 1)
        assert (test.n_negative, test.n_positive) == (2, 1)

    def test_determinism_and_seed_sensitivity(self):
        data = make_gaussian_blobs(40, 10, 2, 2.0, 0)
        spec = SplitSpec()
        a1, _ = split(data, spec, RandomSource(9))
        a2, _ = split(data, spec, RandomSource(9))
        np.testing.assert_array_equal(a1.X, a2.X)
        differs = False
        for s in range(100):
            b, _ = split(data, spec, RandomSource(s))
            if not np.array_equal(a1.X, b.X):
                differs = True
                break
        assert differs

    def test_split_is_partition(self):
        data = make_gaussian_blobs(33, 11, 2, 1.0, 4)
        train, test = split(data, SplitSpec(), RandomSource(2))
        merged = sorted(map(tuple, np.vstack([train.X, test.X])))
        assert merged == sorted(map(tuple, data.X))

    def test_small_class_errors(self):
        X = np.zeros((3, 1))
        y = np.array([NEGATIVE, NEGATIVE, POSITIVE])
        with pytest.raises(ValueError):
            split(Dataset(X, y), SplitSpec(), RandomSource(0))


class TestRandomSource:
    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_bad_seed_rejected(self, seed):
        message = f"seed must be an integer >= 0, got {seed!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            RandomSource(seed)

    def test_draws_are_numpy_generator_draws(self):
        rng, gen = RandomSource(5), np.random.Generator(np.random.PCG64(5))
        assert rng.uniform() == gen.random()
        np.testing.assert_array_equal(rng.uniform(size=4), gen.random(4))
        assert rng.bit_generator.state == gen.bit_generator.state

    @pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy,
                                        lambda r: pickle.loads(pickle.dumps(r))])
    def test_copy_is_a_random_source_that_continues_the_stream(self, copier):
        rng = RandomSource(7)
        rng.integers(0, 5)                    # leaves a buffered 32-bit half
        twin = copier(rng)
        assert type(twin) is RandomSource and twin.seed == 7
        np.testing.assert_array_equal(twin.rounds([3, None], 4), rng.rounds([3, None], 4))
        assert twin.bit_generator.state == rng.bit_generator.state


class TestBlobs:
    def test_counts_and_determinism(self):
        a = make_gaussian_blobs(50, 10, 3, 2.0, 11)
        b = make_gaussian_blobs(50, 10, 3, 2.0, 11)
        assert len(a) == 60
        assert a.n_negative == 50
        np.testing.assert_array_equal(a.X, b.X)

    def test_separation_shifts_minority(self):
        a = make_gaussian_blobs(200, 200, 2, 10.0, 0)
        pos_mean = a.X[a.y == POSITIVE, 0].mean()
        neg_mean = a.X[a.y == NEGATIVE, 0].mean()
        assert pos_mean - neg_mean == pytest.approx(10.0, abs=0.5)

    def test_zero_minority_errors(self):
        with pytest.raises(ValueError):
            make_gaussian_blobs(10, 0, 2, 1.0, 0)
