"""Blob generation, CSV round-trips, and deterministic batching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectidistill.data import (
    Dataset,
    atomic_write,
    batch_iter,
    class_centers,
    load_csv,
    make_blobs,
    save_csv,
)
from rectidistill.errors import DataParseError, InvalidInputError, InvalidParameterError
from rectidistill.train import TEACHER_METRICS_COLUMNS, write_metrics_csv


def nearest_center_accuracy(ds: Dataset, centers: np.ndarray) -> float:
    d2 = ((ds.features[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return float(np.mean(np.argmin(d2, axis=1) == ds.labels))


class TestMakeBlobs:
    def test_tiny_spread_is_perfectly_separable(self):
        ds = make_blobs(4, 25, 2, spread=1e-9, seed=3)
        centers = class_centers(4, 2, 3)
        assert nearest_center_accuracy(ds, centers) == 1.0

    def test_same_seed_same_bytes(self):
        a = make_blobs(3, 10, 2, 0.5, seed=7)
        b = make_blobs(3, 10, 2, 0.5, seed=7)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seed_differs(self):
        a = make_blobs(3, 10, 2, 0.5, seed=7)
        b = make_blobs(3, 10, 2, 0.5, seed=8)
        assert not np.array_equal(a.features, b.features)

    def test_nearest_center_ceiling_at_spread_1_2(self):
        # ~7% Bayes error for 4 blobs on a radius-3 ring with sigma=1.2;
        # this bounds what any teacher can reach on held-out data
        ds = make_blobs(4, 2500, 2, spread=1.2, seed=1)
        acc = nearest_center_accuracy(ds, class_centers(4, 2, 1))
        assert 0.88 <= acc <= 0.97

    def test_high_dim_centers_have_radius_three(self):
        centers = class_centers(5, 7, seed=2)
        np.testing.assert_allclose(np.linalg.norm(centers, axis=1), 3.0, atol=1e-12)

    def test_invalid_parameters_raise(self):
        with pytest.raises(InvalidParameterError):
            make_blobs(1, 10, 2, 0.5, seed=0)
        with pytest.raises(InvalidParameterError):
            make_blobs(3, 0, 2, 0.5, seed=0)
        with pytest.raises(InvalidParameterError):
            make_blobs(3, 10, 2, 0.0, seed=0)


class TestCsv:
    def test_hand_fixture(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("label,f0,f1\n0,1.5,-2.0\n1,0.25,3.0\n1,0.0,0.0\n")
        ds = load_csv(path, 2)
        np.testing.assert_array_equal(
            ds.features, [[1.5, -2.0], [0.25, 3.0], [0.0, 0.0]]
        )
        assert ds.labels.tolist() == [0, 1, 1]
        assert ds.n_classes == 2

    def test_empty_data_section_raises(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("label,f0,f1\n")
        with pytest.raises(InvalidInputError):
            load_csv(path, 2)

    def test_ragged_row_reports_row_number(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("label,f0,f1\n0,1.0,2.0\n1,3.0\n")
        with pytest.raises(DataParseError, match=":3:"):
            load_csv(path, 2)

    def test_non_numeric_cell_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,f0\n0,abc\n")
        with pytest.raises(DataParseError, match=":2:"):
            load_csv(path, 2)

    def test_negative_label_raises(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("label,f0\n-1,0.5\n")
        with pytest.raises(DataParseError):
            load_csv(path, 2)

    def test_label_at_class_count_reports_row_number(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("label,f0\n0,0.5\n1,0.5\n2,0.5\n")
        with pytest.raises(DataParseError, match=":4: label 2 outside"):
            load_csv(path, 2)

    def test_class_count_comes_from_caller_not_largest_label(self, tmp_path):
        path = tmp_path / "no-top-class.csv"
        path.write_text("label,f0\n0,0.5\n1,0.5\n")
        assert load_csv(path, 3).n_classes == 3

    def test_round_trip_of_blobs(self, tmp_path):
        ds = make_blobs(3, 20, 4, 0.8, seed=9)
        path = tmp_path / "blobs.csv"
        save_csv(ds, path)
        back = load_csv(path, 3)
        # repr serialization round-trips float64 exactly
        assert np.array_equal(ds.features, back.features)
        assert np.array_equal(ds.labels, back.labels)
        assert back.n_classes == 3


class TestBatchIter:
    def _tiny(self, n=17):
        feats = np.arange(n, dtype=float)[:, None].repeat(2, axis=1)
        labels = np.zeros(n, dtype=np.int64)
        labels[0] = 1
        return Dataset(feats, labels, 2)

    def test_single_batch_when_batch_size_covers_all(self):
        ds = self._tiny(8)
        batches = batch_iter(ds, 100, seed=1, epoch=0)
        assert len(batches) == 1
        assert sorted(batches[0].tolist()) == list(range(8))

    def test_every_sample_exactly_once(self):
        ds = self._tiny(17)
        batches = batch_iter(ds, 5, seed=3, epoch=2)
        flat = np.concatenate(batches)
        assert sorted(flat.tolist()) == list(range(17))
        assert [len(b) for b in batches] == [5, 5, 5, 2]

    def test_epoch_changes_permutation_seed_fixes_it(self):
        ds = self._tiny(30)
        a0 = np.concatenate(batch_iter(ds, 7, seed=7, epoch=0))
        a0_again = np.concatenate(batch_iter(ds, 7, seed=7, epoch=0))
        a1 = np.concatenate(batch_iter(ds, 7, seed=7, epoch=1))
        assert np.array_equal(a0, a0_again)
        assert not np.array_equal(a0, a1)

    def test_invalid_batch_size(self):
        with pytest.raises(InvalidParameterError):
            batch_iter(self._tiny(), 0, seed=1, epoch=0)

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(1, 60),
        batch=st.integers(1, 70),
        seed=st.integers(0, 1000),
        epoch=st.integers(0, 30),
    )
    def test_permutation_law(self, n, batch, seed, epoch):
        feats = np.zeros((n, 2))
        ds = Dataset(feats, np.zeros(n, dtype=np.int64), 2)
        flat = np.concatenate(batch_iter(ds, batch, seed, epoch))
        assert sorted(flat.tolist()) == list(range(n))


class TestAtomicWrite:
    def test_success_replaces_file_and_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with atomic_write(path) as fh:
            fh.write("new\n")
        assert path.read_text() == "new\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_writer_raising_mid_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "metrics.csv"
        good = [{"epoch": 0, "loss_ce": 1.0, "train_acc": 0.5, "val_acc": 0.5}]
        write_metrics_csv(good, path, columns=TEACHER_METRICS_COLUMNS)
        before = path.read_bytes()
        # the second row lacks a column, so the writer raises after streaming the first
        with pytest.raises(KeyError):
            write_metrics_csv(good + [{"epoch": 1}], path, columns=TEACHER_METRICS_COLUMNS)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
