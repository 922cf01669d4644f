"""Blob generation, CSV round-trips, and deterministic batching."""

import csv
import hashlib
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectidistill.data import (
    Dataset,
    atomic_write,
    batch_slices,
    blob_splits,
    class_centers,
    epoch_permutation,
    load_csv,
    save_csv,
    write_table,
)
from rectidistill.errors import InvalidInputError
from rectidistill.rng import BLOBS, generator

# Values whose shortest repr is awkward: signed zero, the smallest subnormal,
# a near-overflow magnitude, non-terminating binary fractions, a tiny negative.
AWKWARD_FLOATS = [-0.0, 5e-324, 1e308, 0.1, 1 / 3, -1.5e-10]


def csv_writer_save_csv(ds: Dataset, path) -> None:
    """The csv.writer implementation save_csv replaced, kept as the byte oracle."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["label"] + [f"f{i}" for i in range(ds.features.shape[1])])
        for label, row in zip(ds.labels, ds.features):
            writer.writerow([int(label)] + [repr(float(v)) for v in row])


def per_class_blobs(n_classes, per_class, dim, spread, seed):
    """The class-by-class loop blob_splits replaced, kept as the oracle."""
    centers = class_centers(n_classes, dim, seed)
    rng = generator(seed, BLOBS)
    features = np.empty((n_classes * per_class, dim))
    labels = np.empty(n_classes * per_class, dtype=np.int64)
    for c in range(n_classes):
        sl = slice(c * per_class, (c + 1) * per_class)
        features[sl] = centers[c] + spread * rng.standard_normal((per_class, dim))
        labels[sl] = c
    return features, labels


def nearest_center_accuracy(ds: Dataset, centers: np.ndarray) -> float:
    d2 = ((ds.features[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return float(np.mean(np.argmin(d2, axis=1) == ds.labels))


class TestBlobSplits:
    def test_tiny_spread_is_perfectly_separable(self):
        ds = blob_splits(4, (25,), 2, spread=1e-9, seed=3)[0]
        centers = class_centers(4, 2, 3)
        assert nearest_center_accuracy(ds, centers) == 1.0

    def test_same_seed_same_bytes(self):
        a = blob_splits(3, (10,), 2, 0.5, seed=7)[0]
        b = blob_splits(3, (10,), 2, 0.5, seed=7)[0]
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seed_differs(self):
        a = blob_splits(3, (10,), 2, 0.5, seed=7)[0]
        b = blob_splits(3, (10,), 2, 0.5, seed=8)[0]
        assert not np.array_equal(a.features, b.features)

    def test_nearest_center_ceiling_at_spread_1_2(self):
        # ~7% Bayes error for 4 blobs on a radius-3 ring with sigma=1.2;
        # this bounds what any teacher can reach on held-out data
        ds = blob_splits(4, (2500,), 2, spread=1.2, seed=1)[0]
        acc = nearest_center_accuracy(ds, class_centers(4, 2, 1))
        assert 0.88 <= acc <= 0.97

    def test_high_dim_centers_have_radius_three(self):
        centers = class_centers(5, 7, seed=2)
        np.testing.assert_allclose(np.linalg.norm(centers, axis=1), 3.0, atol=1e-12)

    @pytest.mark.parametrize(
        "shape", [(2, 1, 1, 0.5, 0), (4, 100, 2, 1.2, 1), (7, 13, 5, 0.3, 42), (100, 20, 32, 1.2, 3)]
    )
    def test_matches_per_class_loop(self, shape):
        n_classes, per_class, *rest = shape
        ds = blob_splits(n_classes, (per_class,), *rest)[0]
        features, labels = per_class_blobs(*shape)
        assert np.array_equal(ds.features, features)
        assert np.array_equal(ds.labels, labels) and ds.labels.dtype == np.int64

    def test_peak_memory_is_about_the_output(self):
        # each class's rows are drawn, scaled and shifted in place in the output
        (ds,), peak = peak_bytes(blob_splits, 100, (250,), 32, 1.2, 3)
        assert peak <= 1.25 * dataset_bytes(ds)


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
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="no data rows"):
                load_csv(path, 2)

    def test_ragged_row_reports_row_number(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("label,f0,f1\n0,1.0,2.0\n1,3.0\n")
        with pytest.raises(InvalidInputError, match=":3:"):
            load_csv(path, 2)

    def test_non_numeric_cell_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,f0\n0,abc\n")
        with pytest.raises(InvalidInputError, match=":2:"):
            load_csv(path, 2)

    def test_negative_label_raises(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("label,f0\n-1,0.5\n")
        with pytest.raises(InvalidInputError, match=r":2: label -1 outside \[0, 2\)$"):
            load_csv(path, 2)

    def test_label_at_class_count_reports_row_number(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("label,f0\n0,0.5\n1,0.5\n2,0.5\n")
        with pytest.raises(InvalidInputError, match=":4: label 2 outside"):
            load_csv(path, 2)

    def test_class_count_comes_from_caller_not_largest_label(self, tmp_path):
        path = tmp_path / "no-top-class.csv"
        path.write_text("label,f0\n0,0.5\n1,0.5\n")
        assert load_csv(path, 3).n_classes == 3

    @pytest.mark.parametrize(
        "text,lineno",
        [
            ("", 1),
            ("label;f0;f1\n0;1.0;2.0\n", 1),
            ("label,f0,f1\n0,1.0,2.0\n\n1,3.0,4.0\n", 3),
            ("label,f0,f1\n0,1.0,2.0\n1,3.0,4.0\n\n", 4),
            ("label,f0,f1\n0,1.0,2.0\n# note\n", 3),
            ("label,f0,f1\n0,1.0,2.0\n#1,3.0,4.0\n", 3),
            ("label,f0,f1\n0,1.0,2.0\n1.0,3.0,4.0\n", 3),
            ("label,f0,f1\n1,3.0,4.0\n0,,2.0\n", 3),
            ("label,f0,f1\n0,1.0,2.0\n1,3.0,4.0,\n", 3),
        ],
        ids=["empty-file", "bad-header", "blank-mid", "blank-last", "comment", "commented-row",
             "float-label", "empty-cell", "trailing-comma"],
    )
    def test_malformed_line_reports_line_number(self, tmp_path, text, lineno):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(InvalidInputError, match=f":{lineno}:"):
            load_csv(path, 2)

    @pytest.mark.parametrize(
        "text,lineno",
        [
            ('label,f0\n0,0.5\n"1",0.5\n', 3),
            ('label,f0\n0,"0.5"\n', 2),
            ("label,f0\n1_0,0.5\n", 2),
        ],
        ids=["quoted-label", "quoted-feature", "underscore-label"],
    )
    def test_quoted_and_underscore_cells_are_rejected(self, tmp_path, text, lineno):
        path = tmp_path / "quirk.csv"
        path.write_text(text)
        with pytest.raises(InvalidInputError, match=f":{lineno}:"):
            load_csv(path, 20)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_feature_reports_line_number(self, tmp_path, cell):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"label,f0,f1\n0,1.0,2.0\n1,3.0,4.0\n1,0.5,{cell}\n")
        with pytest.raises(InvalidInputError, match=":4: non-finite"):
            load_csv(path, 2)

    def test_single_row_and_crlf_line_endings(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_bytes(b"label,f0,f1\r\n1,0.5,-2.0\r\n")
        ds = load_csv(path, 2)
        np.testing.assert_array_equal(ds.features, [[0.5, -2.0]])
        assert ds.labels.tolist() == [1]

    @pytest.mark.parametrize(
        "ds",
        [
            blob_splits(3, (20,), 4, 0.8, seed=9)[0],
            Dataset(
                np.array([AWKWARD_FLOATS, AWKWARD_FLOATS[::-1], [-x for x in AWKWARD_FLOATS]]),
                np.array([2, 0, 1]),
                3,
            ),
        ],
        ids=["blobs", "awkward-floats"],
    )
    def test_save_is_byte_identical_to_csv_writer(self, tmp_path, ds):
        save_csv(ds, tmp_path / "new.csv")
        csv_writer_save_csv(ds, tmp_path / "oracle.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
        back = load_csv(tmp_path / "new.csv", 3)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(np.signbit(back.features), np.signbit(ds.features))
        assert np.array_equal(back.labels, ds.labels)
        assert back.features.flags.c_contiguous

    def test_round_trip_of_blobs(self, tmp_path):
        ds = blob_splits(3, (20,), 4, 0.8, seed=9)[0]
        path = tmp_path / "blobs.csv"
        save_csv(ds, path)
        back = load_csv(path, 3)
        # repr serialization round-trips float64 exactly
        assert np.array_equal(ds.features, back.features)
        assert np.array_equal(ds.labels, back.labels)
        assert back.n_classes == 3


AWKWARD = Dataset(
    np.array([AWKWARD_FLOATS, AWKWARD_FLOATS[::-1], [-x for x in AWKWARD_FLOATS]]),
    np.array([2, 0, 1]),
    3,
)


@pytest.fixture
def parses(monkeypatch):
    """The number of CSV parses load_csv has run, as a one-item list."""
    count = [0]
    loadtxt = np.loadtxt

    def counting_loadtxt(*args, **kwargs):
        count[0] += 1
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
    return count


def write_sidecar(path, digest: bytes, *records: np.ndarray) -> None:
    """Replace ``path``'s sidecar with ``digest`` followed by ``records`` in ``.npy`` form."""
    with open(f"{path}.rows", "wb") as fh:
        fh.write(digest)
        for record in records:
            np.save(fh, record, allow_pickle=record.dtype.hasobject)


def forged_records(n: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Labels and features of the stored dtypes and shapes whose every value differs from a split's.

    Every label is 2 and every feature 0, so a sidecar of these records that
    load_csv used would show in the dataset it returns.
    """
    return np.full(n, 2, dtype=np.int64), np.zeros((n, dim))


def peak_bytes(fn, *args):
    """What ``fn(*args)`` returns, and the tracemalloc peak of the call."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def dataset_bytes(ds: Dataset) -> int:
    return ds.features.nbytes + ds.labels.nbytes


def csv_digest(path) -> bytes:
    return hashlib.sha256(path.read_bytes()).digest()


def assert_same_dataset(got: Dataset, want: Dataset) -> None:
    assert got.features.dtype == np.float64 and got.labels.dtype == np.int64
    assert np.array_equal(got.features, want.features)
    assert np.array_equal(np.signbit(got.features), np.signbit(want.features))
    assert np.array_equal(got.labels, want.labels)
    assert got.features.flags.c_contiguous and got.n_classes == want.n_classes


class TestSidecar:
    @pytest.mark.parametrize("ds", [blob_splits(3, (20,), 4, 0.8, seed=9)[0], AWKWARD],
                             ids=["blobs", "awkward-floats"])
    def test_hit_equals_the_parse_without_parsing(self, tmp_path, ds, parses):
        path = tmp_path / "split.csv"
        save_csv(ds, path)
        hit = load_csv(path, 3)
        assert parses[0] == 0
        (tmp_path / "split.csv.rows").unlink()
        parsed = load_csv(path, 3)
        assert parses[0] == 1
        assert_same_dataset(hit, parsed)
        assert_same_dataset(hit, ds)

    def test_layout_is_csv_digest_then_labels_and_features_records(self, tmp_path):
        path = tmp_path / "split.csv"
        save_csv(AWKWARD, path)
        with open(tmp_path / "split.csv.rows", "rb") as fh:
            assert fh.read(32) == csv_digest(path)
            labels = np.load(fh, allow_pickle=False)
            features = np.load(fh, allow_pickle=False)
            assert fh.read() == b""
        assert labels.dtype == np.dtype(np.int64) and labels.shape == (3,)
        assert features.dtype == np.dtype(np.float64) and features.shape == (3, 6)
        assert features.flags.c_contiguous
        assert np.array_equal(labels, AWKWARD.labels)
        assert np.array_equal(features, AWKWARD.features)
        assert np.array_equal(np.signbit(features), np.signbit(AWKWARD.features))

    def test_sidecar_bytes_do_not_depend_on_the_arrays_memory_layout(self, tmp_path):
        # int32 labels and Fortran-ordered features store as int64 and C order
        ds = blob_splits(4, (25,), 3, 1.2, seed=5)[0]
        other = Dataset(np.asfortranarray(ds.features), ds.labels.astype(np.int32), 4)
        for name, split in (("a", ds), ("b", other)):
            (tmp_path / name).mkdir()
            save_csv(split, tmp_path / name / "train.csv")
        first, second = (tmp_path / name / "train.csv.rows" for name in ("a", "b"))
        assert first.read_bytes() == second.read_bytes()

    def test_hit_holds_the_dataset_once(self, tmp_path):
        # the two records load into the dataset's own arrays: no row array, no copy
        ds = blob_splits(20, (500,), 32, 1.2, seed=3)[0]
        path = tmp_path / "split.csv"
        save_csv(ds, path)
        hit, peak = peak_bytes(load_csv, path, 20)
        assert_same_dataset(hit, ds)
        assert peak <= 1.25 * dataset_bytes(ds)

    def test_two_saves_give_byte_identical_sidecars(self, tmp_path):
        ds = blob_splits(4, (25,), 3, 1.2, seed=5)[0]
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            save_csv(ds, tmp_path / name / "train.csv")
        first, second = (tmp_path / name / "train.csv.rows" for name in ("a", "b"))
        assert first.read_bytes() == second.read_bytes()
        assert sorted(p.name for p in (tmp_path / "a").iterdir()) == ["train.csv",
                                                                      "train.csv.rows"]

    def test_changed_cell_falls_back_to_the_parse(self, tmp_path, parses):
        path = tmp_path / "split.csv"
        save_csv(Dataset(np.array([[1.5, -2.0], [0.25, 3.0]]), np.array([0, 1]), 2), path)
        path.write_text(path.read_text().replace("0.25", "0.75"))
        ds = load_csv(path, 2)
        assert parses[0] == 1
        np.testing.assert_array_equal(ds.features, [[1.5, -2.0], [0.75, 3.0]])

    @pytest.mark.parametrize("cell,error", [("abc", ":3: non-numeric"), ("nan", ":3: non-finite")])
    def test_bad_cell_after_save_raises_its_parse_error(self, tmp_path, cell, error):
        path = tmp_path / "split.csv"
        save_csv(Dataset(np.array([[1.5, -2.0], [0.25, 3.0]]), np.array([0, 1]), 2), path)
        path.write_text(path.read_text().replace("0.25", cell))
        with pytest.raises(InvalidInputError, match=error):
            load_csv(path, 2)

    @pytest.mark.parametrize("kind", ["empty", "digest-only", "truncated-header", "truncated-data",
                                      "garbage", "pickled", "object-array", "npz",
                                      "missing-second-record", "trailing-bytes", "old-layout"])
    def test_unreadable_sidecar_falls_back_to_the_parse(self, tmp_path, kind, parses):
        ds = blob_splits(3, (10,), 4, 0.8, seed=2)[0]
        path = tmp_path / "split.csv"
        save_csv(ds, path)
        sidecar = tmp_path / "split.csv.rows"
        stored, digest = sidecar.read_bytes(), csv_digest(path)
        # right dtypes and shapes, wrong values: only ever loading without pickle rejects them
        labels, features = forged_records(ds.n, 4)
        if kind == "object-array":
            write_sidecar(path, digest, np.array([ds.features, 1], dtype=object), features)
        elif kind == "npz":
            with open(sidecar, "wb") as fh:
                fh.write(digest)
                np.savez(fh, labels=labels, features=features)
        elif kind == "missing-second-record":
            write_sidecar(path, digest, labels)
        elif kind == "old-layout":
            # one structured record of the rows, as save_csv wrote it before the two records
            rows = np.empty(ds.n, dtype=[("label", np.int64), ("x", np.float64, (4,))])
            rows["label"], rows["x"] = ds.labels, ds.features
            write_sidecar(path, digest, rows)
        else:
            sidecar.write_bytes({
                "empty": b"",
                "digest-only": digest,
                "truncated-header": stored[:60],
                "truncated-data": stored[:-8],
                "garbage": digest + bytes(range(256)) * 8,
                "pickled": digest + pickle.dumps((labels, features)),
                "trailing-bytes": stored + b"\0",
            }[kind])
        assert_same_dataset(load_csv(path, 3), ds)
        assert parses[0] == 1

    @pytest.mark.parametrize("kind", ["float32-features", "int32-labels", "wider-rows",
                                      "swapped-byte-order", "swapped-labels", "swapped-features",
                                      "two-dimensional", "one-dimensional-features",
                                      "plain-floats", "length-mismatch", "fortran-order"])
    def test_wrong_dtype_or_shape_falls_back_to_the_parse(self, tmp_path, kind, parses):
        ds = blob_splits(3, (10,), 4, 0.8, seed=2)[0]
        path = tmp_path / "split.csv"
        save_csv(ds, path)
        labels, features = forged_records(ds.n, 4)
        records = {"float32-features": (labels, features.astype(np.float32)),
                   "int32-labels": (labels.astype(np.int32), features),
                   "wider-rows": (labels, np.zeros((ds.n, 5))),
                   "swapped-byte-order": (labels.astype(">i8"), features.astype(">f8")),
                   "swapped-labels": (labels.astype(">i8"), features),
                   "swapped-features": (labels, features.astype(">f8")),
                   "two-dimensional": (labels[:, None], features),
                   "one-dimensional-features": (labels, features.ravel()),
                   "plain-floats": (labels.astype(np.float64), features),
                   "length-mismatch": (labels[:-1], features),
                   "fortran-order": (labels, np.asfortranarray(features))}[kind]
        write_sidecar(path, csv_digest(path), *records)
        assert_same_dataset(load_csv(path, 3), ds)
        assert parses[0] == 1

    def _sidecar_with_a_huge_header(self, tmp_path, record: int, stale: bool = True):
        """A sidecar whose ``record`` (0: labels, 1: features) claims 10**12 rows."""
        # that header would ask numpy for 7.3 TiB of labels or 29 TiB of features
        ds = blob_splits(3, (10,), 4, 0.8, seed=2)[0]
        path = tmp_path / "split.csv"
        save_csv(ds, path)
        labels, features = forged_records(ds.n, 4)
        with open(tmp_path / "split.csv.rows", "wb") as fh:
            fh.write(bytes(32) if stale else csv_digest(path))
            if record == 1:
                np.save(fh, labels)
            huge = (labels, features)[record]
            np.lib.format.write_array_header_1_0(fh, {
                "descr": np.lib.format.dtype_to_descr(huge.dtype),
                "fortran_order": False, "shape": (10**12, *huge.shape[1:])})
            fh.write(huge.tobytes())
        return path, ds

    def test_stale_sidecar_is_not_read_past_its_digest(self, tmp_path, parses):
        path, ds = self._sidecar_with_a_huge_header(tmp_path, record=0)
        assert_same_dataset(load_csv(path, 3), ds)
        assert parses[0] == 1

    def test_stale_sidecar_second_record_is_not_read_past_its_digest(self, tmp_path, parses):
        path, ds = self._sidecar_with_a_huge_header(tmp_path, record=1)
        assert_same_dataset(load_csv(path, 3), ds)
        assert parses[0] == 1

    @pytest.mark.parametrize("record", [0, 1], ids=["labels", "features"])
    def test_bound_sidecar_with_a_huge_header_falls_back_to_the_parse(self, tmp_path, record,
                                                                      parses):
        # the allocation fails (or, where memory is overcommitted, the short read
        # does), so the header never reaches the caller as a MemoryError
        path, ds = self._sidecar_with_a_huge_header(tmp_path, record, stale=False)
        assert_same_dataset(load_csv(path, 3), ds)
        assert parses[0] == 1

    def test_missing_sidecar_parses_as_before(self, tmp_path, parses):
        ds = blob_splits(3, (10,), 4, 0.8, seed=2)[0]
        path = tmp_path / "split.csv"
        save_csv(ds, path)
        (tmp_path / "split.csv.rows").unlink()
        assert_same_dataset(load_csv(path, 3), ds)
        assert parses[0] == 1

    def test_label_at_class_count_names_the_same_line_either_way(self, tmp_path, parses):
        ds = Dataset(np.zeros((4, 2)), np.array([0, 1, 2, 1]), 3)
        path = tmp_path / "split.csv"
        save_csv(ds, path)
        with pytest.raises(InvalidInputError, match=":4: label 2 outside") as via_sidecar:
            load_csv(path, 2)
        assert parses[0] == 0
        (tmp_path / "split.csv.rows").unlink()
        with pytest.raises(InvalidInputError, match=":4: label 2 outside") as via_parse:
            load_csv(path, 2)
        assert parses[0] == 1
        assert str(via_sidecar.value) == str(via_parse.value)
        assert ":4: label 2 outside [0, 2)" in str(via_sidecar.value)


class TestBatchSlices:
    """An epoch's batches: its ``epoch_permutation`` cut by ``batch_slices``, as training cuts it."""

    @staticmethod
    def _batches(n, batch_size, seed, epoch):
        perm = epoch_permutation(n, seed, epoch)
        return [perm[pos] for pos in batch_slices(n, batch_size)]

    def test_single_batch_when_batch_size_covers_all(self):
        batches = self._batches(8, 100, seed=1, epoch=0)
        assert len(batches) == 1
        assert sorted(batches[0].tolist()) == list(range(8))

    def test_every_sample_exactly_once(self):
        batches = self._batches(17, 5, seed=3, epoch=2)
        flat = np.concatenate(batches)
        assert sorted(flat.tolist()) == list(range(17))
        assert [len(b) for b in batches] == [5, 5, 5, 2]

    def test_slices_are_consecutive_and_only_the_last_is_short(self):
        assert batch_slices(17, 5) == [slice(0, 5), slice(5, 10), slice(10, 15), slice(15, 20)]
        assert batch_slices(10, 5) == [slice(0, 5), slice(5, 10)]

    def test_epoch_changes_permutation_seed_fixes_it(self):
        a0 = np.concatenate(self._batches(30, 7, seed=7, epoch=0))
        a0_again = np.concatenate(self._batches(30, 7, seed=7, epoch=0))
        a1 = np.concatenate(self._batches(30, 7, seed=7, epoch=1))
        assert np.array_equal(a0, a0_again)
        assert not np.array_equal(a0, a1)

    @pytest.mark.parametrize("seed,epoch", [(0, 0), (7, 3), (12345, 59)])
    def test_permutation_is_an_int64_permutation_of_range_n(self, seed, epoch):
        for n in [*range(1, 300), 1000, 4097, 20000, 65537]:
            got = epoch_permutation(n, seed, epoch)
            assert got.dtype == np.int64
            assert np.array_equal(np.sort(got), np.arange(n)), n

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(1, 60),
        batch=st.integers(1, 70),
        seed=st.integers(0, 1000),
        epoch=st.integers(0, 30),
    )
    def test_permutation_law(self, n, batch, seed, epoch):
        flat = np.concatenate(self._batches(n, batch, seed, epoch))
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
        columns = ("epoch", "loss_ce", "train_acc", "val_acc")
        good = [(0, 1.0, 0.5, 0.5)]
        write_table(path, columns, good)
        before = path.read_bytes()
        # the second row's cell is no number, so the writer raises after streaming the first
        with pytest.raises(TypeError):
            write_table(path, columns, good + [(1, None, 0.5, 0.5)])
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]


class TestWriteTable:
    def test_cell_rule(self, tmp_path):
        path = tmp_path / "table.csv"
        write_table(path, ("i", "x", "missing", "np", "name"),
                    [(3, 0.1, float("nan"), np.float64(1 / 3), "full"),
                     (-7, 5e-324, 2.0, np.float64(-0.0), "step-b")])
        assert path.read_text() == ("i,x,missing,np,name\n"
                                    "3,0.1,nan,0.3333333333333333,full\n"
                                    "-7,5e-324,2.0,-0.0,step-b\n")
