"""Dataset generation, CSV load/save, atomic artifact writes, and deterministic batching.

CSV schema: header ``label,f0,f1,...``; one sample per row; an integer label, then
decimal floats. Every parse error names its file line, and every artifact the
package writes goes through ``atomic_write``, every run table through ``write_table``.

``save_csv`` also writes a sidecar ``<csv>.rows``: the 32-byte sha256 of the CSV's
bytes, then the int64 ``(n,)`` labels and the float64 ``(n, d)`` features as two
``np.save`` records. ``load_csv`` loads those as the dataset's arrays, instead of
parsing, only while that digest matches the CSV, so the CSV stays the one source of truth.

Batching permutes indices with numpy's ``Generator.permutation`` on the PCG64 stream
keyed by ``(seed, SHUFFLE, epoch)``, ``SHUFFLE = 0x5F``, so every epoch visits each
sample once, reproducibly bit-for-bit under one numpy version (NEP 19 keeps no stream
across versions; see ``rng``); ``batch_slices`` cuts that permutation into the epoch's
batches.
"""

import contextlib
import hashlib
import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .rng import BLOBS, CENTRES, SHUFFLE, generator

# Every text file the package reads or writes: a byte that is not UTF-8 becomes a lone
# surrogate, which fails the parse of its line, and is written back as the same byte.
TEXT = {"encoding": "utf-8", "errors": "surrogateescape"}


def plain_number_text(text: str) -> bool:
    """ASCII without ``_``, as every number read: int() also reads 1_0 and non-ASCII digits."""
    return text.isascii() and "_" not in text


def parse_number(typ, text: str):
    """``typ(text)``, ``typ`` int or float, of ``plain_number_text``; else None."""
    if plain_number_text(text):
        with contextlib.suppress(ValueError):
            return typ(text)
    return None


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (n, d)
    labels: np.ndarray  # (n,) ints in [0, n_classes)
    n_classes: int

    def __post_init__(self):
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise InvalidInputError(f"features must be a nonempty matrix, got {self.features.shape}")
        if not np.all(np.isfinite(self.features)):
            raise InvalidInputError("features contain non-finite values")
        if self.labels.shape != (self.features.shape[0],):
            raise InvalidInputError("labels length does not match features")
        if self.n_classes < 2 or np.any(self.labels < 0) or np.any(self.labels >= self.n_classes):
            raise InvalidInputError(f"labels must lie in [0, {self.n_classes})")

    @property
    def n(self) -> int:
        return self.features.shape[0]


def class_centers(n_classes: int, dim: int, seed: int) -> np.ndarray:
    """Radius-3 ring for dim=2; seeded unit directions scaled to radius 3 otherwise."""
    if dim == 2:
        angles = 2.0 * np.pi * np.arange(n_classes) / n_classes
        return 3.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    rng = generator(seed, CENTRES)
    dirs = rng.standard_normal((n_classes, dim))
    return 3.0 * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def blob_splits(n_classes: int, per_class: tuple[int, ...], dim: int, spread: float,
                seed: int) -> list[Dataset]:
    """Gaussian blobs around ``class_centers``, fully seeded; one split per ``per_class`` entry.

    Class by class, each class's ``sum(per_class)`` rows are drawn in turn, the first
    ``per_class[0]`` into the first split and so on, in place: no array holds the whole draw.
    """
    centers = class_centers(n_classes, dim, seed)
    rng = generator(seed, BLOBS)
    splits = [np.empty((n_classes * m, dim)) for m in per_class]
    for c in range(n_classes):
        for m, features in zip(per_class, splits):
            block = rng.standard_normal(out=features[c * m:(c + 1) * m])
            block *= spread
            block += centers[c]
    return [Dataset(features, np.repeat(np.arange(n_classes, dtype=np.int64), m), n_classes)
            for m, features in zip(per_class, splits)]


@contextlib.contextmanager
def atomic_write(path, mode: str = "w"):
    """Stream into ``path.tmp``, then rename it over ``path``; on error the old file stays.

    ``mode`` is ``"w"`` (text, no newline translation) or ``"wb"``.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, **({} if "b" in mode else {"newline": "", **TEXT})) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def write_table(path, columns, rows) -> None:
    """Atomically write ``columns`` as a header line, then each row's cells in column order.

    A ``str`` cell is written as is, an ``int`` in decimal, anything else as ``repr(float(v))``.
    """
    with atomic_write(path) as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(",".join(v if isinstance(v, str) else str(v) if isinstance(v, int)
                               else repr(float(v)) for v in row) + "\n" for row in rows)


def _row_type(dim: int) -> np.dtype:
    """One parsed CSV row: the label, then the ``dim`` features."""
    return np.dtype([("label", np.int64), ("x", np.float64, (dim,))])


def _sha256(path) -> bytes:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 16):
            digest.update(chunk)
    return digest.digest()


def save_csv(ds: Dataset, path) -> None:
    """Write the CSV, then its ``<path>.rows`` sidecar bound to the CSV's sha256."""
    with atomic_write(path) as fh:
        fh.write(",".join(["label"] + [f"f{i}" for i in range(ds.features.shape[1])]) + "\n")
        fh.writelines(f"{label},{','.join(map(repr, row.tolist()))}\n"
                      for label, row in zip(ds.labels.tolist(), ds.features))
    with atomic_write(f"{path}.rows", "wb") as fh:
        fh.write(_sha256(path))
        np.save(fh, np.ascontiguousarray(ds.labels, dtype=np.int64), allow_pickle=False)
        np.save(fh, np.ascontiguousarray(ds.features, dtype=np.float64), allow_pickle=False)


def _sidecar_rows(path, dim: int):
    """The (labels, features) stored in ``<path>.rows``, or None unless bound to the CSV's bytes.

    A missing, unreadable or stale sidecar, one that holds anything but int64 ``(n,)``
    labels, then float64 ``(n, dim)`` features in C order, or one whose header asks
    for more memory than there is, is not an error: the caller parses the CSV. The
    digest is compared first, so a stale sidecar's headers never size an allocation.
    """
    try:
        with open(f"{path}.rows", "rb") as fh:
            if fh.read(32) != _sha256(path):
                return None
            labels = np.lib.format.read_array(fh, allow_pickle=False)
            features = np.lib.format.read_array(fh, allow_pickle=False)
            if (not fh.read(1) and labels.dtype == np.int64 and labels.ndim == 1
                    and features.dtype == np.float64 and features.shape == (len(labels), dim)
                    and features.flags.c_contiguous):
                return labels, features
    except (OSError, ValueError, MemoryError):
        pass
    return None


# loadtxt's bad-cell error, with its 0-based row among the lines given; ours never match.
_CELL_ERROR = re.compile(r"(.*) at row (\d+), column (\d+)\.")


def _data_lines(fh, path, n_cells: int):
    """Yield the lines after the header; a blank or ragged line, or none at all, raises."""
    lineno = 1
    for lineno, line in enumerate(fh, start=2):
        if line.count(",") != n_cells - 1:
            got = f"{line.count(',') + 1} cells" if line.strip() else "a blank line"
            raise InvalidInputError(f"{path}:{lineno}: expected {n_cells} cells, got {got}")
        yield line
    if lineno == 1:
        raise InvalidInputError(f"{path}: no data rows")


def load_csv(path, n_classes: int) -> Dataset:
    """Load a dataset CSV; ``n_classes`` comes from the model, not from the largest label.

    The rows come from the ``save_csv`` sidecar when it is bound to the CSV's
    current bytes, else from parsing the CSV. The label and finiteness checks
    run on both.
    """
    with open(path, **TEXT) as fh:
        names = fh.readline().rstrip("\r\n").split(",")
        if len(names) < 2 or names[0] != "label":
            raise InvalidInputError(f"{path}:1: header must be 'label,f0,f1,...'")
        dim = len(names) - 1
        stored = _sidecar_rows(path, dim)
        if stored is None:
            try:
                rows = np.loadtxt(_data_lines(fh, path, len(names)), dtype=_row_type(dim),
                                  delimiter=",", comments=None, quotechar=None, ndmin=1)
            except ValueError as exc:
                cell = _CELL_ERROR.fullmatch(str(exc))
                if cell is None:
                    raise
                raise InvalidInputError(f"{path}:{int(cell[2]) + 2}: non-numeric cell in column "
                                        f"{cell[3]}: {cell[1]}") from exc
            stored = rows["label"].copy(), np.ascontiguousarray(rows["x"])
    labels, features = stored
    finite = np.isfinite(features).all(axis=1)
    bad = ~finite | (labels < 0) | (labels >= n_classes)
    if bad.any():
        i = int(np.argmax(bad))
        what = f"label {labels[i]} outside [0, {n_classes})" if finite[i] else "non-finite feature"
        raise InvalidInputError(f"{path}:{i + 2}: {what}")
    return Dataset(features=features, labels=labels, n_classes=n_classes)


def epoch_permutation(n: int, seed: int, epoch: int) -> np.ndarray:
    """The int64 permutation of range(n) drawn from the stream keyed by (seed, SHUFFLE, epoch)."""
    return generator(seed, SHUFFLE, epoch).permutation(n)


def batch_slices(n: int, batch_size: int) -> list[slice]:
    """Each batch's slice of an epoch's permutation: [0, B), [B, 2B), ...; the last may be short."""
    return [slice(i, i + batch_size) for i in range(0, n, batch_size)]
