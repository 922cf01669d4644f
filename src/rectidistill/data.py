"""Dataset generation, CSV load/save, atomic artifact writes, and deterministic batching.

CSV schema: header ``label,f0,f1,...``; one sample per row; decimal text.
Every artifact the package writes goes through ``atomic_write``.
Batching permutes indices with an explicit Fisher-Yates shuffle driven by
a PCG64 stream keyed by (seed, epoch), so every epoch visits each sample
exactly once and the order is reproducible bit-for-bit.
"""

import contextlib
import csv
import os
from dataclasses import dataclass

import numpy as np

from .errors import DataParseError, InvalidInputError, InvalidParameterError
from .rng import generator


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
    rng = generator(seed, 0xC3)
    dirs = rng.standard_normal((n_classes, dim))
    return 3.0 * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def make_blobs(n_classes: int, per_class: int, dim: int, spread: float, seed: int) -> Dataset:
    """Gaussian blobs around deterministic class centers, fully seeded."""
    if n_classes < 2 or per_class < 1 or dim < 1:
        raise InvalidParameterError(
            f"invalid counts: n_classes={n_classes}, per_class={per_class}, dim={dim}"
        )
    if not spread > 0.0:
        raise InvalidParameterError(f"spread must be positive, got {spread}")
    centers = class_centers(n_classes, dim, seed)
    rng = generator(seed, 0xB1)
    features = np.empty((n_classes * per_class, dim))
    labels = np.empty(n_classes * per_class, dtype=np.int64)
    for c in range(n_classes):
        sl = slice(c * per_class, (c + 1) * per_class)
        features[sl] = centers[c] + spread * rng.standard_normal((per_class, dim))
        labels[sl] = c
    return Dataset(features=features, labels=labels, n_classes=n_classes)


@contextlib.contextmanager
def atomic_write(path):
    """Stream into ``path.tmp``, then rename it over ``path``; on error the old file stays."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def save_csv(ds: Dataset, path) -> None:
    with atomic_write(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["label"] + [f"f{i}" for i in range(ds.features.shape[1])])
        for label, row in zip(ds.labels, ds.features):
            writer.writerow([int(label)] + [repr(float(v)) for v in row])


def load_csv(path, n_classes: int) -> Dataset:
    """Parse a dataset CSV; ``n_classes`` comes from the model, not from the largest label."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataParseError(f"{path}: empty file") from None
        if len(header) < 2 or header[0] != "label":
            raise DataParseError(f"{path}:1: header must be 'label,f0,f1,...'")
        d = len(header) - 1
        features, labels = [], []
        for rowno, row in enumerate(reader, start=2):
            if len(row) != d + 1:
                raise DataParseError(f"{path}:{rowno}: expected {d + 1} cells, got {len(row)}")
            try:
                labels.append(int(row[0]))
                features.append([float(v) for v in row[1:]])
            except ValueError as exc:
                raise DataParseError(f"{path}:{rowno}: non-numeric cell: {exc}") from exc
            if not 0 <= labels[-1] < n_classes:
                raise DataParseError(f"{path}:{rowno}: label {labels[-1]} outside [0, {n_classes})")
    if not features:
        raise InvalidInputError(f"{path}: no data rows")
    return Dataset(
        features=np.asarray(features, dtype=np.float64),
        labels=np.asarray(labels, dtype=np.int64),
        n_classes=n_classes,
    )


def epoch_permutation(n: int, seed: int, epoch: int) -> np.ndarray:
    """Fisher-Yates permutation of range(n) keyed by (seed, epoch)."""
    rng = generator(seed, epoch)
    perm = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def batch_iter(ds: Dataset, batch_size: int, seed: int, epoch: int) -> list[np.ndarray]:
    """Ordered list of index batches; the last batch may be short."""
    if batch_size < 1:
        raise InvalidParameterError(f"batch size must be >= 1, got {batch_size}")
    perm = epoch_permutation(ds.n, seed, epoch)
    return [perm[i : i + batch_size] for i in range(0, ds.n, batch_size)]
