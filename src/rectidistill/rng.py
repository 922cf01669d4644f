"""Seeded randomness.

Every random draw in this repository flows through :func:`generator`, a
PCG64 stream keyed by an explicit integer tuple. There is no ambient
entropy anywhere: same key, same stream, on any machine.
"""

import numpy as np

from .errors import InvalidInputError


def generator(*key: int) -> np.random.Generator:
    """Return a PCG64 generator deterministically keyed by `key`."""
    if not key:
        raise InvalidInputError("generator() requires at least one seed component")
    if min(key) < 0:
        raise InvalidInputError(f"seed components must be >= 0, got {key}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))
