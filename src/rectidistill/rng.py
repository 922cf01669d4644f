"""Seeded randomness.

Every random draw in this repository flows through :func:`generator`, a
PCG64 stream keyed by an explicit integer tuple. There is no ambient
entropy anywhere: same key, same stream, on any machine.

Every key starts with a seed that ``TrainConfig`` or ``gen-data`` has
checked to be >= 0; its other parts are constants or epoch numbers.
"""

import numpy as np


def generator(*key: int) -> np.random.Generator:
    """Return a PCG64 generator deterministically keyed by `key`."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))
