"""Seeded randomness.

Every random draw in this repository flows through :func:`generator`, a
PCG64 stream keyed by an explicit integer tuple. There is no ambient
entropy anywhere: same key, same stream, on any machine.

Every key starts with a seed that ``TrainConfig`` or ``gen-data`` has
checked to be >= 0. A key's second part, when it has one, is one of the tags
below, so no two kinds of draw share a stream: ``(seed,)`` is a model's
initial weights, ``(seed, BLOBS)`` the blob noise, ``(seed, CENTRES)`` the
class centres when the features are not 2-d, and ``(seed, SHUFFLE, epoch)``
an epoch's order. A bare ``(seed, epoch)`` key would not do: ``SeedSequence``
drops trailing zeros, so ``(seed, 0)`` is ``(seed,)``, and ``(seed, 0xB1)``
would be epoch 177's.

A stream is fixed by its key and numpy's PCG64, ``SeedSequence`` and the
``Generator`` method that draws from it. NEP 19 promises no stream stays the
same across numpy versions; the pinned digests hold for numpy 2.4.6.
"""

import numpy as np

BLOBS = 0xB1
CENTRES = 0xC3
SHUFFLE = 0x5F


def generator(*key: int) -> np.random.Generator:
    """Return a PCG64 generator deterministically keyed by `key`."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))
