"""Every kind of random draw in the package reads a stream of its own."""

import pytest

from rectidistill import data, model, rng

SEEDS = range(4)
EPOCHS = range(200)


@pytest.fixture
def keys_of(monkeypatch):
    """Call a function; return the key of every generator the package built during the call."""
    keys = []

    def recording(*key):
        keys.append(key)
        return rng.generator(*key)

    monkeypatch.setattr(data, "generator", recording)
    monkeypatch.setattr(model, "generator", recording)

    def call(fn, *args):
        keys.clear()
        fn(*args)
        return list(keys)
    return call


def test_every_kind_of_draw_has_a_stream_of_its_own(keys_of):
    # SeedSequence drops trailing zeros, so a key like (s, 0) is (s,): keys that
    # differ as tuples can still name one stream; their first draws tell them apart
    draws = []  # (key, which draw reads it)
    for s in SEEDS:
        draws += [(key, f"model.init seed {s}") for key in keys_of(model.init, [2, 3, 2], s)]
        # d = 3 draws the class centres, then the blob noise
        draws += [(key, f"blobs seed {s}") for key in keys_of(data.blob_splits, 2, (1,), 3, 1.0, s)]
        for e in EPOCHS:
            draws += [(key, f"shuffle seed {s} epoch {e}")
                      for key in keys_of(data.epoch_permutation, 4, s, e)]
    assert len(draws) == len(SEEDS) * (1 + 2 + len(EPOCHS))
    first = {}
    for key, what in draws:
        first.setdefault(rng.generator(*key).bit_generator.random_raw(), []).append(what)
    assert [whats for whats in first.values() if len(whats) > 1] == []

    # and no epoch's order is the permutation any other key's stream would draw
    orders = {}
    for s in SEEDS:
        for e in EPOCHS:
            orders[data.epoch_permutation(400, s, e).tobytes()] = [f"shuffle seed {s} epoch {e}"]
    assert len(orders) == len(SEEDS) * len(EPOCHS)
    for key, what in draws:
        if not what.startswith("shuffle"):
            orders.setdefault(rng.generator(*key).permutation(400).tobytes(), []).append(what)
    assert [whats for whats in orders.values() if len(whats) > 1] == []
