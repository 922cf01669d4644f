"""Rectification invariants: exact sums, untouched t_o entries, a > b ordering.

A single vector is rectified as a one-row slice of ``rectify_rows``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectidistill.rectify import STEP_B, STEP_C, rectify_rows


@st.composite
def wrong_prediction(draw, min_classes=2, max_classes=20):
    """(t, label) where argmax(t) != label and t is on the simplex."""
    k = draw(st.integers(min_classes, max_classes))
    raw = draw(st.lists(st.floats(1e-4, 1.0), min_size=k, max_size=k))
    t = np.asarray(raw) / np.sum(raw)
    b = int(np.argmax(t))
    label = draw(st.integers(0, k - 1).filter(lambda a: a != b))
    return t, label


def test_step_b_hand_example():
    out = rectify_rows(np.array([[0.1, 0.7, 0.2]]), np.array([0]), STEP_B)[0]
    # b is the teacher argmax (index 1), halved; the other wrong class stays
    assert (out[1], out[2]) == (0.7 / 2.0, 0.2)
    np.testing.assert_allclose(out, [0.55, 0.35, 0.2], atol=1e-15)
    assert out.sum() == pytest.approx(1.1, abs=1e-15)
    # entry a is the mean of t[a] and 1
    assert out[0] == pytest.approx((0.1 + 1.0) / 2.0, abs=0)


def test_step_b_extreme_bias_already_normalized():
    out = rectify_rows(np.array([[0.0, 1.0]]), np.array([0]), STEP_B)[0]
    np.testing.assert_allclose(out, [0.5, 0.5], atol=0)
    assert out.sum() == pytest.approx(1.0, abs=0)


def test_step_b_four_class_example():
    out = rectify_rows(np.array([[0.0, 0.5, 0.45, 0.05]]), np.array([0]), STEP_B)[0]
    np.testing.assert_allclose(out, [0.5, 0.25, 0.45, 0.05], atol=1e-15)


def test_step_c_hand_example():
    t = np.array([[0.1, 0.7, 0.2]])
    out = rectify_rows(t, np.array([0]), STEP_C)[0]
    assert not np.array_equal(out, rectify_rows(t, np.array([0]), STEP_B)[0])
    np.testing.assert_allclose(out, [0.55 * 8 / 9, 0.35 * 8 / 9, 0.2], atol=1e-15)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)


def test_step_c_fixed_point_when_pair_mass_is_one():
    out = rectify_rows(np.array([[0.0, 1.0]]), np.array([0]), STEP_C)[0]
    np.testing.assert_allclose(out, [0.5, 0.5], atol=0)


def test_step_c_does_not_guarantee_global_argmax():
    # class 2 (t_o = 0.45) stays the global argmax; only a > b is guaranteed
    out = rectify_rows(np.array([[0.0, 0.5, 0.45, 0.05]]), np.array([0]), STEP_C)[0]
    np.testing.assert_allclose(out, [1 / 3, 1 / 6, 0.45, 0.05], atol=1e-15)
    assert int(np.argmax(out)) == 2
    assert out[0] > out[1]


@settings(max_examples=5 * settings.default.max_examples)
@given(wrong_prediction())
def test_invariants_on_random_wrong_predictions(case):
    t, label = case
    b = int(np.argmax(t))
    other = np.ones(t.shape[0], dtype=bool)
    other[[label, b]] = False

    step_b = rectify_rows(t[None], np.array([label]), STEP_B)[0]
    # over-mass identity: sum - 1 = (1 - t_a - t_b)/2
    assert step_b.sum() - 1.0 == pytest.approx((1.0 - t[label] - t[b]) / 2.0, abs=1e-12)
    assert np.array_equal(step_b[other], t[other])  # bit-identical t_o

    step_c = rectify_rows(t[None], np.array([label]), STEP_C)[0]
    assert step_c.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(step_c[other], t[other])
    assert step_c[label] > step_c[b]
    # pair mass conserved
    assert step_c[label] + step_c[b] == pytest.approx(t[label] + t[b], abs=1e-12)


def test_batch_empty_subset():
    assert rectify_rows(np.empty((0, 3)), np.empty(0, dtype=np.int64)).shape == (0, 3)


@settings(max_examples=2 * settings.default.max_examples)
@given(
    st.integers(2, 8).flatmap(
        lambda k: st.lists(wrong_prediction(min_classes=k, max_classes=k), min_size=1, max_size=16)
    ),
    st.sampled_from([STEP_B, STEP_C]),
)
def test_rows_equal_stacked_samples(batch, stage):
    # each row of a batch comes out as that row rectified alone
    probs = np.array([t for t, _ in batch])
    labels = np.array([label for _, label in batch])
    stacked = np.array([rectify_rows(t[None], np.array([label]), stage)[0] for t, label in batch])
    assert np.array_equal(rectify_rows(probs, labels, stage), stacked)


def test_batch_property_all_outputs_valid():
    rng = np.random.default_rng(5)
    probs, labels = [], []
    while len(probs) < 100:
        t = rng.dirichlet(np.ones(rng.integers(2, 8)))
        b = int(np.argmax(t))
        a = int(rng.integers(0, t.shape[0]))
        if a == b:
            continue
        probs.append(t)
        labels.append(a)
    for t, a in zip(probs, labels):
        target = rectify_rows(t[None], np.array([a]))[0]
        assert target.sum() == pytest.approx(1.0, abs=1e-12)
        assert target[a] > target[int(np.argmax(t))]
