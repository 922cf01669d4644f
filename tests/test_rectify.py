"""Rectification invariants: exact sums, untouched t_o entries, a > b ordering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectidistill.errors import InvalidInputError
from rectidistill.rectify import STEP_B, STEP_C, rectify_rows, rectify_sample


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
    out = rectify_sample(np.array([0.1, 0.7, 0.2]), 0, mode=STEP_B)
    # b is the teacher argmax (index 1), halved; the other wrong class stays
    assert (out.values[1], out.values[2]) == (0.7 / 2.0, 0.2)
    np.testing.assert_allclose(out.values, [0.55, 0.35, 0.2], atol=1e-15)
    assert out.values.sum() == pytest.approx(1.1, abs=1e-15)
    # entry a is the mean of t[a] and 1
    assert out.values[0] == pytest.approx((0.1 + 1.0) / 2.0, abs=0)


def test_step_b_extreme_bias_already_normalized():
    out = rectify_sample(np.array([0.0, 1.0]), 0, mode=STEP_B)
    np.testing.assert_allclose(out.values, [0.5, 0.5], atol=0)
    assert out.values.sum() == pytest.approx(1.0, abs=0)


def test_step_b_four_class_example():
    out = rectify_sample(np.array([0.0, 0.5, 0.45, 0.05]), 0, mode=STEP_B)
    np.testing.assert_allclose(out.values, [0.5, 0.25, 0.45, 0.05], atol=1e-15)


def test_step_b_rejects_correct_teacher():
    with pytest.raises(InvalidInputError, match="teacher already predicts the true class 0"):
        rectify_sample(np.array([0.7, 0.3]), 0, mode=STEP_B)


def test_sample_rejects_bad_label_and_mode():
    t = np.array([0.1, 0.7, 0.2])
    for label in (-1, 3):
        with pytest.raises(InvalidInputError):
            rectify_sample(t, label)
    with pytest.raises(InvalidInputError):
        rectify_sample(t, 0, mode="step_d")


def test_step_c_hand_example():
    t = np.array([0.1, 0.7, 0.2])
    out = rectify_sample(t, 0, mode=STEP_C)
    assert not np.array_equal(out.values, rectify_sample(t, 0, mode=STEP_B).values)
    np.testing.assert_allclose(out.values, [0.55 * 8 / 9, 0.35 * 8 / 9, 0.2], atol=1e-15)
    assert out.values.sum() == pytest.approx(1.0, abs=1e-12)


def test_step_c_fixed_point_when_pair_mass_is_one():
    t = np.array([0.0, 1.0])
    out = rectify_sample(t, 0, mode=STEP_C)
    np.testing.assert_allclose(out.values, [0.5, 0.5], atol=0)


def test_step_c_does_not_guarantee_global_argmax():
    # class 2 (t_o = 0.45) stays the global argmax; only a > b is guaranteed
    t = np.array([0.0, 0.5, 0.45, 0.05])
    out = rectify_sample(t, 0, mode=STEP_C)
    np.testing.assert_allclose(out.values, [1 / 3, 1 / 6, 0.45, 0.05], atol=1e-15)
    assert int(np.argmax(out.values)) == 2
    assert out.values[0] > out.values[1]


@settings(max_examples=500)
@given(wrong_prediction())
def test_invariants_on_random_wrong_predictions(case):
    t, label = case
    b = int(np.argmax(t))
    other = np.ones(t.shape[0], dtype=bool)
    other[[label, b]] = False

    step_b = rectify_sample(t, label, mode=STEP_B)
    # over-mass identity: sum - 1 = (1 - t_a - t_b)/2
    assert step_b.values.sum() - 1.0 == pytest.approx(
        (1.0 - t[label] - t[b]) / 2.0, abs=1e-12
    )
    assert np.array_equal(step_b.values[other], t[other])  # bit-identical t_o

    step_c = rectify_sample(t, label, mode=STEP_C)
    assert step_c.values.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(step_c.values[other], t[other])
    assert step_c.values[label] > step_c.values[b]
    # pair mass conserved
    assert step_c.values[label] + step_c.values[b] == pytest.approx(
        t[label] + t[b], abs=1e-12
    )


def test_batch_empty_subset():
    assert rectify_rows(np.empty((0, 3)), np.empty(0, dtype=np.int64)).shape == (0, 3)


def test_batch_of_one_matches_single_op():
    t = np.array([[0.1, 0.7, 0.2]])
    batch = rectify_rows(t, np.array([0]))
    single = rectify_sample(t[0], 0)
    np.testing.assert_array_equal(batch[0], single.values)


@settings(max_examples=200)
@given(
    st.integers(2, 8).flatmap(
        lambda k: st.lists(wrong_prediction(min_classes=k, max_classes=k), min_size=1, max_size=16)
    ),
    st.sampled_from([STEP_B, STEP_C]),
)
def test_rows_equal_stacked_samples(batch, stage):
    probs = np.array([t for t, _ in batch])
    labels = np.array([label for _, label in batch])
    stacked = np.array([rectify_sample(t, label, stage).values for t, label in batch])
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
    for target, t, a in zip(
        (rectify_sample(t, a) for t, a in zip(probs, labels)), probs, labels
    ):
        assert target.values.sum() == pytest.approx(1.0, abs=1e-12)
        assert target.values[a] > target.values[int(np.argmax(t))]
