"""The right/bias partition as the batch loss core applies it.

A sample carries right knowledge when the teacher argmax equals its label,
ties broken toward the lowest class index; ``teacher_targets`` returns the
split as its ``right`` mask.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rectidistill.numerics import kl_rows, log_softmax_rows
from rectidistill.rectify import rectify_rows
from rectidistill.schedule import MODES, teacher_targets

from one_batch import one_batch


def split_sizes(teacher, labels):
    teacher = np.asarray(teacher, dtype=np.float64)
    right = teacher_targets(teacher, np.asarray(labels, dtype=np.int64), MODES["full"])[1]
    return int(right.sum()), int((~right).sum())


def test_mask_direct_argmax():
    assert split_sizes([[0.2, 0.8], [0.6, 0.4]], [1, 0]) == (2, 0)


def test_mask_mismatch():
    assert split_sizes([[0.2, 0.8]], [0]) == (0, 1)


def test_tie_breaks_toward_lowest_index():
    # exhaustive 2-class tie check: class 0 wins the tie
    assert split_sizes([[0.5, 0.5]], [0]) == (1, 0)
    assert split_sizes([[0.5, 0.5]], [1]) == (0, 1)


def test_split_preserves_order():
    # rows 0 and 2 are right, row 1 is bias: each term must use its own row
    logits = np.array([[0.3, -0.2, 0.1], [0.5, 0.0, -0.4], [-0.1, 0.2, 0.6]])
    teacher = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]])
    labels = np.array([0, 2, 2])
    rows = teacher_targets(teacher, labels, MODES["full"])
    out = one_batch(logits, rows, labels, 0.5, 1.0)
    log_s = [np.log(log_softmax_rows(z[None])[1]) for z in logits]
    l_easy = (kl_rows(teacher[0:1], log_s[0])[0] + kl_rows(teacher[2:3], log_s[2])[0]) / 3
    l_hard = kl_rows(rectify_rows(teacher[1:2], np.array([2])), log_s[1])[0] / 3
    assert rows.right.tolist() == [True, False, True]
    assert out.loss_easy == pytest.approx(l_easy, abs=1e-12)
    assert out.loss_hard == pytest.approx(l_hard, abs=1e-12)


def test_split_all_true_and_all_false():
    teacher = [[0.7, 0.3], [0.1, 0.9]]
    assert split_sizes(teacher, [0, 1]) == (2, 0)
    assert split_sizes(teacher, [1, 0]) == (0, 2)


@given(st.lists(st.booleans(), min_size=1, max_size=50))
def test_split_is_a_partition(flags):
    teacher = np.tile([0.8, 0.2], (len(flags), 1))
    labels = np.where(flags, 0, 1)
    assert split_sizes(teacher, labels) == (sum(flags), len(flags) - sum(flags))


@given(
    st.integers(2, 6).flatmap(
        lambda k: st.lists(
            st.tuples(
                st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k),
                st.integers(0, k - 1),
            ),
            min_size=1,
            max_size=20,
        )
    )
)
def test_mask_fraction_equals_top1_accuracy(batch):
    probs = np.array([np.asarray(p) / np.sum(p) for p, _ in batch])
    labels = np.array([lab for _, lab in batch])
    n_right, _ = split_sizes(probs, labels)
    assert n_right == np.sum(np.argmax(probs, axis=1) == labels)


def test_mask_is_deterministic():
    rng = np.random.default_rng(11)
    probs = rng.dirichlet(np.ones(4), size=32)
    labels = rng.integers(0, 4, size=32)
    logits = rng.normal(size=(32, 4))
    rows_a = teacher_targets(probs, labels, MODES["full"])
    rows_b = teacher_targets(probs, labels, MODES["full"])
    a = one_batch(logits, rows_a, labels, 0.5, 1.0)
    b = one_batch(logits, rows_b, labels, 0.5, 1.0)
    assert np.array_equal(rows_a.right, rows_b.right)
    assert a.loss_total == b.loss_total
    assert np.array_equal(a.grad, b.grad)
