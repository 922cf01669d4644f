"""Tests for the dynamic schedule and assembled distillation loss."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectidistill import rectify
from rectidistill.numerics import kl_rows, log_softmax_rows
from rectidistill.schedule import (MODES, RowTargets, empty_log_s, gamma, linear_targets,
                                   target_loss, teacher_targets)
from rectidistill.train import TrainConfig

from finite_differences import finite_difference_gradient
from one_batch import OneBatch, one_batch


def row_of(mode, g=0.5):
    """The row ``--mode`` resolves to: ``mode``'s, at G = ``g`` for ``fixed-gamma``."""
    return TrainConfig(mode=f"{mode}={g}" if MODES[mode].gamma is None else mode).row


class TestGamma:
    def test_training_start(self):
        assert gamma(MODES["full"], 0, 300) == 0.0

    def test_midpoint(self):
        assert gamma(MODES["full"], 150, 300) == 0.5

    def test_never_reaches_one(self):
        assert gamma(MODES["full"], 299, 300) == pytest.approx(299 / 300, abs=0)

    def test_strictly_increasing(self):
        values = [gamma(MODES["full"], e, 60) for e in range(60)]
        assert all(b > a for a, b in zip(values, values[1:]))


def _random_batch(rng, n, k):
    logits = rng.normal(size=(n, k))
    teacher = rng.dirichlet(np.ones(k), size=n)
    labels = rng.integers(0, k, size=n)
    return logits, teacher, labels


class TestTargetLoss:
    def test_perfect_teacher_has_no_hard_loss(self):
        rng = np.random.default_rng(0)
        logits, teacher, _ = _random_batch(rng, 6, 3)
        labels = np.argmax(teacher, axis=1)  # mask all true
        rows = teacher_targets(teacher, labels, MODES["full"])
        out = one_batch(logits, rows, labels, 0.5, 1.0)
        assert out.loss_hard == 0.0
        assert not rows.hard.any()
        assert out.loss_total == pytest.approx(0.5 * (out.loss_ce + out.loss_easy), abs=1e-12)

    def test_global_optimum_is_zero(self):
        # student logits so extreme the softmax equals the one-hot teacher
        logits = np.array([[800.0, 0.0, 0.0], [0.0, 800.0, 0.0]])
        teacher = log_softmax_rows(logits)[1]
        labels = np.array([0, 1])
        out = one_batch(logits, teacher_targets(teacher, labels, MODES["full"]), labels, 0.5, 1.0)
        assert out.loss_total == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("mode", MODES)
    def test_true_class_softmax_underflow_stays_finite(self, mode):
        # softmax([0, 800])[0] is exactly 0 in float64; ln of it is -800
        logits = np.array([[0.0, 800.0]])
        teacher = np.array([[0.75, 0.25]])
        labels = np.array([0])
        assert log_softmax_rows(logits)[1][0, 0] == 0.0
        out = one_batch(logits, teacher_targets(teacher, labels, MODES[mode]), labels,
                       gamma(row_of(mode), 1, 2), 1.0)
        assert out.loss_ce == 800.0
        # the teacher is right, so every mode takes KL(t || s) with ln s = [-800, 0]
        assert out.loss_easy == pytest.approx(
            0.75 * (np.log(0.75) + 800.0) + 0.25 * np.log(0.25), rel=1e-14
        )
        assert np.isfinite(out.loss_total) and np.all(np.isfinite(out.grad))

    def test_two_sample_composition_oracle(self):
        # one right, one wrong sample; oracle composes the primitives by hand
        logits = np.array([[1.0, 0.2, -0.5], [0.3, -0.1, 0.8]])
        teacher = np.array([[0.7, 0.2, 0.1], [0.1, 0.2, 0.7]])
        labels = np.array([0, 1])  # sample 1: teacher argmax 2 != 1 -> bias
        rows = teacher_targets(teacher, labels, MODES["full"])
        out = one_batch(logits, rows, labels, 0.5, 1.0)

        log_s = np.log(log_softmax_rows(logits)[1])
        l_ce = (-log_s[0, 0] - log_s[1, 1]) / 2
        l_easy = kl_rows(teacher[:1], log_s[:1])[0] / 2
        rect = rectify.rectify_rows(teacher[1:], np.array([1]))
        l_hard = kl_rows(rect, log_s[1:])[0] / 2
        assert out.loss_ce == pytest.approx(l_ce, abs=1e-12)
        assert out.loss_easy == pytest.approx(l_easy, abs=1e-12)
        assert out.loss_hard == pytest.approx(l_hard, abs=1e-12)
        assert out.loss_total == pytest.approx(0.5 * (l_ce + l_easy) + 0.5 * l_hard, abs=1e-12)
        assert rows.right.tolist() == [True, False]

    def test_eliminate_forces_gamma_zero(self):
        rng = np.random.default_rng(1)
        logits, teacher, labels = _random_batch(rng, 8, 4)
        g = gamma(MODES["eliminate"], 30, 60)
        out = one_batch(logits, teacher_targets(teacher, labels, MODES["eliminate"]), labels,
                       g, 1.0)
        assert g == 0.0
        assert out.loss_total == out.loss_ce + out.loss_easy
        # the biased rows keep their rectified KL; gamma 0 weights it out
        full = one_batch(logits, teacher_targets(teacher, labels, MODES["full"]), labels,
                        0.0, 1.0)
        assert out.loss_hard == full.loss_hard

    def test_eliminate_equals_full_at_gamma_zero(self):
        rng = np.random.default_rng(2)
        logits, teacher, labels = _random_batch(rng, 10, 4)
        a = one_batch(logits, teacher_targets(teacher, labels, MODES["full"]), labels,
                     gamma(MODES["full"], 0, 60), 1.0)
        b = one_batch(logits, teacher_targets(teacher, labels, MODES["eliminate"]), labels,
                     gamma(MODES["eliminate"], 30, 60), 1.0)
        assert a.loss_total == pytest.approx(b.loss_total, abs=1e-12)
        assert a.loss_ce == b.loss_ce and a.loss_easy == b.loss_easy

    def test_vanilla_is_unmasked_loss(self):
        rng = np.random.default_rng(3)
        logits, teacher, labels = _random_batch(rng, 5, 3)
        g = gamma(MODES["vanilla"], 30, 60)
        out = one_batch(logits, teacher_targets(teacher, labels, MODES["vanilla"]), labels,
                       g, 1.0)
        expected = np.mean(kl_rows(teacher, np.log(log_softmax_rows(logits)[1])))
        assert out.loss_easy == pytest.approx(expected, abs=1e-12)
        assert g == 0.0 and out.loss_hard == 0.0
        assert out.loss_total == out.loss_ce + out.loss_easy

    def test_vanilla_equals_full_gamma_zero_for_perfect_teacher(self):
        rng = np.random.default_rng(4)
        logits, teacher, _ = _random_batch(rng, 6, 3)
        labels = np.argmax(teacher, axis=1)
        a = one_batch(logits, teacher_targets(teacher, labels, MODES["vanilla"]), labels,
                     gamma(MODES["vanilla"], 30, 60), 1.0)
        b = one_batch(logits, teacher_targets(teacher, labels, MODES["full"]), labels,
                     gamma(MODES["full"], 0, 60), 1.0)
        assert a.loss_total == pytest.approx(b.loss_total, abs=1e-12)

    def test_step_b_targets_are_unnormalized(self):
        logits = np.array([[0.1, 0.4, -0.2]])
        teacher = np.array([[0.1, 0.7, 0.2]])
        labels = np.array([0])
        out = one_batch(logits, teacher_targets(teacher, labels, MODES["step-b"]), labels,
                       0.5, 1.0)
        rect_b = rectify.rectify_rows(teacher, labels, rectify.STEP_B)[0]
        s = log_softmax_rows(logits)[1][0]
        expected = float(np.sum(rect_b * np.log(rect_b / s)))
        assert out.loss_hard == pytest.approx(expected, abs=1e-12)

    def test_fixed_gamma_requires_value(self):
        # TrainConfig rejects a missing value (tests/test_train.py) and puts G in the row
        rng = np.random.default_rng(5)
        logits, teacher, labels = _random_batch(rng, 4, 3)
        row = TrainConfig(mode="fixed-gamma=0.5").row
        g = gamma(row, 30, 60)
        out = one_batch(logits, teacher_targets(teacher, labels, row), labels, g, 1.0)
        assert g == 0.5
        assert out.loss_total == 0.5 * (out.loss_ce + out.loss_easy) + 0.5 * out.loss_hard

    def test_a_schedule_is_required(self):
        # the epoch's gamma g has no default, nor do the rows' linear targets (a, b)
        with pytest.raises(TypeError):
            target_loss(np.zeros((2, 3)))
        with pytest.raises(TypeError):
            target_loss(np.zeros((2, 3)), 0.5, 1.0, log_s=empty_log_s(2, 3, 1.0))

    @settings(deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 8),
        k=st.integers(2, 6),
        mode=st.sampled_from(tuple(MODES)),
        epoch=st.integers(0, 59),
    )
    def test_loss_identity_holds(self, seed, n, k, mode, epoch):
        rng = np.random.default_rng(seed)
        logits, teacher, labels = _random_batch(rng, n, k)
        g = gamma(row_of(mode), epoch, 60)
        rows = teacher_targets(teacher, labels, MODES[mode])
        out = one_batch(logits, rows, labels, g, 1.0)
        lhs = out.loss_total
        rhs = (1 - g) * (out.loss_ce + out.loss_easy) + g * out.loss_hard
        assert lhs == pytest.approx(rhs, abs=1e-12)
        assert out.loss_ce >= 0 and out.loss_easy >= -1e-12 and out.loss_hard >= -1e-12
        assert rows.right.sum() == np.sum(np.argmax(teacher, axis=1) == labels)
        assert not (rows.hard & rows.right).any()


def oracle_teacher_targets(teacher_probs, labels, mode):
    """The loss's targets as the subset-gathering loss read them."""
    right = np.argmax(teacher_probs, axis=1) == labels
    if mode == "vanilla" or right.all():
        return teacher_probs, right
    bias = ~right
    stage = rectify.STEP_B if mode == "step-b" else rectify.STEP_C
    targets = teacher_probs.copy()
    targets[bias] = rectify.rectify_rows(teacher_probs[bias], labels[bias], stage)
    return targets, right


def oracle_loss(student_logits, teacher_probs, labels, g, tau, mode):
    """Oracle: the loss with one KL per index-gathered subset and per-subset gradient terms.

    CE is taken at temperature 1 and each KL at ``tau``, as sum t ln t - sum t ln s
    scaled by tau**2 (Hinton et al. 2015). Each subset's gradient is a s - b, built
    from its own rows: with w the subset's KL weight, a = (1 - g)/n + tau w mass and
    b = tau w t, plus (1 - g)/n at the label; at tau != 1 the CE share (1 - g)/n
    leaves a and multiplies the temperature-1 softmax instead.
    """
    targets, right = oracle_teacher_targets(teacher_probs, labels, mode)
    n = labels.shape[0]
    rows = np.arange(n)
    log_s, s = log_softmax_rows(student_logits, tau)
    log_s1, s1 = log_softmax_rows(student_logits)
    right_rows, bias = rows[right], rows[~right]
    ce = (1.0 - g) / n

    def subset_grad(subset, w, mass):
        kd = w if tau == 1.0 else w * tau
        a = kd * mass
        b = kd * targets[subset]
        b[np.arange(subset.size), labels[subset]] += ce
        if tau == 1.0:
            return (a + ce) * s[subset] - b
        return a * s[subset] + ce * s1[subset] - b

    def subset_kl(subset):
        t = targets[subset]
        t_log_t = (t * np.log(np.where(t > 0.0, t, 1.0))).sum(axis=1)
        return (t_log_t - (t * log_s[subset]).sum(axis=1)) * (tau * tau)

    l_ce = float(-log_s1[rows, labels].mean())
    grad = np.empty_like(s)
    if mode in ("vanilla", "rectify"):
        l_easy = float(subset_kl(rows).mean())
        l_hard = 0.0
        grad[rows] = subset_grad(rows, 1.0 / n, 1.0)
    else:
        l_easy = 0.0
        if right_rows.size:
            l_easy = float(subset_kl(right_rows).sum() / n)
            grad[right_rows] = subset_grad(right_rows, (1.0 - g) / n, 1.0)
        if not bias.size:
            l_hard = 0.0
        else:
            l_hard = float(subset_kl(bias).sum() / n)
            mass = targets[bias].sum(axis=1, keepdims=True)
            grad[bias] = subset_grad(bias, g / n, mass)

    l_all = (1.0 - g) * (l_ce + l_easy) + g * l_hard
    return OneBatch(loss_total=l_all, loss_ce=l_ce, loss_easy=l_easy, loss_hard=l_hard,
                    grad=grad)


class TestAgainstTheGatheringOracle:
    @settings(max_examples=3 * settings.default.max_examples, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        k=st.integers(2, 100),
        mode=st.sampled_from(tuple(MODES)),
        tau=st.floats(0.1, 3.0),
        scale=st.floats(0.0, 300.0),
        all_right=st.sampled_from([True, False, False, False, False]),
        total_epochs=st.integers(1, 60),
        epoch_frac=st.floats(0.0, 1.0, exclude_max=True),
        fixed_gamma=st.sampled_from([0.0, 0.37, 0.99]),
    )
    def test_bit_for_bit(self, seed, n, k, mode, tau, scale, all_right, total_epochs,
                         epoch_frac, fixed_gamma):
        # one weighted KL pass gives every bit the subset-gathering loss
        # gave; epoch 0 (gamma 0) and eliminate's gamma 0 included
        rng = np.random.default_rng(seed)
        logits = rng.uniform(-scale, scale, size=(n, k))
        teacher = rng.dirichlet(np.ones(k), size=n)
        labels = np.argmax(teacher, axis=1) if all_right else rng.integers(0, k, size=n)
        g = gamma(row_of(mode, fixed_gamma), int(epoch_frac * total_epochs), total_epochs)
        got = one_batch(logits, teacher_targets(teacher, labels, MODES[mode]), labels, g, tau)
        want = oracle_loss(logits, teacher, labels, g, tau, mode)
        assert np.array_equal(got.grad, want.grad)
        for field in ("loss_ce", "loss_easy", "loss_hard", "loss_total"):
            assert getattr(got, field) == getattr(want, field), field

    @settings(max_examples=2 * settings.default.max_examples, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        log2_n=st.integers(0, 6),
        k=st.integers(2, 100),
        mode=st.sampled_from(["vanilla", "rectify"]),
        tau=st.floats(0.1, 3.0),
        scale=st.floats(0.0, 300.0),
    )
    def test_unmasked_modes_keep_their_bits_at_power_of_two_batches(self, seed, log2_n, k,
                                                                     mode, tau, scale):
        # at n a power of two 1/n scales exactly, so each weighted term keeps
        # the bits of its unscaled residual: every row's weight is 1/n, and the
        # gradient is (tau s + s1 - (tau t + onehot)) / n
        n = 2**log2_n
        rng = np.random.default_rng(seed)
        logits = rng.uniform(-scale, scale, size=(n, k))
        teacher = rng.dirichlet(np.ones(k), size=n)
        labels = rng.integers(0, k, size=n)
        got = one_batch(logits, teacher_targets(teacher, labels, MODES[mode]), labels, 0.0, tau)
        targets, _ = oracle_teacher_targets(teacher, labels, mode)
        s1 = log_softmax_rows(logits)[1]
        s = log_softmax_rows(logits, tau)[1]
        onehot = np.zeros_like(s)
        onehot[np.arange(n), labels] = 1.0
        want = (tau * s + s1 - (tau * targets + onehot)) / n
        assert np.array_equal(got.grad, want)


class TestLinearTargets:
    @settings(deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        m=st.integers(1, 40),
        k=st.integers(2, 10),
        mode=st.sampled_from([name for name, row in MODES.items() if row.hard]),
        tau=st.sampled_from([1.0, 2.0]),
        g=st.sampled_from([0.0, 0.37, 0.75]),
    )
    def test_a_column_of_row_counts_gives_every_batch_its_own_bits(self, seed, n, m, k, mode,
                                                                   tau, g):
        # a table's epoch takes (a, b) once, each row at its own batch's row
        # count: m in the full batches, and r = n mod m in a short last one
        rng = np.random.default_rng(seed)
        teacher = rng.dirichlet(np.ones(k), size=n)
        labels = rng.integers(0, k, size=n)
        labels[0] = (np.argmax(teacher[0]) + 1) % k  # at least one hard row
        rows = teacher_targets(teacher, labels, MODES[mode])
        m = min(m, n)
        counts = np.minimum(m, n - np.arange(n) // m * m)[:, None]
        a, b = linear_targets(rows, labels, g, counts, tau)
        for start in range(0, n, m):
            pos = slice(start, start + m)
            batch = RowTargets._make(column[pos] for column in rows)
            want_a, want_b = linear_targets(batch, labels[pos], g, len(labels[pos]), tau)
            assert np.array_equal(a[pos], want_a) and np.array_equal(b[pos], want_b)


class TestTeacherTargets:
    @settings(deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 12),
        k=st.integers(2, 6),
        m=st.integers(1, 12),
        mode=st.sampled_from(tuple(MODES)),
    )
    def test_rows_are_local(self, seed, n, k, m, mode):
        # the per-row target table rests on this: a row's target does not
        # depend on which other rows share its batch
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(k), size=n)
        labels = rng.integers(0, k, size=n)
        idx = rng.integers(0, n, size=m)
        whole = teacher_targets(probs, labels, MODES[mode])
        part = teacher_targets(probs[idx], labels[idx], MODES[mode])
        for whole_column, part_column in zip(whole, part):
            assert np.array_equal(whole_column[idx], part_column)

    @pytest.mark.parametrize("mode", MODES)
    def test_fresh_array_of_equal_values_without_a_biased_row(self, mode):
        probs = np.array([[0.7, 0.2, 0.1], [0.1, 0.1, 0.8]])
        kept = probs.copy()
        targets, right, hard, *_ = teacher_targets(probs, np.array([0, 2]), MODES[mode])
        assert right.all() and not hard.any()
        assert not np.shares_memory(targets, probs)
        assert targets.tobytes() == kept.tobytes() == probs.tobytes()

    @pytest.mark.parametrize("mode,want", [
        ("full", [0.6 * 0.8 / 0.9, 0.3 * 0.8 / 0.9, 0.2]),  # step c: pair rescaled to 0.8
        ("rectify", [0.6 * 0.8 / 0.9, 0.3 * 0.8 / 0.9, 0.2]),
        ("step-b", [0.6, 0.3, 0.2]),  # step b: over-sums by 0.1
        ("vanilla", [0.2, 0.6, 0.2]),  # never rectified
        ("eliminate", [0.6 * 0.8 / 0.9, 0.3 * 0.8 / 0.9, 0.2]),  # dropped by gamma 0
    ])
    def test_biased_rows_take_their_mode_s_target(self, mode, want):
        probs = np.array([[0.2, 0.6, 0.2], [0.7, 0.2, 0.1]])
        targets, right, *_ = teacher_targets(probs, np.array([0, 0]), MODES[mode])
        assert right.tolist() == [False, True]
        np.testing.assert_allclose(targets[0], want, rtol=1e-15)
        assert np.array_equal(targets[1], probs[1])

    @settings(deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 12), k=st.integers(2, 6))
    def test_eliminate_takes_full_s_targets_and_weight_classes(self, seed, n, k):
        # elimination is gamma 0, not a target of its own
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(k), size=n)
        labels = rng.integers(0, k, size=n)
        for got, want in zip(teacher_targets(probs, labels, MODES["eliminate"]),
                             teacher_targets(probs, labels, MODES["full"])):
            assert np.array_equal(got, want)


class TestTargetLossGradient:
    def _fd_check(self, logits, teacher, labels, g, mode, tau=1.0):
        rows = teacher_targets(teacher, labels, MODES[mode])
        analytic = one_batch(logits, rows, labels, g, tau).grad

        def loss_of(flat):
            return one_batch(flat.reshape(logits.shape), rows, labels, g, tau).loss_total

        fd = finite_difference_gradient(loss_of, logits.ravel()).reshape(logits.shape)
        np.testing.assert_allclose(analytic, fd, atol=1e-6)

    def test_zero_loss_configuration_has_zero_gradient(self):
        logits = np.array([[800.0, 0.0, 0.0]])
        teacher = log_softmax_rows(logits)[1]
        labels = np.array([0])
        g = one_batch(logits, teacher_targets(teacher, labels, MODES["full"]), labels, 0.5,
                     1.0).grad
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_single_right_sample(self):
        logits = np.array([[0.4, -0.2, 0.1]])
        teacher = np.array([[0.8, 0.1, 0.1]])
        labels = np.array([0])
        self._fd_check(logits, teacher, labels, 0.25, "full")

    def test_single_bias_sample(self):
        logits = np.array([[0.4, -0.2, 0.1]])
        teacher = np.array([[0.1, 0.8, 0.1]])
        labels = np.array([0])
        self._fd_check(logits, teacher, labels, 0.25, "full")

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
    def test_matches_finite_differences_all_modes(self, mode, tau):
        rng = np.random.default_rng(42)
        for _ in range(5):
            n, k = int(rng.integers(1, 5)), int(rng.integers(2, 6))
            logits = rng.normal(size=(n, k))
            teacher = rng.dirichlet(np.ones(k), size=n)
            labels = rng.integers(0, k, size=n)
            g = gamma(row_of(mode), 30, 60)
            self._fd_check(logits, teacher, labels, g, mode, tau=tau)
