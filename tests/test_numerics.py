"""Unit and property tests for the loss/gradient primitives.

Every analytic path is checked against an independent oracle: softmax
against extended-precision direct summation (mpmath), losses against
direct evaluation, gradients against central finite differences.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectidistill.numerics import kl_rows, log_softmax_rows
from rectidistill.schedule import empty_log_s, row_targets, target_loss

from finite_differences import finite_difference_gradient
from one_batch import one_batch


def softmax_oracle(z, tau=1.0):
    """Direct summation at 50 decimal digits."""
    with mpmath.workdps(50):
        e = [mpmath.exp(mpmath.mpf(v) / mpmath.mpf(tau)) for v in z]
        total = mpmath.fsum(e)
        return np.array([float(v / total) for v in e])


def shifted_exp_softmax_rows(logits, tau=1.0):
    """Row-wise softmax(z / tau) with no ln s: shift by the row maximum, exp, divide by the sum.

    The bit-level reference for the s of ``log_softmax_rows``.
    """
    shifted = np.asarray(logits, dtype=np.float64) / tau
    shifted -= shifted.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    e /= e.sum(axis=1, keepdims=True)
    return e


def _mp_log_softmax(z, tau):
    """ln softmax(z / tau) as mpmath numbers; call inside ``workdps``."""
    scaled = [mpmath.mpf(v) / mpmath.mpf(tau) for v in z]
    lse = mpmath.log(mpmath.fsum(mpmath.exp(v) for v in scaled))
    return [v - lse for v in scaled]


def log_softmax_oracle(z, tau):
    """ln softmax(z / tau) at 50 decimal digits."""
    with mpmath.workdps(50):
        return np.array([float(v) for v in _mp_log_softmax(z, tau)])


def kl_rows_oracle(t, z, tau):
    """sum t_i (ln t_i - ln softmax(z / tau)_i) at 50 decimal digits."""
    with mpmath.workdps(50):
        log_s = _mp_log_softmax(z, tau)
        terms = [mpmath.mpf(ti) * (mpmath.log(ti) - ls) for ti, ls in zip(t, log_s) if ti > 0]
        return float(mpmath.fsum(terms))


# logit rows spanning +-1e3: far beyond where softmax underflows to 0
EXTREME_LOGITS = np.array(
    [
        [1000.0, -1000.0, 0.0, 3.0],
        [-1000.0, -999.5, -1000.0, -998.0],
        [0.0, 1e-3, -1e-3, 0.5],
        [750.0, 745.0, -20.0, 1000.0],
    ]
)
TAUS = (1e-4, 1e-2, 1.0, 10.0)


def kl_oracle(t, s):
    return sum(ti * math.log(ti / si) for ti, si in zip(t, s) if ti > 0.0)


@st.composite
def simplex(draw, min_size=2, max_size=10, floor=1e-6):
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    raw = draw(
        st.lists(
            st.floats(min_value=floor, max_value=1.0),
            min_size=size,
            max_size=size,
        )
    )
    v = np.asarray(raw)
    return v / v.sum()


class TestSoftmax:
    """The s of ``log_softmax_rows`` on one-row slices."""

    def test_uniform_on_equal_logits(self):
        out = log_softmax_rows([[0.0, 0.0, 0.0]])[1][0]
        np.testing.assert_allclose(out, np.full(3, 1 / 3), atol=1e-15)

    def test_analytic_two_class(self):
        out = log_softmax_rows([[math.log(2), 0.0]])[1][0]
        np.testing.assert_allclose(out, [2 / 3, 1 / 3], atol=1e-15)

    def test_matches_extended_precision_oracle(self):
        z = [3.0, 1.0, 0.2]
        np.testing.assert_allclose(log_softmax_rows([z])[1][0], softmax_oracle(z), atol=1e-14)

    def test_large_logits_stay_finite(self):
        out = log_softmax_rows([[1000.0, 999.0, -1000.0]])[1][0]
        assert np.all(np.isfinite(out))
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    @given(
        z=st.lists(st.floats(-50, 50), min_size=2, max_size=8),
        tau=st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
    )
    def test_simplex_and_argmax_invariance(self, z, tau):
        out = log_softmax_rows([z], tau)[1][0]
        assert np.all(out >= 0.0)
        assert out.sum() == pytest.approx(1.0, abs=1e-9)
        # the argmax class attains the maximal probability (logit gaps below
        # float resolution collapse to exact ties, where index equality is
        # covered by the deterministic tie test)
        assert out[int(np.argmax(z))] == out.max()
        if out[int(np.argmax(z))] > np.sort(out)[-2]:
            assert int(np.argmax(out)) == int(np.argmax(z))

    def test_rows_agree_with_vector_form(self):
        # a row of a batch is the same as that row passed alone
        rng = np.random.default_rng(3)
        z = rng.normal(size=(5, 4))
        rows = log_softmax_rows(z, 0.7)[1]
        for i in range(5):
            np.testing.assert_allclose(rows[i], log_softmax_rows(z[i : i + 1], 0.7)[1][0],
                                       atol=1e-15)


class TestLogSoftmaxRows:
    @pytest.mark.parametrize("tau", TAUS)
    def test_matches_extended_precision_oracle(self, tau):
        out = log_softmax_rows(EXTREME_LOGITS, tau)[0]
        assert np.all(np.isfinite(out))
        for z, row in zip(EXTREME_LOGITS, out):
            # an entry ~ -exp(-gap) below ulp(1) rounds to 0: absolute floor 1e-15
            np.testing.assert_allclose(row, log_softmax_oracle(z, tau), rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("tau", TAUS)
    def test_exp_matches_softmax_rows(self, tau):
        np.testing.assert_allclose(
            np.exp(log_softmax_rows(EXTREME_LOGITS, tau)[0]),
            log_softmax_rows(EXTREME_LOGITS, tau)[1],
            rtol=1e-12, atol=1e-300,
        )

    @pytest.mark.parametrize("tau", TAUS)
    def test_probs_are_bit_equal_to_the_shifted_exp_formula(self, tau):
        # extreme rows, then rows of the shape and scale of a wide teacher's logits
        rng = np.random.default_rng(11)
        for logits in (EXTREME_LOGITS, rng.normal(scale=5.0, size=(256, 100)),
                       np.array([[0.0, 800.0], [-745.0, 0.0]])):
            got = log_softmax_rows(logits, tau)[1]
            assert got.tobytes() == shifted_exp_softmax_rows(logits, tau).tobytes()

    def test_finite_where_softmax_underflows(self):
        logits = np.array([[0.0, 800.0]])
        assert log_softmax_rows(logits)[1][0, 0] == 0.0
        assert log_softmax_rows(logits)[0][0, 0] == -800.0


class TestKlRows:
    @pytest.mark.parametrize("tau", TAUS)
    def test_matches_extended_precision_oracle(self, tau):
        teacher = np.array(
            [[0.25, 0.25, 0.25, 0.25], [0.7, 0.0, 0.2, 0.1],
             [1.0, 0.0, 0.0, 0.0], [0.1, 0.6, 0.3, 0.0]]
        )
        out = kl_rows(teacher, log_softmax_rows(EXTREME_LOGITS, tau)[0])
        assert np.all(np.isfinite(out))
        for t, z, got in zip(teacher, EXTREME_LOGITS, out):
            assert got == pytest.approx(kl_rows_oracle(t, z, tau), rel=1e-12, abs=1e-15)

    def test_zero_target_entry_adds_exactly_zero(self):
        log_probs = np.log([[0.2, 0.3, 0.5]])
        with_zero = kl_rows(np.array([[0.0, 0.4, 0.6]]), log_probs)[0]
        expected = 0.4 * (math.log(0.4) - log_probs[0, 1]) + 0.6 * (
            math.log(0.6) - log_probs[0, 2]
        )
        assert with_zero == expected

    def test_unnormalized_step_b_targets(self):
        # step-b rows sum to less than 1; no renormalization happens
        t = np.array([[0.35, 0.35, 0.2]])
        log_probs = np.log([[0.5, 0.25, 0.25]])
        expected = sum(ti * math.log(ti / si) for ti, si in zip(t[0], [0.5, 0.25, 0.25]))
        assert kl_rows(t, log_probs)[0] == pytest.approx(expected, rel=1e-14)

    @settings(max_examples=2 * settings.default.max_examples, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), k=st.integers(2, 100),
           scale=st.floats(0.0, 300.0))
    def test_a_row_does_not_depend_on_the_other_rows(self, seed, n, k, scale):
        # the loss takes one KL pass over the batch and sums its subsets
        rng = np.random.default_rng(seed)
        t = rng.dirichlet(np.ones(k), size=n) * (rng.random((n, k)) > 0.2)
        log_probs = log_softmax_rows(rng.uniform(-scale, scale, size=(n, k)))[0]
        mask = rng.random(n) < 0.5
        assert np.array_equal(kl_rows(t, log_probs)[mask], kl_rows(t[mask], log_probs[mask]))


class TestKlDivergence:
    """KL(t || s) as ``kl_rows`` of one-row slices, given ln s."""

    def test_zero_for_identical(self):
        p = np.array([[0.4, 0.6]])
        assert kl_rows(p, np.log(p))[0] == pytest.approx(0.0, abs=1e-15)

    def test_one_hot_against_uniform_is_ln2(self):
        kl = kl_rows(np.array([[1.0, 0.0]]), np.log([[0.5, 0.5]]))[0]
        assert kl == pytest.approx(math.log(2), abs=1e-12)

    def test_matches_direct_summation_oracle(self):
        t, s = [0.3, 0.7], [0.7, 0.3]
        assert kl_rows(np.array([t]), np.log([s]))[0] == pytest.approx(kl_oracle(t, s), abs=1e-14)

    def test_zero_target_entry_contributes_nothing(self):
        # limit convention 0*ln(0/s) = 0
        kl = kl_rows(np.array([[0.0, 1.0]]), np.log([[0.3, 0.7]]))[0]
        assert kl == pytest.approx(math.log(1 / 0.7), abs=1e-12)

    @settings(max_examples=3 * settings.default.max_examples)
    @given(t=simplex(), s=simplex())
    def test_nonnegative_on_random_pairs(self, t, s):
        if t.shape != s.shape:
            return
        assert kl_rows(t[None], np.log(s)[None])[0] >= -1e-12


class TestCrossEntropy:
    """CE against a one-hot label is ``-ln s`` of ``log_softmax_rows`` at the label."""

    def test_perfect_prediction_is_zero(self):
        assert -log_softmax_rows([[800.0, 0.0, 0.0]])[0][0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_half_probability_is_ln2(self):
        assert -log_softmax_rows([[0.0, 0.0]])[0][0, 1] == pytest.approx(math.log(2), abs=1e-14)

    def test_analytic_inverse(self):
        # softmax([0, ln(e^2 - 1)])[0] = e^-2
        z = [[0.0, math.log(math.exp(2) - 1.0)]]
        assert -log_softmax_rows(z)[0][0, 0] == pytest.approx(2.0, abs=1e-12)


def one_hard_row(t):
    """``target_loss``'s rows for a one-row target ``t`` of the hard weight class."""
    return row_targets(t, np.array([False]), np.array([True]))


def teacher_gradient(z, labels):
    """The teacher's CE gradient s - onehot: ``target_loss`` at tau 1 and g 0 with (1, onehot)."""
    z = np.asarray(z, dtype=np.float64)
    onehot = np.zeros_like(z)
    onehot[np.arange(labels.shape[0]), labels] = 1.0
    return target_loss(z, 0.0, 1.0, (1.0, onehot), empty_log_s(*z.shape, 1.0))


class TestGradients:
    """CE through the teacher's route; KL through ``target_loss``, the gradient training runs.

    ``teacher_gradient`` returns s - onehot of the logits it is given; given
    z / tau, that is the gradient w.r.t. z / tau, so the gradient w.r.t. z
    is that over tau. With one hard row and g = 1, ``target_loss`` weights
    CE by 0: its ``grad`` is the gradient of that row's KL, its
    ``loss_hard``.
    """

    def test_ce_gradient_zero_at_optimum(self):
        # logits so extreme the softmax is one-hot in float64
        g = teacher_gradient([[800.0, 0.0]], np.array([0]))[0]
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_ce_gradient_symmetric_two_class(self):
        g = teacher_gradient([[0.0, 0.0]], np.array([0]))[0]
        np.testing.assert_allclose(g, [-0.5, 0.5], atol=1e-12)

    def test_ce_gradient_matches_finite_differences(self):
        z = np.array([2.0, 1.0, 0.0])
        for tau in (0.5, 1.0, 2.0):
            fd = finite_difference_gradient(lambda v: -log_softmax_rows(v[None], tau)[0][0, 2], z)
            g = teacher_gradient(z[None] / tau, np.array([2]))[0] / tau
            np.testing.assert_allclose(g, fd, atol=1e-6)

    def test_kl_gradient_zero_at_optimum(self):
        z = np.array([[1.0, -0.5, 0.2]])
        t = log_softmax_rows(z, 2.0)[1]
        g = one_batch(z, one_hard_row(t), np.array([0]), 1.0, 2.0).grad
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_kl_gradient_one_hot_target(self):
        t = np.array([[1.0, 0.0]])
        g = one_batch(np.zeros((1, 2)), one_hard_row(t), np.array([0]), 1.0, 1.0).grad
        np.testing.assert_allclose(g[0], [-0.5, 0.5], atol=1e-12)

    def test_kl_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        t = rng.dirichlet(np.ones(5))[None]
        z = rng.normal(size=5)
        rows, label = one_hard_row(t), np.array([0])
        for tau in (0.5, 1.0, 2.0):
            fd = finite_difference_gradient(
                lambda v: one_batch(v[None], rows, label, 1.0, tau).loss_hard, z
            )
            g = one_batch(z[None], rows, label, 1.0, tau).grad[0]
            np.testing.assert_allclose(g, fd, atol=1e-6)

    @given(
        z=st.lists(st.floats(-5, 5), min_size=2, max_size=8),
        tau=st.sampled_from([0.5, 1.0, 2.0]),
        data=st.data(),
    )
    def test_gradients_sum_to_zero(self, z, tau, data):
        c = data.draw(st.integers(0, len(z) - 1))
        z, labels = np.array([z]), np.array([c])
        assert abs(teacher_gradient(z / tau, labels).sum() / tau) <= 1e-12
        t = np.zeros_like(z)
        t[0, c] = 1.0
        assert abs(one_batch(z, one_hard_row(t), labels, 1.0, tau).grad.sum()) <= 1e-12

