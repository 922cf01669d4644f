"""Two-class optimum / dynamics tests against an independent grid oracle."""

import dataclasses

import numpy as np
import pytest

from rectidistill import cli
from rectidistill.analysis import (
    VERDICT_BETWEEN,
    VERDICT_PULLED_BELOW_CE,
    optimum,
    optimum_gradients,
    sweep,
)
from rectidistill.rectify import rectify_rows
from rectidistill.schedule import MODES, gamma, linear_targets, teacher_targets
from rectidistill.train import TrainConfig

from one_batch import one_batch

GRID = np.arange(1e-6, 1.0, 1e-6)


def grid_oracle(t_a: float, kl_target=None) -> float:
    """Vectorized 1-D grid search at 1e-6 resolution; the KL target defaults to the teacher pair."""
    ta, tb = kl_target if kl_target is not None else (t_a, 1.0 - t_a)
    vals = -np.log(GRID)
    if ta > 0:
        vals += ta * np.log(ta / GRID)
    if tb > 0:
        vals += tb * np.log(tb / (1.0 - GRID))
    return float(GRID[np.argmin(vals)])


def largest_gradient(t_a_values) -> np.ndarray:
    """Largest |component| of ``optimum_gradients`` per point, both blocks, shape (G,)."""
    return np.abs(optimum_gradients(sweep(t_a_values))).max(axis=(0, 2))


class TestOptimum:
    def test_worked_value_t_a_030(self):
        s = optimum(0.3)
        assert s == pytest.approx(0.65, abs=1e-4)
        assert s == pytest.approx(grid_oracle(0.3), abs=1e-4)


class TestDynamics:
    def test_correct_teacher_lands_between(self):
        s = optimum(0.9)
        assert s == pytest.approx(0.95, abs=1e-4)
        assert 0.9 < s < 1.0
        assert largest_gradient([0.9])[0] <= 1e-12

    def test_wrong_teacher_pulled_below_ce_optimum(self):
        s = optimum(0.3)
        assert s == pytest.approx(0.65, abs=1e-4)
        assert s < 1.0  # the CE-only optimum
        assert largest_gradient([0.3])[0] <= 1e-12

    def test_boundary_midpoint(self):
        assert optimum(0.5) == pytest.approx(0.75, abs=1e-4)
        assert largest_gradient([0.5])[0] <= 1e-12

    def test_closed_form_is_stationary_on_grid(self):
        assert np.all(largest_gradient(np.linspace(0.05, 0.95, 20)) <= 1e-12)

    def test_moved_closed_form_is_not_stationary(self):
        rows = sweep([0.1, 0.3, 0.7, 0.9])
        moved_unrect = [dataclasses.replace(r, s_unrect=r.s_unrect + 1e-6) for r in rows]
        assert np.all(np.abs(optimum_gradients(moved_unrect)[0]).max(axis=1) > 1e-7)
        # rectify is checked at s_rect where there is one, so moving s_rect
        # alone fails there and leaves the vanilla block at zero
        moved_rect = [dataclasses.replace(r, s_rect=r.s_rect + 1e-6) for r in rows]
        grads = np.abs(optimum_gradients(moved_rect)).max(axis=2)
        assert np.all(grads[0] <= 1e-12)
        assert np.all(grads[1, :2] > 1e-7) and np.all(grads[1, 2:] <= 1e-12)


class TestRectifiedDynamics:
    def test_worked_example_t_a_010(self):
        rect = rectify_rows(np.array([[0.1, 0.9]]), np.array([0]))[0]
        assert tuple(rect) == pytest.approx((0.55, 0.45), abs=1e-12)
        (row,) = sweep([0.1])
        assert row.s_unrect == pytest.approx(0.55, abs=1e-4)
        assert row.s_rect == pytest.approx(0.775, abs=1e-4)
        assert row.s_rect > row.s_unrect
        assert largest_gradient([0.1])[0] <= 1e-12

    def test_optimum_gap_is_quarter_of_teacher_error(self):
        # rectified target (t_a+1)/2 lifts s* by exactly (1-t_a)/4
        for ta, row in zip((0.05, 0.25, 0.499), sweep([0.05, 0.25, 0.499])):
            assert row.s_rect - row.s_unrect == pytest.approx((1.0 - ta) / 4.0, abs=1e-7)

    def test_dominance_across_wrong_teacher_sweep(self):
        t_a = np.arange(0.05, 0.50, 0.05)
        rect = rectify_rows(np.column_stack([t_a, 1.0 - t_a]), np.zeros(t_a.size, dtype=np.int64))
        for row, pair in zip(sweep(t_a), rect):
            assert row.s_rect > row.s_unrect
            assert row.s_rect == pytest.approx(
                grid_oracle(row.t_a, tuple(pair)), abs=1e-4
            )

    def test_correct_teacher_rejected(self):
        # the sweep rectifies only a wrong pair and leaves a correct one unrectified
        assert [np.isnan(row.s_rect) for row in sweep([0.3, 0.5, 0.7])] == [False, True, True]

    def test_wrong_teacher_monotone_pull(self):
        optima = [optimum(float(ta)) for ta in np.arange(0.05, 0.50, 0.05)]
        assert all(b > a for a, b in zip(optima, optima[1:]))


class TestSweep:
    def test_rows_are_the_closed_form_exactly(self):
        for row in sweep([round(0.05 * i, 2) for i in range(1, 20)]):
            assert row.s_unrect == (row.t_a + 1.0) / 2.0
            if row.t_a < 0.5:
                pair = rectify_rows(np.array([[row.t_a, 1.0 - row.t_a]]), np.array([0]))[0]
                assert row.s_rect == (pair[0] + 1.0) / 2.0
            else:
                assert np.isnan(row.s_rect)

    def test_batched_rectification_matches_the_checked_path_at_any_point_order(self):
        # wrong and right points interleaved, so each rectified row must land on its own
        # point: the pair rectified alone, as a one-row slice
        t_a = np.random.default_rng(0).uniform(1e-6, 1.0 - 1e-6, size=500)
        for row in sweep(t_a):
            if row.t_a < 0.5:
                pair = rectify_rows(np.array([[row.t_a, 1.0 - row.t_a]]), np.array([0]))[0]
                assert row.s_rect == (pair[0] + 1.0) / 2.0
            else:
                assert np.isnan(row.s_rect)


class TestSweepCsv:
    def test_schema_and_verdicts(self, tmp_path):
        # prop-check writes sweep.csv through data.write_table
        assert cli.main(["prop-check", "--out", str(tmp_path)]) == cli.EXIT_OK
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        by_t_a = {line.split(",")[0]: line for line in lines[1:]}
        assert lines[0] == "t_a,s_unrect,s_rect,s_ce_only,verdict"
        assert by_t_a["0.25"].endswith(VERDICT_PULLED_BELOW_CE)
        assert by_t_a["0.75"].endswith(VERDICT_BETWEEN)
        assert "nan" in by_t_a["0.75"]  # no rectification for a correct teacher


NOISY_ROWS = 10
NOISY_EPOCHS = 60


def noisy_gradient(s, t, nb, epoch, mode="full") -> np.ndarray:
    """NOISY_ROWS times the batch's summed logit gradient at student pair (s, 1 - s).

    ``mode`` is the ``--mode`` text. Every teacher row is (t, 1 - t); the first
    ``nb`` rows are labelled 1, the rest 0.
    """
    teacher = np.tile([t, 1.0 - t], (NOISY_ROWS, 1))
    labels = np.zeros(NOISY_ROWS, dtype=np.int64)
    labels[:nb] = 1
    logits = np.tile([np.log(s) - np.log(1.0 - s), 0.0], (NOISY_ROWS, 1))
    row = TrainConfig(mode=mode).row
    loss = one_batch(logits, teacher_targets(teacher, labels, row), labels,
                     gamma(row, epoch, NOISY_EPOCHS), 1.0)
    return NOISY_ROWS * loss.grad.sum(axis=0)


def noisy_optimum(t, q, g):
    """s*(g): the weighted mean of the targets' class-0 mass, each CE term a one-hot target."""
    return ((1 - g) * (1 - q) * (1 + t) + g * q * t / 2) / ((1 - g) * (2 - q) + g * q)


def flip_gamma(t):
    """g*(t): above it, a calibrated teacher's (q = 1 - t) s*(g) drops below 1/2."""
    a = (1 + t) * (2 * t - 1)
    return a / (a + (1 - t) ** 2)


class TestLabelNoise:
    """What ``full`` learns from a right teacher when a share q of the labels is flipped.

    The flipped rows are biased, so ``full`` rectifies them to (t/2, 1 - t/2) and weights
    them by gamma; at gamma -> 1 they pull the student toward the noisy label. Lukasik et
    al. 2020 (arXiv:2003.02819) study how soft targets interact with label noise.
    """

    POINTS = [(t, nb) for t in (0.6, 0.7, 0.8, 0.9) for nb in (1, 2, 3)]
    EPOCHS = (0, 30, 54, 59)

    def test_full_is_stationary_at_the_closed_form_only(self):
        for t, nb in self.POINTS:
            for epoch in self.EPOCHS:
                s = noisy_optimum(t, nb / NOISY_ROWS, epoch / NOISY_EPOCHS)
                assert np.abs(noisy_gradient(s, t, nb, epoch)).max() <= 1e-12, (t, nb, epoch)
                moved = noisy_gradient(s + 1e-6, t, nb, epoch)
                assert np.abs(moved).max() > 1e-8, (t, nb, epoch)

    def test_vanilla_is_stationary_at_the_mean_target_only(self):
        for t, nb in self.POINTS:
            for epoch in self.EPOCHS:
                s = (t + 1 - nb / NOISY_ROWS) / 2
                grad = noisy_gradient(s, t, nb, epoch, mode="vanilla")
                assert np.abs(grad).max() <= 1e-12, (t, nb, epoch)
                moved = noisy_gradient(s + 1e-6, t, nb, epoch, mode="vanilla")
                assert np.abs(moved).max() > 1e-8, (t, nb, epoch)

    @pytest.mark.parametrize("nb", [1, 2, 3])
    def test_calibrated_teacher_is_even_at_the_flip_gamma(self, nb):
        q = nb / NOISY_ROWS
        t = 1 - q
        g = flip_gamma(t)
        assert noisy_optimum(t, q, g) == pytest.approx(0.5, abs=1e-12)
        grad = noisy_gradient(0.5, t, nb, 0, mode=f"fixed-gamma={g}")
        assert np.abs(grad).max() <= 1e-12

    @pytest.mark.parametrize("t,g,flips", [(0.6, 0.667, 19), (0.7, 0.883, 7), (0.8, 0.964, 2),
                                           (0.9, 0.993, 0)])
    def test_late_epochs_take_the_noisy_label(self, t, g, flips):
        # the README table: a positive class-0 gradient at s = 1/2 puts the optimum below it
        assert round(flip_gamma(t), 3) == g
        nb = round(NOISY_ROWS * (1 - t))
        flipped = [e for e in range(NOISY_EPOCHS) if noisy_gradient(0.5, t, nb, e)[0] > 1e-12]
        assert flipped == list(range(NOISY_EPOCHS - flips, NOISY_EPOCHS))


def linear_optimum(teacher, labels, row, g) -> np.ndarray:
    """sum b / sum a of the rows' ``linear_targets``: where their summed gradient is 0.

    Rows that share one input share the student softmax s, so at tau 1 their
    summed logit gradient is (sum a) s - sum b.
    """
    a, b = linear_targets(teacher_targets(teacher, labels, row), labels, g, len(labels), 1.0)
    return b.sum(axis=0) / a.sum()


class TestLinearTargets:
    """Prop-check's closed form, the label-noise formula and training share one construction."""

    def test_one_row_at_gamma_0_is_the_two_class_optimum(self):
        labels = np.zeros(1, dtype=np.int64)
        for r in sweep(np.arange(1, 20) / 20):
            teacher = np.array([[r.t_a, 1.0 - r.t_a]])
            s_rect = r.s_unrect if np.isnan(r.s_rect) else r.s_rect
            for mode, want in (("vanilla", optimum(r.t_a)), ("rectify", s_rect)):
                s = linear_optimum(teacher, labels, MODES[mode], 0.0)
                assert abs(s[0] - want) <= 1e-12, (r.t_a, mode)

    def test_the_noisy_population_is_the_readme_s_closed_form(self):
        for t, nb in TestLabelNoise.POINTS:
            teacher = np.tile([t, 1.0 - t], (NOISY_ROWS, 1))
            labels = np.zeros(NOISY_ROWS, dtype=np.int64)
            labels[:nb] = 1
            q = nb / NOISY_ROWS
            for epoch in range(NOISY_EPOCHS):
                g = gamma(MODES["full"], epoch, NOISY_EPOCHS)
                s = linear_optimum(teacher, labels, MODES["full"], g)
                assert abs(s[0] - noisy_optimum(t, q, g)) <= 1e-12, (t, nb, epoch)
                s = linear_optimum(teacher, labels, MODES["vanilla"], g)
                assert abs(s[0] - (t + 1 - q) / 2) <= 1e-12, (t, nb, epoch)

    def test_step_c_can_leave_a_third_class_on_top(self):
        # step c rescales only the label and the teacher's argmax, so class 2 keeps its
        # bits and stays highest; in full it becomes argmax b, so the row's optimum,
        # once g passes the crossing 1 / (1 + t_2 - t'_label), where the two entries meet
        teacher, labels = np.array([[0.495, 0.015, 0.490]]), np.array([1])
        rows = teacher_targets(teacher, labels, MODES["full"])
        np.testing.assert_allclose(rows.targets[0, :2], [0.16719, 0.34281], atol=1e-5)
        assert rows.targets[0, 2] == teacher[0, 2]
        assert int(np.argmax(rows.targets[0])) == 2
        assert 1.0 / (1.0 + 0.490 - rows.targets[0, 1]) == pytest.approx(0.87170, abs=1e-5)
        for g, want in ((0.87, 1), (0.88, 2)):
            assert int(np.argmax(linear_targets(rows, labels, g, 1, 1.0)[1])) == want
