"""Two-class optimum / dynamics tests against an independent grid oracle."""

import dataclasses

import numpy as np
import pytest

from rectidistill import cli
from rectidistill.analysis import (
    TwoClassSetup,
    VERDICT_BETWEEN,
    VERDICT_PULLED_BELOW_CE,
    optimum_gradients,
    sweep,
    two_class_optimum,
)
from rectidistill.errors import InvalidInputError
from rectidistill.rectify import rectify_sample

GRID = np.arange(1e-6, 1.0, 1e-6)


def grid_oracle(setup: TwoClassSetup, kl_target=None) -> float:
    """Vectorized 1-D grid search at 1e-6 resolution."""
    ta, tb = kl_target if kl_target is not None else (setup.t_a, setup.t_b)
    vals = -np.log(GRID)
    if ta > 0:
        vals += ta * np.log(ta / GRID)
    if tb > 0:
        vals += tb * np.log(tb / (1.0 - GRID))
    return float(GRID[np.argmin(vals)])


def checked_pair(t_a: float) -> tuple[float, float]:
    """The wrong pair [t_a, 1 - t_a] rectified by the checked 1-D ``rectify_sample``."""
    return tuple(rectify_sample([t_a, 1.0 - t_a], 0).values)


def largest_gradient(t_a_values) -> np.ndarray:
    """Largest |component| of ``optimum_gradients`` per point, both blocks, shape (G,)."""
    return np.abs(optimum_gradients(sweep(t_a_values))).max(axis=(0, 2))


class TestOptimum:
    def test_worked_value_t_a_030(self):
        s = two_class_optimum(TwoClassSetup(t_a=0.3))
        assert s == pytest.approx(0.65, abs=1e-4)
        assert s == pytest.approx(grid_oracle(TwoClassSetup(t_a=0.3)), abs=1e-4)

    def test_t_a_outside_open_interval_raises(self):
        for t_a in (0.0, 1.0):
            with pytest.raises(InvalidInputError, match=r"t_a must lie in \(0, 1\)"):
                TwoClassSetup(t_a=t_a)


class TestDynamics:
    def test_correct_teacher_lands_between(self):
        s = two_class_optimum(TwoClassSetup(t_a=0.9))
        assert s == pytest.approx(0.95, abs=1e-4)
        assert 0.9 < s < 1.0
        assert largest_gradient([0.9])[0] <= 1e-12

    def test_wrong_teacher_pulled_below_ce_optimum(self):
        s = two_class_optimum(TwoClassSetup(t_a=0.3))
        assert s == pytest.approx(0.65, abs=1e-4)
        assert s < 1.0  # the CE-only optimum
        assert largest_gradient([0.3])[0] <= 1e-12

    def test_boundary_midpoint(self):
        assert two_class_optimum(TwoClassSetup(t_a=0.5)) == pytest.approx(0.75, abs=1e-4)
        assert largest_gradient([0.5])[0] <= 1e-12

    def test_closed_form_is_stationary_on_grid(self):
        assert np.all(largest_gradient(np.linspace(0.05, 0.95, 20)) <= 1e-12)

    def test_moved_closed_form_is_not_stationary(self):
        rows = sweep([0.1, 0.3, 0.7, 0.9])
        moved_unrect = [dataclasses.replace(r, s_unrect=r.s_unrect + 1e-6) for r in rows]
        assert np.all(np.abs(optimum_gradients(moved_unrect)[0]).max(axis=1) > 1e-7)
        # rectify_only is checked at s_rect where there is one, so moving s_rect
        # alone fails there and leaves the vanilla_kd block at zero
        moved_rect = [dataclasses.replace(r, s_rect=r.s_rect + 1e-6) for r in rows]
        grads = np.abs(optimum_gradients(moved_rect)).max(axis=2)
        assert np.all(grads[0] <= 1e-12)
        assert np.all(grads[1, :2] > 1e-7) and np.all(grads[1, 2:] <= 1e-12)


class TestRectifiedDynamics:
    def test_worked_example_t_a_010(self):
        assert checked_pair(0.1) == pytest.approx((0.55, 0.45), abs=1e-12)
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
        for row in sweep(np.arange(0.05, 0.50, 0.05)):
            assert row.s_rect > row.s_unrect
            assert row.s_rect == pytest.approx(
                grid_oracle(TwoClassSetup(t_a=row.t_a), checked_pair(row.t_a)), abs=1e-4
            )

    def test_correct_teacher_rejected(self):
        # the checked path refuses a correct pair; the sweep leaves it unrectified
        with pytest.raises(InvalidInputError, match=r"^teacher already predicts the true class 0$"):
            rectify_sample([0.7, 0.3], 0)
        assert [np.isnan(row.s_rect) for row in sweep([0.3, 0.5, 0.7])] == [False, True, True]

    def test_wrong_teacher_monotone_pull(self):
        optima = [
            two_class_optimum(TwoClassSetup(t_a=float(ta)))
            for ta in np.arange(0.05, 0.50, 0.05)
        ]
        assert all(b > a for a, b in zip(optima, optima[1:]))


class TestSweep:
    def test_rows_are_the_closed_form_exactly(self):
        for row in sweep([round(0.05 * i, 2) for i in range(1, 20)]):
            assert row.s_unrect == (row.t_a + 1.0) / 2.0
            if row.t_a < 0.5:
                assert row.s_rect == (checked_pair(row.t_a)[0] + 1.0) / 2.0
            else:
                assert np.isnan(row.s_rect)

    def test_batched_rectification_matches_the_checked_path_at_any_point_order(self):
        # wrong and right points interleaved, so each rectified row must land on its own point
        t_a = np.random.default_rng(0).uniform(1e-6, 1.0 - 1e-6, size=500)
        for row in sweep(t_a):
            if row.t_a < 0.5:
                assert row.s_rect == (checked_pair(row.t_a)[0] + 1.0) / 2.0
            else:
                assert np.isnan(row.s_rect)

    def test_point_outside_open_interval_raises(self):
        with pytest.raises(InvalidInputError, match=r"t_a must lie in \(0, 1\), got 1\.0"):
            sweep([0.3, 1.0])


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
