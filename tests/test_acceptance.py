"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Criteria 6-8 share a module-scoped experiment fixture, ``gate.experiment``:
a 4-class blob task (spread 1.2), a 2-64-4 teacher trained to >= 90% train
accuracy, and 2-8-4 students distilled for 60 epochs under five modes x five
seeds. ``gate`` also holds the three criteria's inequalities, which
``scripts/gate_margins.py`` applies to other teacher and student seeds.
"""

import numpy as np
import pytest

from rectidistill import cli, model, train
from rectidistill.analysis import optimum, sweep
from rectidistill.numerics import kl_rows
from rectidistill.rectify import STEP_B, STEP_C, rectify_rows
from rectidistill.schedule import MODES, gamma, row_targets, teacher_targets

import gate
from finite_differences import finite_difference_gradient
from one_batch import one_batch


def report(capsys, number: int, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


# --------------------------------------------------------------------------
# shared experiment: teacher + 5 modes x 5 seeds of distilled students
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def experiment():
    return gate.experiment()


# --------------------------------------------------------------------------
# criteria
# --------------------------------------------------------------------------

def test_criterion_01_gradient_fidelity(capsys):
    # CE and KL through the gradient training runs, target_loss's, with the
    # terms loss_terms reduces, on one hard row: at g = 0 its KL has weight 0
    # and loss_total is the temperature-1 CE; at g = 1 CE has weight 0 and loss_hard
    # is the KL
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 11))
        tau = float(rng.choice([0.5, 1.0, 2.0]))
        z = rng.uniform(-5.0, 5.0, size=k)
        c = int(rng.integers(0, k))
        t = rng.dirichlet(np.ones(k))

        label, hard = np.array([c]), np.array([True])
        rows = row_targets(t[None], ~hard, hard)
        fd_ce = finite_difference_gradient(
            lambda v: one_batch(v[None], rows, label, 0.0, tau).loss_total, z
        )
        ce_grad = one_batch(z[None], rows, label, 0.0, tau).grad[0]
        worst = max(worst, float(np.max(np.abs(ce_grad - fd_ce))))
        fd_kl = finite_difference_gradient(
            lambda v: one_batch(v[None], rows, label, 1.0, tau).loss_hard, z
        )
        kl_grad = one_batch(z[None], rows, label, 1.0, tau).grad[0]
        worst = max(worst, float(np.max(np.abs(kl_grad - fd_kl))))
    report(capsys, 1, "gradient fidelity", worst <= 1e-6,
           f"max |analytic - finite difference| = {worst:.3e} over 100 cases (tol 1e-6)")


def test_criterion_02_kl_nonnegativity(capsys):
    rng = np.random.default_rng(202)
    worst_pair, worst_self = 0.0, 0.0
    for _ in range(10_000):
        k = int(rng.integers(2, 11))
        p = np.maximum(rng.dirichlet(np.ones(k)), 1e-9)
        q = np.maximum(rng.dirichlet(np.ones(k)), 1e-9)
        p, q = p / p.sum(), q / q.sum()
        worst_pair = min(worst_pair, kl_rows(p[None], np.log(q)[None])[0])
        worst_self = max(worst_self, abs(kl_rows(p[None], np.log(p)[None])[0]))
    ok = worst_pair >= -1e-12 and worst_self <= 1e-12
    report(capsys, 2, "KL non-negativity", ok,
           f"min KL(p,q) = {worst_pair:.3e} (>= -1e-12), max |KL(p,p)| = {worst_self:.3e} over 10000 pairs")


def test_criterion_03_rectification_invariants(capsys):
    rng = np.random.default_rng(303)
    checked = 0
    for _ in range(10_000):
        k = int(rng.integers(2, 21))
        t = rng.dirichlet(np.ones(k))
        b = int(np.argmax(t))
        a = int(rng.integers(0, k))
        if a == b:
            a = (b + 1) % k
        t_a, t_b = t[a], t[b]
        step_b = rectify_rows(t[None], np.array([a]), STEP_B)[0]
        step_c = rectify_rows(t[None], np.array([a]), STEP_C)[0]
        other = np.delete(np.arange(k), [a, b])
        assert abs(step_b.sum() - (1.0 + (1.0 - t_a - t_b) / 2.0)) <= 1e-12
        assert abs(step_c.sum() - 1.0) <= 1e-12
        assert np.array_equal(step_c[other], t[other])  # t_o bit-identical
        assert step_c[a] > step_c[b]
        assert abs((step_c[a] + step_c[b]) - (t_a + t_b)) <= 1e-12
        checked += 1
    report(capsys, 3, "rectification invariants", checked == 10_000,
           f"{checked} random wrong-prediction vectors (2-20 classes), all invariants exact to 1e-12")


GRID = np.arange(1e-6, 1.0, 1e-6)


def grid_optimum(ta: float, tb: float) -> float:
    vals = ta * np.log(ta / GRID) + tb * np.log(tb / (1.0 - GRID)) - np.log(GRID)
    return float(GRID[np.argmin(vals)])


def test_criterion_04_two_class_sweep(capsys):
    worst = 0.0
    failures = []
    for row in sweep([round(0.05 * i, 2) for i in range(1, 20)]):
        worst = max(worst, abs(row.s_unrect - grid_optimum(row.t_a, 1 - row.t_a)))
        if row.t_a > 0.5 and not row.t_a < row.s_unrect < 1.0:
            failures.append(f"ordering at t_a={row.t_a}")
        if row.t_a < 0.5 and not row.s_rect > row.s_unrect:
            failures.append(f"rectified dominance at t_a={row.t_a}")
    ok = worst <= 1e-4 and not failures
    report(capsys, 4, "two-class sweep", ok,
           f"max |s* - grid oracle| = {worst:.3e} (tol 1e-4), violations: {failures or 'none'}")


def test_criterion_05_worked_optimum(capsys):
    s = optimum(0.3)
    oracle = grid_optimum(0.3, 0.7)
    ok = abs(s - 0.65) <= 1e-4 and abs(s - oracle) <= 1e-4
    report(capsys, 5, "worked optimum", ok,
           f"s*(t_a=0.3) = {s:.6f}, expected 0.65, grid oracle {oracle:.6f} (tol 1e-4)")


def test_criterion_06_rectification_ablation(capsys, experiment):
    ok, (step_c, step_b) = gate.criterion_6(experiment)
    report(capsys, 6, "rectification ablation", ok,
           f"median val acc over 5 seeds: normalized {step_c:.4f} >= unnormalized {step_b:.4f}")


def test_criterion_07_module_ablation(capsys, experiment):
    ok, (full, eliminate, vanilla) = gate.criterion_7(experiment)
    report(capsys, 7, "module ablation", ok,
           f"median val acc: full {full:.4f} >= eliminate {eliminate:.4f} >= vanilla {vanilla:.4f} "
           f"(inversions up to 0.5pp tolerated)")


def test_criterion_08_dynamic_schedule(capsys, experiment):
    ok, (dynamic, fixed) = gate.criterion_8(experiment)
    report(capsys, 8, "dynamic schedule", ok,
           f"median val acc at epoch {gate.EARLY_EPOCH}: dynamic {dynamic:.4f} "
           f">= fixed gamma=0.5 {fixed:.4f}")


def test_criterion_09_end_to_end_gradients(capsys):
    rng = np.random.default_rng(909)
    x = rng.normal(size=(3, 2))
    teacher_probs = rng.dirichlet(np.ones(3), size=3)
    labels = np.array([0, 2, 1])
    worst = 0.0
    for mode in MODES:
        row = train.TrainConfig(mode="fixed-gamma=0.5" if mode == "fixed-gamma" else mode).row
        g = gamma(row, 30, 60)
        rows = teacher_targets(teacher_probs, labels, row)
        student = model.init([2, 4, 3], seed=17)
        q = model.init([2, 4, 3], seed=17)

        def loss_at(flat):
            q.flat[:] = flat
            logits = model.forward(q, x)
            return one_batch(logits, rows, labels, g, 1.0).loss_total

        logits, acts = model._forward_cached(student, x)
        upstream = one_batch(logits, rows, labels, g, 1.0).grad
        analytic = np.empty_like(student.flat)
        model._backward_into(student, student.layer_views(analytic), upstream, acts)
        fd = finite_difference_gradient(loss_at, student.flat.copy())
        worst = max(worst, float(np.max(np.abs(analytic - fd))))
    report(capsys, 9, "end-to-end gradients", worst <= 1e-5,
           f"max parameter-gradient error over all six modes = {worst:.3e} (tol 1e-5)")


def test_criterion_10_determinism(capsys, tmp_path):
    data = tmp_path / "data"
    teacher_dir = tmp_path / "teacher"
    assert cli.main(["gen-data", "--classes", "3", "--per-class", "30",
                     "--val-per-class", "30", "--spread", "0.8", "--seed", "4",
                     "--out", str(data)]) == cli.EXIT_OK
    assert cli.main(["train-teacher", "--train", str(data / "train.csv"),
                     "--val", str(data / "val.csv"), "--dims", "2,8,3",
                     "--epochs", "10", "--out", str(teacher_dir)]) == cli.EXIT_OK
    outs = []
    for name in ("run-a", "run-b"):
        out = tmp_path / name
        assert cli.main(["distill", "--train", str(data / "train.csv"),
                         "--val", str(data / "val.csv"),
                         "--teacher", str(teacher_dir / "teacher.ckpt"),
                         "--dims", "2,4,3", "--epochs", "10",
                         "--out", str(out)]) == cli.EXIT_OK
        outs.append(out)
    same_metrics = (outs[0] / "metrics.csv").read_bytes() == (outs[1] / "metrics.csv").read_bytes()
    same_ckpt = (outs[0] / "student.ckpt").read_bytes() == (outs[1] / "student.ckpt").read_bytes()
    report(capsys, 10, "determinism", same_metrics and same_ckpt,
           f"repeated distill runs byte-identical: metrics={same_metrics}, checkpoint={same_ckpt}")
