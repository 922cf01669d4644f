"""The shared SGD loop behind ``train_teacher`` and ``distill``: its rows and its bits."""

import math

import numpy as np
import pytest

from rectidistill import model, train as train_module
from rectidistill.data import batch_iter, make_blobs
from rectidistill.errors import ConfigError
from rectidistill.numerics import log_softmax_rows
from rectidistill.schedule import MODES, compute_batch_loss, gamma
from rectidistill.train import (
    METRICS_COLUMNS,
    TEACHER_METRICS_COLUMNS,
    TrainConfig,
    distill,
    train_teacher,
)

EPOCHS = 4


@pytest.fixture(scope="module")
def setup():
    train = make_blobs(3, 12, 2, 1.0, seed=5)
    val = make_blobs(3, 4, 2, 1.0, seed=6)
    cfg = TrainConfig(epochs=EPOCHS, batch_size=8, seed=2)
    teacher, _ = train_teacher(train, [2, 6, 3], cfg, val)
    return train, val, teacher


def heavy_ball(params, grads, velocity, cfg):
    """The momentum update written out per layer: v = m*v + g; w -= lr*v."""
    for i, (gw, gb) in enumerate(grads):
        vw, vb = velocity[i]
        vw = train_module.MOMENTUM * vw + gw
        vb = train_module.MOMENTUM * vb + gb
        params.weights[i] -= cfg.learning_rate * vw
        params.biases[i] -= cfg.learning_rate * vb
        velocity[i] = (vw, vb)


def zero_velocity(params):
    return [(np.zeros_like(w), np.zeros_like(b)) for w, b in zip(params.weights, params.biases)]


def two_loop_teacher(train_ds, dims, cfg, val_ds):
    """Oracle: the separate teacher loop that the shared loop replaced."""
    params = model.init(dims, cfg.seed)
    velocity = zero_velocity(params)
    rows = []
    for epoch in range(cfg.epochs):
        loss_sum = 0.0
        for idx in batch_iter(train_ds, cfg.batch_size, cfg.seed, epoch):
            x, y = train_ds.features[idx], train_ds.labels[idx]
            logits, acts = model._forward_cached(params, x)
            true_class = (np.arange(len(idx)), y)
            loss_sum += float(-log_softmax_rows(logits)[0][true_class].sum())
            upstream = log_softmax_rows(logits)[1]
            upstream[true_class] -= 1.0
            grads = params.layer_views(np.empty_like(params.flat))
            model._backward_into(params, grads, upstream / len(idx), acts)
            heavy_ball(params, grads, velocity, cfg)
        rows.append({
            "epoch": epoch,
            "loss_ce": loss_sum / train_ds.n,
            "train_acc": model.evaluate(params, train_ds),
            "val_acc": model.evaluate(params, val_ds),
        })
    return params, rows


def two_loop_distill(teacher, student_dims, train_ds, cfg, val_ds):
    """Oracle: the separate distillation loop that the shared loop replaced."""
    student = model.init(student_dims, cfg.seed)
    velocity = zero_velocity(student)
    rows = []
    for epoch in range(cfg.epochs):
        g = gamma(cfg.row, epoch, cfg.epochs)
        sums = {"loss_total": 0.0, "loss_ce": 0.0, "loss_easy": 0.0, "loss_hard": 0.0}
        n_right = 0
        for idx in batch_iter(train_ds, cfg.batch_size, cfg.seed, epoch):
            x, y = train_ds.features[idx], train_ds.labels[idx]
            teacher_probs = log_softmax_rows(model.forward(teacher, x), cfg.tau)[1]
            logits, acts = model._forward_cached(student, x)
            breakdown = compute_batch_loss(logits, teacher_probs, y, g, cfg.tau, cfg.row)
            grads = student.layer_views(np.empty_like(student.flat))
            model._backward_into(student, grads, breakdown.grad, acts)
            heavy_ball(student, grads, velocity, cfg)
            for key, value in (("loss_total", breakdown.l_all), ("loss_ce", breakdown.l_ce),
                               ("loss_easy", breakdown.l_easy), ("loss_hard", breakdown.l_hard)):
                sums[key] += value * len(idx)
            n_right += int(np.sum(np.argmax(teacher_probs, axis=1) == y))
        rows.append({
            "epoch": epoch,
            "gamma": g,
            **{key: value / train_ds.n for key, value in sums.items()},
            "train_acc": model.evaluate(student, train_ds),
            "val_acc": model.evaluate(student, val_ds),
            "teacher_right_fraction": n_right / train_ds.n,
        })
    return student, rows


def assert_same_bits(params_a, rows_a, params_b, rows_b):
    assert np.array_equal(params_a.flat, params_b.flat)
    assert [sorted(r.items()) for r in rows_a] == [sorted(r.items()) for r in rows_b]


def test_teacher_rows_carry_exactly_the_teacher_columns(setup):
    train, val, _ = setup
    _, rows = train_teacher(train, [2, 6, 3], TrainConfig(epochs=EPOCHS, batch_size=8), val)
    assert [r["epoch"] for r in rows] == list(range(EPOCHS))
    for row in rows:
        assert set(row) == set(TEACHER_METRICS_COLUMNS)


def test_teacher_matches_the_two_loop_oracle(setup):
    train, val, _ = setup
    cfg = TrainConfig(epochs=EPOCHS, batch_size=8, seed=3)
    assert_same_bits(*train_teacher(train, [2, 6, 3], cfg, val),
                     *two_loop_teacher(train, [2, 6, 3], cfg, val))


@pytest.mark.parametrize("mode", MODES)
def test_distill_rows_and_gamma_column(setup, mode):
    train, val, teacher = setup
    cfg = _cfg(mode, 8)
    student, rows = distill(teacher, [2, 5, 3], train, cfg, val)
    for row in rows:
        assert set(row) == set(METRICS_COLUMNS)
    if mode in ("full", "step-b"):
        want = [e / EPOCHS for e in range(EPOCHS)]
    elif mode == "fixed-gamma":
        want = [0.3] * EPOCHS
    else:
        want = [0.0] * EPOCHS
    assert [r["gamma"] for r in rows] == want
    assert_same_bits(student, rows, *two_loop_distill(teacher, [2, 5, 3], train, cfg, val))


@pytest.fixture(scope="module")
def wide_teacher(setup):
    # at a hidden width of 32, OpenBLAS can give a row other bits at 5, 6 or
    # 7 rows depending on its position among them (the 6-wide teacher's rows
    # keep theirs); distill must then keep the per-batch path
    train, val, _ = setup
    return train_teacher(train, [2, 32, 3], TrainConfig(epochs=EPOCHS, batch_size=8), val)[0]


# (batch size, tau) on the 36-row split: one-row batches, n % B == 0,
# n % B == 1 with an odd B (a 1-row last batch), n % B == 3, B == n and B > n
TABLE_CASES = [(1, 1.0), (6, 1.0), (7, 1.0), (11, 0.5), (36, 1.0), (50, 0.5)]


def _cfg(mode, batch_size, tau=1.0):
    """Mode ``mode``'s config, at G = 0.3 for ``fixed-gamma``."""
    flag = "fixed-gamma=0.3" if mode == "fixed-gamma" else mode
    return TrainConfig(epochs=EPOCHS, batch_size=batch_size, seed=4, tau=tau, mode=flag)


@pytest.mark.parametrize("wide", [False, True])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("batch_size,tau", TABLE_CASES)
def test_target_table_is_bit_identical_to_per_batch_targets(setup, wide_teacher, monkeypatch,
                                                            wide, mode, batch_size, tau):
    train, val, teacher = setup
    teacher = wide_teacher if wide else teacher
    cfg = _cfg(mode, batch_size, tau)
    with_table = distill(teacher, [2, 5, 3], train, cfg, val)
    monkeypatch.setattr(train_module, "TARGET_TABLE_BYTES", 0)
    assert_same_bits(*with_table, *distill(teacher, [2, 5, 3], train, cfg, val))


@pytest.mark.parametrize("tau", [0.5, 2.0])
@pytest.mark.parametrize("mode", ["full", "vanilla"])
def test_distill_matches_the_two_loop_oracle_away_from_tau_1(setup, mode, tau):
    # the oracle forwards the teacher at tau per batch; a teacher taken at
    # temperature 1 would change the targets, and with them every bit
    train, val, teacher = setup
    cfg = _cfg(mode, 8, tau)
    assert_same_bits(*distill(teacher, [2, 5, 3], train, cfg, val),
                     *two_loop_distill(teacher, [2, 5, 3], train, cfg, val))


@pytest.mark.parametrize("m", [7, 36])
def test_no_table_when_a_row_s_bits_depend_on_its_position(setup, m):
    train, _, teacher = setup

    def probs(x):
        return log_softmax_rows(model.forward(teacher, x))[1]

    def positional(x):
        # the last of the m rows takes other bits, as from a BLAS edge kernel
        out = probs(x)
        out[-1] = np.nextafter(out[-1], 2.0)
        return out

    assert train_module._target_table(train, m, probs, MODES["full"]) is not None
    assert train_module._target_table(train, m, positional, MODES["full"]) is None


@pytest.mark.parametrize("table_bytes", [train_module.TARGET_TABLE_BYTES, 0])
@pytest.mark.parametrize("batch_size", [6, 7, 50])
def test_teacher_forward_count_under_and_over_the_budget(setup, monkeypatch, table_bytes,
                                                        batch_size):
    train, _, teacher = setup
    calls = []
    forward = model.forward

    def counting_forward(p, x):
        if p is teacher:
            calls.append(len(x))
        return forward(p, x)

    monkeypatch.setattr(model, "forward", counting_forward)
    monkeypatch.setattr(train_module, "TARGET_TABLE_BYTES", table_bytes)
    distill(teacher, [2, 5, 3], train, _cfg("full", batch_size))
    m = min(batch_size, train.n)
    short = [train.n % m] if train.n % m else []
    if table_bytes:
        # ceil(n/m) chunks of m rows, each forwarded twice (the position
        # check), then only the short last batch of each epoch
        want = [m] * (2 * math.ceil(train.n / m)) + short * EPOCHS
    else:
        want = ([m] * (train.n // m) + short) * EPOCHS
    assert calls == want


def test_missing_val_split_gives_nan_val_acc(setup):
    train, _, teacher = setup
    _, rows = distill(teacher, [2, 5, 3], train, TrainConfig(epochs=1, batch_size=8))
    assert np.isnan(rows[0]["val_acc"]) and 0.0 <= rows[0]["train_acc"] <= 1.0


@pytest.mark.parametrize(
    "mode,fixed_gamma",
    [("bogus", None), ("fixed-gamma", None), ("fixed-gamma", 1.0), ("fixed-gamma", float("nan"))],
)
def test_config_rejects_unknown_mode_and_bad_fixed_gamma(mode, fixed_gamma):
    with pytest.raises(ConfigError):
        TrainConfig(mode=mode if fixed_gamma is None else f"{mode}={fixed_gamma}")


def test_fixed_gamma_g_is_the_row_s_gamma_and_g_0_is_eliminate():
    eliminate = TrainConfig(mode="eliminate").row
    assert eliminate == TrainConfig(mode="fixed-gamma=0").row == MODES["eliminate"]
    assert TrainConfig(mode="fixed-gamma=0.5").row.gamma == 0.5


def test_config_rejects_a_negative_seed():
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        TrainConfig(seed=-1)


def _refuse(*args):
    raise AssertionError("the model was run before the fit check")


@pytest.fixture
def no_training(monkeypatch):
    """Fail any SGD step: a model that does not fit the data is refused before one."""
    monkeypatch.setattr(model, "sgd_step", _refuse)


@pytest.fixture
def no_forward(no_training, monkeypatch):
    """Fail any forward pass too, the teacher's included."""
    monkeypatch.setattr(model, "_forward_cached", _refuse)


def _misfit(role, dims, split):
    d, k = split.features.shape[1], split.n_classes
    return (f"{role} maps {dims[0]} inputs to {dims[-1]} classes, but the data has {d} "
            f"features and {k} classes")


# a 4-class, 2-feature split; a label past the output width once escaped as a raw
# IndexError, an input width mismatch as numpy's matmul ValueError
FOUR_BLOBS = make_blobs(4, 10, 2, 1.0, 1)
MISFIT_DIMS = [[2, 8, 3], [3, 8, 4], [2, 8, 5], [3, 8, 3]]


@pytest.mark.parametrize("dims", MISFIT_DIMS)
def test_teacher_that_does_not_fit_the_training_split_is_a_config_error(no_forward, dims):
    with pytest.raises(ConfigError) as exc:
        train_teacher(FOUR_BLOBS, dims, TrainConfig(epochs=1))
    assert str(exc.value) == _misfit("teacher", dims, FOUR_BLOBS)


@pytest.mark.parametrize("val", [make_blobs(4, 3, 3, 1.0, 2), make_blobs(3, 3, 2, 1.0, 2)],
                         ids=["wider", "fewer-classes"])
def test_a_validation_split_that_does_not_fit_is_a_config_error(no_forward, val):
    with pytest.raises(ConfigError) as exc:
        train_teacher(FOUR_BLOBS, [2, 8, 4], TrainConfig(epochs=1), val)
    assert str(exc.value) == _misfit("teacher", [2, 8, 4], val)
    with pytest.raises(ConfigError) as exc:
        distill(model.init([2, 6, 4], 0), [2, 5, 4], FOUR_BLOBS, TrainConfig(epochs=1), val)
    assert str(exc.value) == _misfit("teacher", [2, 6, 4], val)


@pytest.mark.parametrize("dims", MISFIT_DIMS)
def test_student_that_does_not_fit_the_training_split_is_a_config_error(no_forward, dims):
    # refused before the target table forwards the teacher over the split
    with pytest.raises(ConfigError) as exc:
        distill(model.init([2, 6, 4], 0), dims, FOUR_BLOBS, TrainConfig(epochs=1))
    assert str(exc.value) == _misfit("student", dims, FOUR_BLOBS)


@pytest.mark.parametrize("dims", MISFIT_DIMS)
def test_teacher_that_does_not_fit_is_refused_before_distilling(no_forward, dims):
    # the student fits; only the teacher's widths are wrong
    with pytest.raises(ConfigError) as exc:
        distill(model.init(dims, 0), [2, 5, 4], FOUR_BLOBS, TrainConfig(epochs=1))
    assert str(exc.value) == _misfit("teacher", dims, FOUR_BLOBS)
