"""The shared SGD loop behind ``train_teacher`` and ``distill``: its rows and its bits."""

import math
import weakref

import numpy as np
import pytest

from rectidistill import model, schedule, train as train_module
from rectidistill.data import batch_slices, blob_splits, epoch_permutation
from rectidistill.errors import ConfigError
from rectidistill.numerics import log_softmax_rows
from rectidistill.schedule import (MODES, empty_log_s, gamma, linear_targets, loss_rows,
                                   loss_terms, target_loss, teacher_targets)
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
    train = blob_splits(3, (12,), 2, 1.0, seed=5)[0]
    val = blob_splits(3, (4,), 2, 1.0, seed=6)[0]
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
        ce = np.empty(train_ds.n)  # each row's CE in the epoch's order
        perm = epoch_permutation(train_ds.n, cfg.seed, epoch)
        for pos in batch_slices(train_ds.n, cfg.batch_size):
            idx = perm[pos]
            x, y = train_ds.features[idx], train_ds.labels[idx]
            logits, acts = model._forward_cached(params, x)
            true_class = (np.arange(len(idx)), y)
            ce[pos] = -log_softmax_rows(logits)[0][true_class]
            upstream = log_softmax_rows(logits)[1]
            upstream[true_class] -= 1.0
            grads = params.layer_views(np.empty_like(params.flat))
            model._backward_into(params, grads, upstream / len(idx), acts)
            heavy_ball(params, grads, velocity, cfg)
        rows.append({
            "epoch": epoch,
            "loss_ce": ce.sum() / train_ds.n,
            "train_acc": model.evaluate(params, train_ds),
            "val_acc": model.evaluate(params, val_ds),
        })
    return params, rows


LOSS_COLUMNS = ("loss_total", "loss_ce", "loss_easy", "loss_hard")


def loss_columns(kl, ce, hard, g):
    """The loss columns of rows with per-row KL ``kl``, CE ``ce`` and weight class ``hard``.

    Each term is a sum over the rows divided by their count, and the total
    blends them by ``g``.
    """
    n = kl.shape[0]
    l_ce, l_easy, l_hard = ce.sum() / n, kl[~hard].sum() / n, kl[hard].sum() / n
    return dict(zip(LOSS_COLUMNS, ((1.0 - g) * (l_ce + l_easy) + g * l_hard, l_ce, l_easy,
                                   l_hard)))


def two_loop_distill(teacher, student_dims, train_ds, cfg, val_ds, per_batch_sums=False):
    """Oracle: a separate distillation loop that forwards the teacher per batch.

    Every forward has m = min(batch size, n) rows: the short last batch takes
    its rows of the forward of the epoch's last m rows. Each epoch's loss
    columns are ``loss_columns`` of all its rows. With ``per_batch_sums``,
    each is instead the sum over the epoch's batches of the batch's
    ``loss_columns`` times its row count, over n.
    """
    student = model.init(student_dims, cfg.seed)
    n, m = train_ds.n, min(cfg.batch_size, train_ds.n)
    velocity = zero_velocity(student)
    rows = []
    for epoch in range(cfg.epochs):
        g = gamma(cfg.row, epoch, cfg.epochs)
        kl, ce, hard = np.empty(n), np.empty(n), np.empty(n, dtype=bool)
        sums = dict.fromkeys(LOSS_COLUMNS, 0.0)
        n_right = 0
        perm = epoch_permutation(n, cfg.seed, epoch)
        for pos in batch_slices(n, cfg.batch_size):
            idx = perm[pos]
            x, y = train_ds.features[idx], train_ds.labels[idx]
            block = x if len(idx) == m else train_ds.features[perm[-m:]]
            teacher_probs = log_softmax_rows(model.forward(teacher, block), cfg.tau)[1][m - len(y):]
            logits, acts = model._forward_cached(student, x)
            targets = teacher_targets(teacher_probs, y, cfg.row)
            log_s = empty_log_s(len(y), train_ds.n_classes, cfg.tau)
            upstream = target_loss(logits, g, cfg.tau,
                                   linear_targets(targets, y, g, len(y), cfg.tau), log_s)
            loss_rows(targets, y, cfg.tau, log_s, kl[pos], ce[pos])
            hard[pos] = targets.hard
            grads = student.layer_views(np.empty_like(student.flat))
            model._backward_into(student, grads, upstream, acts)
            heavy_ball(student, grads, velocity, cfg)
            for key, value in loss_columns(kl[pos], ce[pos], hard[pos], g).items():
                sums[key] += value * len(idx)
            n_right += int(np.sum(np.argmax(teacher_probs, axis=1) == y))
        rows.append({
            "epoch": epoch,
            "gamma": g,
            **({key: value / n for key, value in sums.items()} if per_batch_sums
               else loss_columns(kl, ce, hard, g)),
            "train_acc": model.evaluate(student, train_ds),
            "val_acc": model.evaluate(student, val_ds),
            "teacher_right_fraction": n_right / train_ds.n,
        })
    return student, rows


def assert_same_columns(rows_a, rows_b):
    assert all(np.array_equal(a, b) for a, b in zip(rows_a, rows_b, strict=True))


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


def test_each_loss_term_is_named_by_its_metrics_column():
    # distill spreads loss_terms into its rows: one name per term, no renaming
    terms = loss_terms(np.array([0.5, 0.25]), np.array([1.0, 2.0]), np.array([False, True]), 0.5)
    assert list(terms) == [c for c in METRICS_COLUMNS if c.startswith("loss_")]


@pytest.fixture(scope="module")
def wide_teacher(setup):
    # at a hidden width of 32, OpenBLAS can give a row other bits at 5, 6 or
    # 7 rows depending on its position among them; distill must then keep
    # the per-batch path
    train, val, _ = setup
    return train_teacher(train, [2, 32, 3], TrainConfig(epochs=EPOCHS, batch_size=8), val)[0]


# (batch size, tau) on the 36-row split: one-row batches, n % B == 0,
# n % B == 1 with an odd B (a 1-row last batch), n % B == 3, B == n and B > n,
# and short batches of r = 16 and 5 rows
TABLE_CASES = [(1, 1.0), (6, 1.0), (7, 1.0), (11, 0.5), (36, 1.0), (50, 0.5), (20, 1.0),
               (31, 0.5)]


def _cfg(mode, batch_size, tau=1.0, epochs=EPOCHS):
    """Mode ``mode``'s config, at G = 0.3 for ``fixed-gamma``."""
    flag = "fixed-gamma=0.3" if mode == "fixed-gamma" else mode
    return TrainConfig(epochs=epochs, batch_size=batch_size, seed=4, tau=tau, mode=flag)


@pytest.mark.parametrize("wide", [False, True])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("batch_size,tau", TABLE_CASES, ids=[f"{b}-{t}" for b, t in TABLE_CASES])
def test_target_table_is_bit_identical_to_per_batch_targets(setup, biased_teacher, wide_teacher,
                                                            monkeypatch, wide, mode, batch_size,
                                                            tau):
    # the biased teacher gives hard and rectified rows; the wide one may
    # give no table at all, and then both runs take the per-batch path
    train, val, _ = setup
    teacher = wide_teacher if wide else biased_teacher
    cfg = _cfg(mode, batch_size, tau)
    with_table = distill(teacher, [2, 5, 3], train, cfg, val)
    monkeypatch.setattr(train_module, "TARGET_TABLE_BYTES", 0)
    assert_same_bits(*with_table, *distill(teacher, [2, 5, 3], train, cfg, val))


@pytest.fixture(scope="module")
def biased_teacher(setup):
    # the trained teachers are right on every training row, so no row of
    # theirs is hard; this untrained one is wrong on 18 of the 36
    train, _, _ = setup
    teacher = model.init([2, 6, 3], 3)
    assert np.sum(np.argmax(model.forward(teacher, train.features), axis=1) != train.labels) == 18
    return teacher


@pytest.mark.parametrize("table_bytes", [train_module.TARGET_TABLE_BYTES, 0],
                         ids=["table", "per-batch"])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("batch_size,tau", [(8, 1.0), (10, 2.0), (10, 0.5)])
def test_epoch_losses_stay_within_1e_12_of_per_batch_sums(setup, biased_teacher, monkeypatch,
                                                          table_bytes, mode, batch_size, tau):
    # a loss column is its rows' sum over n, reduced once per epoch; summing
    # each batch's terms times its row count moves only its last bits. The
    # 36 rows end in a short batch of 4 at batch size 8, and of 6 at 10.
    train, val, _ = setup
    cfg = _cfg(mode, batch_size, tau)
    monkeypatch.setattr(train_module, "TARGET_TABLE_BYTES", table_bytes)
    assert (train_module._target_table(biased_teacher, train, cfg) is None) == (table_bytes == 0)
    student, rows = distill(biased_teacher, [2, 5, 3], train, cfg, val)
    assert_same_bits(student, rows, *two_loop_distill(biased_teacher, [2, 5, 3], train, cfg, val))
    want_student, want_rows = two_loop_distill(biased_teacher, [2, 5, 3], train, cfg, val,
                                               per_batch_sums=True)
    assert np.array_equal(student.flat, want_student.flat)
    for row, want in zip(rows, want_rows, strict=True):
        for key in METRICS_COLUMNS:
            if key in LOSS_COLUMNS:
                assert row[key] == pytest.approx(want[key], rel=1e-12, abs=0.0), key
            else:
                assert row[key] == want[key], key


def _counting_rows(function, rows):
    """``function``, appending the row count of its first argument to ``rows`` at each call."""
    def counting(first, *args, **kwargs):
        rows.append(len(first))
        return function(first, *args, **kwargs)

    return counting


def _counting_loss_rows(monkeypatch):
    """The row count of every ``kl_rows`` and ``ce_rows`` call the loss makes, by name."""
    calls = {"kl_rows": [], "ce_rows": []}
    for name, rows in calls.items():
        monkeypatch.setattr(schedule, name, _counting_rows(getattr(schedule, name), rows))
    return calls


def test_a_table_epoch_takes_its_rows_kl_and_ce_in_one_pass(monkeypatch):
    # the paper-k4 shape: 400 rows of 4 classes, 60 epochs of 13 batches of 32
    train = blob_splits(4, (100,), 2, 1.2, seed=1)[0]
    teacher = model.init([2, 64, 4], 1)
    cfg = TrainConfig(learning_rate=0.005, epochs=60, batch_size=32, seed=1)
    assert train_module._target_table(teacher, train, cfg) is not None
    calls = _counting_loss_rows(monkeypatch)
    distill(teacher, [2, 8, 4], train, cfg)
    assert calls == {"kl_rows": [400] * 60, "ce_rows": [400] * 60}


def test_a_per_batch_step_takes_its_rows_kl_and_ce(monkeypatch):
    # the toy-wide shape: 500 rows of 100 classes, too wide for the table,
    # in 31 batches of 16 and a short one of 4
    train = blob_splits(100, (5,), 5, 1.0, seed=1)[0]
    teacher = model.init([5, 8, 100], 1)
    cfg = TrainConfig(epochs=2, batch_size=16, seed=1)
    assert train_module._target_table(teacher, train, cfg) is None
    calls = _counting_loss_rows(monkeypatch)
    distill(teacher, [5, 4, 100], train, cfg)
    want = ([16] * 31 + [4]) * 2
    assert calls == {"kl_rows": want, "ce_rows": want}


def test_an_epoch_s_table_is_released_before_the_next_is_built(setup, monkeypatch):
    # the peak holds one epoch of permuted columns and (a, b), as _table_bytes counts
    train, val, teacher = setup
    build = train_module._epoch_table
    previous, alive = [], []

    def tracking_build(*args):
        alive.append([ref() is not None for ref in previous])
        rows, (a, b) = build(*args)
        previous[:] = [weakref.ref(column) for column in (*rows, a, b)]
        return rows, (a, b)

    monkeypatch.setattr(train_module, "_epoch_table", tracking_build)
    distill(teacher, [2, 5, 3], train, _cfg("full", 8), val)
    assert alive == [[]] + [[False] * 6] * (EPOCHS - 1)


@pytest.mark.parametrize("tau", [0.5, 2.0])
@pytest.mark.parametrize("mode", ["full", "vanilla"])
def test_distill_matches_the_two_loop_oracle_away_from_tau_1(setup, mode, tau):
    # the oracle forwards the teacher at tau per batch; a teacher taken at
    # temperature 1 would change the targets, and with them every bit
    train, val, teacher = setup
    cfg = _cfg(mode, 8, tau)
    assert_same_bits(*distill(teacher, [2, 5, 3], train, cfg, val),
                     *two_loop_distill(teacher, [2, 5, 3], train, cfg, val))


def _positional_at(probs, rows):
    """``probs``, but the last of exactly ``rows`` rows takes other bits, as from a BLAS edge kernel."""
    def positional(x):
        out = probs(x)
        if len(x) == rows:
            out[-1] = np.nextafter(out[-1], 2.0)
        return out

    return positional


# (m, r): a full batch only, and full batches with a short one of r rows
@pytest.mark.parametrize("m,r", [(7, 0), (36, 0), (11, 3), (20, 16)],
                         ids=["7", "36", "11-3", "20-16"])
def test_no_table_when_a_row_s_bits_depend_on_its_position(setup, monkeypatch, m, r):
    train, _, teacher = setup
    cfg = _cfg("full", m)
    probs = train_module._teacher_probs(teacher, cfg)
    table = train_module._target_table(teacher, train, cfg)
    assert_same_columns(table, teacher_targets(probs(train.features), train.labels, cfg.row))
    # m-row bits that depend on position: no batch reads a table
    monkeypatch.setattr(train_module, "_teacher_probs", lambda *_: _positional_at(probs, m))
    assert train_module._target_table(teacher, train, cfg) is None
    if r:
        # r-row bits only: no forward has r rows, so the table serves every batch
        monkeypatch.setattr(train_module, "_teacher_probs", lambda *_: _positional_at(probs, r))
        calls = _counting_teacher_forwards(monkeypatch, teacher)
        distill(teacher, [2, 5, 3], train, cfg)
        assert calls == [m] * (2 * math.ceil(train.n / m))
        assert_same_columns(train_module._target_table(teacher, train, cfg), table)


def _counting_teacher_forwards(monkeypatch, teacher):
    calls = []
    forward = model.forward

    def counting_forward(p, x):
        if p is teacher:
            calls.append(len(x))
        return forward(p, x)

    monkeypatch.setattr(model, "forward", counting_forward)
    return calls


def _want_forwards(n, batch_size, epochs, table):
    """The teacher forwards' row counts of a distill, with or without the table.

    Every forward has m = min(batch size, n) rows. The table is filled by
    ceil(n / m) chunks, each forwarded twice (the position check), and then
    serves every batch; without it, each batch forwards the teacher.
    """
    m = min(batch_size, n)
    return [m] * (2 * math.ceil(n / m) if table else math.ceil(n / m) * epochs)


@pytest.mark.parametrize("table_bytes", [train_module.TARGET_TABLE_BYTES, 0])
@pytest.mark.parametrize("batch_size,epochs", [(6, EPOCHS), (7, EPOCHS), (50, EPOCHS), (20, 6),
                                               (20, 7)],
                         ids=["6", "7", "50", "20-6-epochs", "20-7-epochs"])
def test_teacher_forward_count_under_and_over_the_budget(setup, monkeypatch, table_bytes,
                                                        batch_size, epochs):
    train, _, teacher = setup
    calls = _counting_teacher_forwards(monkeypatch, teacher)
    monkeypatch.setattr(train_module, "TARGET_TABLE_BYTES", table_bytes)
    distill(teacher, [2, 5, 3], train, _cfg("full", batch_size, epochs=epochs))
    assert calls == _want_forwards(train.n, batch_size, epochs, table_bytes > 0)


@pytest.mark.parametrize("over_budget", [0, 1])
def test_the_budget_bounds_the_table_s_every_byte(setup, monkeypatch, over_budget):
    train, _, teacher = setup
    exact = train_module._table_bytes(train.n, train.n_classes, 1.0)
    monkeypatch.setattr(train_module, "TARGET_TABLE_BYTES", exact - over_budget)
    calls = _counting_teacher_forwards(monkeypatch, teacher)
    distill(teacher, [2, 5, 3], train, _cfg("full", 20, epochs=8))
    assert calls == _want_forwards(train.n, 20, 8, table=not over_budget)


def _table_bytes_held(setup, tau):
    """Bytes of every array a run's table holds at ``tau``, summed, and ``_table_bytes``'s count."""
    train, _, teacher = setup
    cfg = _cfg("full", 20, tau, epochs=8)
    table = train_module._target_table(teacher, train, cfg)
    perm = epoch_permutation(train.n, 4, 1)
    ordered, ab = train_module._epoch_table(table, train.labels[perm], perm, 0.25, 20, cfg.tau)
    log_s = empty_log_s(train.n, train.n_classes, tau)
    held = sum(a.nbytes for a in (*table, *ordered, train.labels[perm], *ab, log_s))
    return train.n, held, train_module._table_bytes(train.n, train.n_classes, tau)


def test_table_bytes_count_every_array_the_table_holds(setup):
    n, held, counted = _table_bytes_held(setup, 1.0)
    assert held == counted == n * (32 * 3 + 36)


def test_table_bytes_count_the_second_log_plane_away_from_tau_1(setup):
    n, held, counted = _table_bytes_held(setup, 0.5)
    assert held == counted == n * (40 * 3 + 36)


def test_the_wide_benchmark_shape_forwards_the_teacher_per_batch(monkeypatch):
    # n = 20 000 rows of k = 100 classes at batch 256: the table would hold 64.7 MB
    wide = blob_splits(100, (200,), 2, 1.0, seed=1)[0]
    teacher = model.init([2, 8, 100], 0)
    cfg = TrainConfig(epochs=1, batch_size=256)
    assert train_module._table_bytes(wide.n, 100, 1.0) > train_module.TARGET_TABLE_BYTES
    calls = _counting_teacher_forwards(monkeypatch, teacher)
    assert train_module._target_table(teacher, wide, cfg) is None and calls == []
    # the short batch of 32 rows forwards the epoch's last 256
    distill(teacher, [2, 4, 100], wide, cfg)
    assert calls == [256] * 79


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
FOUR_BLOBS = blob_splits(4, (10,), 2, 1.0, 1)[0]
MISFIT_DIMS = [[2, 8, 3], [3, 8, 4], [2, 8, 5], [3, 8, 3]]


@pytest.mark.parametrize("dims", MISFIT_DIMS)
def test_teacher_that_does_not_fit_the_training_split_is_a_config_error(no_forward, dims):
    with pytest.raises(ConfigError) as exc:
        train_teacher(FOUR_BLOBS, dims, TrainConfig(epochs=1))
    assert str(exc.value) == _misfit("teacher", dims, FOUR_BLOBS)


@pytest.mark.parametrize("val", [blob_splits(4, (3,), 3, 1.0, 2)[0],
                                 blob_splits(3, (3,), 2, 1.0, 2)[0]], ids=["wider", "fewer-classes"])
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
