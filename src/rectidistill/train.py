"""Desk-scale training: plain-CE teacher training and distillation, one SGD loop.

Single-threaded by contract; every run is fully determined by
(config, datasets). The teacher is frozen during distillation: it is only
ever read through ``model.forward``. So every row's KD target is a constant
of the run, and ``distill`` computes it once, into a per-row target table,
when the table fits in ``TARGET_TABLE_BYTES``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import model
from .data import Dataset, batch_iter
from .errors import ConfigError, TrainingDivergedError
from .numerics import ce_rows, log_softmax_rows
from .schedule import MODES, Mode, gamma, target_loss, teacher_targets

METRICS_COLUMNS = (
    "epoch",
    "gamma",
    "loss_total",
    "loss_ce",
    "loss_easy",
    "loss_hard",
    "train_acc",
    "val_acc",
    "teacher_right_fraction",
)

TEACHER_METRICS_COLUMNS = ("epoch", "loss_ce", "train_acc", "val_acc")

# Largest per-row target table ``distill`` builds, in bytes of its (n, k)
# float64 targets. A bigger training split forwards the teacher per batch,
# so the table never dominates the memory of a wide run.
TARGET_TABLE_BYTES = 1 << 20

# The heavy-ball momentum of every SGD run, teacher and student.
MOMENTUM = 0.9


@dataclass(frozen=True)
class TrainConfig:
    """One run's settings, each checked here once; ``row`` is what the ``mode`` text does."""

    learning_rate: float = 0.1
    epochs: int = 60
    batch_size: int = 32
    seed: int = 0
    tau: float = 1.0
    mode: str = "full"  # the --mode text: a name of MODES, or fixed-gamma=G
    row: Mode = field(init=False)  # what the mode does: its row of MODES, with G in place

    def __post_init__(self):
        # chained comparisons are False for nan, so nan fails every check
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning rate must be finite and > 0, got {self.learning_rate}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch size must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.tau < math.inf:
            raise ConfigError(f"temperature must be finite and > 0, got {self.tau}")
        # the messages spell the modes as --mode takes them
        name, has_g, text = self.mode.partition("=")
        row = MODES.get(name)
        if row is None or (has_g and row.gamma is not None):
            names = ", ".join(m if r.gamma is not None else f"{m}=G" for m, r in MODES.items())
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {names}")
        if row.gamma is None:
            try:
                g = float(text) if has_g else None
            except ValueError:
                raise ConfigError(f"malformed {name} value in {self.mode!r}") from None
            if g is None or not 0.0 <= g < 1.0:
                got = "no G" if g is None else f"G={g}"
                raise ConfigError(f"mode {name}=G needs G in [0, 1), got {got}")
            row = row._replace(gamma=g)
        object.__setattr__(self, "row", row)


def _require_fit(role: str, dims, *splits) -> None:
    """Raise ``ConfigError`` unless widths ``dims`` take each split's features to its classes."""
    for ds in splits:
        if ds is not None and (ds.features.shape[1], ds.n_classes) != (dims[0], dims[-1]):
            raise ConfigError(f"{role} maps {dims[0]} inputs to {dims[-1]} classes, but the data "
                              f"has {ds.features.shape[1]} features and {ds.n_classes} classes")


# A diverging run is reported once, as the non-finite logits or logit
# gradients checked below, not also as numpy's overflow warnings on the way
# there; ``distill`` fills its target table under the same errstate, since a
# tiny tau overflows the teacher's logits / tau there first. Parameter
# gradients are not checked: an overflow in the backward pass makes the
# parameters, and so the next batch's logits, non-finite.
@np.errstate(over="ignore", invalid="ignore")
def _fit(params: model.MlpParams, train_ds: Dataset, cfg: TrainConfig, val_ds, batch_loss):
    """The one SGD loop: trains ``params`` in place; returns its per-epoch rows.

    The caller builds the model and checks that it fits both splits.
    ``batch_loss(epoch, idx, x, y, logits)`` returns the logit gradient (already
    carrying its 1/n weighting) and a dict of that batch's loss sums. Each
    epoch row holds those sums divided by the training-set size, plus the
    train and validation accuracies. Non-finite logits of the trained
    model, or a non-finite logit gradient, raise ``TrainingDivergedError``
    naming the epoch.
    """
    grad = np.empty_like(params.flat)
    grad_views = params.layer_views(grad)
    velocity = np.zeros_like(params.flat)
    rows = []
    for epoch in range(cfg.epochs):
        sums = {}
        for idx in batch_iter(train_ds, cfg.batch_size, cfg.seed, epoch):
            x, y = train_ds.features[idx], train_ds.labels[idx]
            logits, acts = model._forward_cached(params, x)
            if not np.isfinite(logits).all():
                raise TrainingDivergedError(
                    f"training diverged in epoch {epoch}: non-finite logits"
                )
            upstream, batch_sums = batch_loss(epoch, idx, x, y, logits)
            if not np.isfinite(upstream).all():
                raise TrainingDivergedError(
                    f"training diverged in epoch {epoch}: non-finite gradients"
                )
            model._backward_into(params, grad_views, upstream, acts)
            model.sgd_step(params, grad, velocity, cfg.learning_rate, MOMENTUM)
            for key, value in batch_sums.items():
                sums[key] = sums.get(key, 0.0) + value
        row = {"epoch": epoch, **{key: value / train_ds.n for key, value in sums.items()}}
        for key, ds in (("train_acc", train_ds), ("val_acc", val_ds)):
            row[key] = float("nan") if ds is None else model.evaluate(params, ds)
        rows.append(row)
    return rows


def train_teacher(train_ds: Dataset, dims, cfg: TrainConfig, val_ds: Dataset | None = None):
    """Plain cross-entropy training; returns (params, per-epoch metric rows)."""
    params = model.init(dims, cfg.seed)
    _require_fit("teacher", params.dims, train_ds, val_ds)

    def ce_loss(epoch, idx, x, y, logits):
        loss_sum, upstream = ce_rows(*log_softmax_rows(logits), y)
        upstream /= len(y)
        return upstream, {"loss_ce": loss_sum}

    return params, _fit(params, train_ds, cfg, val_ds, ce_loss)


@np.errstate(over="ignore", invalid="ignore")
def _target_table(train_ds: Dataset, m: int, teacher_probs, row: Mode):
    """Every training row's ``teacher_targets`` from m-row teacher forwards, or None.

    A matmul's bits can depend on its row count, and on a row's position
    among those rows: OpenBLAS computes trailing rows with an edge kernel,
    whose sum order can differ (it does for a 2-32-3 teacher at 5, 6 or 7
    rows). So each chunk has exactly the row count of a full training
    batch, gathered the way training gathers it: [0, m), [m, 2m), ..., and
    a last chunk [n - m, n) that may overlap the one before it. Each chunk
    is forwarded a second time with its rows reversed. If any row differs,
    a row's teacher output depends on where the shuffle puts it, and there
    is no table. Otherwise a full batch reads bit for bit the targets a
    per-batch forward would give it, since ``teacher_targets`` is row-local.
    """
    n = train_ds.n
    probs = np.empty((n, train_ds.n_classes))
    for start in range(0, n, m):
        first = min(start, n - m)
        idx = np.arange(first, first + m)
        chunk = teacher_probs(train_ds.features[idx])
        if not np.array_equal(chunk, teacher_probs(train_ds.features[idx[::-1]])[::-1]):
            return None
        probs[idx] = chunk
    return teacher_targets(probs, train_ds.labels, row)


def distill(
    teacher: model.MlpParams,
    student_dims,
    train_ds: Dataset,
    cfg: TrainConfig,
    val_ds: Dataset | None = None,
):
    """Distill the frozen teacher into a fresh student; returns (params, rows)."""
    _require_fit("teacher", teacher.dims, train_ds, val_ds)
    student = model.init(student_dims, cfg.seed)
    _require_fit("student", student.dims, train_ds, val_ds)

    def teacher_probs(x):
        return log_softmax_rows(model.forward(teacher, x), cfg.tau)[1]

    gammas = [gamma(cfg.row, e, cfg.epochs) for e in range(cfg.epochs)]
    m = min(cfg.batch_size, train_ds.n)
    table = None
    if train_ds.n * train_ds.n_classes * 8 <= TARGET_TABLE_BYTES:
        table = _target_table(train_ds, m, teacher_probs, cfg.row)

    def kd_loss(epoch, idx, x, y, logits):
        if table is not None and len(idx) == m:
            targets, right, hard = (column[idx] for column in table)
        else:
            targets, right, hard = teacher_targets(teacher_probs(x), y, cfg.row)
        out = target_loss(logits, targets, hard, y, gammas[epoch], cfg.tau)
        w = len(y)
        return out.grad, {"loss_total": out.l_all * w, "loss_ce": out.l_ce * w,
                          "loss_easy": out.l_easy * w, "loss_hard": out.l_hard * w,
                          "teacher_right_fraction": int(right.sum())}

    rows = _fit(student, train_ds, cfg, val_ds, kd_loss)
    for row in rows:
        row["gamma"] = gammas[row["epoch"]]
    return student, rows

