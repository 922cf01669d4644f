"""Desk-scale training: plain-CE teacher training and distillation, one SGD loop.

Single-threaded by contract; every run is fully determined by
(config, datasets). The teacher is frozen during distillation: it is only
ever read through ``model.forward``.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .data import Dataset, atomic_write, batch_iter
from .errors import ConfigError, TrainingDivergedError
from .numerics import log_softmax_rows, softmax_rows
from .schedule import MODES, EpochSchedule, compute_batch_loss, resolve_gamma

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


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    momentum: float = 0.9
    epochs: int = 60
    batch_size: int = 32
    seed: int = 0
    tau: float = 1.0
    mode: str = "full"
    fixed_gamma: float | None = None

    def __post_init__(self):
        # chained comparisons are False for nan, so nan fails every check
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning rate must be finite and > 0, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch size must be >= 1")
        if not 0.0 < self.tau < math.inf:
            raise ConfigError(f"temperature must be finite and > 0, got {self.tau}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        gamma_ok = self.fixed_gamma is not None and 0.0 <= self.fixed_gamma < 1.0
        if self.mode == "fixed_gamma" and not gamma_ok:
            raise ConfigError(f"mode fixed_gamma needs a gamma in [0, 1), got {self.fixed_gamma}")


# A diverging run is reported once, as the non-finite logits or logit
# gradients checked below, not also as numpy's overflow warnings on the way
# there. Parameter gradients are not checked: an overflow in ``backward``
# makes the parameters, and so the next batch's logits, non-finite.
@np.errstate(over="ignore", invalid="ignore")
def _fit(params: model.MlpParams, train_ds: Dataset, cfg: TrainConfig, val_ds, batch_loss):
    """The one SGD loop: trains ``params`` in place; returns (params, per-epoch rows).

    ``batch_loss(epoch, x, y, logits)`` returns the logit gradient (already
    carrying its 1/n weighting) and a dict of that batch's loss sums. Each
    epoch row holds those sums divided by the training-set size, plus the
    train and validation accuracies. Non-finite logits of the trained
    model, or a non-finite logit gradient, raise ``TrainingDivergedError``
    naming the epoch.
    """
    velocity = model.init_velocity(params)
    rows = []
    for epoch in range(cfg.epochs):
        sums = {}
        for idx in batch_iter(train_ds, cfg.batch_size, cfg.seed, epoch):
            x, y = train_ds.features[idx], train_ds.labels[idx]
            logits, acts = model.forward_cached(params, x)
            if not np.isfinite(logits).all():
                raise TrainingDivergedError(
                    f"training diverged in epoch {epoch}: non-finite logits"
                )
            grad, batch_sums = batch_loss(epoch, x, y, logits)
            if not np.isfinite(grad).all():
                raise TrainingDivergedError(
                    f"training diverged in epoch {epoch}: non-finite gradients"
                )
            grads = model.backward(params, x, grad, acts)
            model.sgd_step(params, grads, velocity, cfg.learning_rate, cfg.momentum)
            for key, value in batch_sums.items():
                sums[key] = sums.get(key, 0.0) + value
        row = {"epoch": epoch, **{key: value / train_ds.n for key, value in sums.items()}}
        for key, ds in (("train_acc", train_ds), ("val_acc", val_ds)):
            row[key] = float("nan") if ds is None else model.evaluate(params, ds.features, ds.labels)
        rows.append(row)
    return params, rows


def train_teacher(train_ds: Dataset, dims, cfg: TrainConfig, val_ds: Dataset | None = None):
    """Plain cross-entropy training; returns (params, per-epoch metric rows)."""

    def ce_loss(epoch, x, y, logits):
        true_class = (np.arange(len(y)), y)
        log_s, upstream = log_softmax_rows(logits)
        loss_sum = float(-log_s[true_class].sum())
        upstream[true_class] -= 1.0
        return upstream / len(y), {"loss_ce": loss_sum}

    return _fit(model.init(dims, cfg.seed), train_ds, cfg, val_ds, ce_loss)


def distill(
    teacher: model.MlpParams,
    student_dims,
    train_ds: Dataset,
    cfg: TrainConfig,
    val_ds: Dataset | None = None,
):
    """Distill the frozen teacher into a fresh student; returns (params, rows)."""
    for role, width in (("teacher", teacher.dims[-1]), ("student", student_dims[-1])):
        if width != train_ds.n_classes:
            raise ConfigError(f"{role} output width {width} != dataset classes {train_ds.n_classes}")

    def kd_loss(epoch, x, y, logits):
        teacher_probs = softmax_rows(model.forward(teacher, x), cfg.tau)
        out = compute_batch_loss(
            logits, teacher_probs, y, EpochSchedule(epoch, cfg.epochs),
            cfg.tau, cfg.mode, cfg.fixed_gamma,
        )
        w = len(y)
        return out.grad, {"loss_total": out.l_all * w, "loss_ce": out.l_ce * w,
                          "loss_easy": out.l_easy * w, "loss_hard": out.l_hard * w,
                          "teacher_right_fraction": out.n_right}

    student, rows = _fit(model.init(student_dims, cfg.seed), train_ds, cfg, val_ds, kd_loss)
    for row in rows:
        sched = EpochSchedule(row["epoch"], cfg.epochs)
        row["gamma"] = resolve_gamma(cfg.mode, sched, cfg.fixed_gamma)
    return student, rows


def write_metrics_csv(rows, path, columns=METRICS_COLUMNS) -> None:
    """Deterministic decimal-text CSV, fixed column order."""
    with atomic_write(path) as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            values = (row[col] for col in columns)
            fh.write(",".join(str(v) if isinstance(v, int) else repr(float(v)) for v in values))
            fh.write("\n")
