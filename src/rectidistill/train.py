"""Desk-scale training loops: plain-CE teacher training and distillation.

Single-threaded by contract; every run is fully determined by
(config, datasets). The teacher is frozen during distillation: it is only
ever read through ``model.forward``.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .data import Dataset, atomic_write, batch_iter
from .errors import ConfigError
from .numerics import log_softmax_rows, softmax_rows
from .schedule import EpochSchedule, compute_batch_loss

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


def train_teacher(train_ds: Dataset, dims, cfg: TrainConfig, val_ds: Dataset | None = None):
    """Plain cross-entropy training; returns (params, per-epoch metric rows)."""
    params = model.init(dims, cfg.seed)
    velocity = model.init_velocity(params)
    rows = []
    for epoch in range(cfg.epochs):
        loss_sum = 0.0
        for idx in batch_iter(train_ds, cfg.batch_size, cfg.seed, epoch):
            x, y = train_ds.features[idx], train_ds.labels[idx]
            logits = model.forward(params, x)
            true_class = (np.arange(len(idx)), y)
            loss_sum += float(-log_softmax_rows(logits)[true_class].sum())
            upstream = softmax_rows(logits)
            upstream[true_class] -= 1.0
            grads = model.backward(params, x, upstream / len(idx))
            model.sgd_step(params, grads, velocity, cfg.learning_rate, cfg.momentum)
        train_acc = model.evaluate(params, train_ds.features, train_ds.labels)
        val_acc = (
            model.evaluate(params, val_ds.features, val_ds.labels)
            if val_ds is not None
            else float("nan")
        )
        rows.append(
            {
                "epoch": epoch,
                "loss_ce": loss_sum / train_ds.n,
                "train_acc": train_acc,
                "val_acc": val_acc,
            }
        )
    return params, rows


def distill(
    teacher: model.MlpParams,
    student_dims,
    train_ds: Dataset,
    cfg: TrainConfig,
    val_ds: Dataset | None = None,
):
    """Distill the frozen teacher into a fresh student; returns (params, rows)."""
    if teacher.dims[-1] != train_ds.n_classes:
        raise ConfigError(
            f"teacher output width {teacher.dims[-1]} != dataset classes {train_ds.n_classes}"
        )
    if student_dims[-1] != train_ds.n_classes:
        raise ConfigError(
            f"student output width {student_dims[-1]} != dataset classes {train_ds.n_classes}"
        )
    student = model.init(student_dims, cfg.seed)
    velocity = model.init_velocity(student)
    rows = []
    for epoch in range(cfg.epochs):
        sched = EpochSchedule(epoch=epoch, total_epochs=cfg.epochs)
        sums = {"loss_total": 0.0, "loss_ce": 0.0, "loss_easy": 0.0, "loss_hard": 0.0}
        n_right = 0
        epoch_gamma = 0.0
        for idx in batch_iter(train_ds, cfg.batch_size, cfg.seed, epoch):
            x, y = train_ds.features[idx], train_ds.labels[idx]
            teacher_probs = softmax_rows(model.forward(teacher, x), cfg.tau)
            student_logits = model.forward(student, x)
            breakdown = compute_batch_loss(
                student_logits, teacher_probs, y, sched, cfg.tau, cfg.mode, cfg.fixed_gamma
            )
            grads = model.backward(student, x, breakdown.grad)
            model.sgd_step(student, grads, velocity, cfg.learning_rate, cfg.momentum)
            w = len(idx)
            sums["loss_total"] += breakdown.l_all * w
            sums["loss_ce"] += breakdown.l_ce * w
            sums["loss_easy"] += breakdown.l_easy * w
            sums["loss_hard"] += breakdown.l_hard * w
            n_right += breakdown.n_right
            epoch_gamma = breakdown.gamma
        train_acc = model.evaluate(student, train_ds.features, train_ds.labels)
        val_acc = (
            model.evaluate(student, val_ds.features, val_ds.labels)
            if val_ds is not None
            else float("nan")
        )
        rows.append(
            {
                "epoch": epoch,
                "gamma": epoch_gamma,
                "loss_total": sums["loss_total"] / train_ds.n,
                "loss_ce": sums["loss_ce"] / train_ds.n,
                "loss_easy": sums["loss_easy"] / train_ds.n,
                "loss_hard": sums["loss_hard"] / train_ds.n,
                "train_acc": train_acc,
                "val_acc": val_acc,
                "teacher_right_fraction": n_right / train_ds.n,
            }
        )
    return student, rows


def write_metrics_csv(rows, path, columns=METRICS_COLUMNS) -> None:
    """Deterministic decimal-text CSV, fixed column order."""
    with atomic_write(path) as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            values = (row[col] for col in columns)
            fh.write(",".join(str(v) if isinstance(v, int) else repr(float(v)) for v in values))
            fh.write("\n")
