"""Desk-scale training: plain-CE teacher training and distillation, one SGD loop.

Single-threaded by contract; every run is fully determined by
(config, datasets). Both models train in ``_fit``. The teacher's loss is
the student's with no KD term, so ``schedule.target_loss`` gives its
gradient too, at tau 1 and gamma 0 with (a, b) = (1, onehot). The frozen
teacher is only ever read through ``model.forward``. So every row's KD
target, and every constant the loss derives from it, is a constant of
the run. When they fit in ``TARGET_TABLE_BYTES``, ``distill`` computes
them once, into a per-row target table; each epoch puts the table in that
epoch's batch order once, with the epoch's linear targets (a, b), and a
batch reads its (a, b) as one slice of them. Otherwise each batch builds its own rows and their
(a, b). Both paths take the gradient from ``schedule.target_loss``, with
each row's (a, b) built for the row count of its batch, the short last
one's too, and it writes the batch's ln s into a per-run buffer. A table
step computes nothing else: its epoch's report takes every row's KL and
CE from that buffer in one ``schedule.loss_rows`` call, in the epoch's
order, and a per-batch step calls ``loss_rows`` on its own rows. Either
way each row's KL and CE land in per-run vectors, beside the rows' weight
classes and partition (which a table epoch copies in once), and each
epoch's report reads only those vectors: one ``schedule.loss_terms``
reduction, whose keys are the loss columns of ``METRICS_COLUMNS``, and
the partition's count. The epoch's table state is released before the
next epoch's is built. Every teacher forward has the batch's row count:
the short last batch forwards the epoch's last full batch of rows. Each
run fills its own table.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import model
from .data import Dataset, batch_slices, epoch_permutation, parse_number
from .errors import ConfigError, TrainingDivergedError
from .numerics import ce_rows, log_softmax_rows
from .schedule import (MODES, Mode, RowTargets, empty_log_s, gamma, linear_targets, loss_rows,
                       loss_terms, target_loss, teacher_targets)

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

# Largest per-row target table ``distill`` builds, in bytes of everything it
# holds (``_table_bytes``). A bigger training split forwards the teacher per
# batch, so the table never dominates the memory of a wide run.
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
            g = parse_number(float, text) if has_g else None
            if has_g and g is None:
                raise ConfigError(f"malformed {name} value in {self.mode!r}")
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


# A diverging run is reported once, by the check after each epoch, not also
# as numpy's overflow warnings on the way there; ``distill`` fills its
# target table under the same errstate, since a tiny tau overflows the
# teacher's logits / tau there first.
@np.errstate(over="ignore", invalid="ignore")
def _fit(params: model.MlpParams, train_ds: Dataset, cfg: TrainConfig, val_ds, epoch_loss):
    """The one SGD loop: trains ``params`` in place; returns its per-epoch rows.

    The caller builds the model and checks that it fits both splits. Each
    epoch takes its ``epoch_permutation``, gathers the labels in that order
    once, and cuts both by ``batch_slices``. ``epoch_loss(epoch, perm,
    labels)`` returns that epoch's pair ``(batch_loss, epoch_terms)``.
    ``batch_loss(pos, x, y, logits)``, where ``pos`` is the batch's slice of
    ``perm``, returns the logit gradient (already carrying its 1/n
    weighting) and leaves what the epoch's report reads of its rows at
    ``pos`` of per-run arrays; after the epoch's last batch,
    ``epoch_terms()`` turns them into the epoch's loss columns. Each epoch row holds those columns, plus the
    train and validation accuracies. A step is forward, loss, backward and
    update. After an epoch's last step, before its accuracies, non-finite
    parameters or loss columns raise ``TrainingDivergedError`` naming the
    epoch: the momentum carries a non-finite step into every later one.
    """
    grad = np.empty_like(params.flat)
    grad_views = params.layer_views(grad)
    velocity = np.zeros_like(params.flat)
    rows = []
    for epoch in range(cfg.epochs):
        perm = epoch_permutation(train_ds.n, cfg.seed, epoch)
        labels = train_ds.labels[perm]
        batch_loss, epoch_terms = epoch_loss(epoch, perm, labels)
        for pos in batch_slices(train_ds.n, cfg.batch_size):
            x, y = train_ds.features[perm[pos]], labels[pos]
            logits, acts = model._forward_cached(params, x)
            model._backward_into(params, grad_views, batch_loss(pos, x, y, logits), acts)
            model.sgd_step(params, grad, velocity, cfg.learning_rate, MOMENTUM)
        row = {"epoch": epoch, **epoch_terms()}
        # the epoch's loss, with any per-epoch table it holds, goes before the next is built
        del batch_loss, epoch_terms
        if not (np.isfinite(params.flat).all() and all(map(math.isfinite, row.values()))):
            raise TrainingDivergedError(
                f"training diverged in epoch {epoch}: non-finite parameters or loss")
        for key, ds in (("train_acc", train_ds), ("val_acc", val_ds)):
            row[key] = float("nan") if ds is None else model.evaluate(params, ds)
        rows.append(row)
    return rows


def train_teacher(train_ds: Dataset, dims, cfg: TrainConfig, val_ds: Dataset | None = None):
    """Plain cross-entropy training; returns (params, per-epoch metric rows)."""
    params = model.init(dims, cfg.seed)
    _require_fit("teacher", params.dims, train_ds, val_ds)

    ce = np.empty(train_ds.n)  # each row's CE in the epoch's order
    log_s = empty_log_s(min(cfg.batch_size, train_ds.n), train_ds.n_classes, 1.0)

    def ce_loss(pos, x, y, logits):
        r = len(y)
        onehot = np.zeros_like(logits)
        onehot[np.arange(r), y] = 1.0
        upstream = target_loss(logits, 0.0, 1.0, (1.0, onehot), log_s[:, :r])
        ce_rows(log_s[0, :r], y, out=ce[pos])
        upstream /= r
        return upstream

    def epoch_terms():
        return {"loss_ce": float(ce.sum() / train_ds.n)}

    return params, _fit(params, train_ds, cfg, val_ds,
                        lambda epoch, perm, labels: (ce_loss, epoch_terms))


def _table_bytes(n: int, k: int, tau: float) -> int:
    """Bytes a run's target table holds at once, every array counted, for n rows of k classes.

    The ``RowTargets`` of every row, (n, k) float64 targets, (n,) float64
    sum t ln t and two (n,) bool masks; the same columns in the epoch's row
    order; the (n,) int64 labels in that order; that epoch's
    ``linear_targets``, an (n, 1) float64 a and an (n, k) float64 b; and the
    run's ``empty_log_s`` buffer of n rows, one (n, k) float64 plane at tau
    1 and two at any other tau. The teacher's probabilities are held only
    while the table is filled, each row's batch row count only while (a, b)
    are built, and the KL's (n, k) products only while an epoch's report is
    taken.
    """
    return n * (2 * (8 * k + 8 + 2) + 8 + 8 + 8 * k + 8 * k * (1 if tau == 1.0 else 2))


def _teacher_probs(teacher: model.MlpParams, cfg: TrainConfig):
    """The teacher's softmax at the run's tau, of a batch's features."""
    return lambda x: log_softmax_rows(model.forward(teacher, x), cfg.tau)[1]


@np.errstate(over="ignore", invalid="ignore")
def _target_table(teacher: model.MlpParams, train_ds: Dataset, cfg: TrainConfig):
    """Every row's ``RowTargets`` at the run's tau and mode; None where batches forward their own.

    None when the table would not fit ``TARGET_TABLE_BYTES``. A matmul's bits
    can depend on its row count, and on a row's position among those rows:
    OpenBLAS computes trailing rows with an edge kernel, whose sum order can
    differ (it does for a 2-32-3 teacher at 5, 6 or 7 rows). Every teacher
    forward in training has m = min(batch size, n) rows, the short last
    batch's too. So the teacher's probabilities are filled by forwards of m
    rows, chunks [0, m), [m, 2 m), ..., and a last [n - m, n) that may
    overlap, gathered the way training gathers a batch. Each chunk is
    forwarded a second time with its rows reversed. If any row differs, a
    row's teacher output depends on where the shuffle puts it, and the
    result is None. Otherwise every batch reads bit for bit the targets a
    per-batch forward would give it, since ``teacher_targets`` is row-local.
    """
    n, m = train_ds.n, min(cfg.batch_size, train_ds.n)
    if _table_bytes(n, train_ds.n_classes, cfg.tau) > TARGET_TABLE_BYTES:
        return None
    teacher_probs = _teacher_probs(teacher, cfg)
    probs = np.empty((n, train_ds.n_classes))
    for end in (*range(m, n, m), n):
        idx = np.arange(end - m, end)
        probs[idx] = teacher_probs(train_ds.features[idx])
        if not np.array_equal(teacher_probs(train_ds.features[idx[::-1]])[::-1], probs[idx]):
            return None
    return teacher_targets(probs, train_ds.labels, cfg.row)


def _epoch_table(table: RowTargets, labels, perm, g: float, m: int, tau: float):
    """The table in the epoch's row order, and its ``linear_targets`` (a, b) for batches of m.

    ``labels`` are the training labels already in that order. Each row's
    (a, b) take its own batch's row count: m in a full batch, and in the
    short last batch of r = n mod m rows, r.
    """
    n = perm.shape[0]
    rows = RowTargets._make(column[perm] for column in table)
    counts = np.minimum(m, n - np.arange(n) // m * m)[:, None]
    return rows, linear_targets(rows, labels, g, counts, tau)


def distill(
    teacher: model.MlpParams,
    student_dims,
    train_ds: Dataset,
    cfg: TrainConfig,
    val_ds: Dataset | None = None,
):
    """Distill the frozen teacher into a fresh student; returns (params, rows).

    Both models are checked against the data before any forward.
    """
    _require_fit("teacher", teacher.dims, train_ds, val_ds)
    _require_fit("student", student_dims, train_ds, val_ds)
    student = model.init(student_dims, cfg.seed)
    teacher_probs = _teacher_probs(teacher, cfg)
    n, m = train_ds.n, min(cfg.batch_size, train_ds.n)
    table = _target_table(teacher, train_ds, cfg)
    # each row's KL, CE, weight class and partition in the epoch's order, the one
    # source of the epoch's report: every batch writes its KL and CE slice, and
    # its masks on the per-batch path; a table epoch copies its ordered masks once
    # and takes its KL and CE once, from the ln s each of its batches wrote
    kl, ce = np.empty(n), np.empty(n)
    hard, right = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
    log_s = empty_log_s(m if table is None else n, train_ds.n_classes, cfg.tau)

    def epoch_loss(epoch, perm, labels):
        g = gamma(cfg.row, epoch, cfg.epochs)
        if table is not None:
            ordered, (a, b) = _epoch_table(table, labels, perm, g, m, cfg.tau)
            hard[:], right[:] = ordered.hard, ordered.right

        def kd_loss(pos, x, y, logits):
            if table is not None:
                return target_loss(logits, g, cfg.tau, (a[pos], b[pos]), log_s[:, pos])
            # the short batch of r rows forwards the epoch's last m rows and keeps its own
            r = len(y)
            block = x if r == m else train_ds.features[perm[-m:]]
            batch = teacher_targets(teacher_probs(block)[m - r:], y, cfg.row)
            hard[pos], right[pos] = batch.hard, batch.right
            grad = target_loss(logits, g, cfg.tau, linear_targets(batch, y, g, r, cfg.tau),
                               log_s[:, :r])
            loss_rows(batch, y, cfg.tau, log_s[:, :r], kl[pos], ce[pos])
            return grad

        def epoch_terms():
            if table is not None:
                loss_rows(ordered, labels, cfg.tau, log_s, kl, ce)
            return {"gamma": g, **loss_terms(kl, ce, hard, g),
                    "teacher_right_fraction": int(right.sum()) / n}

        return kd_loss, epoch_terms

    return student, _fit(student, train_ds, cfg, val_ds, epoch_loss)
