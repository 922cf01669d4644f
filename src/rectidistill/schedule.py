"""Dynamic easy/hard loss weighting and the assembled distillation objective.

The total loss is

    loss_total = (1 - gamma) * (loss_ce + loss_easy) + gamma * loss_hard,   gamma = e / E,

each term named by its ``metrics.csv`` column: loss_easy is forward KL
against the teacher over the right subset, loss_hard forward KL against
rectified targets over the bias subset. As in Hinton et al. 2015
(arXiv:1503.02531), the KL compares the softmaxes at temperature tau and
is multiplied by tau**2, and loss_ce is taken against the labels at
temperature 1. So a KL term's logit gradient is tau times its softmax
residual, and the KD gradient does not grow as tau shrinks. Both subset
terms sum their per-sample KL and divide by the FULL batch size, or in an
epoch's report by the full row count (an empty subset contributes exactly
0). This matches masking the batch with the correctness mask and taking
the batch mean; averaging over the subset size instead makes the hard
term explode whenever the bias subset is small and destabilizes the end
of training, where gamma -> 1.

A sample carries right knowledge when the teacher's argmax matches its
label (ties broken toward the lowest class index, everywhere). The loss
is a per-sample weighting in two weight classes: easy rows are distilled
with weight (1 - gamma) / n and hard rows with gamma / n. Which rows are
hard, what their targets are and what gamma is, the mode's ``Mode`` row
says, as ``train.TrainConfig`` resolves it from the ``--mode`` text.
``target_loss`` returns the gradient, one linear term per row, and
computes nothing else; it writes each row's ln s into the caller's
``empty_log_s`` buffer. ``loss_rows`` takes one KL pass over any span of
rows from those ln s, and writes each row's KL and CE into the caller's
vectors. ``loss_terms`` reduces those vectors once: loss_ce is the CE's
sum, loss_easy and loss_hard the KL's sums over the easy and the hard
rows, each over the row count. ``train._fit`` calls it once per epoch, on
vectors that hold the epoch's rows, and a caller with one batch calls it
on that batch's. A row's KL does not depend on the other rows of the
batch, so the sums see the same values, in the same order, as KL passes
over each subset would, and one ``loss_rows`` pass over an epoch's rows
gives each row the bits that passes over its batches would.

The batched core is three steps. ``teacher_targets`` partitions the rows,
decides each row's weight class once and, in every mode with a target
stage, rectifies all biased ones in one array operation. Through
``row_targets`` it also takes each row's KL constant sum t ln t (0 ln 0 =
0). It reads only the teacher and the labels, and each output row depends
only on its own input row, so ``train.distill`` can compute it once per
training row. ``linear_targets`` turns the rows into the linear terms of
their gradient at the epoch's gamma ``g``, which ``gamma`` gives, and
``target_loss`` returns the gradient w.r.t. the logits from those terms;
neither reads the mode.

The objective is linear in its targets: CE reads a one-hot target, and
each KL is sum t ln t - sum t ln s. So at tau 1 a row's logit gradient is
a s - b, where ``linear_targets`` makes the row's a and b from its
targets, weight class and label, ``g`` and the batch's row count; at any
other tau, CE's share moves onto the temperature-1 softmax. It holds the
one rule for a row's KL weight, and serves a batch and a table's whole
epoch alike. A caller that has a batch's teacher probabilities calls
``teacher_targets``, ``linear_targets``, ``target_loss``, then
``loss_rows``, as ``train.distill``'s per-batch path does; a table step
passes its batch's slice of the rows' (a, b) and of an epoch's ln s
buffer, so both take the gradient from the same ``target_loss`` call, and
its epoch calls ``loss_rows`` once. The teacher's loss is CE alone, the
case tau 1, g 0 and (a, b) = (1, onehot), so ``train.train_teacher`` takes
its gradient from ``target_loss`` too. ``loss_terms`` reads the terms. None
of them checks its inputs, each checked once where it enters: ``tau`` and
the mode by ``TrainConfig``, labels by the data loaders, the teacher by
``model.load_checkpoint``, and a diverging run by ``train._fit``'s check
after each epoch.
CE (``numerics.ce_rows``) and KL come from the ln s of
``numerics.log_softmax_rows``, so they stay finite where the student
softmax underflows; the gradient uses the s of the same pass. At tau 1 CE
and KL share one pass, and one ln s plane, and the tau factors, exact
identities there, are skipped.
"""

from typing import NamedTuple

import numpy as np

from . import rectify
from .numerics import ce_rows, kl_rows, log_softmax_rows, t_log_t_rows

RAMP = "e/E"  # the dynamic gamma rule: epoch e of E over E


class Mode(NamedTuple):
    stage: str | None  # the biased rows' target: rectify.STEP_C, STEP_B, or None (the teacher's)
    hard: bool  # the biased rows are weighted by gamma, not 1 - gamma
    gamma: str | float | None  # RAMP, a constant, or None where --mode gives G (fixed-gamma=G)


# What each --mode does: the paper's elimination is a hard row at gamma 0,
# rectification a stage, the dynamic weighting the ramp. So ``eliminate``
# is the row ``fixed-gamma=0`` resolves to, and trains the same student.
MODES = {
    "full": Mode(rectify.STEP_C, True, RAMP),
    "eliminate": Mode(rectify.STEP_C, True, 0.0),
    "rectify": Mode(rectify.STEP_C, False, 0.0),
    "vanilla": Mode(None, False, 0.0),
    "step-b": Mode(rectify.STEP_B, True, RAMP),
    "fixed-gamma": Mode(rectify.STEP_C, True, None),
}


class RowTargets(NamedTuple):
    """What the loss reads of each row besides its logits, one array per column."""

    targets: np.ndarray  # (n, k): the teacher's row, or its rectified row
    right: np.ndarray  # (n,) bool: the teacher's argmax is the label
    hard: np.ndarray  # (n,) bool: weighted by gamma, not 1 - gamma
    t_log_t: np.ndarray  # (n,): sum t ln t, the KL's constant, 0 ln 0 = 0


def gamma(row: Mode, epoch: int, epochs: int) -> float:
    """Epoch e of E's blend weight under the row's gamma rule: e/E or the constant."""
    return epoch / epochs if row.gamma == RAMP else row.gamma


def row_targets(targets, right, hard) -> RowTargets:
    """The rows' targets and weight classes, with the KL's constant sum t ln t of each."""
    return RowTargets(targets, right, hard, t_log_t_rows(targets))


def linear_targets(rows: RowTargets, labels, g: float, n,
                   tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Each row's (a, b) in a batch of n rows: at tau 1 its logit gradient is a s - b.

    ``n`` is the batch's row count, or an (N, 1) column of each row's own
    batch row count, as a table's epoch of batches has. With w the row's KL
    weight, g / n if hard and (1 - g) / n if not, a = (1 - g) / n + w mass,
    shape (N, 1), and b = w t, plus (1 - g) / n at the label, shape (N, k);
    a hard row's mass is its target's sum (above 1 at step b), an easy
    row's exactly 1. Either way each row's values are what its batch alone
    would give it. At any other tau each KL term carries a factor tau and
    CE reads the softmax at temperature 1, so w is tau w and a leaves out
    the CE share (1 - g) / n, which ``target_loss`` puts on that softmax.
    """
    w = np.where(rows.hard[:, None], g / n, (1.0 - g) / n)
    if tau != 1.0:
        w *= tau
    a = w * np.where(rows.hard, rows.targets.sum(axis=1), 1.0)[:, None]
    b = w * rows.targets
    ce = (1.0 - g) / n
    if tau == 1.0:
        a += ce
    b[np.arange(labels.shape[0]), labels] += np.ravel(ce)
    return a, b


def teacher_targets(teacher_probs, labels, row: Mode) -> RowTargets:
    """Partition rows by the teacher's argmax, decide their weight class, rectify.

    ``right`` marks the rows whose argmax is the label; ``hard`` marks the
    rows the loss weights with gamma, ``~right`` where the mode's row is
    ``hard`` and none elsewhere. ``targets`` is a fresh array of the teacher
    rows, with every other row rectified to the mode's ``stage`` unless that
    is None. Every output row depends only on its own input row and label.
    """
    right = np.argmax(teacher_probs, axis=1) == labels
    bias = ~right
    hard = bias if row.hard else np.zeros_like(right)
    targets = teacher_probs.copy()
    if row.stage is not None:
        targets[bias] = rectify.rectify_rows(teacher_probs[bias], labels[bias], row.stage)
    return row_targets(targets, right, hard)


def empty_log_s(n: int, k: int, tau: float) -> np.ndarray:
    """A buffer for ``target_loss``'s ln s of n rows of k classes, shape (1, n, k) or (2, n, k).

    Plane 0 takes each row's ln s at tau and, unless tau is 1, plane 1 its
    ln s at temperature 1, which CE reads.
    """
    return np.empty((1 if tau == 1.0 else 2, n, k))


def target_loss(student_logits, g: float, tau: float, ab, log_s) -> np.ndarray:
    """The logit gradient of loss_total at gamma ``g``; each row's ln s goes into ``log_s``.

    ``ab`` is the rows' ``linear_targets`` at ``g``, and ``log_s`` an
    ``empty_log_s`` buffer of these rows, such as a batch's slice of an
    epoch's, from which ``loss_rows`` takes their KL and CE.
    """
    s = log_softmax_rows(student_logits, tau, out=log_s[0])[1]
    a, b = ab
    grad = a * s
    # CE reads the softmax at temperature 1; at tau 1 that is s
    if tau != 1.0:
        grad += (1.0 - g) / s.shape[0] * log_softmax_rows(student_logits, out=log_s[1])[1]
    grad -= b
    return grad


def loss_rows(rows: RowTargets, labels, tau: float, log_s, kl, ce) -> None:
    """Each row's KL at tau, times tau**2, into ``kl`` and its CE at temperature 1 into ``ce``.

    ``log_s`` is what ``target_loss`` wrote for these rows, in the order of
    ``rows`` and ``labels``; ``kl`` and ``ce`` are (n,) vectors, which
    ``loss_terms`` reduces. At tau 1 the factor is skipped, being an exact
    identity, and CE reads the one plane.
    """
    kl_rows(rows.targets, log_s[0], rows.t_log_t, out=kl)
    if tau != 1.0:
        kl *= tau * tau
    ce_rows(log_s[-1], labels, out=ce)


def loss_terms(kl, ce, hard, g: float) -> dict[str, float]:
    """The loss terms of N rows from their ``loss_rows`` KL and CE at ``g``, by column.

    ``hard`` is the rows' weight class, in the vectors' order. loss_ce is the
    CE's sum over the N rows, loss_easy and loss_hard are the KL's sums over
    the easy (``~hard``) and the hard rows, each divided by N.
    """
    n = kl.shape[0]
    l_ce = float(ce.sum() / n)
    l_easy = float(kl[~hard].sum() / n)
    l_hard = float(kl[hard].sum() / n)
    return {"loss_total": (1.0 - g) * (l_ce + l_easy) + g * l_hard, "loss_ce": l_ce,
            "loss_easy": l_easy, "loss_hard": l_hard}
