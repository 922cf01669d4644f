"""Dynamic easy/hard loss weighting and the assembled distillation objective.

The total loss is

    l_all = (1 - gamma) * (l_ce + l_easy) + gamma * l_hard,   gamma = e / E,

where l_easy is forward KL against the teacher over the right subset and
l_hard is forward KL against rectified targets over the bias subset. Both
subset terms sum their per-sample KL and divide by the FULL batch size
(an empty subset contributes exactly 0). This matches masking the batch
with the correctness mask and taking the batch mean; averaging over the
subset size instead makes the hard term explode whenever the bias subset
is small and destabilizes the end of training, where gamma -> 1.

A sample carries right knowledge when the teacher's argmax matches its
label (ties broken toward the lowest class index, everywhere). The loss
is a per-sample weighting in two weight classes: easy rows are distilled
with weight (1 - gamma) / n and hard rows with gamma / n. In the masked
modes the hard rows are the biased ones, rectified; elimination is
gamma 0, which weights their KL and gradient term by exactly 0. In
``vanilla`` and ``rectify`` every row is easy, and gamma is 0.
``target_loss`` takes one KL pass over the whole batch; l_easy and
l_hard are the sums of that vector over the easy and the hard rows, and
the KL gradient is one weighted term per row. A row's KL does not depend
on the other rows of the batch, so the sums see the same values, in the
same order, as KL passes over each subset would.

The batched core is two steps. ``teacher_targets`` partitions the rows,
decides each row's weight class once and, in every mode but
``vanilla``, rectifies all biased ones in one array operation; it reads
only the teacher and the labels, and each output row depends only on its
own input row, so ``train.distill`` can compute it once per training
row. ``target_loss`` returns the loss terms together with their gradient
w.r.t. the logits, at the epoch's gamma ``g``, which ``gamma`` gives; it
reads the weight classes, not the mode. ``compute_batch_loss`` is the two composed, at a
given ``g``. None of them checks its inputs, each checked once where it
enters: ``tau``, ``mode`` and ``fixed_gamma`` by ``TrainConfig``, labels
by the data loaders, the teacher by ``model.load_checkpoint``,
non-finite student logits by ``train._fit``.
CE (``numerics.ce_rows``) and KL come from the ln s of
``numerics.log_softmax_rows``, so they stay finite where the student
softmax underflows; the gradient uses the s of the same pass.

Modes (the names ``--mode`` takes):

* ``full``        -- elimination + rectification + dynamic gamma.
* ``eliminate``   -- bias samples dropped from KL: gamma forced to 0,
                     so it trains the student ``fixed-gamma=0`` trains.
* ``rectify``     -- no elimination: one full-batch KL where bias
                     samples use rectified (step-c) targets; gamma 0.
* ``vanilla``     -- unmasked KL + CE baseline; gamma 0.
* ``step-b``      -- like full but hard targets are the unnormalized
                     step-b vectors, used directly in sum t' ln(t'/s).
* ``fixed-gamma`` -- like full but with a constant gamma (the "normal"
                     schedule baseline); the CLI spells it
                     ``fixed-gamma=G``.
"""

from dataclasses import dataclass

import numpy as np

from . import rectify
from .numerics import ce_rows, kl_rows, log_softmax_rows

MODES = ("full", "eliminate", "rectify", "vanilla", "step-b", "fixed-gamma")


@dataclass(frozen=True)
class LossBreakdown:
    l_ce: float
    l_easy: float
    l_hard: float
    l_all: float
    grad: np.ndarray  # d l_all / d student logits, shape (n, k)


def gamma(mode: str, epoch: int, epochs: int, fixed_gamma) -> float:
    """Epoch e of E's blend weight: e/E in ``full`` and ``step-b``, the constant in
    ``fixed-gamma``, 0 in the others."""
    if mode in ("full", "step-b"):
        return epoch / epochs
    if mode == "fixed-gamma":
        return float(fixed_gamma)
    return 0.0


def teacher_targets(teacher_probs, labels, mode: str):
    """Partition rows by the teacher's argmax, decide their weight class, rectify.

    Returns ``(targets, right, hard)``: ``right`` marks the rows whose
    argmax is the label; ``hard`` marks the rows the loss weights with
    gamma, ``~right`` in the masked modes and none in ``vanilla`` and
    ``rectify``, which distill every row as easy knowledge.
    ``targets`` is a fresh array of the teacher rows, with every other row
    rectified to step c (step b in ``step-b``) in every mode but
    ``vanilla``. ``eliminate`` drops its biased rows through gamma 0, not
    through their targets. Every output row depends only on its own input
    row and label.
    """
    right = np.argmax(teacher_probs, axis=1) == labels
    bias = ~right
    hard = np.zeros_like(right) if mode in ("vanilla", "rectify") else bias
    targets = teacher_probs.copy()
    if mode != "vanilla":
        stage = rectify.STEP_B if mode == "step-b" else rectify.STEP_C
        targets[bias] = rectify.rectify_rows(teacher_probs[bias], labels[bias], stage)
    return targets, right, hard


def target_loss(student_logits, targets, hard, labels, g: float, tau: float) -> LossBreakdown:
    """Loss components, the assembled total and its logit gradient at gamma ``g``.

    ``targets`` and ``hard`` are what ``teacher_targets`` returns for these
    rows. Easy rows (``~hard``) are weighted (1 - g) / n and make up
    l_easy, hard rows g / n and make up l_hard.
    """
    n = labels.shape[0]
    log_s, s = log_softmax_rows(student_logits, tau)
    ce_sum, grad = ce_rows(log_s, s, labels)
    grad *= (1.0 - g) / n
    grad /= tau
    kl = kl_rows(targets, log_s)
    l_easy = float(kl[~hard].sum() / n)
    l_hard = float(kl[hard].sum() / n)
    # A teacher or step-c row sums to 1 only within rounding, so an easy
    # row's mass is exactly 1; a hard row's is its target's sum (above 1 at
    # step b).
    w = np.where(hard, g / n, (1.0 - g) / n)[:, None]
    mass = np.where(hard, targets.sum(axis=1), 1.0)[:, None]
    grad += w * (mass * s - targets) / tau

    l_ce = ce_sum / n
    l_all = (1.0 - g) * (l_ce + l_easy) + g * l_hard
    return LossBreakdown(l_ce=l_ce, l_easy=l_easy, l_hard=l_hard, l_all=l_all, grad=grad)


def compute_batch_loss(
    student_logits, teacher_probs, labels, g: float, tau: float = 1.0, mode: str = "full"
) -> LossBreakdown:
    """Per-batch loss components, the assembled total and its logit gradient at gamma ``g``."""
    labels = np.asarray(labels, dtype=np.int64)
    targets, _, hard = teacher_targets(np.asarray(teacher_probs, dtype=np.float64), labels, mode)
    return target_loss(student_logits, targets, hard, labels, g, tau)
