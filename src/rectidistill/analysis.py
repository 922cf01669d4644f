"""Two-class verification of the harm of biased teacher targets.

With one-hot label on class a and a fixed teacher pair (t_a, t_b = 1-t_a),
the joint objective, KL and CE equally weighted as in the paper (their common
factor 1 - gamma does not move the optimum),

    t_a ln(t_a/s) + t_b ln(t_b/(1-s)) - ln s

has the closed-form interior minimizer s* = (t_a + 1)/2: its derivative
(s - t_a)/(s(1-s)) - 1/s vanishes only there. ``optimum`` returns
that formula; ``optimum_gradients`` checks it against the loss that training
runs, ``schedule.teacher_targets``, ``linear_targets`` then ``target_loss``,
at the logit pair (ln s* - ln(1-s*), 0).
CE plus KL(t || softmax(z)) is convex in the logits z, so a zero gradient
there proves that s* is the minimum.
The sweep then shows:

* correct teacher (t_a > 0.5): t_a < s* < 1 -- the teacher helps;
* wrong teacher (t_a < 0.5): s* is pulled below the CE-only optimum 1;
* rectifying the wrong pair (step b + c on [t_a, t_b]) strictly raises s*.

``sweep`` rectifies every wrong pair in one call of ``rectify.rectify_rows``,
the rectification that training runs, and takes s* = (t + 1)/2 on arrays,
t the rectified target's true-class mass.

Every t_a lies in (0, 1): the sweep's grid is a constant.
"""

from dataclasses import dataclass

import numpy as np

from . import schedule
from .rectify import rectify_rows

VERDICT_BETWEEN = "between"
VERDICT_PULLED_BELOW_CE = "pulled_below_ce"
VERDICT_BOUNDARY = "boundary"


def optimum(t):
    """Minimizer s* = (t + 1)/2 of the joint objective, t the KL target's true-class mass.

    ``t`` is a float or an array; the unrectified optimum takes the teacher's t_a.
    """
    return (t + 1.0) / 2.0


def _verdict(t_a: float) -> str:
    if t_a > 0.5:
        return VERDICT_BETWEEN
    if t_a < 0.5:
        return VERDICT_PULLED_BELOW_CE
    return VERDICT_BOUNDARY


@dataclass(frozen=True)
class SweepRow:
    t_a: float
    s_unrect: float
    s_rect: float  # nan when the teacher is already correct
    s_ce_only: float
    verdict: str


def sweep(t_a_values) -> list[SweepRow]:
    """One row per point; every wrong pair is rectified by one production ``rectify_rows`` call."""
    t_a = np.array(t_a_values, dtype=np.float64)
    wrong = t_a < 0.5
    pairs = np.column_stack([t_a, 1.0 - t_a])[wrong]
    kl_t_a = np.full_like(t_a, np.nan)  # the rectified target's true-class mass
    kl_t_a[wrong] = rectify_rows(pairs, np.zeros(len(pairs), dtype=np.int64))[:, 0]
    return [SweepRow(t_a=float(t), s_unrect=float(u), s_rect=float(r), s_ce_only=1.0,
                     verdict=_verdict(float(t)))
            for t, u, r in zip(t_a, optimum(t_a), optimum(kl_t_a))]


def optimum_gradients(rows) -> np.ndarray:
    """G times the training loss's logit gradient at each row's closed form, shape (2, G, 2).

    At gamma 0, every label on class a: mode ``vanilla`` at ``s_unrect``, then
    ``rectify``, which partitions and rectifies as training does, at
    ``s_rect`` (``s_unrect`` where the teacher is right). G undoes the batch mean.
    """
    t_a, s_unrect, s_rect = np.array([(r.t_a, r.s_unrect, r.s_rect) for r in rows]).T
    teacher, labels = np.column_stack([t_a, 1.0 - t_a]), np.zeros(len(rows), dtype=np.int64)
    blocks = []
    for row, s in ((schedule.MODES["vanilla"], s_unrect),
                   (schedule.MODES["rectify"], np.where(np.isnan(s_rect), s_unrect, s_rect))):
        logits = np.column_stack([np.log(s) - np.log(1.0 - s), np.zeros_like(s)])
        targets = schedule.teacher_targets(teacher, labels, row)
        grad = schedule.target_loss(logits, 0.0, 1.0,
                                    schedule.linear_targets(targets, labels, 0.0, len(rows), 1.0),
                                    schedule.empty_log_s(len(rows), 2, 1.0))
        blocks.append(len(rows) * grad)
    return np.stack(blocks)
