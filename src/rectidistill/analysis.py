"""Two-class verification of the harm of biased teacher targets.

With one-hot label on class a and a fixed teacher pair (t_a, t_b = 1-t_a),
the joint objective, KL and CE equally weighted as in the paper (their common
factor 1 - gamma does not move the optimum),

    t_a ln(t_a/s) + t_b ln(t_b/(1-s)) - ln s

has the closed-form interior minimizer s* = (t_a + 1)/2: its derivative
(s - t_a)/(s(1-s)) - 1/s vanishes only there. ``two_class_optimum`` returns
that formula; ``descend`` checks it numerically by gradient descent on a
softmax logit pair. It keeps no trajectory and returns only the final
true-class probabilities. On prop-check's grid they lie within 1e-4 of
the closed form after 110 steps and within 1.1e-16 after ``STEPS`` = 1000.
The sweep then shows:

* correct teacher (t_a > 0.5): t_a < s* < 1 -- the teacher helps;
* wrong teacher (t_a < 0.5): s* is pulled below the CE-only optimum 1;
* rectifying the wrong pair (step b + c on [t_a, t_b]) strictly raises s*.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .rectify import rectify_sample

VERDICT_BETWEEN = "between"
VERDICT_PULLED_BELOW_CE = "pulled_below_ce"
VERDICT_BOUNDARY = "boundary"

LEARNING_RATE = 0.5
STEPS = 1000


@dataclass(frozen=True)
class TwoClassSetup:
    t_a: float

    def __post_init__(self):
        if not 0.0 < self.t_a < 1.0:
            raise InvalidInputError(f"t_a must lie in (0, 1), got {self.t_a}")

    @property
    def t_b(self) -> float:
        return 1.0 - self.t_a


def two_class_optimum(setup: TwoClassSetup, kl_target: tuple[float, float] | None = None) -> float:
    """Minimizer s* = (t + 1)/2 of the joint objective, t the KL target's true-class mass."""
    t = kl_target[0] if kl_target is not None else setup.t_a
    return (t + 1.0) / 2.0


def _verdict(t_a: float) -> str:
    if t_a > 0.5:
        return VERDICT_BETWEEN
    if t_a < 0.5:
        return VERDICT_PULLED_BELOW_CE
    return VERDICT_BOUNDARY


def descend(targets) -> np.ndarray:
    """Gradient descent on G softmax logit pairs at once, one per KL target row.

    ``targets`` is a (G, 2) array. Runs ``STEPS`` steps at ``LEARNING_RATE``
    and returns the true-class probability before the last step's update,
    shape (G,).
    """
    targets = np.asarray(targets, dtype=float)
    label = np.array([1.0, 0.0])
    z = np.zeros_like(targets)
    for _ in range(STEPS):
        # not numerics.softmax_rows: same bits, but its ln s costs ~10% of prop-check
        e = np.exp(z - z.max(axis=1, keepdims=True))
        s = e / e.sum(axis=1, keepdims=True)
        grad = (s - targets) + (s - label)
        z = z - LEARNING_RATE * grad
    return s[:, 0]


def rectified_kl_target(setup: TwoClassSetup) -> tuple[float, float]:
    """Step b + c rectification of the wrong two-class teacher pair."""
    if setup.t_a >= 0.5:
        raise InvalidInputError(
            f"teacher is not wrong at t_a={setup.t_a}; rectification needs t_a < 0.5"
        )
    rect = rectify_sample(np.array([setup.t_a, setup.t_b]), label=0)
    return float(rect.values[0]), float(rect.values[1])


@dataclass(frozen=True)
class SweepRow:
    t_a: float
    s_unrect: float
    s_rect: float  # nan when the teacher is already correct
    s_ce_only: float
    verdict: str


def sweep(t_a_values) -> list[SweepRow]:
    rows = []
    for ta in t_a_values:
        setup = TwoClassSetup(t_a=float(ta))
        s_unrect = two_class_optimum(setup)
        s_rect = (
            two_class_optimum(setup, kl_target=rectified_kl_target(setup))
            if setup.t_a < 0.5
            else float("nan")
        )
        rows.append(
            SweepRow(
                t_a=float(ta),
                s_unrect=s_unrect,
                s_rect=s_rect,
                s_ce_only=1.0,
                verdict=_verdict(float(ta)),
            )
        )
    return rows

