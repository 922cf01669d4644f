"""Two-class verification of the harm of biased teacher targets.

With one-hot label on class a and a fixed teacher pair (t_a, t_b = 1-t_a),
the joint objective

    w_kl * [t_a ln(t_a/s) + t_b ln(t_b/(1-s))] + w_ce * (-ln s)

has the closed-form interior minimizer s* = (w_kl*t_a + w_ce)/(w_kl + w_ce).
We find it independently by golden-section search and by gradient descent
on a softmax logit pair, then compare:

* correct teacher (t_a > 0.5): t_a < s* < 1 -- the teacher helps;
* wrong teacher (t_a < 0.5): s* is pulled below the CE-only optimum 1;
* rectifying the wrong pair (step b + c on [t_a, t_b]) strictly raises s*.

CE-only (w_kl = 0) has its optimum on the open boundary s = 1; it is
reported as the supremum 1 and descent runs are capped, not asserted to
converge there.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import atomic_write
from .errors import InvalidSetupError, RectifyNotApplicableError
from .rectify import rectify_sample

VERDICT_BETWEEN = "between"
VERDICT_PULLED_BELOW_CE = "pulled_below_ce"
VERDICT_BOUNDARY = "boundary"

_S_LO = 1e-9
_S_HI = 1.0 - 1e-9


@dataclass(frozen=True)
class TwoClassSetup:
    t_a: float
    w_kl: float = 1.0
    w_ce: float = 1.0
    learning_rate: float = 0.5
    steps: int = 20000

    def __post_init__(self):
        if not 0.0 < self.t_a < 1.0:
            raise InvalidSetupError(f"t_a must lie in (0, 1), got {self.t_a}")
        if self.w_kl < 0.0 or self.w_ce < 0.0 or (self.w_kl == 0.0 and self.w_ce == 0.0):
            raise InvalidSetupError(
                f"weights must be >= 0 and not both 0, got ({self.w_kl}, {self.w_ce})"
            )
        if self.learning_rate <= 0.0 or self.steps < 1:
            raise InvalidSetupError("learning_rate must be > 0 and steps >= 1")

    @property
    def t_b(self) -> float:
        return 1.0 - self.t_a


def objective(setup: TwoClassSetup, s: float, kl_target: tuple[float, float] | None = None) -> float:
    """Joint two-class loss at student probability s for the true class."""
    ta, tb = kl_target if kl_target is not None else (setup.t_a, setup.t_b)
    kl = 0.0
    if ta > 0.0:
        kl += ta * math.log(ta / s)
    if tb > 0.0:
        kl += tb * math.log(tb / (1.0 - s))
    return setup.w_kl * kl + setup.w_ce * (-math.log(s))


def _golden_section(f, lo: float, hi: float, tol: float = 1e-10) -> float:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (a + b) / 2.0


def two_class_optimum(setup: TwoClassSetup, kl_target: tuple[float, float] | None = None) -> float:
    """Minimizer of the joint objective over s in (0, 1).

    CE-only sits on the open boundary and is reported as the supremum 1;
    KL-only is exactly the target. Interior cases use golden-section
    search to 1e-10.
    """
    if setup.w_kl == 0.0:
        return 1.0
    if setup.w_ce == 0.0:
        return kl_target[0] if kl_target is not None else setup.t_a
    return _golden_section(lambda s: objective(setup, s, kl_target), _S_LO, _S_HI)


def _verdict(t_a: float) -> str:
    if t_a > 0.5:
        return VERDICT_BETWEEN
    if t_a < 0.5:
        return VERDICT_PULLED_BELOW_CE
    return VERDICT_BOUNDARY


def descend(targets, setup: TwoClassSetup) -> np.ndarray:
    """Gradient descent on G softmax logit pairs at once, one per KL target row.

    ``targets`` is a (G, 2) array; the weights, learning rate and step count
    come from ``setup`` (its ``t_a`` is unused). Returns the true-class
    probability before each step's update, shape (steps, G).
    """
    targets = np.asarray(targets, dtype=float)
    label = np.array([1.0, 0.0])
    z = np.zeros_like(targets)
    trajectory = np.empty((setup.steps, len(targets)))
    for step in range(setup.steps):
        e = np.exp(z - z.max(axis=1, keepdims=True))
        s = e / e.sum(axis=1, keepdims=True)
        grad = setup.w_kl * (s - targets) + setup.w_ce * (s - label)
        z = z - setup.learning_rate * grad
        trajectory[step] = s[:, 0]
    return trajectory


def rectified_kl_target(setup: TwoClassSetup) -> tuple[float, float]:
    """Step b + c rectification of the wrong two-class teacher pair."""
    if setup.t_a >= 0.5:
        raise RectifyNotApplicableError(
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


def sweep(t_a_values, w_kl: float = 1.0, w_ce: float = 1.0) -> list[SweepRow]:
    rows = []
    for ta in t_a_values:
        setup = TwoClassSetup(t_a=float(ta), w_kl=w_kl, w_ce=w_ce)
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


def write_sweep_csv(rows: list[SweepRow], path) -> None:
    with atomic_write(path) as fh:
        fh.write("t_a,s_unrect,s_rect,s_ce_only,verdict\n")
        for r in rows:
            fh.write(f"{r.t_a!r},{r.s_unrect!r},{r.s_rect!r},{r.s_ce_only!r},{r.verdict}\n")
