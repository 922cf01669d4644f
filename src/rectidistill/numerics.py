"""Stable probability, loss, and gradient primitives: the one numerical source.

Every function works on (n, k) rows and checks nothing: its inputs were
checked where they entered the program (``TrainConfig``, the data and
checkpoint loaders) or built by it. ``log_softmax_rows`` returns ln s
(shifted logits minus their logsumexp) and s from one pass. CE and KL are
taken from ln s, so they stay finite where the softmax underflows, with no
clamp: ``ce_rows`` is the one cross-entropy (summed loss and the gradient
s - onehot, used by the teacher loss and the distillation loss) and
``kl_rows`` the one forward KL, with ``log_targets`` its one ln t. A
single vector is a one-row slice.
``finite_difference_gradient`` is the oracle the analytic gradients are
checked against.
"""

from collections.abc import Callable

import numpy as np

from .errors import InvalidInputError

FD_STEP = 1e-5


def log_softmax_rows(logits, tau: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise (ln softmax(z / tau), softmax(z / tau)) over a (n, k) logit matrix.

    One shift by the row maximum, one ``exp`` and one row sum serve both:
    ln s is the shifted logits minus the log of that sum, finite for every
    finite logit row, also where s is 0.
    """
    shifted = np.asarray(logits, dtype=np.float64) / tau
    shifted -= shifted.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    shifted -= np.log(total)
    e /= total
    return shifted, e


def log_targets(targets) -> np.ndarray:
    """ln t of each target entry, and 0 where t = 0, so that t ln t is exactly 0 there."""
    return np.log(np.where(targets > 0.0, targets, 1.0))


def kl_rows(targets, log_probs, log_t=None) -> np.ndarray:
    """Row-wise forward KL sum t_i (ln t_i - log_probs_i).

    Target rows need not sum to 1 (the step-b ablation uses them
    unnormalized); an entry with t_i = 0 adds exactly 0. ``log_probs``
    must be finite, as the ln s of ``log_softmax_rows`` is. ``log_t`` is
    ``log_targets(targets)``, taken here unless the caller holds it.
    """
    if log_t is None:
        log_t = log_targets(targets)
    return (targets * (log_t - log_probs)).sum(axis=1)


def ce_rows(log_probs, probs, labels) -> tuple[float, np.ndarray]:
    """Summed cross-entropy of integer labels under s, and its gradient s - onehot.

    ``log_probs`` and ``probs`` are the ln s and s of one
    ``log_softmax_rows`` pass. The gradient, per row and w.r.t. the logits
    of that pass, is a fresh array that a caller may scale in place.
    """
    rows = np.arange(labels.shape[0])
    loss_sum = float(-log_probs[rows, labels].sum())
    grad = probs.copy()
    grad[rows, labels] -= 1.0
    return loss_sum, grad


def finite_difference_gradient(f: Callable[[np.ndarray], float], x) -> np.ndarray:
    """Central-difference gradient estimate, step ``FD_STEP``, of a scalar function of a vector."""
    x = np.asarray(x, dtype=np.float64)
    g = np.empty_like(x)
    for i in range(x.shape[0]):
        step = np.zeros_like(x)
        step[i] = FD_STEP
        fp = float(f(x + step))
        fm = float(f(x - step))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise InvalidInputError(f"non-finite evaluation while differencing coordinate {i}")
        g[i] = (fp - fm) / (2.0 * FD_STEP)
    return g
