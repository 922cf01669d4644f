"""Stable probability, loss, and gradient primitives: the one numerical source.

Training runs the row-wise functions, which check nothing: their inputs
were checked where they entered the program (``TrainConfig``, the data
and checkpoint loaders) or built by it. ``log_softmax_rows`` returns ln s
(shifted logits minus their logsumexp) and s from one pass. CE and KL are
taken from ln s, so they stay finite where the softmax underflows, with no
clamp: ``ce_rows`` is the one cross-entropy (summed loss and the gradient
s - onehot, used by the teacher loss and the distillation loss) and
``kl_rows`` the one forward KL. The 1-D ``softmax``, ``kl_divergence`` and
the two gradients are checked batch-of-one wrappers over them.
Both analytic gradients are checked against a finite-difference oracle.
"""

from collections.abc import Callable

import numpy as np

from .errors import InvalidInputError

PROB_SUM_TOL = 1e-9
FD_STEP = 1e-5


def as_logits(z) -> np.ndarray:
    """Validate and convert a logit vector: finite, 1-D, length >= 2."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or z.shape[0] < 2:
        raise InvalidInputError(f"logit vector must be 1-D with length >= 2, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise InvalidInputError("logit vector contains non-finite entries")
    return z


def as_prob_vector(p) -> np.ndarray:
    """Validate a point on the probability simplex: 1-D, length >= 2, sum within 1e-9 of 1."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.shape[0] < 2:
        raise InvalidInputError(
            f"probability vector must be 1-D with length >= 2, got shape {p.shape}"
        )
    if not np.all(np.isfinite(p)):
        raise InvalidInputError("probability vector contains non-finite entries")
    if np.any(p < 0.0):
        raise InvalidInputError("probability vector has negative entries")
    total = float(p.sum())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise InvalidInputError(f"probability vector sums to {total}, not 1")
    return p


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


def kl_rows(targets, log_probs) -> np.ndarray:
    """Row-wise forward KL sum t_i (ln t_i - log_probs_i).

    Target rows need not sum to 1 (the step-b ablation uses them
    unnormalized); an entry with t_i = 0 adds exactly 0. ``log_probs``
    must be finite, as the ln s of ``log_softmax_rows`` is.
    """
    log_t = np.log(np.where(targets > 0.0, targets, 1.0))
    return (targets * (log_t - log_probs)).sum(axis=1)


def ce_rows(log_probs, probs, labels) -> tuple[float, np.ndarray]:
    """Summed cross-entropy of integer labels under s, and its gradient s - onehot.

    ``log_probs`` and ``probs`` are the ln s and s of one
    ``log_softmax_rows`` pass. The gradient, per row and w.r.t. the logits
    divided by tau, is a fresh array that a caller may scale in place.
    """
    rows = np.arange(labels.shape[0])
    loss_sum = float(-log_probs[rows, labels].sum())
    grad = probs.copy()
    grad[rows, labels] -= 1.0
    return loss_sum, grad


def _log_softmax(z, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Checked (ln s, s) of one logit vector, each as a (1, k) row."""
    z = as_logits(z)
    if not np.isfinite(tau) or tau <= 0.0:
        raise InvalidInputError(f"temperature must be a positive finite scalar, got {tau}")
    return log_softmax_rows(z[None, :], tau)


def softmax(z, tau: float = 1.0) -> np.ndarray:
    """softmax(z / tau) of one logit vector; argmax is invariant in tau."""
    return _log_softmax(z, tau)[1][0]


def kl_divergence(t, s) -> float:
    """Forward KL sum(t_i ln(t_i / s_i)); terms with t_i = 0 contribute 0."""
    t = as_prob_vector(t)
    s = as_prob_vector(s)
    if t.shape != s.shape:
        raise InvalidInputError(f"length mismatch: {t.shape[0]} vs {s.shape[0]}")
    if np.any(s[t > 0.0] == 0.0):
        raise InvalidInputError("target has mass where the second distribution is exactly 0")
    # any remaining s_i = 0 has t_i = 0: ln 1 keeps its (zero) term finite
    log_s = np.log(np.where(s > 0.0, s, 1.0))
    return float(kl_rows(t[None, :], log_s[None, :])[0])


def ce_softmax_gradient(z, class_index: int, tau: float = 1.0) -> np.ndarray:
    """Gradient of CE(onehot(c), softmax(z/tau)) w.r.t. z: (s - onehot(c)) / tau."""
    log_s, s = _log_softmax(z, tau)
    c = int(class_index)
    if not 0 <= c < s.shape[1]:
        raise InvalidInputError(f"class index {c} outside [0, {s.shape[1]})")
    return ce_rows(log_s, s, np.array([c]))[1][0] / tau


def kl_softmax_gradient(t, z, tau: float = 1.0) -> np.ndarray:
    """Gradient of KL(t || softmax(z/tau)) w.r.t. z: (s - t) / tau."""
    t = as_prob_vector(t)
    s = softmax(z, tau)
    if t.shape != s.shape:
        raise InvalidInputError(f"length mismatch: {t.shape[0]} vs {s.shape[0]}")
    return (s - t) / tau


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
