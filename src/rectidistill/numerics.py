"""Stable probability and loss primitives: the one numerical source.

Every function works on (n, k) rows and checks nothing: its inputs were
checked where they entered the program (``TrainConfig``, the data and
checkpoint loaders) or built by it. ``log_softmax_rows`` returns ln s
(shifted logits minus their logsumexp) and s from one pass. CE and KL are
taken from ln s, so they stay finite where the softmax underflows, with no
clamp: ``ce_rows`` is the one cross-entropy, each row's -ln s[label], which
the teacher and the distillation loss take; its gradient, the teacher's
too, is ``schedule.target_loss``'s. ``kl_rows`` is the one forward
KL, sum t ln t - sum t ln s, with ``t_log_t_rows`` its one per-row
constant. Each per-row function can write into a caller's (n,) vector,
and ``log_softmax_rows`` its ln s into a caller's (n, k) array. A single
vector is a one-row slice.
"""

import numpy as np


def log_softmax_rows(logits, tau: float = 1.0, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise (ln softmax(z / tau), softmax(z / tau)) over a (n, k) logit matrix.

    One shift by the row maximum, one ``exp`` and one row sum serve both:
    ln s is the shifted logits minus the log of that sum, finite for every
    finite logit row, also where s is 0. At tau 1 the logits are not divided.
    ``out``, an (n, k) array, receives ln s if given.
    """
    z = np.asarray(logits, dtype=np.float64)
    if tau != 1.0:
        z = z / tau
    shifted = np.subtract(z, z.max(axis=1, keepdims=True), out=out)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    shifted -= np.log(total)
    e /= total
    return shifted, e


def t_log_t_rows(targets) -> np.ndarray:
    """Each row's sum t_i ln t_i, shape (n,), where an entry with t_i = 0 adds exactly 0."""
    return (targets * np.log(np.where(targets > 0.0, targets, 1.0))).sum(axis=1)


def kl_rows(targets, log_probs, t_log_t=None, out=None) -> np.ndarray:
    """Row-wise forward KL, sum t_i ln t_i - sum t_i log_probs_i, shape (n,).

    Target rows need not sum to 1 (the step-b ablation uses them
    unnormalized); an entry with t_i = 0 adds exactly 0. ``log_probs``
    must be finite, as the ln s of ``log_softmax_rows`` is. ``t_log_t`` is
    ``t_log_t_rows(targets)``, the row's constant, taken here unless the
    caller holds it. ``out``, an (n,) vector, receives the result if given.
    """
    if t_log_t is None:
        t_log_t = t_log_t_rows(targets)
    return np.subtract(t_log_t, (targets * log_probs).sum(axis=1), out=out)


def ce_rows(log_probs, labels, out=None) -> np.ndarray:
    """Each row's cross-entropy -ln s[label] of integer labels, shape (n,).

    ``log_probs`` is the ln s of a ``log_softmax_rows`` pass. ``out``, an
    (n,) vector, receives the result if given.
    """
    return np.negative(log_probs[np.arange(labels.shape[0]), labels], out=out)

