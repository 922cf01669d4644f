"""One batch's loss as the tests read it: ``target_loss``, ``loss_rows``, then ``loss_terms``."""

from typing import NamedTuple

import numpy as np

from rectidistill.schedule import empty_log_s, linear_targets, loss_rows, loss_terms, target_loss


class OneBatch(NamedTuple):
    loss_total: float
    loss_ce: float
    loss_easy: float
    loss_hard: float
    grad: np.ndarray  # d loss_total / d student logits, shape (n, k)


def one_batch(logits, rows, labels, g, tau) -> OneBatch:
    """The batch's ``loss_terms``, each a sum over its rows / its row count, and its gradient."""
    n, k = rows.targets.shape
    kl, ce, log_s = np.empty(n), np.empty(n), empty_log_s(n, k, tau)
    grad = target_loss(logits, g, tau, linear_targets(rows, labels, g, n, tau), log_s)
    loss_rows(rows, labels, tau, log_s, kl, ce)
    return OneBatch(**loss_terms(kl, ce, rows.hard, g), grad=grad)
