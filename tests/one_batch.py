"""One batch's loss as the tests read it: ``target_loss``, then ``loss_terms`` on its vectors."""

from typing import NamedTuple

import numpy as np

from rectidistill.schedule import linear_targets, loss_terms, target_loss


class OneBatch(NamedTuple):
    loss_total: float
    loss_ce: float
    loss_easy: float
    loss_hard: float
    grad: np.ndarray  # d loss_total / d student logits, shape (n, k)


def one_batch(logits, rows, labels, g, tau) -> OneBatch:
    """The batch's ``loss_terms``, each a sum over its rows / its row count, and its gradient."""
    n = labels.shape[0]
    kl, ce = np.empty(n), np.empty(n)
    grad = target_loss(logits, rows, labels, g, tau, kl, ce,
                       linear_targets(rows, labels, g, n, tau))
    return OneBatch(**loss_terms(kl, ce, rows.hard, g), grad=grad)
