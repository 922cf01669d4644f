"""Bias-rectified knowledge distillation, desk-scale.

Modules:

* ``numerics``  -- the one row-wise log-space softmax / CE / KL core
* ``rectify``   -- two-step rectification of biased teacher targets
* ``schedule``  -- the batched loss core: partition, rectified hard
  targets, dynamic easy/hard weighting (gamma = e/E), loss and gradient
* ``model``     -- minimal MLPs, SGD, checkpoints
* ``data``      -- blob datasets, CSV I/O, deterministic batching
* ``analysis``  -- two-class closed-form optimum, checked against the training loss
* ``train``     -- one SGD loop for teacher training and distillation
* ``cli``       -- experiment driver (``rectidistill`` entry point)
"""

__all__ = [
    "analysis",
    "cli",
    "data",
    "errors",
    "model",
    "numerics",
    "rectify",
    "rng",
    "schedule",
    "train",
]

__version__ = "0.1.0"
