"""Two-step rectification of biased teacher targets.

For a sample whose teacher argmax b contradicts its label a:

* step b averages the true-class probability with 1 and halves the
  wrongly-maximal one: t'_a = (t_a + 1)/2, t'_b = t_b / 2. The vector
  now over-sums by (1 - t_a - t_b)/2.
* step c rescales only the (a, b) pair by (t_a + t_b) / (t'_a + t'_b)
  so the vector re-sums to 1 while every other class stays bit-identical.

Step-b outputs are kept around (unnormalized) because the ablation mode
distills directly against them. ``rectify_rows`` is the one implementation
of this arithmetic.
"""

import numpy as np

STEP_B = "step_b"
STEP_C = "step_c"


def rectify_rows(teacher_probs: np.ndarray, labels: np.ndarray, stage: str = STEP_C) -> np.ndarray:
    """Rectify every row of a bias subset at once; b is each row's argmax.

    The caller guarantees valid simplex rows, labels in range with
    argmax(row) != label, and a stage of ``STEP_B`` or ``STEP_C``. Other
    entries come back bit-identical.
    """
    rows = np.arange(labels.shape[0])
    b = np.argmax(teacher_probs, axis=1)
    t_a = teacher_probs[rows, labels]
    t_b = teacher_probs[rows, b]
    values = teacher_probs.copy()
    values[rows, labels] = (t_a + 1.0) / 2.0
    values[rows, b] = t_b / 2.0
    if stage == STEP_C:
        # t_b >= 1/k > 0 as the argmax, so the pair mass is never 0
        pair_mass = t_a + t_b
        scale = pair_mass / ((pair_mass + 1.0) / 2.0)
        values[rows, labels] *= scale
        values[rows, b] *= scale
    return values
