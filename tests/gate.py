"""The acceptance gate's experiment and its criteria 6-8, for the gate and for ``gate_margins.py``.

``experiment`` trains a 2-64-4 teacher on a 4-class blob task (spread 1.2, 100
training and 500 validation rows per class: the split ``gen-data`` draws with
its defaults) to >= 90% train accuracy, then distills 2-8-4 students for 60
epochs under five modes, one run per student seed. Each criterion compares
medians over those seeds and returns its verdict with the values it compared.
"""

import statistics
from typing import NamedTuple

from rectidistill import train
from rectidistill.data import blob_splits

STUDENT_MODES = ("full", "step-b", "eliminate", "vanilla", "fixed-gamma=0.5")
SEEDS = (1, 2, 3, 4, 5)
EPOCHS = 60
EARLY_EPOCH = -(-EPOCHS // 10)  # ceil(0.1 * E), where criterion 8 reads val_acc


def experiment(teacher_seed: int = 0, seeds=SEEDS) -> dict[str, list[list[dict]]]:
    """Each student mode's metric rows, one list per seed in ``seeds``."""
    train_ds, val_ds = blob_splits(4, (100, 500), 2, spread=1.2, seed=1)

    teacher_cfg = train.TrainConfig(learning_rate=0.1, epochs=200, batch_size=32, seed=teacher_seed)
    teacher, teacher_rows = train.train_teacher(train_ds, [2, 64, 4], teacher_cfg, val_ds)
    assert teacher_rows[-1]["train_acc"] >= 0.90

    runs: dict[str, list[list[dict]]] = {}
    for mode in STUDENT_MODES:
        per_seed = []
        for seed in seeds:
            cfg = train.TrainConfig(
                learning_rate=0.005, epochs=EPOCHS, batch_size=32,
                seed=seed, tau=1.0, mode=mode,
            )
            _, rows = train.distill(teacher, [2, 8, 4], train_ds, cfg, val_ds)
            per_seed.append(rows)
        runs[mode] = per_seed
    return runs


class Verdict(NamedTuple):
    ok: bool
    medians: tuple[float, ...]  # the compared medians, in the criterion's order


def median_val(runs, mode: str, epoch: int = -1) -> float:
    return statistics.median(rows[epoch]["val_acc"] for rows in runs[mode])


def criterion_6(runs) -> Verdict:
    """Rectification ablation: ``full`` >= ``step-b`` at the last epoch."""
    full, step_b = median_val(runs, "full"), median_val(runs, "step-b")
    return Verdict(full >= step_b, (full, step_b))


def criterion_7(runs) -> Verdict:
    """Module ablation: ``full`` >= ``eliminate`` >= ``vanilla``, each up to 0.5pp inverted."""
    full, eliminate, vanilla = (median_val(runs, m) for m in ("full", "eliminate", "vanilla"))
    return Verdict(full >= eliminate - 0.005 and eliminate >= vanilla - 0.005,
                   (full, eliminate, vanilla))


def criterion_8(runs) -> Verdict:
    """Dynamic schedule: ``full`` >= ``fixed-gamma=0.5`` at ``EARLY_EPOCH``."""
    dynamic = median_val(runs, "full", EARLY_EPOCH)
    fixed = median_val(runs, "fixed-gamma=0.5", EARLY_EPOCH)
    return Verdict(dynamic >= fixed, (dynamic, fixed))
