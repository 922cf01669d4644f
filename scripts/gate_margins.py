#!/usr/bin/env python3
"""How far the acceptance gate's criteria 6-8 sit from a tie, over 24 seed configurations.

    python3 scripts/gate_margins.py

Runs the gate's experiment (``tests/gate.py``: its split, flags and
criteria) for teacher seeds 0-5, each with the student seeds 1-5, 6-10,
11-15 and 16-20. For each configuration it prints the medians that criteria
6-8 compare and their verdicts; then each criterion's pass count, and an
exact two-sided sign test of ``full`` against ``step-b`` (criterion 6's
medians) over the configurations, ties left out. Teacher seed 0 with
student seeds 1-5 is the gate itself.

A change that moves training bits on purpose runs it before and after and
records both pass counts. It runs 600 distills, about 40 s on one core,
so it is not part of tier-1. Exit 0 always: the gate, not this report, decides.
"""

import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import gate  # noqa: E402

TEACHER_SEEDS = range(6)
SEED_BLOCKS = tuple(tuple(range(first, first + 5)) for first in (1, 6, 11, 16))
CRITERIA = {6: gate.criterion_6, 7: gate.criterion_7, 8: gate.criterion_8}


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p of ``wins`` against ``losses``, each side at probability 1/2."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2 ** n)


def main() -> int:
    passes = dict.fromkeys(CRITERIA, 0)
    gaps = []  # full minus step-b, criterion 6's medians
    print("teacher seeds | c6 full/step-b | c7 full/eliminate/vanilla | c8 dynamic/fixed")
    for teacher_seed in TEACHER_SEEDS:
        for seeds in SEED_BLOCKS:
            runs = gate.experiment(teacher_seed, seeds)
            verdicts = {number: criterion(runs) for number, criterion in CRITERIA.items()}
            for number, (ok, _) in verdicts.items():
                passes[number] += ok
            full, step_b = verdicts[6].medians
            gaps.append(full - step_b)
            cells = [f"{'/'.join(f'{v:.4f}' for v in medians)} {'PASS' if ok else 'FAIL'}"
                     for ok, medians in verdicts.values()]
            print(f"{teacher_seed} {seeds[0]}-{seeds[-1]} | {' | '.join(cells)}", flush=True)
    total = len(TEACHER_SEEDS) * len(SEED_BLOCKS)
    for number, count in passes.items():
        print(f"criterion {number}: {count} of {total} pass")
    wins, losses = sum(gap > 0 for gap in gaps), sum(gap < 0 for gap in gaps)
    print(f"full against step-b: {wins} above, {total - wins - losses} tied, {losses} below; "
          f"two-sided sign-test p = {sign_test_p(wins, losses):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
