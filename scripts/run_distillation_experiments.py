#!/usr/bin/env python3
"""Reproduce the desk-scale distillation experiments end to end.

Generates the 4-class blob task, trains the teacher, distills students
under every mode, and runs the step-b vs full seed ablation. All
outputs land under $RECTIDISTILL_OUT (default ./runs); every run is
bit-for-bit reproducible.
"""

import os
import sys

from rectidistill.cli import main
from rectidistill.schedule import MODES

OUT = os.environ.get("RECTIDISTILL_OUT", "runs")
DATA = os.path.join(OUT, "data")
TEACHER = os.path.join(OUT, "teacher")

# every --mode, the one that takes a fixed gamma at G = 0.5
MODE_FLAGS = [f"{name}=0.5" if row.gamma is None else name for name, row in MODES.items()]


def run(argv):
    print(f"$ rectidistill {' '.join(argv)}")
    rc = main(argv)
    if rc != 0:
        sys.exit(rc)


def main_script():
    run(["gen-data", "--out", DATA])
    run([
        "train-teacher",
        "--train", os.path.join(DATA, "train.csv"),
        "--val", os.path.join(DATA, "val.csv"),
        "--out", TEACHER,
    ])
    common = [
        "--train", os.path.join(DATA, "train.csv"),
        "--val", os.path.join(DATA, "val.csv"),
        "--teacher", os.path.join(TEACHER, "teacher.ckpt"),
    ]
    for mode in MODE_FLAGS:
        out = os.path.join(OUT, f"distill-{mode.replace('=', '-')}")
        run(["distill", *common, "--mode", mode, "--out", out])
    run(["ablate", *common, "--seeds", "5", "--out", os.path.join(OUT, "ablate")])


if __name__ == "__main__":
    main_script()
