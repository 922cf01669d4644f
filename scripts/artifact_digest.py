#!/usr/bin/env python3
"""sha256 of every artifact of the benchmark's CLI sequences, for byte-identity checks.

    python3 scripts/artifact_digest.py <out>

Runs gen-data -> train-teacher -> distill for the two benchmark shapes
(paper-k4 in all six modes, wide-k100 in mode full) at seed 1, then the six
paper-k4 modes again at ``--tau 2 --batch-size 24``, then ``ablate --seeds 2``
on paper-k4, then ``prop-check --out prop-check`` once, writing under <out>,
which must not exist yet or be empty. Prints ``<sha256>  <path>`` for every
file written, with paths relative to <out>, then ``<sha256>  listing``, the
digest of those lines. The calls run inside <out> on relative paths, so
``config.txt`` does not depend on where <out> is.

At tau 1 and batch sizes that are powers of two, ``x / n`` and
``x * (1 / n)`` agree bit for bit. The second set of paper-k4 distills (16
batches of 24 and one of 16 per epoch, tau 2) is there so that a reordered
division in the loss changes the listing.

The package is imported from the ``src/`` next to this script: a copy of the
script in another checkout digests that checkout's code, and equal listing
digests mean every CSV, ``.rows`` sidecar, checkpoint, metrics, summary and
config file, the ``ablation.csv`` and the two-class ``sweep.csv``, is
byte-identical. gen-data writes six files per workload: each split's CSV and
its ``<csv>.rows`` sidecar (the CSV's sha256, then its labels and its
features as two ``.npy`` records), ``config.txt`` and ``manifest.json``;
each distill writes four; ablate writes ``ablation.csv`` and
``config.txt``; prop-check writes ``sweep.csv`` and ``config.txt``.
"""

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path
from typing import NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rectidistill.cli import main as cli_main  # noqa: E402

SEED = 1
# perfbench/run.py's blob spread and teacher learning rate, shared by both workloads.
SPREAD = 1.2
TEACHER_LR = 0.1


class Workload(NamedTuple):
    name: str
    classes: int
    per_class: int
    val_per_class: int
    dim: int
    teacher_dims: str
    teacher_epochs: int
    student_dims: str
    distill_epochs: int
    distill_lr: float
    batch_size: int
    modes: tuple
    ablate_seeds: int = 0  # 0: no ablate call
    tau2_batch_size: int = 0  # > 0: every mode again at --tau 2 with this batch size


# The shapes and flags of perfbench/run.py's two workloads.
WORKLOADS = (
    Workload("paper-k4", 4, 100, 500, 2, "2,64,4", 200, "2,8,4", 60, 0.005, 32,
             ("full", "eliminate", "rectify", "vanilla", "step-b", "fixed-gamma=0.5"), 2, 24),
    Workload("wide-k100", 100, 200, 50, 32, "32,256,100", 2, "32,32,100", 2, 0.05, 256,
             ("full",)),
)


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli_main(argv)
    if rc != 0:
        raise SystemExit(f"rectidistill {' '.join(argv)} exited {rc}")


def run_workload(wl: Workload) -> None:
    """The CLI calls of one workload, into ``<wl.name>/`` under the current directory."""
    data = f"{wl.name}/data"
    _run(["gen-data", "--classes", str(wl.classes), "--per-class", str(wl.per_class),
          "--val-per-class", str(wl.val_per_class), "--dim", str(wl.dim),
          "--spread", repr(SPREAD), "--seed", str(SEED), "--out", data])
    common = ["--train", f"{data}/train.csv", "--val", f"{data}/val.csv", "--seed", str(SEED)]
    batch = ["--batch-size", str(wl.batch_size)]
    _run(["train-teacher", *common, *batch, "--dims", wl.teacher_dims,
          "--epochs", str(wl.teacher_epochs), "--lr", repr(TEACHER_LR),
          "--out", f"{wl.name}/teacher"])
    student = [*common, "--teacher", f"{wl.name}/teacher/teacher.ckpt",
               "--dims", wl.student_dims, "--epochs", str(wl.distill_epochs),
               "--lr", repr(wl.distill_lr)]
    runs = [(batch, "")]
    if wl.tau2_batch_size:
        runs.append((["--tau", "2", "--batch-size", str(wl.tau2_batch_size)],
                     f"-tau2-b{wl.tau2_batch_size}"))
    for flags, suffix in runs:
        for mode in wl.modes:
            _run(["distill", *student, *flags, "--mode", mode,
                  "--out", f"{wl.name}/distill-{mode.replace('=', '-')}{suffix}"])
    if wl.ablate_seeds:
        _run(["ablate", *student, *batch, "--seeds", str(wl.ablate_seeds),
              "--out", f"{wl.name}/ablate"])


def artifact_digests(out, workloads=WORKLOADS) -> list[str]:
    """Run ``workloads`` under ``out``; return one ``<sha256>  <path>`` line per file, sorted."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        raise SystemExit(f"{out} is not empty")
    cwd = os.getcwd()
    os.chdir(out)
    try:
        for wl in workloads:
            run_workload(wl)
        _run(["prop-check", "--out", "prop-check"])
    finally:
        os.chdir(cwd)
    files = sorted(p for p in out.rglob("*") if p.is_file())
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(out).as_posix()}"
            for p in files]


def listing_digest(lines: list[str]) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: artifact_digest.py <out>", file=sys.stderr)
        return 2
    lines = artifact_digests(argv[0])
    print("\n".join(lines))
    print(f"{listing_digest(lines)}  listing")
    return 0


if __name__ == "__main__":
    sys.exit(main())
