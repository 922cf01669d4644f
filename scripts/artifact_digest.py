#!/usr/bin/env python3
"""sha256 of every artifact of the benchmark's CLI sequences, for byte-identity checks.

    python3 scripts/artifact_digest.py <out>

Runs gen-data -> train-teacher -> distill for the benchmark's workloads, as
``perfbench/run.py`` declares them (paper-k4 in all six modes, wide-k100 in
mode full), at seed 1. Then come the extra calls of ``EXTRA_CALLS``: the six
paper-k4 modes again at ``--tau 2 --batch-size 24``, and ``ablate --seeds 2``
on paper-k4. Last comes ``prop-check --out prop-check`` once. All of it is
written under <out>, which must not exist yet or be empty. Prints
``<sha256>  <path>`` for every file written, with paths relative to <out>,
then ``<sha256>  listing``, the digest of those lines. The calls run inside
<out> on relative paths, so ``config.txt`` does not depend on where <out> is.

At tau 1 and batch sizes that are powers of two, ``x / n`` and
``x * (1 / n)`` agree bit for bit. The second set of paper-k4 distills (16
batches of 24 and one of 16 per epoch, tau 2) is there so that a reordered
division in the loss changes the listing.

The package and the benchmark are read from the ``src/`` and ``perfbench/``
next to this script: a copy of the script in another checkout digests that
checkout's code, and equal listing digests mean every CSV, ``.rows``
sidecar, checkpoint, metrics, summary and config file, the ``ablation.csv``
and the two-class ``sweep.csv``, is byte-identical. gen-data writes five
files per workload: each split's CSV and its ``<csv>.rows`` sidecar (the
CSV's sha256, then its labels and its features as two ``.npy`` records),
and ``config.txt``; each distill writes four; ablate
writes ``ablation.csv`` and ``config.txt``; prop-check writes ``sweep.csv``
and ``config.txt``.
"""

import contextlib
import hashlib
import importlib.util
import io
import os
import sys
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rectidistill.cli import main as cli_main  # noqa: E402


def _load_bench():
    """``perfbench/run.py`` as a module, with ``sys.path`` and ``sys.modules`` left as they were.

    Its top level puts ``perfbench/`` first on ``sys.path`` and imports ``tracer``
    from there; both are undone, so no later import finds a module of the benchmark.
    """
    saved_path, saved_tracer = sys.path[:], sys.modules.get("tracer")
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved_path
        if saved_tracer is None:
            sys.modules.pop("tracer", None)
        else:
            sys.modules["tracer"] = saved_tracer
    return module


bench = _load_bench()

SEED = 1
WORKLOADS = tuple(bench.WORKLOADS.values())


class Extra(NamedTuple):
    ablate_seeds: int = 0  # 0: no ablate call
    tau2_batch_size: int = 0  # > 0: every mode again at --tau 2 with this batch size


# The calls beyond the benchmark's, by workload name.
EXTRA_CALLS = {"paper-k4": Extra(ablate_seeds=2, tau2_batch_size=24)}


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli_main(argv)
    if rc != 0:
        raise SystemExit(f"rectidistill {' '.join(argv)} exited {rc}")


def run_workload(wl, extra: Extra) -> None:
    """The CLI calls of one workload and its extras, into ``<wl.name>/`` under the current
    directory."""
    data = f"{wl.name}/data"
    _run(["gen-data", "--classes", str(wl.classes), "--per-class", str(wl.per_class),
          "--val-per-class", str(wl.val_per_class), "--dim", str(wl.dim),
          "--spread", repr(bench.SPREAD), "--seed", str(SEED), "--out", data])
    common = ["--train", f"{data}/train.csv", "--val", f"{data}/val.csv", "--seed", str(SEED)]
    batch = ["--batch-size", str(wl.batch_size)]
    _run(["train-teacher", *common, *batch, "--dims", wl.teacher_dims,
          "--epochs", str(wl.teacher_epochs), "--lr", repr(bench.TEACHER_LR),
          "--out", f"{wl.name}/teacher"])
    student = [*common, "--teacher", f"{wl.name}/teacher/teacher.ckpt",
               "--dims", wl.student_dims, "--epochs", str(wl.distill_epochs),
               "--lr", repr(wl.distill_lr)]
    runs = [(batch, "")]
    if extra.tau2_batch_size:
        runs.append((["--tau", "2", "--batch-size", str(extra.tau2_batch_size)],
                     f"-tau2-b{extra.tau2_batch_size}"))
    for flags, suffix in runs:
        for mode in wl.modes:
            _run(["distill", *student, *flags, "--mode", mode,
                  "--out", f"{wl.name}/distill-{mode.replace('=', '-')}{suffix}"])
    if extra.ablate_seeds:
        _run(["ablate", *student, *batch, "--seeds", str(extra.ablate_seeds),
              "--out", f"{wl.name}/ablate"])


def artifact_digests(out, workloads=WORKLOADS, extras=EXTRA_CALLS) -> list[str]:
    """Run ``workloads`` and their ``extras`` under ``out``; return one ``<sha256>  <path>``
    line per file, sorted."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        raise SystemExit(f"{out} is not empty")
    cwd = os.getcwd()
    os.chdir(out)
    try:
        for wl in workloads:
            run_workload(wl, extras.get(wl.name, Extra()))
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
