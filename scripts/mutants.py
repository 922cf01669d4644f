#!/usr/bin/env python3
"""Check that tier-1 still pins each of the method's mechanisms: thirty hand-made mutants.

    python3 scripts/mutants.py [name ...]

Each mutant in ``MUTANTS`` models one way to get the paper's method wrong
(bias elimination, rectification and the dynamic gamma), the per-row
target table that serves its loss, the once-per-epoch pass that takes
and reduces its loss terms, a check at the boundary of its inputs (a CSV and its sidecar,
a config file, a flag's number, ``--dims``, ``tau``, a checkpoint, the
splits a model must fit), or the key that gives the epoch's shuffle a
stream of its own, in an edit of a few lines:
``(name, file, old text, new text)``. For each one, the
script copies the tree next to it (``COPIED``) into a temporary directory,
replaces the old text in that copy, runs tier-1 there and prints the tests
that fail.
First it runs tier-1 on the unchanged copy, which must pass. Names given
on the command line run only those mutants.

Exit 0 when every mutant is killed by a test other than the pinned TOY
listing digest (``test_two_runs_give_the_same_listing_digest``, which any
change of bits fails); 1 when a mutant survives or that digest is its only
killer; 2 when the unchanged tree fails, a name is unknown, or a mutant's
old text is not found exactly once (the list is stale). A run of all of
them takes several minutes, so it is not part of tier-1.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scripts", "perfbench", "pyproject.toml", "README.md")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "--tb=no", "-rfE"]
DIGEST_TEST = "tests/test_artifact_digest.py::test_two_runs_give_the_same_listing_digest"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str


SCHEDULE = "src/rectidistill/schedule.py"
TRAIN = "src/rectidistill/train.py"
DATA = "src/rectidistill/data.py"
MUTANTS = (
    Mutant("M1 step c rescales only the label", "src/rectidistill/rectify.py",
           "        values[rows, b] *= scale\n", ""),
    Mutant("M2 gamma is (e+1)/E", SCHEDULE,
           "return epoch / epochs if", "return (epoch + 1) / epochs if"),
    Mutant("M3 CE not weighted by (1-g)", SCHEDULE,
           "    ce = (1.0 - g) / n\n", "    ce = 1.0 / n\n"),
    Mutant("M4 anti-curriculum: hard rows weighted 1-g", SCHEDULE,
           "np.where(rows.hard[:, None], g / n, (1.0 - g) / n)",
           "np.where(rows.hard[:, None], (1.0 - g) / n, g / n)"),
    Mutant("M5 argmax ties go to the highest index", SCHEDULE,
           "    right = np.argmax(teacher_probs, axis=1) == labels\n",
           "    right = (teacher_probs.shape[1] - 1\n"
           "             - np.argmax(teacher_probs[:, ::-1], axis=1)) == labels\n"),
    Mutant("M6 step-b trains on step-c targets", SCHEDULE,
           '"step-b": Mode(rectify.STEP_B,', '"step-b": Mode(rectify.STEP_C,'),
    Mutant("M7 rectify weights biased rows as hard", SCHEDULE,
           '"rectify": Mode(rectify.STEP_C, False,', '"rectify": Mode(rectify.STEP_C, True,'),
    Mutant("M8 distill forwards the teacher at tau 1", TRAIN,
           "log_softmax_rows(model.forward(teacher, x), cfg.tau)[1]",
           "log_softmax_rows(model.forward(teacher, x))[1]"),
    Mutant("M9 hard term averaged over the hard rows", SCHEDULE,
           "    w = np.where(rows.hard[:, None], g / n, (1.0 - g) / n)\n",
           "    w = np.where(rows.hard[:, None], g / max(int(rows.hard.sum()), 1),"
           " (1.0 - g) / n)\n"),
    Mutant("M10 step-b gradient ignores the target mass", SCHEDULE,
           "    a = w * np.where(rows.hard, rows.targets.sum(axis=1), 1.0)[:, None]\n",
           "    a = w.copy()\n"),
    Mutant("M11 fixed-gamma=G trains at G = 0", TRAIN,
           "row._replace(gamma=g)", "row._replace(gamma=0.0)"),
    Mutant("M12 the epoch's (a, b) keep epoch 0's gamma", TRAIN,
           "_epoch_table(table, labels, perm, g, m, cfg.tau)",
           "_epoch_table(table, labels, perm, gamma(cfg.row, 0, cfg.epochs), m, cfg.tau)"),
    Mutant("M13 the short batch forwards only its own r rows", TRAIN,
           "teacher_probs(block)[m - r:]", "teacher_probs(x)"),
    Mutant("M14 a batch reads its slice of the table in fill order", TRAIN,
           "RowTargets._make(column[perm] for column in table)",
           "RowTargets._make(column for column in table)"),
    Mutant("M15 the epoch's (a, b) take m for every row", TRAIN,
           "counts = np.minimum(m, n - np.arange(n) // m * m)[:, None]", "counts = m"),
    Mutant("M17 the budget counts only the targets", TRAIN,
           "    return n * (2 * (8 * k + 8 + 2) + 8 + 8 + 8 * k"
           " + 8 * k * (1 if tau == 1.0 else 2))\n",
           "    return n * k * 8\n"),
    Mutant("M18 the epoch's loss_easy sums the hard rows", SCHEDULE,
           "    l_easy = float(kl[~hard].sum() / n)\n",
           "    l_easy = float(kl[hard].sum() / n)\n"),
    Mutant("M19 the epoch's terms read the table's weight classes in fill order", TRAIN,
           "hard[:], right[:] = ordered.hard, ordered.right",
           "hard[:], right[:] = table.hard, table.right"),
    Mutant("M20 load_csv names the line before the bad one", DATA,
           'f"{path}:{i + 2}: {what}"', 'f"{path}:{i + 1}: {what}"'),
    Mutant("M21 _require_fit checks only the training split", TRAIN,
           "    for ds in splits:\n", "    for ds in splits[:1]:\n"),
    Mutant("M22 a repeated config key passes", "src/rectidistill/cli.py",
           "            if key in first_line:\n"
           "                raise ConfigError(f\"{path}:{lineno}: key {key!r} repeats line "
           "{first_line[key]}\")\n", ""),
    Mutant("M23 load_checkpoint accepts a 1-output last layer", "src/rectidistill/model.py",
           "if i == n_layers - 1 and out_w < 2:", "if i == n_layers - 1 and out_w < 1:"),
    Mutant("M24 the shuffle drops its key tag", DATA,
           "generator(seed, SHUFFLE, epoch).permutation(n)", "generator(seed, epoch).permutation(n)"),
    Mutant("M25 flag and config numbers take 1_0 and non-ASCII digits", DATA,
           "    if plain_number_text(text):\n", "    if True:\n"),
    Mutant("M26 _parse_dims accepts an output width of 1", "src/rectidistill/cli.py",
           "    if dims[-1] < 2:\n", "    if dims[-1] < 1:\n"),
    Mutant("M27 _sidecar_rows skips its digest compare", DATA,
           "            if fh.read(32) != _sha256(path):\n                return None\n",
           "            fh.read(32)\n"),
    Mutant("M28 TrainConfig accepts tau = 0", TRAIN,
           "if not 0.0 < self.tau < math.inf:", "if not 0.0 <= self.tau < math.inf:"),
    Mutant("M29 the epoch's report reads the table's rows in fill order", TRAIN,
           "loss_rows(ordered, labels, cfg.tau, log_s, kl, ce)",
           "loss_rows(table, labels, cfg.tau, log_s, kl, ce)"),
    Mutant("M30 a table step writes its ln s at the buffer's first rows", TRAIN,
           "log_s[:, pos])", "log_s[:, :len(y)])"),
    Mutant("M31 the epoch's report drops the tau**2 factor", SCHEDULE,
           "    if tau != 1.0:\n        kl *= tau * tau\n", ""),
)


def copy_tree(dest: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy2(src, dest / name)


def apply(tree: Path, mutant: Mutant) -> None:
    path = tree / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: its old text is not found exactly once in "
                         f"{mutant.file}; the mutant list is stale")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def failing_tests(tree: Path) -> list[str]:
    """Run tier-1 in ``tree``; return the ids of the tests that fail or error."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True)
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, flags=re.MULTILINE)
    if proc.returncode not in (0, 1) or (proc.returncode == 1 and not failed):
        raise SystemExit(f"tier-1 exited {proc.returncode} without a test to blame:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return failed


def run_mutant(mutant: Mutant | None) -> list[str]:
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        if mutant is not None:
            apply(tree, mutant)
        return failing_tests(tree)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    by_name = {m.name.split()[0]: m for m in MUTANTS}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}; expected some of {', '.join(by_name)}",
              file=sys.stderr)
        return 2
    baseline = run_mutant(None)
    if baseline:
        print("the unchanged tree fails tier-1:", *baseline, sep="\n  ", file=sys.stderr)
        return 2
    table = []
    for mutant in [by_name[name] for name in argv] or MUTANTS:
        failed = run_mutant(mutant)
        print(f"{mutant.name}: {len(failed)} tier-1 tests fail", *failed, sep="\n  ", flush=True)
        table.append((mutant.name, len(failed), failed == [DIGEST_TEST]))
    print("\n| mutant | tier-1 failures | the TOY digest its only killer |\n|---|---|---|")
    for name, count, digest_only in table:
        print(f"| {name} | {count} | {'yes' if digest_only else 'no'} |")
    weak = [name for name, count, digest_only in table if not count or digest_only]
    if weak:
        print("not pinned by a test of its own:", *weak, sep="\n  ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
