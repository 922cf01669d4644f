"""scripts/artifact_digest.py: one sha256 listing per run, the same on every run."""

import importlib.util
import sys
from pathlib import Path

import pytest

from rectidistill import schedule

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "artifact_digest.py"


def load_script():
    spec = importlib.util.spec_from_file_location("artifact_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


artifact_digest = load_script()

Workload = artifact_digest.bench.Workload

# The two benchmark shapes at toy size: few classes, rows and epochs. Fields:
# name, why, classes, per_class, val_per_class, dim, teacher_hidden,
# teacher_epochs, student_hidden, distill_epochs, distill_lr, batch_size, modes.
TOY = (
    Workload("toy-k3", "", 3, 12, 6, 2, 8, 3, 4, 3, 0.05, 8,
             ("full", "eliminate", "rectify", "vanilla", "step-b", "fixed-gamma=0.5")),
    Workload("toy-wide", "", 6, 10, 4, 5, 8, 2, 4, 2, 0.05, 16, ("full",)),
)
# toy-k3 also runs ablate over 2 seeds, and distills every mode at tau 2 in
# batches of 10 (three of 10, one of 6).
TOY_EXTRAS = {"toy-k3": artifact_digest.Extra(ablate_seeds=2, tau2_batch_size=10)}

# The listing digest of TOY's 72 files. It depends on the numpy/BLAS build it
# was recorded with; a change that alters artifact bits on purpose updates it
# and says so.
TOY_LISTING_DIGEST = "addf0dbf3489d6e89ebca14ee0904dbc98a07168420a6c968f767030bb8e09ee"


def test_two_runs_give_the_same_listing_digest(tmp_path):
    first = artifact_digest.artifact_digests(tmp_path / "a", TOY, TOY_EXTRAS)
    second = artifact_digest.artifact_digests(tmp_path / "b", TOY, TOY_EXTRAS)
    assert first == second
    assert artifact_digest.listing_digest(first) == artifact_digest.listing_digest(second)
    assert artifact_digest.listing_digest(first) == TOY_LISTING_DIGEST
    paths = [line.split("  ", 1)[1] for line in first]
    assert "toy-k3/data/train.csv" in paths
    assert "toy-k3/distill-fixed-gamma-0.5/student.ckpt" in paths
    assert "toy-wide/teacher/teacher.ckpt" in paths
    assert "toy-k3/data/train.csv.rows" in paths
    assert "toy-k3/ablate/ablation.csv" in paths
    assert "toy-k3/distill-step-b-tau2-b10/student.ckpt" in paths
    assert "prop-check/sweep.csv" in paths
    # per workload: gen-data 5 files, train-teacher 3, each distill 4, ablate 2;
    # then prop-check 2
    assert len(paths) == (5 + 3 + 4 * 12 + 2) + (5 + 3 + 4) + 2
    assert not any(path.endswith(".tmp") for path in paths)


def test_refuses_a_non_empty_output_directory(tmp_path):
    (tmp_path / "stale.txt").write_text("x\n")
    with pytest.raises(SystemExit, match="not empty"):
        artifact_digest.artifact_digests(tmp_path, TOY, TOY_EXTRAS)


def test_every_mode_is_benchmarked_digested_and_run_by_the_experiments():
    # each hand-kept mode list names schedule.MODES, fixed-gamma as fixed-gamma=G;
    # the experiments build theirs from schedule.MODES
    for flags in (artifact_digest.bench.PAPER_MODES, TOY[0].modes):
        assert {flag.partition("=")[0] for flag in flags} == set(schedule.MODES)


def test_loading_the_script_leaves_sys_path_and_modules_as_they_were():
    # perfbench/run.py puts its directory first on sys.path and imports its tracer
    # from there; the digest undoes both, so they shadow no later import
    path, tracer = sys.path[:], sys.modules.get("tracer")
    load_script()
    assert sys.path == [str(SCRIPT.parent.parent / "src"), *path]
    assert sys.modules.get("tracer") is tracer
