"""scripts/artifact_digest.py: one sha256 listing per run, the same on every run."""

import importlib.util
import sys
from pathlib import Path

import pytest

from rectidistill import schedule

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "artifact_digest.py"
spec = importlib.util.spec_from_file_location("artifact_digest", SCRIPT)
artifact_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(artifact_digest)

BENCH = SCRIPT.parent.parent / "perfbench" / "run.py"
EXPERIMENTS = SCRIPT.parent / "run_distillation_experiments.py"

Workload = artifact_digest.Workload

# The two benchmark shapes at toy size: few classes, rows and epochs. toy-k3
# also distills every mode at tau 2 in batches of 10 (three of 10, one of 6).
TOY = (
    Workload("toy-k3", 3, 12, 6, 2, "2,8,3", 3, "2,4,3", 3, 0.05, 8,
             ("full", "eliminate", "rectify", "vanilla", "step-b", "fixed-gamma=0.5"), 2, 10),
    Workload("toy-wide", 6, 10, 4, 5, "5,8,6", 2, "5,4,6", 2, 0.05, 16, ("full",)),
)

# The listing digest of TOY's 74 files. It depends on the numpy/BLAS build it
# was recorded with; a change that alters artifact bits on purpose updates it
# and says so.
TOY_LISTING_DIGEST = "74b518e08f69bcf3fc4b5afb9ab9febb5bcbabc25fa29bb1133312c45e4126cf"


def test_two_runs_give_the_same_listing_digest(tmp_path):
    first = artifact_digest.artifact_digests(tmp_path / "a", TOY)
    second = artifact_digest.artifact_digests(tmp_path / "b", TOY)
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
    # per workload: gen-data 6 files, train-teacher 3, each distill 4, ablate 2;
    # then prop-check 2
    assert len(paths) == (6 + 3 + 4 * 12 + 2) + (6 + 3 + 4) + 2
    assert not any(path.endswith(".tmp") for path in paths)


def test_refuses_a_non_empty_output_directory(tmp_path):
    (tmp_path / "stale.txt").write_text("x\n")
    with pytest.raises(SystemExit, match="not empty"):
        artifact_digest.artifact_digests(tmp_path, TOY)


def load_script(monkeypatch, name, path):
    """Run the script at ``path`` as module ``name``. It writes no bytecode next to it,
    and a sys.path entry it adds is undone after the test."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(sys, "path", [*sys.path])
    script_spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(script_spec)
    script_spec.loader.exec_module(module)
    return module


def test_workloads_are_the_benchmarks_shapes_and_flags(monkeypatch):
    # WORKLOADS is a hand-kept copy of the benchmark's workloads.
    bench = load_script(monkeypatch, "perfbench_run", BENCH)
    fields = ("name", "classes", "per_class", "val_per_class", "dim", "teacher_dims",
              "student_dims", "teacher_epochs", "distill_epochs", "distill_lr", "batch_size",
              "modes")
    assert [wl.name for wl in artifact_digest.WORKLOADS] == list(bench.WORKLOADS)
    for wl in artifact_digest.WORKLOADS:
        bench_wl = bench.WORKLOADS[wl.name]
        assert [getattr(wl, f) for f in fields] == [getattr(bench_wl, f) for f in fields]
    assert (artifact_digest.SPREAD, artifact_digest.TEACHER_LR) == (bench.SPREAD, bench.TEACHER_LR)


def test_every_mode_is_benchmarked_digested_and_run_by_the_experiments(monkeypatch):
    # each hand-kept mode list names schedule.MODES, fixed-gamma as fixed-gamma=G
    bench = load_script(monkeypatch, "perfbench_run", BENCH)
    experiments = load_script(monkeypatch, "run_distillation_experiments", EXPERIMENTS)
    paper = next(wl for wl in artifact_digest.WORKLOADS if wl.name == "paper-k4")
    for flags in (bench.PAPER_MODES, paper.modes, TOY[0].modes, experiments.MODES):
        assert {flag.partition("=")[0] for flag in flags} == set(schedule.MODES)
