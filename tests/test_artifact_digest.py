"""scripts/artifact_digest.py: one sha256 listing per run, the same on every run."""

import importlib.util
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rectidistill import schedule, train

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "artifact_digest.py"


def load_script():
    spec = importlib.util.spec_from_file_location("artifact_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


artifact_digest = load_script()

Workload = artifact_digest.bench.Workload

# The two benchmark shapes at toy size: few rows and epochs. Fields: name, why,
# classes, per_class, val_per_class, dim, teacher_hidden, teacher_epochs,
# student_hidden, distill_epochs, distill_lr, batch_size, modes. Like paper-k4,
# toy-k3 fits the target table; like wide-k100, toy-wide's 100 classes do not,
# so its distill forwards the teacher per batch.
TOY = (
    Workload("toy-k3", "", 3, 12, 6, 2, 8, 3, 4, 3, 0.05, 8,
             ("full", "eliminate", "rectify", "vanilla", "step-b", "fixed-gamma=0.5")),
    Workload("toy-wide", "", 100, 5, 4, 5, 8, 2, 4, 2, 0.05, 16, ("full",)),
)
# toy-k3 also runs ablate over 2 seeds, and distills every mode at tau 2 in
# batches of 10 (three of 10, one of 6).
TOY_EXTRAS = {"toy-k3": artifact_digest.Extra(ablate_seeds=2, tau2_batch_size=10)}

# Both numpy and OpenBLAS pick their kernels from the CPU's features at run
# time, and the kernels move bits. The TOY listing is made in a process that
# forces a set every x86-64-v2 CPU has: OpenBLAS's Prescott kernels, and numpy's
# baseline with every SIMD dispatch target above it turned off.
FORCED_KERNELS = {"OPENBLAS_CORETYPE": "Prescott",
                  "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}

# The listing digest of TOY's 72 files under FORCED_KERNELS, and what it was
# recorded with; another numpy or BLAS build may give other bits. A change that
# alters artifact bits on purpose updates both and says so.
TOY_LISTING_DIGEST = "0944b5be5f69c9ce80004f022669661e0eafffd30e4c15399e39c409be7de2ef"
PINNED_WITH = ("numpy 2.4.6, scipy-openblas 0.3.31.188.0, numpy dispatch targets none, x86_64, "
               "OpenBLAS core Katmai")

LISTINGS = "import sys, test_artifact_digest as t; t.print_toy_listings(sys.argv[1])"


def print_toy_listings(out) -> None:
    """Print, as JSON, two TOY listings made under ``out``, and this process's numpy and
    BLAS builds, the SIMD dispatch targets numpy runs and the CPU architecture."""
    runs = [artifact_digest.artifact_digests(Path(out) / name, TOY, TOY_EXTRAS)
            for name in ("a", "b")]
    blas = np.show_config("dicts")["Build Dependencies"]["blas"]
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    simd = " ".join(f for f in __cpu_dispatch__ if __cpu_features__[f]) or "none"
    made_with = (f"numpy {np.__version__}, {blas['name']} {blas['version']}, "
                 f"numpy dispatch targets {simd}, {platform.machine()}")
    print(json.dumps({"runs": runs, "made_with": made_with}))


def forced_kernel_listings(out):
    """``print_toy_listings`` in a fresh process under FORCED_KERNELS, with the ``src/`` and
    ``tests/`` next to this file: (the two listings, what they were made with)."""
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, **FORCED_KERNELS, "OPENBLAS_VERBOSE": "2",
           "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "tests")])}
    proc = subprocess.run([sys.executable, "-c", LISTINGS, str(out)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    made = json.loads(proc.stdout)
    # OPENBLAS_VERBOSE=2 makes OpenBLAS name the kernels it picked, on stderr
    core = re.search(r"^Core: (\S+)$", proc.stderr, flags=re.MULTILINE)
    return made["runs"], f"{made['made_with']}, OpenBLAS core {core[1] if core else 'unknown'}"


def test_two_runs_give_the_same_listing_digest(tmp_path):
    (first, second), made_with = forced_kernel_listings(tmp_path)
    assert first == second
    assert artifact_digest.listing_digest(first) == TOY_LISTING_DIGEST, (
        f"TOY listing {artifact_digest.listing_digest(first)} under {FORCED_KERNELS}, made "
        f"with {made_with}; pinned {TOY_LISTING_DIGEST}, made with {PINNED_WITH}")
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


def test_toy_k3_fits_the_target_table_and_toy_wide_does_not():
    # away from tau 1 the table holds a second ln s plane: k3 fits with it, wide not without it
    k3, wide = TOY
    assert train._table_bytes(k3.classes * k3.per_class, k3.classes, 2.0) <= (
        train.TARGET_TABLE_BYTES)
    assert train._table_bytes(wide.classes * wide.per_class, wide.classes, 1.0) > (
        train.TARGET_TABLE_BYTES)


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
