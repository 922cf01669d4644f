"""Smoke test of the benchmark at toy size.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

sys.path.insert(0, str(run.SRC))


def toy(wl, **changes):
    """The workload shrunk to a few classes, rows and epochs, at a learning rate
    that the tiny student survives."""
    return dataclasses.replace(
        wl, classes=min(wl.classes, 5), per_class=8, val_per_class=4, teacher_hidden=4,
        teacher_epochs=2, student_hidden=3, distill_epochs=2, distill_lr=0.05, batch_size=16,
        **changes,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_named_metric_is_emitted(name, trace, tmp_path):
    result, details = run.run_workload(toy(run.WORKLOADS[name]), 3, 0.01, trace, tmp_path)
    assert result["correct"], details["failures"]
    assert result["failed"] == 0 and result["attempted"] > 0
    if trace:
        want = {n for n, _, _ in run.layer_metric_names()}
        assert details["trace_missing"] == []
        assert result["metrics"]["cli.distill.calls"]["value"] == len(run.WORKLOADS[name].modes)
    else:
        want = {n for n, _ in run.END_TO_END}
    assert set(result["metrics"]) == want
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"]) and metric["unit"]


def test_failing_call_raises_failed_fraction(monkeypatch, capsys):
    broken = toy(run.WORKLOADS["paper-k4"], modes=("full", "no-such-mode"))
    monkeypatch.setitem(run.WORKLOADS, "paper-k4", broken)
    rc = run.main(["--workload", "paper-k4", "--seed", "3", "--seconds", "0.01"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 1
    assert not result["correct"]
    assert result["failed"] == 2  # the bad mode, once per cycle
    assert result["metrics"]["ok_fraction"]["value"] == 1 - 2 / result["attempted"]


def test_tracer_skips_missing_names_and_wraps_aliases():
    from rectidistill import numerics, schedule, train

    original = numerics.softmax_rows
    tracer = Tracer(["numerics.softmax_rows", "numerics.no_such_fn", "no_such_module.fn"])
    with tracer:
        assert tracer.missing == ["numerics.no_such_fn", "no_such_module.fn"]
        # bound by `from .numerics import softmax_rows [as ...]` in other modules
        assert train.softmax_rows is numerics.softmax_rows is not original
        assert schedule._batch_softmax_rows is numerics.softmax_rows
        tracer.call("root", train.softmax_rows, [[0.0, 1.0]])
    assert train.softmax_rows is original and numerics.softmax_rows is original
    assert tracer.totals("root")["numerics.softmax_rows"][0] == 1


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "paper-k4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_matches_the_runner():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {(w["name"], w["why"]) for w in doc["workloads"]} == {
        (wl.name, wl.why) for wl in run.WORKLOADS.values()}
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        run.layer_metric_names()
