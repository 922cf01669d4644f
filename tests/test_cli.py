"""End-to-end CLI tests on tiny deterministic configurations."""

import argparse
import contextlib
import io
import json
import math
import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rectidistill import analysis, cli, schedule, train
from rectidistill.data import Dataset, blob_splits, load_csv, save_csv
from rectidistill.errors import ConfigError


@pytest.fixture(autouse=True)
def out_root(tmp_path, monkeypatch):
    """Point the default output root at the test's tmp directory."""
    monkeypatch.setenv("RECTIDISTILL_OUT", str(tmp_path / "runs"))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def gen_tiny_data(tmp_path, per_class=25, val_per_class=25):
    out = tmp_path / "data"
    rc = cli.main([
        "gen-data", "--classes", "3", "--per-class", str(per_class),
        "--val-per-class", str(val_per_class), "--spread", "0.8",
        "--seed", "4", "--out", str(out),
    ])
    assert rc == cli.EXIT_OK
    return out


def one_draw_cut_by_class(classes, per, val, dim, spread, seed):
    """gen-data's former splits, kept as the oracle: one blob_splits draw of ``per + val``
    rows a class, whose first ``per`` rows of each class are train and the rest val."""
    full = blob_splits(classes, (per + val,), dim, spread, seed)[0]
    by_class = np.arange(full.n).reshape(classes, per + val)
    return [Dataset(full.features[idx.ravel()], full.labels[idx.ravel()], classes)
            for idx in (by_class[:, :per], by_class[:, per:])]


def config_keys(out):
    """Keys of a run's config.txt, in the order they were written."""
    return [line.split("=", 1)[0] for line in (out / "config.txt").read_text().splitlines()]


def train_tiny_teacher(tmp_path, data):
    out = tmp_path / "teacher"
    rc = cli.main([
        "train-teacher", "--train", str(data / "train.csv"),
        "--val", str(data / "val.csv"), "--dims", "2,8,3",
        "--epochs", "15", "--out", str(out),
    ])
    assert rc == cli.EXIT_OK
    return out / "teacher.ckpt"


def twenty_row_split(data):
    """Every third row of a 75-row tiny train split: 20 rows of all 3 classes."""
    header, *rows = (data / "train.csv").read_text().splitlines()
    path = data / "train20.csv"
    path.write_text("\n".join([header, *rows[::3][:20]]) + "\n")
    return path


class TestGenData:
    def test_row_counts_and_manifest(self, tmp_path):
        # the manifest of a data directory is its config.txt; there is no other
        out = gen_tiny_data(tmp_path, per_class=50, val_per_class=10)
        assert sorted(p.name for p in out.iterdir()) == [
            "config.txt", "train.csv", "train.csv.rows", "val.csv", "val.csv.rows"]
        train_lines = (out / "train.csv").read_text().splitlines()
        val_lines = (out / "val.csv").read_text().splitlines()
        assert len(train_lines) == 1 + 3 * 50
        assert len(val_lines) == 1 + 3 * 10
        config = dict(line.split("=", 1) for line in (out / "config.txt").read_text().splitlines())
        assert config["classes"] == "3" and config["seed"] == "4"

    def test_reruns_are_byte_identical(self, tmp_path):
        a = gen_tiny_data(tmp_path / "a")
        b = gen_tiny_data(tmp_path / "b")
        assert (a / "train.csv").read_bytes() == (b / "train.csv").read_bytes()
        assert (a / "val.csv").read_bytes() == (b / "val.csv").read_bytes()

    def test_config_file_overridden_by_flag(self, tmp_path):
        conf = tmp_path / "gen.conf"
        conf.write_text("classes=3\nper-class=7\n")
        out = tmp_path / "data"
        rc = cli.main([
            "gen-data", "--config", str(conf), "--per-class", "9",
            "--out", str(out),
        ])
        assert rc == cli.EXIT_OK
        assert len((out / "train.csv").read_text().splitlines()) == 1 + 3 * 9
        persisted = dict(
            line.split("=", 1)
            for line in (out / "config.txt").read_text().splitlines()
        )
        assert persisted["per-class"] == "9"  # flag beats config file
        assert persisted["classes"] == "3"

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        conf = tmp_path / "gen.conf"
        conf.write_text("bogus=1\n")
        assert cli.main(["gen-data", "--config", str(conf)]) == cli.EXIT_USAGE

    @pytest.mark.parametrize("text,lineno,first", [
        ("classes=3\nclasses=5\n", 2, 1),
        ("classes=3\n# five\n\n  classes = 5\n", 4, 1),  # the key is compared stripped
        ("seed=2\nclasses=3\nseed=2\n", 3, 1),  # an equal value repeats the key too
    ], ids=["next-line", "stripped", "equal-value"])
    def test_repeated_config_key_is_usage_error_naming_both_lines(self, tmp_path, capsys,
                                                                   text, lineno, first):
        conf = tmp_path / "dup.conf"
        conf.write_text(text)
        out = tmp_path / "dup"
        assert cli.main(["gen-data", "--config", str(conf), "--out", str(out)]) == cli.EXIT_USAGE
        key = text.splitlines()[first - 1].split("=")[0]
        assert capsys.readouterr().err == (
            f"error: {conf}:{lineno}: key {key!r} repeats line {first}\n")
        assert not out.exists()

    def test_config_txt_keys(self, tmp_path):
        assert config_keys(gen_tiny_data(tmp_path)) == [
            "classes", "dim", "out", "per-class", "seed", "spread", "val-per-class",
        ]

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--classes", "1"), ("--per-class", "0"), ("--val-per-class", "0"),
            ("--dim", "0"), ("--spread", "0"), ("--spread", "inf"), ("--spread", "nan"),
        ],
    )
    def test_bad_count_or_spread_is_usage_error_before_output(self, tmp_path, capsys, flag, value):
        out = tmp_path / "data"
        assert cli.main(["gen-data", flag, value, "--out", str(out)]) == cli.EXIT_USAGE
        assert f"{flag[2:]} must be" in capsys.readouterr().err  # names the flag's own value
        assert not out.exists()

    def test_unwritable_output_directory_is_an_io_error(self, tmp_path, capsys):
        # a directory where train.csv goes: --out passes its check, the write fails
        out = tmp_path / "data"
        (out / "train.csv").mkdir(parents=True)
        assert cli.main(["gen-data", "--out", str(out)]) == cli.EXIT_INTERNAL == 1
        assert capsys.readouterr().err.startswith("I/O error: ")
        assert sorted(p.name for p in out.iterdir()) == ["config.txt", "train.csv"]

    @pytest.mark.parametrize("shape", [(2, 1, 9, 1, 0.5, 0), (3, 25, 25, 2, 0.8, 4),
                                       (7, 13, 1, 5, 0.3, 42), (100, 200, 50, 32, 1.2, 1)])
    def test_splits_equal_one_draw_cut_by_class(self, tmp_path, shape):
        classes, per, val, dim, spread, seed = shape
        out = tmp_path / "data"
        assert cli.main(["gen-data", "--classes", str(classes), "--per-class", str(per),
                         "--val-per-class", str(val), "--dim", str(dim), "--spread", repr(spread),
                         "--seed", str(seed), "--out", str(out)]) == cli.EXIT_OK
        want = one_draw_cut_by_class(classes, per, val, dim, spread, seed)
        for name, split in zip(("train", "val"), want):
            save_csv(split, tmp_path / f"want-{name}.csv")
            for suffix in (".csv", ".csv.rows"):
                got = (out / f"{name}{suffix}").read_bytes()
                assert got == (tmp_path / f"want-{name}{suffix}").read_bytes(), (name, suffix)
            got = load_csv(out / f"{name}.csv", classes)
            assert np.array_equal(got.features, split.features)
            assert np.array_equal(got.labels, split.labels)

    def test_peak_memory_is_about_the_two_splits(self, tmp_path):
        # the splits are filled in place and written without a copy or a row array
        classes, per, val, dim = 100, 200, 50, 32
        argv = ["gen-data", "--classes", str(classes), "--per-class", str(per),
                "--val-per-class", str(val), "--dim", str(dim), "--out", str(tmp_path / "data")]
        tracemalloc.start()
        try:
            assert cli.main(argv) == cli.EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        splits = classes * (per + val) * (dim + 1) * 8  # float64 features, int64 labels
        assert peak <= 1.25 * splits


class TestTrainTeacher:
    def test_missing_dataset_is_usage_error(self, tmp_path):
        out = tmp_path / "teacher"
        rc = cli.main([
            "train-teacher", "--train", str(tmp_path / "nope.csv"),
            "--out", str(out),
        ])
        assert rc == cli.EXIT_USAGE
        assert not out.exists()  # no partial outputs

    def test_bad_flag_is_usage_error_before_any_output(self, tmp_path):
        data = gen_tiny_data(tmp_path)
        out = tmp_path / "teacher"
        rc = cli.main([
            "train-teacher", "--train", str(data / "train.csv"), "--lr", "nan",
            "--out", str(out),
        ])
        assert rc == cli.EXIT_USAGE
        assert not out.exists()

    def test_config_txt_keys(self, setup):
        _, _, teacher = setup
        assert config_keys(teacher.parent) == [
            "batch-size", "dims", "epochs", "lr", "out", "seed", "train", "val",
        ]

    def test_dims_wider_than_features_is_usage_error_before_output(self, setup):
        tmp, data, _ = setup
        out = tmp / "teacher-3d"
        rc = cli.main([
            "train-teacher", "--train", str(data / "train.csv"), "--dims", "3,8,3",
            "--out", str(out),
        ])
        assert rc == cli.EXIT_USAGE
        assert not out.exists()

    def test_output_width_one_is_usage_error_before_output(self, setup, capsys):
        tmp, data, _ = setup
        out = tmp / "teacher-1-class"
        rc = cli.main([
            "train-teacher", "--train", str(data / "train.csv"), "--dims", "2,8,1",
            "--out", str(out),
        ])
        assert rc == cli.EXIT_USAGE
        assert "output width of >= 2 classes" in capsys.readouterr().err
        assert not out.exists()

    def test_label_beyond_output_width_names_the_row(self, setup, capsys):
        tmp, data, _ = setup
        out = tmp / "teacher-2-class"
        rc = cli.main([
            "train-teacher", "--train", str(data / "train.csv"), "--dims", "2,8,2",
            "--out", str(out),
        ])
        assert rc == cli.EXIT_INTERNAL  # a data error, as for a negative label
        assert "train.csv:52: label 2 outside [0, 2)" in capsys.readouterr().err
        assert not out.exists()

    def test_diverging_run_is_one_error_line_naming_the_epoch(self, setup, capsys):
        tmp, data, _ = setup
        out = tmp / "teacher-diverges"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            rc = cli.main([
                "train-teacher", "--train", str(twenty_row_split(data)), "--dims", "2,8,3",
                "--lr", "1e6", "--out", str(out),
            ])
        assert rc == cli.EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err == "error: training diverged in epoch 26: non-finite parameters or loss\n"
        assert not out.exists()

    def test_produces_checkpoint_and_metrics(self, tmp_path):
        data = gen_tiny_data(tmp_path)
        ckpt = train_tiny_teacher(tmp_path, data)
        assert ckpt.exists()
        metrics = (ckpt.parent / "teacher_metrics.csv").read_text().splitlines()
        assert metrics[0] == "epoch,loss_ce,train_acc,val_acc"
        assert len(metrics) == 1 + 15
        final_acc = float(metrics[-1].split(",")[2])
        assert final_acc > 0.8  # well-separated blobs at spread 0.8


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("distill")
    data = gen_tiny_data(tmp)
    teacher = train_tiny_teacher(tmp, data)
    return tmp, data, teacher


@pytest.fixture(scope="module")
def relabelled(setup):
    """setup's training split with every fifth row relabelled to the next class.

    The tiny teacher gets every row of the split right; on this one it is wrong
    on the 15 relabelled rows, which gives the distill modes biased rows.
    """
    tmp, data, _ = setup
    header, *rows = (data / "train.csv").read_text().splitlines()
    rows = [f"{(int(r[0]) + 1) % 3}{r[1:]}" if i % 5 == 0 else r for i, r in enumerate(rows)]
    train = tmp / "relabelled.csv"
    train.write_text("\n".join([header, *rows]) + "\n")
    return train


class TestDistill:
    def _run(self, setup, mode, out_name, seed="1", extra=()):
        tmp, data, teacher = setup
        out = tmp / out_name
        rc = cli.main([
            "distill", "--train", str(data / "train.csv"),
            "--val", str(data / "val.csv"), "--teacher", str(teacher),
            "--dims", "2,4,3", "--mode", mode, "--epochs", "8",
            "--seed", seed, "--out", str(out), *extra,
        ])
        assert rc == cli.EXIT_OK
        return out

    def test_full_mode_outputs(self, setup):
        out = self._run(setup, "full", "full")
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert metrics[0] == (
            "epoch,gamma,loss_total,loss_ce,loss_easy,loss_hard,"
            "train_acc,val_acc,teacher_right_fraction"
        )
        assert len(metrics) == 1 + 8
        gammas = [float(line.split(",")[1]) for line in metrics[1:]]
        np.testing.assert_allclose(gammas, np.arange(8) / 8, atol=1e-12)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mode"] == "full" and summary["epochs"] == 8
        assert (out / "student.ckpt").exists()

    def test_rerun_is_byte_identical(self, setup):
        a = self._run(setup, "full", "det-a")
        b = self._run(setup, "full", "det-b")
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        assert (a / "student.ckpt").read_bytes() == (b / "student.ckpt").read_bytes()

    def test_eliminate_mode_zeroes_hard_loss_and_gamma(self, setup):
        # the tiny teacher gets every row right, so no row is hard
        out = self._run(setup, "eliminate", "eliminate")
        for line in (out / "metrics.csv").read_text().splitlines()[1:]:
            cells = line.split(",")
            assert float(cells[1]) == 0.0  # gamma
            assert float(cells[5]) == 0.0  # loss_hard

    def _run_relabelled(self, setup, relabelled, flag, out_name):
        """Distill 4 epochs on the relabelled split; returns the output directory and
        the last epoch's metrics row."""
        tmp, _, teacher = setup
        out = tmp / out_name
        assert cli.main([
            "distill", "--train", str(relabelled), "--teacher", str(teacher), "--dims", "2,4,3",
            "--mode", flag, "--epochs", "4", "--seed", "1", "--out", str(out),
        ]) == cli.EXIT_OK
        header, *_, last = (out / "metrics.csv").read_text().splitlines()
        return out, dict(zip(header.split(","), map(float, last.split(","))))

    def test_eliminate_trains_what_fixed_gamma_zero_trains(self, setup, relabelled):
        a, last = self._run_relabelled(setup, relabelled, "eliminate", "relabelled-eliminate")
        b, _ = self._run_relabelled(setup, relabelled, "fixed-gamma=0", "relabelled-fixed-gamma-0")
        assert last["teacher_right_fraction"] == 60 / 75
        assert (a / "student.ckpt").read_bytes() == (b / "student.ckpt").read_bytes()
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()

    @pytest.mark.parametrize("flag", ["full", "step-b", "fixed-gamma=0.5"])
    def test_biased_rows_reach_the_hard_weight(self, setup, relabelled, flag):
        _, last = self._run_relabelled(setup, relabelled, flag, f"relabelled-{flag}")
        assert last["teacher_right_fraction"] < 1
        assert last["gamma"] > 0 and last["loss_hard"] > 0

    def test_step_b_and_full_train_different_students(self, setup, relabelled):
        outs = []
        for flag in ("step-b", "full"):
            out, last = self._run_relabelled(setup, relabelled, flag, f"step-vs-{flag}")
            assert last["teacher_right_fraction"] < 1
            outs.append((out / "student.ckpt").read_bytes())
        assert outs[0] != outs[1]

    def test_fixed_gamma_mode(self, setup):
        out = self._run(setup, "fixed-gamma=0.5", "fixed")
        gammas = {
            float(line.split(",")[1])
            for line in (out / "metrics.csv").read_text().splitlines()[1:]
        }
        assert gammas == {0.5}

    def test_vanilla_and_rectify_and_step_b_run(self, setup):
        for mode in ("vanilla", "rectify", "step-b"):
            out = self._run(setup, mode, f"mode-{mode}")
            summary = json.loads((out / "summary.json").read_text())
            assert 0.0 <= summary["final_val_acc"] <= 1.0

    def test_summary_without_val_is_strict_json_with_null_accuracy(self, setup):
        tmp, data, teacher = setup
        out = tmp / "no-val"
        rc = cli.main([
            "distill", "--train", str(data / "train.csv"), "--teacher", str(teacher),
            "--dims", "2,4,3", "--epochs", "2", "--out", str(out),
        ])
        assert rc == cli.EXIT_OK

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
        assert summary["final_val_acc"] is None
        assert 0.0 <= summary["final_train_acc"] <= 1.0

    @pytest.mark.parametrize("dims", ["1000000000 1000000", "8 1000000000000"])
    def test_huge_teacher_layer_is_an_error_line_not_a_traceback(self, setup, capsys, dims):
        tmp, data, teacher = setup
        lines = teacher.read_text().splitlines()
        assert lines[2] == "layer 8 2"
        huge = tmp / f"huge-{dims.split()[0]}.ckpt"
        huge.write_text("\n".join([*lines[:2], f"layer {dims}", *lines[3:]]) + "\n")
        out = tmp / "huge-teacher"
        rc = cli.main([
            "distill", "--train", str(data / "train.csv"), "--teacher", str(huge),
            "--dims", "2,4,3", "--out", str(out),
        ])
        assert rc == cli.EXIT_INTERNAL == 1
        assert capsys.readouterr().err.startswith(f"error: {huge}:")
        assert not out.exists()

    def test_diverging_run_is_one_error_line_naming_the_epoch(self, setup, capsys):
        tmp, data, teacher = setup
        out = tmp / "distill-diverges"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            rc = cli.main([
                "distill", "--train", str(twenty_row_split(data)), "--teacher", str(teacher),
                "--dims", "2,4,3", "--lr", "1e6", "--out", str(out),
            ])
        assert rc == cli.EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err == "error: training diverged in epoch 25: non-finite parameters or loss\n"
        assert not out.exists()

    def test_non_finite_gradients_name_the_epoch(self, tmp_path, capsys):
        # the logits stay finite, but at tau=1e-3 logits/tau overflows in the loss
        data, teacher_out = tmp_path / "data", tmp_path / "teacher"
        assert cli.main(["gen-data", "--classes", "3", "--per-class", "20",
                         "--val-per-class", "20", "--seed", "1", "--out", str(data)]) == 0
        assert cli.main(["train-teacher", "--train", str(data / "train.csv"),
                         "--dims", "2,8,3", "--epochs", "2", "--out", str(teacher_out)]) == 0
        capsys.readouterr()
        out = tmp_path / "distill-diverges"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            rc = cli.main([
                "distill", "--train", str(data / "train.csv"), "--val", str(data / "val.csv"),
                "--teacher", str(teacher_out / "teacher.ckpt"), "--dims", "2,8,3",
                "--lr", "1e2", "--tau", "1e-3", "--seed", "4", "--out", str(out),
            ])
        assert rc == cli.EXIT_INTERNAL
        err = capsys.readouterr().err
        # the KL's gradient is tau times its residual, so CE at lr 1e2 drives the student
        assert err == "error: training diverged in epoch 43: non-finite parameters or loss\n"

    def test_subnormal_tau_diverges_without_a_warning_from_the_target_table(self, setup, capsys):
        # logits / 1e-320 overflows while the per-row target table is filled, before any batch
        tmp, data, teacher = setup
        out = tmp / "distill-subnormal-tau"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            rc = cli.main([
                "distill", "--train", str(data / "train.csv"), "--teacher", str(teacher),
                "--dims", "2,4,3", "--tau", "1e-320", "--out", str(out),
            ])
        assert rc == cli.EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err == "error: training diverged in epoch 0: non-finite parameters or loss\n"
        assert not out.exists()

    # tau * tau overflows above sqrt(DBL_MAX) ~ 1.34e154, and tau 1e-320 overflows logits / tau
    @pytest.mark.parametrize("name,tau,epochs", [
        *((name, tau, "3") for name in schedule.MODES for tau in ("1e154", "1e155", "1e300",
                                                                   "1e-320")),
        ("vanilla", "1e155", "1"),  # the check follows the last epoch too
    ])
    def test_any_valid_tau_ends_in_finite_artifacts_or_one_error_line(self, setup, capsys, name,
                                                                      tau, epochs):
        tmp, data, teacher = setup
        flag = "fixed-gamma=0.5" if name == "fixed-gamma" else name
        out = tmp / f"tau-{tau}-{name}-{epochs}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            rc = cli.main([
                "distill", "--train", str(data / "train.csv"), "--val", str(data / "val.csv"),
                "--teacher", str(teacher), "--dims", "2,4,3", "--mode", flag, "--tau", tau,
                "--epochs", epochs, "--out", str(out),
            ])
        err = capsys.readouterr().err
        if rc == cli.EXIT_INTERNAL:
            assert re.fullmatch(
                r"error: training diverged in epoch \d+: non-finite parameters or loss\n", err)
            assert not out.exists()
            return
        assert rc == cli.EXIT_OK and err == ""
        assert sorted(p.name for p in out.iterdir()) == [
            "config.txt", "metrics.csv", "student.ckpt", "summary.json"]
        _, *rows = (out / "metrics.csv").read_text().splitlines()
        assert len(rows) == int(epochs)
        assert np.isfinite([[float(c) for c in row.split(",")] for row in rows]).all()
        summary = json.loads((out / "summary.json").read_text())
        assert all(math.isfinite(v) for key, v in summary.items() if key != "mode")

    def test_unknown_mode_is_usage_error(self, setup):
        tmp, data, teacher = setup
        rc = cli.main([
            "distill", "--train", str(data / "train.csv"),
            "--teacher", str(teacher), "--mode", "bogus",
            "--out", str(tmp / "bad"),
        ])
        assert rc == cli.EXIT_USAGE

    # the library's former names of vanilla, step-b and fixed-gamma are unknown modes now
    @pytest.mark.parametrize("flag", ["vanilla_kd", "step_b_ablation", "fixed_gamma", "bogus",
                                      "full=1", "fixed-gamma", "fixed-gamma=abc", "fixed-gamma=",
                                      "fixed-gamma=1"])
    def test_bad_mode_is_train_config_s_usage_error_before_output(self, setup, capsys, flag):
        # TrainConfig is the one parser and check of --mode: the CLI passes it as typed
        message = {
            "fixed-gamma": "mode fixed-gamma=G needs G in [0, 1), got no G",
            "fixed-gamma=abc": "malformed fixed-gamma value in 'fixed-gamma=abc'",
            "fixed-gamma=": "malformed fixed-gamma value in 'fixed-gamma='",
            "fixed-gamma=1": "mode fixed-gamma=G needs G in [0, 1), got G=1.0",
        }.get(flag, f"unknown mode {flag!r}; expected one of full, eliminate, rectify, "
                    f"vanilla, step-b, fixed-gamma=G")
        with pytest.raises(ConfigError) as exc:
            train.TrainConfig(mode=flag)
        assert str(exc.value) == message
        tmp, data, teacher = setup
        out = tmp / "bad-mode"
        rc = cli.main([
            "distill", "--train", str(data / "train.csv"), "--teacher", str(teacher),
            "--dims", "2,4,3", "--epochs", "1", "--mode", flag, "--out", str(out),
        ])
        assert rc == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("name", schedule.MODES)
    def test_every_mode_name_runs(self, setup, name):
        flag = "fixed-gamma=0.5" if name == "fixed-gamma" else name
        out = self._run(setup, flag, f"each-{name}", extra=("--epochs", "2"))
        assert json.loads((out / "summary.json").read_text())["mode"] == flag

    @pytest.mark.parametrize("command", ["distill", "ablate"])
    def test_teacher_of_one_output_is_blamed_on_its_checkpoint(self, setup, capsys, command):
        # the teacher's output width is the class count; 1 would fail on the labels
        tmp, data, _ = setup
        teacher = tmp / "one-output.ckpt"
        teacher.write_text("rectidistill-mlp v1\nlayers 1\nlayer 1 2\n0.5 -0.5\n0.0\n")
        out = tmp / f"one-output-{command}"
        rc = cli.main([
            command, "--train", str(data / "train.csv"), "--val", str(data / "val.csv"),
            "--teacher", str(teacher), "--dims", "2,4,2", "--epochs", "1",
            *(["--seeds", "1"] if command == "ablate" else []), "--out", str(out),
        ])
        assert rc == cli.EXIT_INTERNAL == 1
        assert capsys.readouterr().err == (
            f"error: {teacher}:3: the final layer needs >= 2 outputs (classes), got 1\n")
        assert not out.exists()

    def test_missing_teacher_is_usage_error(self, setup):
        tmp, data, _ = setup
        rc = cli.main([
            "distill", "--train", str(data / "train.csv"),
            "--teacher", str(tmp / "nope.ckpt"), "--out", str(tmp / "bad2"),
        ])
        assert rc == cli.EXIT_USAGE

    def test_tiny_tau_runs_with_finite_losses(self, setup):
        # at tau=1e-3 the student softmax underflows to 0 at the true class
        out = self._run(setup, "full", "tiny-tau", extra=("--tau", "0.001"))
        rows = (out / "metrics.csv").read_text().splitlines()
        header = rows[0].split(",")
        loss_cols = [i for i, name in enumerate(header) if name.startswith("loss_")]
        assert len(loss_cols) == 4 and len(rows) == 1 + 8
        for line in rows[1:]:
            cells = line.split(",")
            assert all(np.isfinite(float(cells[i])) for i in loss_cols)

    def test_tau_1e_4_converges_on_the_relabelled_split(self, setup, relabelled):
        # KL scaled by tau**2 has a gradient of tau times its residual, and CE is
        # taken at temperature 1; a KL gradient divided by tau diverges in epoch 30
        tmp, data, teacher = setup
        out = tmp / "tau-1e-4"
        assert cli.main([
            "distill", "--train", str(relabelled), "--val", str(data / "val.csv"),
            "--teacher", str(teacher), "--dims", "2,4,3", "--tau", "1e-4", "--seed", "1",
            "--out", str(out),
        ]) == cli.EXIT_OK
        header, *rows = (out / "metrics.csv").read_text().splitlines()
        assert len(rows) == 60
        assert np.isfinite([[float(c) for c in row.split(",")] for row in rows]).all()
        last = dict(zip(header.split(","), map(float, rows[-1].split(","))))
        assert last["teacher_right_fraction"] == 60 / 75 and last["loss_hard"] > 0.0
        assert last["val_acc"] >= 0.9

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--lr", "nan"), ("--lr", "inf"), ("--lr", "0"), ("--lr", "-0.1"),
            ("--tau", "nan"), ("--tau", "inf"), ("--tau", "0"), ("--tau", "-1"),
            ("--epochs", "0"), ("--batch-size", "0"),
            ("--mode", "fixed-gamma=1"), ("--mode", "fixed-gamma=nan"),
        ],
    )
    def test_bad_training_flag_is_usage_error(self, setup, flag, value):
        tmp, data, teacher = setup
        out = tmp / "bad-flag"
        rc = cli.main([
            "distill", "--train", str(data / "train.csv"), "--teacher", str(teacher),
            "--dims", "2,4,3", "--epochs", "2", "--out", str(out), flag, value,
        ])
        assert rc == cli.EXIT_USAGE
        assert not out.exists()

    def test_config_txt_keys(self, setup):
        out = self._run(setup, "full", "keys")
        assert config_keys(out) == [
            "batch-size", "dims", "epochs", "lr", "mode", "out", "seed", "tau",
            "teacher", "train", "val",
        ]

    def test_dims_wider_than_features_is_usage_error_before_output(self, setup):
        tmp, data, teacher = setup
        out = tmp / "student-3d"
        rc = cli.main([
            "distill", "--train", str(data / "train.csv"), "--teacher", str(teacher),
            "--dims", "3,4,3", "--out", str(out),
        ])
        assert rc == cli.EXIT_USAGE
        assert not out.exists()

    def test_output_width_one_is_usage_error_before_output(self, setup, capsys):
        tmp, data, teacher = setup
        out = tmp / "student-1-class"
        rc = cli.main([
            "distill", "--train", str(data / "train.csv"), "--teacher", str(teacher),
            "--dims", "2,4,1", "--out", str(out),
        ])
        assert rc == cli.EXIT_USAGE
        assert "output width of >= 2 classes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["distill", "ablate"])
    def test_teacher_input_width_mismatch_is_usage_error_before_output(
        self, setup, capsys, command
    ):
        tmp, _, teacher = setup  # the teacher takes 2 inputs
        data_3d = tmp / "data-3d"
        assert cli.main([
            "gen-data", "--classes", "3", "--dim", "3", "--out", str(data_3d),
        ]) == cli.EXIT_OK
        out = tmp / f"{command}-3d-teacher-2d"
        rc = cli.main([
            command, "--train", str(data_3d / "train.csv"), "--val", str(data_3d / "val.csv"),
            "--teacher", str(teacher), "--dims", "3,4,3", "--out", str(out),
        ])
        assert rc == cli.EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: teacher maps 2 inputs to 3 classes, but the data has 3 features and 3 "
            "classes\n")
        assert not out.exists()

    def test_split_lacking_top_class_takes_class_count_from_teacher(self, setup):
        tmp, data, teacher = setup
        lines = (data / "train.csv").read_text().splitlines()
        two_class = tmp / "two-class.csv"
        two_class.write_text("\n".join(line for line in lines if not line.startswith("2,")) + "\n")
        out = tmp / "two-class"
        rc = cli.main([
            "distill", "--train", str(two_class), "--teacher", str(teacher),
            "--dims", "2,4,3", "--epochs", "2", "--out", str(out),
        ])
        assert rc == cli.EXIT_OK
        assert (out / "student.ckpt").exists()

    def test_ablate_config_txt_keys(self, setup):
        tmp, data, teacher = setup
        out = tmp / "ablate-keys"
        rc = cli.main([
            "ablate", "--train", str(data / "train.csv"), "--teacher", str(teacher),
            "--val", str(data / "val.csv"), "--dims", "2,4,3", "--epochs", "1", "--seeds", "1",
            "--out", str(out),
        ])
        assert rc == cli.EXIT_OK
        assert config_keys(out) == [
            "batch-size", "dims", "epochs", "lr", "out", "seed", "seeds", "tau",
            "teacher", "train", "val",
        ]

    def test_ablate_zero_seeds_is_usage_error_before_output(self, setup):
        tmp, data, teacher = setup
        out = tmp / "ablate-0"
        rc = cli.main([
            "ablate", "--train", str(data / "train.csv"), "--teacher", str(teacher),
            "--dims", "2,4,3", "--seeds", "0", "--out", str(out),
        ])
        assert rc == cli.EXIT_USAGE
        assert not out.exists()

    def test_ablate_without_val_is_usage_error_before_output(self, setup, capsys, monkeypatch):
        # it would train 2 x seeds students for an ablation.csv of nan accuracies;
        # refused before the teacher or a dataset is read
        tmp, data, teacher = setup

        def no_read(*args):
            raise AssertionError("an input was read before the --val check")

        monkeypatch.setattr(cli.model, "load_checkpoint", no_read)
        monkeypatch.setattr(cli, "load_csv", no_read)
        out = tmp / "ablate-no-val"
        rc = cli.main([
            "ablate", "--train", str(data / "train.csv"), "--teacher", str(teacher),
            "--dims", "2,4,3", "--seeds", "1", "--out", str(out),
        ])
        assert rc == cli.EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: ablate compares validation accuracy and needs --val\n")
        assert not out.exists()

    def test_each_ablate_row_is_the_distill_run_with_its_flags(self, setup, relabelled):
        # ablate runs distill once per (seed, mode); on the relabelled split
        # step-b and full train on other targets (at these flags the four
        # val_acc differ), and at 75 rows a batch of 32 leaves a short batch of 11
        tmp, data, teacher = setup
        flags = ["--train", str(relabelled), "--val", str(data / "val.csv"),
                 "--teacher", str(teacher), "--dims", "2,4,3", "--epochs", "5", "--tau", "4",
                 "--lr", "0.5"]
        out = tmp / "ablate-vs-distill"
        assert cli.main(["ablate", *flags, "--seeds", "2", "--out", str(out)]) == cli.EXIT_OK
        lines = (out / "ablation.csv").read_text().splitlines()[1:5]
        assert [line.split(",")[:2] for line in lines] == [
            ["1", "step-b"], ["1", "full"], ["2", "step-b"], ["2", "full"]]
        for line in lines:
            seed, mode, val_acc = line.split(",")
            run = tmp / f"ablate-vs-distill-{seed}-{mode}"
            assert cli.main(["distill", *flags, "--seed", seed, "--mode", mode,
                             "--out", str(run)]) == cli.EXIT_OK
            header, *metrics = (run / "metrics.csv").read_text().splitlines()
            assert metrics[-1].split(",")[header.split(",").index("val_acc")] == val_acc

    def test_ablate_smoke(self, setup):
        tmp, data, teacher = setup
        out = tmp / "ablate"
        rc = cli.main([
            "ablate", "--train", str(data / "train.csv"),
            "--val", str(data / "val.csv"), "--teacher", str(teacher),
            "--dims", "2,4,3", "--epochs", "5", "--seeds", "2",
            "--out", str(out),
        ])
        assert rc == cli.EXIT_OK
        lines = (out / "ablation.csv").read_text().splitlines()
        assert lines[0] == "seed,mode,val_acc"
        # 2 seeds x 2 modes + 2 median rows
        assert len(lines) == 1 + 4 + 2
        assert sum(line.startswith("median,") for line in lines) == 2


# prop-check's sweep lines: t_a 0.05..0.95, closed-form optima and verdicts
SWEEP_STDOUT = (
    "t_a=0.05 s*=0.525000 s_rect=0.762500 [pulled_below_ce]\n"
    "t_a=0.10 s*=0.550000 s_rect=0.775000 [pulled_below_ce]\n"
    "t_a=0.15 s*=0.575000 s_rect=0.787500 [pulled_below_ce]\n"
    "t_a=0.20 s*=0.600000 s_rect=0.800000 [pulled_below_ce]\n"
    "t_a=0.25 s*=0.625000 s_rect=0.812500 [pulled_below_ce]\n"
    "t_a=0.30 s*=0.650000 s_rect=0.825000 [pulled_below_ce]\n"
    "t_a=0.35 s*=0.675000 s_rect=0.837500 [pulled_below_ce]\n"
    "t_a=0.40 s*=0.700000 s_rect=0.850000 [pulled_below_ce]\n"
    "t_a=0.45 s*=0.725000 s_rect=0.862500 [pulled_below_ce]\n"
    "t_a=0.50 s*=0.750000 [boundary]\n"
    "t_a=0.55 s*=0.775000 [between]\n"
    "t_a=0.60 s*=0.800000 [between]\n"
    "t_a=0.65 s*=0.825000 [between]\n"
    "t_a=0.70 s*=0.850000 [between]\n"
    "t_a=0.75 s*=0.875000 [between]\n"
    "t_a=0.80 s*=0.900000 [between]\n"
    "t_a=0.85 s*=0.925000 [between]\n"
    "t_a=0.90 s*=0.950000 [between]\n"
    "t_a=0.95 s*=0.975000 [between]\n"
)


def not_stationary_at(grid_indices) -> str:
    """prop-check's failure lines for the t_a = 0.05 * i points of ``grid_indices``."""
    return "".join(f"  t_a={0.05 * i:.2f}: training-loss gradient is not zero at the closed form\n"
                   for i in grid_indices)


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory):
    """One prop-check sweep: (exit code, stdout, output directory)."""
    out = tmp_path_factory.mktemp("prop") / "prop"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main(["prop-check", "--out", str(out)])
    return rc, stdout.getvalue(), out


class TestPropCheck:
    def test_full_sweep_passes(self, sweep_run):
        rc, stdout, out = sweep_run
        assert rc == cli.EXIT_OK
        assert stdout == SWEEP_STDOUT + "PASS: all two-class invariants hold\n"
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "t_a,s_unrect,s_rect,s_ce_only,verdict"
        assert len(lines) == 1 + 19  # t_a grid 0.05..0.95

    def test_failed_invariant_exits_3_and_still_writes_the_sweep(self, tmp_path, capsys,
                                                                 monkeypatch):
        # a doubled CE share in the training loss's (a, b) moves its minimum off the closed form
        linear_targets = schedule.linear_targets

        def doubled_ce_share(rows, labels, g, n, tau):
            a, b = linear_targets(rows, labels, g, n, tau)
            ce = (1.0 - g) / n
            b[np.arange(n), labels] += ce
            return a + ce, b

        monkeypatch.setattr(schedule, "linear_targets", doubled_ce_share)
        out = tmp_path / "prop"
        assert cli.main(["prop-check", "--out", str(out)]) == cli.EXIT_VERIFICATION == 3
        assert capsys.readouterr().out == (
            SWEEP_STDOUT + "FAIL at t_a points:\n" + not_stationary_at(range(1, 20)))
        assert len((out / "sweep.csv").read_text().splitlines()) == 1 + 19

    def test_training_loss_that_skips_rectification_fails_the_wrong_teacher_points(
            self, capsys, monkeypatch):
        # rectify is checked at s_rect: a partition that leaves every row
        # unrectified moves its minimum exactly where the teacher is wrong
        teacher_targets = schedule.teacher_targets

        def unrectified(probs, labels, row):
            return teacher_targets(probs, labels, schedule.MODES["vanilla"])

        monkeypatch.setattr(schedule, "teacher_targets", unrectified)
        assert cli.main(["prop-check"]) == cli.EXIT_VERIFICATION
        out = capsys.readouterr().out
        assert out.split("FAIL at t_a points:\n")[1] == not_stationary_at(range(1, 10))

    def test_config_txt_keys(self, sweep_run):
        _, _, out = sweep_run
        assert config_keys(out) == ["out"]


def parsed(call, argv):
    """(exit code, stdout, stderr) of ``call(argv)``: its return value, or argparse's SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


ALL_COMMANDS = "{gen-data,train-teacher,distill,ablate,prop-check}"


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert cli.main([]) == cli.EXIT_USAGE

    def test_unknown_command_is_usage_error(self):
        assert cli.main(["frobnicate"]) == cli.EXIT_USAGE

    @pytest.mark.parametrize("argv,code", [
        (["--help"], cli.EXIT_OK), ([], cli.EXIT_USAGE), (["frobnicate"], cli.EXIT_USAGE),
    ])
    def test_a_call_naming_no_subcommand_lists_all_five(self, argv, code):
        rc, out, err = parsed(cli.main, argv)
        assert rc == code
        assert ALL_COMMANDS in out + err
        assert (out, err) == parsed(cli.build_parser().parse_args, argv)[1:]

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    @pytest.mark.parametrize("flag", ["--help", "--no-such-flag"])
    def test_subcommand_call_matches_the_full_parser(self, command, flag):
        # main builds only this subcommand's parser; its messages must not show it
        full_code, full_out, full_err = parsed(cli.build_parser().parse_args, [command, flag])
        rc, out, err = parsed(cli.main, [command, flag])
        expected_rc = cli.EXIT_OK if full_code == 0 else cli.EXIT_USAGE
        assert (rc, out, err) == (expected_rc, full_out, full_err)
        if flag == "--help":
            assert full_code == 0 and out.startswith(f"usage: rectidistill {command} [-h]")
        else:
            assert full_code == 2 and ALL_COMMANDS in err
            assert err.endswith("error: unrecognized arguments: --no-such-flag\n")

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_a_call_naming_a_subcommand_builds_no_other(self, command, monkeypatch):
        built = []
        add_parser = argparse._SubParsersAction.add_parser

        def recording_add_parser(self, name, **kwargs):
            built.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", recording_add_parser)
        parsed(cli.main, [command, "--help"])
        assert built == [command]
        parsed(cli.main, ["--help"])
        assert built == [command, *cli.COMMANDS]


@pytest.mark.parametrize("flag", ["--train", "--val", "--teacher", "--config"])
def test_directory_as_input_file_is_usage_error_before_output(setup, capsys, flag):
    tmp, data, teacher = setup
    out = tmp / f"directory-as{flag}"
    inputs = {"--train": str(data / "train.csv"), "--teacher": str(teacher), flag: str(data)}
    argv = ["distill", *(v for kv in inputs.items() for v in kv), "--dims", "2,4,3",
            "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert capsys.readouterr().err.endswith(f" is not an existing file: {str(data)!r}\n")
    assert not out.exists()


def refuse_work(monkeypatch):
    """Fail the test if the run starts: the draw, a data load, training or the sweep."""
    def no_work(*args, **kwargs):
        raise AssertionError("the run started")

    for owner, name in ((cli, "blob_splits"), (train, "train_teacher"), (train, "distill"),
                        (analysis, "sweep"), (cli, "load_csv")):
        monkeypatch.setattr(owner, name, no_work)


def working_inputs(command, data, teacher):
    """Input flags with which ``command`` would otherwise do its work."""
    return {
        "gen-data": [],
        "train-teacher": ["--train", str(data / "train.csv"), "--epochs", "50"],
        "prop-check": [],
    }.get(command, ["--train", str(data / "train.csv"), "--val", str(data / "val.csv"),
                    "--teacher", str(teacher), "--dims", "2,4,3", "--epochs", "30"])


@pytest.mark.parametrize("under", [False, True], ids=["file", "path-under-file"])
@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_out_naming_a_file_is_usage_error_before_any_work(setup, capsys, monkeypatch, command,
                                                          under):
    tmp, data, teacher = setup
    blocker = tmp / f"{command}-out-file-{under}"
    blocker.write_text("not a directory\n")
    out = blocker / "sub" if under else blocker
    refuse_work(monkeypatch)
    inputs = working_inputs(command, data, teacher)
    assert cli.main([command, *inputs, "--out", str(out)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: --out {str(out)!r}: {str(blocker)!r} is not a directory\n"
    assert blocker.read_text() == "not a directory\n"
    assert not any(p.name.startswith(blocker.name) and p != blocker for p in tmp.iterdir())


@pytest.mark.parametrize("via", ["argv", "config"])
@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_empty_out_is_usage_error_before_any_work(setup, tmp_path, capsys, monkeypatch, command,
                                                  via):
    _, data, teacher = setup
    conf = tmp_path / "empty-out.conf"
    conf.write_text("out=\n")
    refuse_work(monkeypatch)
    out = ["--out", ""] if via == "argv" else ["--config", str(conf)]
    before = sorted(tmp_path.iterdir())  # the working directory
    assert cli.main([command, *working_inputs(command, data, teacher), *out]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == "error: --out is empty; it must name a directory\n"
    assert sorted(tmp_path.iterdir()) == before


class TestStrayBytes:
    """Every text file is read and written as UTF-8; a byte that is not is a parse error
    naming its line, and a non-UTF-8 path round-trips byte for byte."""

    @pytest.mark.parametrize("raw,want", [
        (b"label,f0,f1\n0,1.0,2\xff.0\n", ":2: non-numeric cell in column 3: "),
        (b"label,f0,f1\n0,1.0,2.0\n\xff1,1.0,2.0\n", ":3: non-numeric cell in column 1: "),
        (b"label\xff,f0,f1\n0,1.0,2.0\n", ":1: header must be 'label,f0,f1,...'\n"),
    ], ids=["feature", "label", "header"])
    def test_in_a_csv_row(self, tmp_path, capsys, raw, want):
        csv = tmp_path / "badrow.csv"
        csv.write_bytes(raw)
        out = tmp_path / "teacher"
        rc = cli.main(["train-teacher", "--train", str(csv), "--dims", "2,4,3", "--epochs", "1",
                       "--out", str(out)])
        assert rc == cli.EXIT_INTERNAL
        assert capsys.readouterr().err.startswith(f"error: {csv}{want}")
        assert not out.exists()

    def test_in_a_checkpoint_line(self, setup, tmp_path, capsys):
        _, data, teacher = setup
        lines = teacher.read_bytes().split(b"\n")
        lines[3] = b"\xff" + lines[3]  # the first weight row, under 'layer <out> <in>'
        bad = tmp_path / "teacher.ckpt"
        bad.write_bytes(b"\n".join(lines))
        out = tmp_path / "student"
        rc = cli.main(["distill", "--train", str(data / "train.csv"), "--teacher", str(bad),
                       "--dims", "2,4,3", "--epochs", "1", "--out", str(out)])
        assert rc == cli.EXIT_INTERNAL
        assert capsys.readouterr().err.startswith(f"error: {bad}:4: non-numeric value: ")
        assert not out.exists()

    @pytest.mark.parametrize("line,want", [
        (b"\xff\xfe", ":2: expected key=value, got '\\udcff\\udcfe'"),
        (b"seed=1\xff", ": seed='1\\udcff' is not a valid int"),
        (b"se\xffed=1", ": unknown config key 'se\\udcffed'"),
    ], ids=["line", "value", "key"])
    def test_in_a_config_file(self, tmp_path, capsys, line, want):
        conf = tmp_path / "bin.conf"
        conf.write_bytes(b"classes=3\n" + line + b"\n")
        out = tmp_path / "data"
        assert cli.main(["gen-data", "--config", str(conf), "--out", str(out)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"error: {conf}{want}\n"
        assert not out.exists()

    def test_non_utf8_out_round_trips_through_config_txt(self, tmp_path):
        out = tmp_path / os.fsdecode(b"data-\xff")
        argv = ["gen-data", "--classes", "3", "--per-class", "5", "--val-per-class", "5"]
        assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_OK
        written = (out / "config.txt").read_bytes()
        assert b"out=" + os.fsencode(out) + b"\n" in written
        csv = (out / "train.csv").read_bytes()
        # config.txt read back as a config file names the same directory, byte for byte
        assert cli.main(["gen-data", "--config", str(out / "config.txt")]) == cli.EXIT_OK
        assert (out / "config.txt").read_bytes() == written
        assert (out / "train.csv").read_bytes() == csv


@pytest.mark.parametrize("command", ["gen-data", "train-teacher", "distill", "ablate",
                                     "prop-check", "distill --mode fixed-gamma=0.5"])
def test_config_txt_read_back_through_config_gives_the_same_config_txt(setup, command):
    tmp, data, teacher = setup
    out = tmp / f"{command.replace(' ', '_')}-read-back"
    command, *flags = command.split()
    inputs = {
        "gen-data": ["--classes", "3", "--per-class", "5", "--val-per-class", "5"],
        "train-teacher": ["--train", str(data / "train.csv"), "--dims", "2,4,3", "--epochs", "1"],
        "prop-check": [],
    }.get(command, ["--train", str(data / "train.csv"), "--val", str(data / "val.csv"),
                    "--teacher", str(teacher), "--dims", "2,4,3", "--epochs", "1"])
    if command == "ablate":
        inputs += ["--seeds", "1"]
    assert cli.main([command, *inputs, *flags, "--out", str(out)]) == cli.EXIT_OK
    written = (out / "config.txt").read_bytes()
    assert cli.main([command, "--config", str(out / "config.txt")]) == cli.EXIT_OK
    assert (out / "config.txt").read_bytes() == written


# Momentum is the constant train.MOMENTUM, and prop-check always runs the sweep.
@pytest.mark.parametrize("command,retired,message", [
    ("train-teacher", ["--momentum", "0.9"], "unrecognized arguments: --momentum 0.9"),
    ("distill", ["--momentum", "0.9"], "unrecognized arguments: --momentum 0.9"),
    ("ablate", ["--momentum", "0.9"], "unrecognized arguments: --momentum 0.9"),
    ("prop-check", ["--ta", "0.3"], "unrecognized arguments: --ta 0.3"),
    ("distill", "momentum=0.9", "unknown config key 'momentum'"),
], ids=["train-teacher-momentum", "distill-momentum", "ablate-momentum", "prop-check-ta",
        "distill-momentum-config"])
def test_retired_option_is_usage_error_before_output(setup, capsys, command, retired, message):
    tmp, data, teacher = setup
    out = tmp / f"{command}-retired"
    student = ["--train", str(data / "train.csv"), "--val", str(data / "val.csv"),
               "--teacher", str(teacher), "--dims", "2,4,3", "--epochs", "1"]
    inputs = {
        "train-teacher": ["--train", str(data / "train.csv"), "--dims", "2,4,3", "--epochs", "1"],
        "distill": student,
        "ablate": [*student, "--seeds", "1"],
        "prop-check": [],
    }[command]
    if isinstance(retired, str):
        conf = tmp / "retired.conf"
        conf.write_text(retired + "\n")
        retired = ["--config", str(conf)]
    assert cli.main([command, *inputs, *retired, "--out", str(out)]) == cli.EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("dims,message", [
    ("2,0,4", "dims need >= 2 positive widths, got [2, 0, 4]"),
    ("2,-3,4", "dims need >= 2 positive widths, got [2, -3, 4]"),
    ("4", "dims need >= 2 positive widths, got [4]"),
    ("2,x,4", "malformed dims '2,x,4'; expected e.g. 2,64,4"),
    ("", "malformed dims ''; expected e.g. 2,64,4"),
])
@pytest.mark.parametrize("command", ["train-teacher", "distill"])
def test_bad_dims_is_usage_error_before_output(setup, capsys, command, dims, message):
    # the CLI is the only check of a model's widths
    tmp, data, teacher = setup
    out = tmp / f"{command}-dims-{dims}"
    inputs = ["--train", str(data / "train.csv")]
    if command == "distill":
        inputs += ["--teacher", str(teacher)]
    assert cli.main([command, *inputs, f"--dims={dims}", "--out", str(out)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen-data", "train-teacher", "distill", "ablate"])
def test_negative_seed_is_usage_error_before_output(setup, capsys, command):
    tmp, data, teacher = setup
    out = tmp / f"{command}-negative-seed"
    inputs = {"gen-data": [], "train-teacher": ["--train", str(data / "train.csv")]}.get(
        command, ["--train", str(data / "train.csv"), "--teacher", str(teacher), "--dims", "2,4,3"])
    assert cli.main([command, *inputs, "--seed", "-1", "--out", str(out)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


# Every int/float flag of every subcommand, read off the flag table itself.
NUMERIC_FLAGS = [
    (command, flag, typ)
    for command, (_, _, _, flags) in cli.COMMANDS.items()
    for flag, (typ, _) in flags.items()
    if typ in (int, float)
]


def parses(typ, text):
    """Whether ``text`` is a number of ``typ``: ``typ(text)`` reads it, and it is ASCII
    without ``_``, as the CSV and checkpoint readers take numbers."""
    if not text.isascii() or "_" in text:
        return False
    try:
        typ(text)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("via", ["argv", "config"])
@pytest.mark.parametrize("command,flag,typ", NUMERIC_FLAGS)
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_unparsable_number_is_usage_error_before_output(tmp_path, command, flag, typ, via, data):
    text = st.text(st.characters(min_codepoint=1, max_codepoint=127, exclude_characters="\r\n"))
    # int() and float() read 1_0 as 10 and the Arabic-Indic digit three as 3
    value = data.draw(
        st.one_of(st.sampled_from(["abc", "1.5", "", "1e", "0x10", "--", "1_0", "\u0663"]),
                  text).filter(lambda v: not parses(typ, v) and not parses(typ, v.strip()))
    )
    out = tmp_path / "out"
    if via == "argv":
        argv = [command, f"--{flag}={value}", "--out", str(out)]
    else:
        conf = tmp_path / "bad.conf"
        conf.write_text(f"{flag}={value}\n", encoding="utf-8")
        argv = [command, "--config", str(conf), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert not out.exists()


# Text that int() or float() reads, but that no file reader takes as a number.
@pytest.mark.parametrize("command,key,value,message", [
    ("gen-data", "classes", "1_0", "'1_0' is not a valid int"),
    ("gen-data", "per-class", "\u0663", "'\u0663' is not a valid int"),
    ("gen-data", "spread", "1_0.5", "'1_0.5' is not a valid float"),
    ("distill", "dims", "2,1_0,3", "malformed dims '2,1_0,3'; expected e.g. 2,64,4"),
    ("distill", "dims", "2,\u0663,3", "malformed dims '2,\u0663,3'; expected e.g. 2,64,4"),
    ("distill", "mode", "fixed-gamma=.\u0665",
     "malformed fixed-gamma value in 'fixed-gamma=.\u0665'"),
], ids=["underscore-int", "non-ascii-int", "underscore-float", "underscore-dims",
        "non-ascii-dims", "non-ascii-gamma"])
@pytest.mark.parametrize("via", ["argv", "config"])
def test_number_only_python_reads_is_usage_error_before_output(setup, tmp_path, capsys, command,
                                                              key, value, message, via):
    _, data, teacher = setup
    inputs = [] if command == "gen-data" else [
        "--train", str(data / "train.csv"), "--teacher", str(teacher), "--epochs", "1"]
    if via == "argv":
        given = [f"--{key}={value}"]
    else:
        conf = tmp_path / "number.conf"
        conf.write_text(f"{key}={value}\n", encoding="utf-8")
        given = ["--config", str(conf)]
    out = tmp_path / "out"
    assert cli.main([command, *inputs, *given, "--out", str(out)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f"{message}\n")
    assert not out.exists()


@pytest.mark.parametrize("command,flag,typ", [("distill", "epochs", "int"),
                                              ("gen-data", "spread", "float"),
                                              ("distill", "mode", "str")])
def test_a_flag_given_as_double_dash_quotes_what_was_typed(setup, tmp_path, capsys, command,
                                                           flag, typ):
    # argparse hands --flag=-- over as [], not as the text '--'
    _, data, teacher = setup
    inputs = [] if command == "gen-data" else [
        "--train", str(data / "train.csv"), "--teacher", str(teacher)]
    out = tmp_path / "out"
    assert cli.main([command, *inputs, f"--{flag}=--", "--out", str(out)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: --{flag} '--' is not a valid {typ}\n"
    assert not out.exists()
