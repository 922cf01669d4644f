"""Experiment driver.

Subcommands: gen-data, train-teacher, distill, ablate, prop-check.

Each subcommand's flags are declared once, in ``COMMANDS``; the parser,
the config-file keys and types, and the defaults all come from that table.
Command-line flags override the ``--config`` file (flat ``key=value``
lines, keys mirror long flag names) which overrides the defaults. The
merged config is persisted verbatim into the output directory as
``config.txt``, one ``key=value`` line per flag; every flag has a value,
so ``--config`` reads the file back to the same config. The parser passes
each flag's text through, and ``_merge_config`` converts flag and config
text alike: an int or float flag by ``data.parse_number``, which, as the
file readers do, takes no ``_`` and no non-ASCII digit. The default
output root is ``$RECTIDISTILL_OUT`` or ``./runs``. ``--mode`` passes as
typed to ``train.TrainConfig``, its one parser and check.

Exit codes: 0 success, 1 internal error, 2 usage/config error (raised
before any output is written), 3 verification failure.
"""

import argparse
import dataclasses
import json
import math
import os
import statistics
import sys

import numpy as np

from . import analysis, model, train
from .data import (TEXT, Dataset, atomic_write, blob_splits, load_csv, parse_number, save_csv,
                   write_table)
from .errors import ConfigError, RectiDistillError

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_VERIFICATION = 3

def _out_root() -> str:
    return os.environ.get("RECTIDISTILL_OUT", "runs")


def _parse_dims(text: str) -> list[int]:
    dims = [parse_number(int, v) for v in text.split(",")]
    if None in dims:
        raise ConfigError(f"malformed dims {text!r}; expected e.g. 2,64,4")
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ConfigError(f"dims need >= 2 positive widths, got {dims}")
    if dims[-1] < 2:
        raise ConfigError(f"dims need an output width of >= 2 classes, got {dims}")
    return dims


def _require_file(path: str, what: str) -> None:
    if not path or not os.path.isfile(path):  # a directory is a usage error too, not an I/O one
        raise ConfigError(f"{what} is not an existing file: {path!r}")


def _require_out_dir(path: str) -> None:
    if not path:
        raise ConfigError("--out is empty; it must name a directory")
    head = path  # the run writes there, so it and each existing parent must be directories
    while head and not os.path.isdir(head):
        if os.path.lexists(head):
            raise ConfigError(f"--out {path!r}: {head!r} is not a directory")
        head = os.path.dirname(head)


def _read_config_file(path: str) -> dict[str, str]:
    _require_file(path, "config file")
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    with open(path, **TEXT) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in first_line:
                raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line {first_line[key]}")
            first_line[key] = lineno
            values[key] = value
    return values


def _flags(command: str) -> dict:
    """The command's table flags plus ``out``, its default resolved now."""
    _, _, out_subdir, flags = COMMANDS[command]
    return {**flags, "out": (str, os.path.join(_out_root(), out_subdir))}


def _merge_config(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit command-line flags, each text converted one way."""
    flags = _flags(args.command)
    merged = {key: default for key, (_, default) in flags.items()}
    given = []  # (key, text, where the text came from), in the order they override
    for key, raw in (_read_config_file(args.config) if args.config else {}).items():
        if key not in flags:
            raise ConfigError(f"{args.config}: unknown config key {key!r}")
        given.append((key, raw, f"{args.config}: {key}={raw!r}"))
    for key in flags:
        raw = getattr(args, key.replace("-", "_"))
        if raw is not None:
            # argparse yields [] for --flag=--, which no flag takes; quote what was typed
            given.append((key, raw, f"--{key} {raw if isinstance(raw, str) else '--'!r}"))
    for key, raw, where in given:
        typ = flags[key][0]
        value = raw if typ is str or not isinstance(raw, str) else parse_number(typ, raw)
        if not isinstance(value, typ):
            raise ConfigError(f"{where} is not a valid {typ.__name__}")
        merged[key] = value
    _require_out_dir(merged["out"])
    return merged


def _persist_config(cfg: dict) -> None:
    """Create the output directory and write the merged config to config.txt."""
    os.makedirs(cfg["out"], exist_ok=True)
    with atomic_write(os.path.join(cfg["out"], "config.txt")) as fh:
        fh.writelines(f"{k}={cfg[k]}\n" for k in sorted(cfg))


def _write_json(path: str, obj: dict) -> None:
    with atomic_write(path) as fh:
        json.dump(obj, fh, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _load_dataset(path: str, what: str, n_classes: int) -> Dataset:
    _require_file(path, what)
    return load_csv(path, n_classes)


def _load_datasets(cfg: dict, n_classes: int) -> tuple[Dataset, Dataset | None]:
    """Load --train and --val at the model's class count; ``train`` checks that the model fits."""
    train_ds = _load_dataset(cfg["train"], "training dataset", n_classes)
    val_ds = None
    if cfg["val"]:
        val_ds = _load_dataset(cfg["val"], "validation dataset", n_classes)
    return train_ds, val_ds


def _load_distill_inputs(cfg: dict):
    """Student dims, teacher and datasets; the class count is the teacher's output width."""
    dims = _parse_dims(cfg["dims"])
    _require_file(cfg["teacher"], "teacher checkpoint")
    teacher = model.load_checkpoint(cfg["teacher"])
    return (dims, teacher, *_load_datasets(cfg, teacher.dims[-1]))


def _train_config(cfg: dict, **extra) -> train.TrainConfig:
    return train.TrainConfig(
        learning_rate=cfg["lr"], epochs=cfg["epochs"], batch_size=cfg["batch-size"],
        seed=cfg["seed"], **extra,
    )


def cmd_gen_data(cfg: dict) -> int:
    for key, low in (("classes", 2), ("per-class", 1), ("val-per-class", 1), ("dim", 1),
                     ("seed", 0)):
        if cfg[key] < low:
            raise ConfigError(f"{key} must be >= {low}, got {cfg[key]}")
    if not 0.0 < cfg["spread"] < math.inf:
        raise ConfigError(f"spread must be finite and > 0, got {cfg['spread']}")
    # Both splits come from one (seed, 0xB1) stream around the same class_centers(seed).
    splits = blob_splits(cfg["classes"], (cfg["per-class"], cfg["val-per-class"]), cfg["dim"],
                         cfg["spread"], cfg["seed"])
    _persist_config(cfg)
    for name, split in zip(("train", "val"), splits):
        save_csv(split, os.path.join(cfg["out"], f"{name}.csv"))
    print(f"wrote train.csv ({cfg['classes'] * cfg['per-class']} rows) and "
          f"val.csv ({cfg['classes'] * cfg['val-per-class']} rows) to {cfg['out']}")
    return EXIT_OK


def cmd_train_teacher(cfg: dict) -> int:
    tc = _train_config(cfg)
    dims = _parse_dims(cfg["dims"])
    train_ds, val_ds = _load_datasets(cfg, dims[-1])
    params, rows = train.train_teacher(train_ds, dims, tc, val_ds)
    _persist_config(cfg)
    model.save_checkpoint(params, os.path.join(cfg["out"], "teacher.ckpt"))
    write_table(os.path.join(cfg["out"], "teacher_metrics.csv"), train.TEACHER_METRICS_COLUMNS,
                [[row[c] for c in train.TEACHER_METRICS_COLUMNS] for row in rows])
    final = rows[-1]
    print(f"teacher train_acc={final['train_acc']:.4f} val_acc={final['val_acc']:.4f}")
    return EXIT_OK


def cmd_distill(cfg: dict) -> int:
    tc = _train_config(cfg, tau=cfg["tau"], mode=cfg["mode"])
    dims, teacher, train_ds, val_ds = _load_distill_inputs(cfg)
    student, rows = train.distill(teacher, dims, train_ds, tc, val_ds)
    _persist_config(cfg)
    model.save_checkpoint(student, os.path.join(cfg["out"], "student.ckpt"))
    write_table(os.path.join(cfg["out"], "metrics.csv"), train.METRICS_COLUMNS,
                [[row[c] for c in train.METRICS_COLUMNS] for row in rows])
    final = rows[-1]
    summary = {
        "mode": cfg["mode"], "seed": cfg["seed"], "epochs": cfg["epochs"],
        "final_val_acc": None if val_ds is None else final["val_acc"],
        "final_train_acc": final["train_acc"],
        "final_loss_total": final["loss_total"],
    }
    _write_json(os.path.join(cfg["out"], "summary.json"), summary)
    print(f"distill mode={cfg['mode']} seed={cfg['seed']} "
          f"val_acc={final['val_acc']:.4f}")
    return EXIT_OK


def cmd_ablate(cfg: dict) -> int:
    if cfg["seeds"] < 1:
        raise ConfigError(f"seeds must be >= 1, got {cfg['seeds']}")
    tc = _train_config(cfg, tau=cfg["tau"])
    if not cfg["val"]:
        raise ConfigError("ablate compares validation accuracy and needs --val")
    dims, teacher, train_ds, val_ds = _load_distill_inputs(cfg)

    modes = ("step-b", "full")
    results = []  # (seed, mode, val_acc)
    for seed in range(cfg["seed"], cfg["seed"] + cfg["seeds"]):
        for mode in modes:
            run = dataclasses.replace(tc, seed=seed, mode=mode)
            _, rows = train.distill(teacher, dims, train_ds, run, val_ds)
            results.append((seed, mode, rows[-1]["val_acc"]))
    medians = {mode: statistics.median(acc for _, m, acc in results if m == mode)
               for mode in modes}

    _persist_config(cfg)
    write_table(os.path.join(cfg["out"], "ablation.csv"), ("seed", "mode", "val_acc"),
                [*results, *(("median", label, med) for label, med in medians.items())])

    print(f"{'seed':>6}  {'mode':<7} val_acc")
    for s, m, acc in results:
        print(f"{s:>6}  {m:<7} {acc:.4f}")
    for mode, med in medians.items():
        print(f"{'median':>6}  {mode:<7} {med:.4f}")
    return EXIT_OK


def cmd_prop_check(cfg: dict) -> int:
    _persist_config(cfg)
    grid = [round(0.05 * i, 2) for i in range(1, 20)]
    rows = analysis.sweep(grid)
    write_table(os.path.join(cfg["out"], "sweep.csv"),
                ("t_a", "s_unrect", "s_rect", "s_ce_only", "verdict"),
                [(r.t_a, r.s_unrect, r.s_rect, r.s_ce_only, r.verdict) for r in rows])

    largest = np.abs(analysis.optimum_gradients(rows)).max(axis=(0, 2))
    failures = []
    for row, grad in zip(rows, largest):
        if not grad <= 1e-12:  # nan fails too
            failures.append((row.t_a, "training-loss gradient is not zero at the closed form"))
        if row.t_a > 0.5 and not (row.t_a < row.s_unrect < 1.0):
            failures.append((row.t_a, "correct-teacher ordering violated"))
        if row.t_a < 0.5 and not row.s_rect > row.s_unrect:
            failures.append((row.t_a, "rectified optimum does not dominate"))

    for row in rows:
        rect = "" if np.isnan(row.s_rect) else f" s_rect={row.s_rect:.6f}"
        print(f"t_a={row.t_a:.2f} s*={row.s_unrect:.6f}{rect} [{row.verdict}]")
    if failures:
        print("FAIL at t_a points:")
        for ta, reason in failures:
            print(f"  t_a={ta:.2f}: {reason}")
        return EXIT_VERIFICATION
    print("PASS: all two-class invariants hold")
    return EXIT_OK


# Flags shared by distill and ablate (ablate is distill over seeds in step-b and full).
_STUDENT_FLAGS = {
    "train": (str, ""), "val": (str, ""), "teacher": (str, ""), "dims": (str, "2,8,4"),
    "epochs": (int, 60), "lr": (float, 0.005), "batch-size": (int, 32), "seed": (int, 1),
    "tau": (float, 1.0),
}

# subcommand -> (handler, help, default output subdirectory, {flag: (type, default)}).
# Every subcommand also takes --config and --out.
COMMANDS = {
    "gen-data": (cmd_gen_data, "generate a blob classification dataset", "data", {
        "classes": (int, 4), "per-class": (int, 100), "val-per-class": (int, 500),
        "dim": (int, 2), "spread": (float, 1.2), "seed": (int, 1),
    }),
    "train-teacher": (cmd_train_teacher, "train the frozen teacher with plain CE", "teacher", {
        "train": (str, ""), "val": (str, ""), "dims": (str, "2,64,4"), "epochs": (int, 200),
        "lr": (float, 0.1), "batch-size": (int, 32), "seed": (int, 0),
    }),
    "distill": (cmd_distill, "distill the teacher into a student", "distill",
                {**_STUDENT_FLAGS, "mode": (str, "full")}),
    "ablate": (cmd_ablate, "compare step-b vs full across seeds", "ablate",
               {**_STUDENT_FLAGS, "seeds": (int, 5)}),
    "prop-check": (cmd_prop_check, "verify the two-class bias analysis", "prop-check", {}),
}


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of the subcommand ``only`` alone.

    A one-subcommand parser names all of them in its usage line, so its
    messages match the full parser's.
    """
    parser = argparse.ArgumentParser(prog="rectidistill")
    subs = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if only is None else "{" + ",".join(COMMANDS) + "}")
    for command in COMMANDS if only is None else (only,):
        sub = subs.add_parser(command, help=COMMANDS[command][1])
        sub.add_argument("--config", help="flat key=value config file")
        for key in _flags(command):
            sub.add_argument(f"--{key}")  # the text, which _merge_config converts
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # Only a call that names no subcommand needs them all (top-level help and errors).
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return COMMANDS[args.command][0](_merge_config(args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RectiDistillError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
