"""Experiment driver.

Subcommands: gen-data, train-teacher, distill, ablate, prop-check.

Configuration precedence: command-line flags override the ``--config``
file (flat ``key=value`` lines, keys mirror long flag names) which
overrides built-in defaults. The merged config is persisted verbatim into
the output directory as ``config.txt``. The default output root is
``$RECTIDISTILL_OUT`` or ``./runs``.

Exit codes: 0 success, 1 internal error, 2 usage/config error,
3 verification failure.
"""

import argparse
import json
import os
import statistics
import sys

import numpy as np

from . import analysis, model, train
from .data import Dataset, load_csv, make_blobs, save_csv
from .errors import ConfigError, RectiDistillError

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_VERIFICATION = 3

MODE_FLAGS = {
    "full": "full",
    "eliminate": "eliminate_only",
    "rectify": "rectify_only",
    "vanilla": "vanilla_kd",
    "step-b": "step_b_ablation",
}


def _out_root() -> str:
    return os.environ.get("RECTIDISTILL_OUT", "runs")


def _parse_mode(flag: str) -> tuple[str, float | None]:
    if flag in MODE_FLAGS:
        return MODE_FLAGS[flag], None
    if flag.startswith("fixed-gamma="):
        try:
            g = float(flag.split("=", 1)[1])
        except ValueError:
            raise ConfigError(f"malformed fixed-gamma value in {flag!r}") from None
        if not 0.0 <= g < 1.0:
            raise ConfigError(f"fixed-gamma must lie in [0, 1), got {g}")
        return "fixed_gamma", g
    raise ConfigError(
        f"unknown mode {flag!r}; expected one of "
        f"{sorted(MODE_FLAGS)} or fixed-gamma=G"
    )


def _parse_dims(text: str) -> list[int]:
    try:
        dims = [int(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"malformed dims {text!r}; expected e.g. 2,64,4") from None
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ConfigError(f"dims need >= 2 positive widths, got {dims}")
    return dims


def _read_config_file(path: str) -> dict[str, str]:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def _merge_config(defaults: dict, types: dict, args: argparse.Namespace) -> dict:
    """defaults < config file < explicit command-line flags."""
    merged = dict(defaults)
    if getattr(args, "config", None):
        for key, raw in _read_config_file(args.config).items():
            if key not in defaults:
                raise ConfigError(f"unknown config key {key!r}")
            merged[key] = types[key](raw)
    for key in defaults:
        cli_value = getattr(args, key.replace("-", "_"), None)
        if cli_value is not None:
            merged[key] = cli_value
    return merged


def _persist_config(merged: dict, out_dir: str) -> None:
    lines = [f"{k}={merged[k]}" for k in sorted(merged)]
    with open(os.path.join(out_dir, "config.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _require_file(path: str, what: str) -> None:
    if not path or not os.path.exists(path):
        raise ConfigError(f"{what} not found: {path!r}")


def _load_datasets(cfg: dict) -> tuple[Dataset, Dataset | None]:
    _require_file(cfg["train"], "training dataset")
    train_ds = load_csv(cfg["train"])
    val_ds = None
    if cfg.get("val"):
        _require_file(cfg["val"], "validation dataset")
        val_ds = load_csv(cfg["val"])
    return train_ds, val_ds


def cmd_gen_data(args) -> int:
    defaults = {
        "classes": 4,
        "per-class": 100,
        "val-per-class": 500,
        "dim": 2,
        "spread": 1.2,
        "seed": 1,
        "out": os.path.join(_out_root(), "data"),
    }
    types = {"classes": int, "per-class": int, "val-per-class": int, "dim": int,
             "spread": float, "seed": int, "out": str}
    cfg = _merge_config(defaults, types, args)
    os.makedirs(cfg["out"], exist_ok=True)
    _persist_config(cfg, cfg["out"])

    # One draw shared by both splits so class centers match exactly.
    per_total = cfg["per-class"] + cfg["val-per-class"]
    full = make_blobs(cfg["classes"], per_total, cfg["dim"], cfg["spread"], cfg["seed"])
    train_idx, val_idx = [], []
    for c in range(cfg["classes"]):
        start = c * per_total
        train_idx.extend(range(start, start + cfg["per-class"]))
        val_idx.extend(range(start + cfg["per-class"], start + per_total))
    for name, idx in (("train", train_idx), ("val", val_idx)):
        subset = Dataset(
            features=full.features[idx],
            labels=full.labels[idx],
            n_classes=full.n_classes,
        )
        save_csv(subset, os.path.join(cfg["out"], f"{name}.csv"))
    with open(os.path.join(cfg["out"], "manifest.json"), "w") as fh:
        json.dump({k: cfg[k] for k in sorted(cfg) if k != "out"}, fh, sort_keys=True)
        fh.write("\n")
    print(f"wrote train.csv ({cfg['classes'] * cfg['per-class']} rows) and "
          f"val.csv ({cfg['classes'] * cfg['val-per-class']} rows) to {cfg['out']}")
    return EXIT_OK


def cmd_train_teacher(args) -> int:
    defaults = {
        "train": "", "val": "", "dims": "2,64,4", "epochs": 200, "lr": 0.1,
        "momentum": 0.9, "batch-size": 32, "seed": 0,
        "out": os.path.join(_out_root(), "teacher"),
    }
    types = {"train": str, "val": str, "dims": str, "epochs": int, "lr": float,
             "momentum": float, "batch-size": int, "seed": int, "out": str}
    cfg = _merge_config(defaults, types, args)
    tc = train.TrainConfig(
        learning_rate=cfg["lr"], momentum=cfg["momentum"], epochs=cfg["epochs"],
        batch_size=cfg["batch-size"], seed=cfg["seed"],
    )
    train_ds, val_ds = _load_datasets(cfg)
    os.makedirs(cfg["out"], exist_ok=True)
    _persist_config(cfg, cfg["out"])

    params, rows = train.train_teacher(train_ds, _parse_dims(cfg["dims"]), tc, val_ds)
    model.save_checkpoint(params, os.path.join(cfg["out"], "teacher.ckpt"))
    train.write_metrics_csv(
        rows, os.path.join(cfg["out"], "teacher_metrics.csv"),
        columns=train.TEACHER_METRICS_COLUMNS,
    )
    final = rows[-1]
    print(f"teacher train_acc={final['train_acc']:.4f} val_acc={final['val_acc']:.4f}")
    return EXIT_OK


def _distill_once(cfg: dict, mode: str, fixed_gamma, seed: int):
    train_ds, val_ds = _load_datasets(cfg)
    teacher = model.load_checkpoint(cfg["teacher"])
    tc = train.TrainConfig(
        learning_rate=cfg["lr"], momentum=cfg["momentum"], epochs=cfg["epochs"],
        batch_size=cfg["batch-size"], seed=seed, tau=cfg["tau"],
        mode=mode, fixed_gamma=fixed_gamma,
    )
    return train.distill(teacher, _parse_dims(cfg["dims"]), train_ds, tc, val_ds)


_DISTILL_DEFAULTS = {
    "train": "", "val": "", "teacher": "", "dims": "2,8,4", "mode": "full",
    "epochs": 60, "lr": 0.005, "momentum": 0.9, "batch-size": 32, "seed": 1,
    "tau": 1.0,
}
_DISTILL_TYPES = {
    "train": str, "val": str, "teacher": str, "dims": str, "mode": str,
    "epochs": int, "lr": float, "momentum": float, "batch-size": int,
    "seed": int, "tau": float, "out": str, "seeds": int,
}


def cmd_distill(args) -> int:
    defaults = dict(_DISTILL_DEFAULTS, out=os.path.join(_out_root(), "distill"))
    cfg = _merge_config(defaults, _DISTILL_TYPES, args)
    mode, fixed_gamma = _parse_mode(cfg["mode"])
    _require_file(cfg["teacher"], "teacher checkpoint")
    student, rows = _distill_once(cfg, mode, fixed_gamma, cfg["seed"])
    os.makedirs(cfg["out"], exist_ok=True)
    _persist_config(cfg, cfg["out"])
    model.save_checkpoint(student, os.path.join(cfg["out"], "student.ckpt"))
    train.write_metrics_csv(rows, os.path.join(cfg["out"], "metrics.csv"))
    final = rows[-1]
    summary = {
        "mode": cfg["mode"], "seed": cfg["seed"], "epochs": cfg["epochs"],
        "final_val_acc": final["val_acc"], "final_train_acc": final["train_acc"],
        "final_loss_total": final["loss_total"],
    }
    with open(os.path.join(cfg["out"], "summary.json"), "w") as fh:
        json.dump(summary, fh, sort_keys=True)
        fh.write("\n")
    print(f"distill mode={cfg['mode']} seed={cfg['seed']} "
          f"val_acc={final['val_acc']:.4f}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    defaults = dict(_DISTILL_DEFAULTS, seeds=5, out=os.path.join(_out_root(), "ablate"))
    del defaults["mode"]
    cfg = _merge_config(defaults, _DISTILL_TYPES, args)
    _require_file(cfg["teacher"], "teacher checkpoint")
    os.makedirs(cfg["out"], exist_ok=True)
    _persist_config(cfg, cfg["out"])

    results = []  # (seed, mode_label, val_acc)
    for offset in range(cfg["seeds"]):
        seed = cfg["seed"] + offset
        for label, mode in (("step-b", "step_b_ablation"), ("step-c", "full")):
            _, rows = _distill_once(cfg, mode, None, seed)
            results.append((seed, label, rows[-1]["val_acc"]))

    lines = ["seed,mode,val_acc"]
    lines += [f"{s},{m},{acc!r}" for s, m, acc in results]
    for label in ("step-b", "step-c"):
        med = statistics.median(acc for _, m, acc in results if m == label)
        lines.append(f"median,{label},{med!r}")
    with open(os.path.join(cfg["out"], "ablation.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")

    print(f"{'seed':>6}  {'mode':<7} val_acc")
    for s, m, acc in results:
        print(f"{s:>6}  {m:<7} {acc:.4f}")
    for label in ("step-b", "step-c"):
        med = statistics.median(acc for _, m, acc in results if m == label)
        print(f"{'median':>6}  {label:<7} {med:.4f}")
    return EXIT_OK


def cmd_prop_check(args) -> int:
    defaults = {"ta": None, "out": os.path.join(_out_root(), "prop-check")}
    types = {"ta": float, "out": str}
    cfg = _merge_config(defaults, types, args)

    if cfg["ta"] is not None:
        ta = cfg["ta"]
        if not 0.0 < ta < 1.0:
            raise ConfigError(f"--ta must lie in (0, 1), got {ta}")
        s_star = analysis.two_class_optimum(analysis.TwoClassSetup(t_a=ta))
        print(f"t_a={ta} s*={s_star:.6f}")
        return EXIT_OK

    os.makedirs(cfg["out"], exist_ok=True)
    _persist_config(cfg, cfg["out"])
    grid = [round(0.05 * i, 2) for i in range(1, 20)]
    rows = analysis.sweep(grid)
    analysis.write_sweep_csv(rows, os.path.join(cfg["out"], "sweep.csv"))

    failures = []
    for row in rows:
        setup = analysis.TwoClassSetup(t_a=row.t_a)
        report = analysis.run_dynamics(setup)
        if abs(report.s_converged - row.s_unrect) > 1e-4:
            failures.append((row.t_a, "descent disagrees with grid optimum"))
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


def _add_common(sub: argparse.ArgumentParser, keys: dict) -> None:
    sub.add_argument("--config", help="flat key=value config file")
    for key, typ in keys.items():
        sub.add_argument(f"--{key}", type=typ, default=None, dest=key.replace("-", "_"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rectidistill")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gen-data", help="generate a blob classification dataset")
    _add_common(p, {"classes": int, "per-class": int, "val-per-class": int,
                    "dim": int, "spread": float, "seed": int, "out": str})
    p.set_defaults(func=cmd_gen_data)

    p = subs.add_parser("train-teacher", help="train the frozen teacher with plain CE")
    _add_common(p, {"train": str, "val": str, "dims": str, "epochs": int, "lr": float,
                    "momentum": float, "batch-size": int, "seed": int, "out": str})
    p.set_defaults(func=cmd_train_teacher)

    p = subs.add_parser("distill", help="distill the teacher into a student")
    _add_common(p, {"train": str, "val": str, "teacher": str, "dims": str,
                    "mode": str, "epochs": int, "lr": float, "momentum": float,
                    "batch-size": int, "seed": int, "tau": float, "out": str})
    p.set_defaults(func=cmd_distill)

    p = subs.add_parser("ablate", help="compare step-b vs step-c across seeds")
    _add_common(p, {"train": str, "val": str, "teacher": str, "dims": str,
                    "epochs": int, "lr": float, "momentum": float,
                    "batch-size": int, "seed": int, "tau": float,
                    "seeds": int, "out": str})
    p.set_defaults(func=cmd_ablate)

    p = subs.add_parser("prop-check", help="verify the two-class bias analysis")
    _add_common(p, {"ta": float, "out": str})
    p.set_defaults(func=cmd_prop_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
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
