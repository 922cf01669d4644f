#!/usr/bin/env python3
"""Benchmark of the rectidistill CLI, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload paper-k4 --seed 1 --seconds 40 --trace 0

One process runs one workload in-process through ``rectidistill.cli.main``
on inputs generated from ``--seed``. Set-up imports the package and calls
``gen-data`` five times (the median counts). Then it repeats a cycle of
``train-teacher``, the workload's ``distill`` calls and the ``prop-check``
sweep, at least twice and for as long as another cycle still fits in
``--seconds``. Each timing metric is the median over its calls, scaled to a
reference machine speed by a probe run around every call (see REF_PROBE_S).
Every call's outputs are checked; a call that exits non-zero, writes a bad
artifact, or differs byte-wise from the same call in an earlier cycle counts
as failed.

``--trace 0`` reports the end-to-end metrics, timed with tracing off.
``--trace 1`` runs the cycle once untraced and once with every function in
LAYER_FUNCTIONS wrapped by ``tracer.Tracer``, and reports per-layer counts
and times plus the tracing overhead. The last stdout line is one JSON
object; the command exits 1 when any check failed, and 2 when the package
source is not next to the benchmark.
"""

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
from tracer import Tracer  # noqa: E402

# One BLAS thread: the training loops are single-threaded by contract, and a
# second thread on a shared 2-core machine adds noise, not speed.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The host is shared: identical calls drift by +-20% over minutes as other
# tenants load it, and medians within one run cannot remove that.  So each
# CLI call is timed between two runs of speed_probe(), fixed work that does
# not use the package, and its wall time is scaled by REF_PROBE_S over the
# mean of the two probe times: every timing is reported at the machine speed
# at which the probe takes REF_PROBE_S.  Raw wall times go to the details line.
REF_PROBE_S = 0.06
PROBE_ROUNDS = 3000

SETUP_REPS = 5
MIN_CYCLES = 2

# CLI defaults, passed explicitly so that a new default does not silently
# change a workload.
SPREAD = 1.2
TEACHER_LR = 0.1

PAPER_MODES = ("full", "eliminate", "rectify", "vanilla", "step-b", "fixed-gamma=0.5")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    classes: int
    per_class: int
    val_per_class: int
    dim: int
    teacher_hidden: int
    teacher_epochs: int
    student_hidden: int
    distill_epochs: int
    distill_lr: float
    batch_size: int
    modes: tuple = ("full",)

    @property
    def n_train(self) -> int:
        return self.classes * self.per_class

    @property
    def teacher_dims(self) -> str:
        return f"{self.dim},{self.teacher_hidden},{self.classes}"

    @property
    def student_dims(self) -> str:
        return f"{self.dim},{self.student_hidden},{self.classes}"


# The wide student trains at 10x the CLI default lr, so that val_acc is far
# from chance and steady across seeds.
WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="paper-k4",
            why="the paper's task: 4 blobs, 13 batches of 32 per epoch, six distill modes "
            "and the prop-check sweep; per-call overhead dominates, ~7.5% of rows biased",
            classes=4, per_class=100, val_per_class=500, dim=2,
            teacher_hidden=64, teacher_epochs=200,
            student_hidden=8, distill_epochs=60, distill_lr=0.005,
            batch_size=32, modes=PAPER_MODES,
        ),
        Workload(
            name="wide-k100",
            why="k=100, d=32, n=20k at batch 256: ~54% of rows biased, so per-row "
            "rectification dominates distill; a 12.5 MB CSV parse weighs on the teacher",
            classes=100, per_class=200, val_per_class=50, dim=32,
            teacher_hidden=256, teacher_epochs=2,
            student_hidden=32, distill_epochs=2, distill_lr=0.05,
            batch_size=256,
        ),
    )
}

CLI_SUBCOMMANDS = ("gen-data", "train-teacher", "distill", "prop-check")

LAYER_FUNCTIONS = (
    "data.make_blobs", "data.save_csv", "data.load_csv", "data.epoch_permutation",
    "model.forward", "model.backward", "model.sgd_step", "model.evaluate",
    "model.save_checkpoint", "model.load_checkpoint",
    "numerics.softmax_rows", "numerics.as_prob_vector",
    "partition.build_mask", "partition.split_batch",
    "rectify.rectify_sample",
    "schedule.compute_batch_loss", "schedule.batch_loss_gradient",
    "train.train_teacher", "train.distill",
    "analysis.sweep", "analysis.run_dynamics",
)

# Modules whose functions make up the distillation loss path.
LOSS_PATH = ("schedule.", "partition.", "rectify.", "numerics.as_prob_vector")

DERIVED_METRICS = (
    ("rectify.rectify_sample.calls_per_biased_row", "ratio", "lower"),
    ("numerics.as_prob_vector.calls_per_row", "ratio", "lower"),
    ("data.load_csv.mb_per_s", "MiB/s", "higher"),
    ("trace_overhead_frac", "ratio", "lower"),
)

END_TO_END = (
    ("setup_s", "s"),
    ("teacher_samples_per_s", "samples/s"),
    ("distill_samples_per_s", "samples/s"),
    ("prop_check_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("val_acc", "fraction"),
    ("ok_fraction", "ratio"),
)


def layer_metric_names():
    """(name, unit, better) of every metric a traced run reports."""
    names = [f"cli.{sub}" for sub in CLI_SUBCOMMANDS] + list(LAYER_FUNCTIONS)
    out = []
    for name in names:
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.total_s", "s", "lower"),
                (f"{name}.self_s", "s", "lower")]
    return out + list(DERIVED_METRICS)


def speed_probe() -> float:
    """Seconds for a fixed mix of small numpy calls and Python float work."""
    import numpy as np

    x = np.linspace(-1.0, 1.0, 256).reshape(32, 8)
    w = np.linspace(-0.5, 0.5, 64).reshape(8, 8)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(PROBE_ROUNDS):
        h = np.maximum(x @ w, 0.0)
        e = np.exp(h - h.max(axis=1, keepdims=True))
        e /= e.sum(axis=1, keepdims=True)
        for v in e[i % 32]:
            acc += math.log(float(v) + 1.0)
    return time.perf_counter() - t0


def _digest(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def _read_metrics_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Session:
    """Makes the CLI calls of one run and counts attempts and failures."""

    def __init__(self, cli, load_checkpoint, work: Path):
        self.cli = cli
        self.load_checkpoint = load_checkpoint  # the untraced original
        self.work = work
        self.attempted = 0
        self.failures = {}  # call number -> first reason
        self.first_digest = {}  # output dir -> digest from the first cycle
        self.tracer = None  # set while a traced phase runs
        self.probes = []  # speed_probe() seconds, one before each call and one after the last
        self.raw_s = []  # (subcommand, wall seconds) per call

    def call(self, argv):
        """Run one CLI call; return (call number, probe-scaled wall seconds)."""
        if not self.probes:
            self.probes.append(speed_probe())
        self.attempted += 1
        number = self.attempted
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if self.tracer is not None:
                    rc = self.tracer.call(f"cli.{argv[0]}", self.cli.main, argv)
                else:
                    rc = self.cli.main(argv)
        except Exception:  # any crash of the program under test is a failed call
            rc = None
            sink.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
        self.probes.append(speed_probe())
        self.raw_s.append((argv[0], seconds))
        if rc != 0:
            self.fail(number, f"{argv[0]} exited {rc}: {sink.getvalue()[-400:].strip()}")
        return number, seconds * 2 * REF_PROBE_S / (self.probes[-2] + self.probes[-1])

    @contextlib.contextmanager
    def traced(self, tracer):
        """CLI calls inside the block run as root spans of ``tracer``."""
        self.tracer = tracer
        try:
            with tracer:
                yield
        finally:
            self.tracer = None

    def fail(self, number, reason):
        self.failures.setdefault(number, reason)

    def check(self, number, what, fn):
        """Run one output check of call ``number``; any exception fails the call."""
        if number in self.failures:
            return
        try:
            fn()
        except Exception as exc:  # a check that cannot even run is a failed check
            self.fail(number, f"{what}: {type(exc).__name__}: {exc}")

    def check_same(self, number, out_dir, *files):
        """Outputs of a repeated call must be byte-identical to the first cycle's."""
        digest = _digest(*(Path(out_dir) / f for f in files))
        first = self.first_digest.setdefault(str(out_dir), digest)
        if digest != first:
            self.fail(number, f"{out_dir}: {', '.join(files)} differ from the first cycle")


def _check_ckpt(session, path, dims):
    def run():
        params = session.load_checkpoint(path)
        got = [params.weights[0].shape[1]] + [w.shape[0] for w in params.weights]
        want = [int(v) for v in dims.split(",")]
        if got != want:
            raise ValueError(f"checkpoint dims {got} != {want}")
    return run


def _check_metrics(path, epochs):
    def run():
        rows = _read_metrics_csv(path)
        if len(rows) != epochs:
            raise ValueError(f"{len(rows)} rows for {epochs} epochs")
        for row in rows:
            for key, value in row.items():
                if not math.isfinite(float(value)):
                    raise ValueError(f"non-finite {key}={value}")
    return run


def _check_summary(path):
    def run():
        value = json.loads(Path(path).read_text())["final_val_acc"]
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"final_val_acc={value} is not a fraction")
    return run


def gen_data(session, wl, seed):
    out = session.work / "data"
    number, seconds = session.call([
        "gen-data", "--classes", str(wl.classes), "--per-class", str(wl.per_class),
        "--val-per-class", str(wl.val_per_class), "--dim", str(wl.dim),
        "--spread", repr(SPREAD), "--seed", str(seed), "--out", str(out),
    ])
    session.check(number, "determinism",
                  lambda: session.check_same(number, out, "train.csv", "val.csv"))
    return seconds


@dataclasses.dataclass
class Cycle:
    """Probe-scaled seconds of one cycle's calls, and what they produced."""

    teacher_s: float
    distill_s: list
    prop_check_s: float
    val_acc: float
    biased_rows: int  # summed over every distill call's epochs


def run_cycle(session, wl, seed) -> Cycle:
    work = session.work
    data = ["--train", str(work / "data" / "train.csv"), "--val", str(work / "data" / "val.csv")]
    teacher = work / "teacher"
    common = [*data, "--batch-size", str(wl.batch_size), "--seed", str(seed)]

    number, teacher_s = session.call([
        "train-teacher", *common, "--dims", wl.teacher_dims, "--epochs", str(wl.teacher_epochs),
        "--lr", repr(TEACHER_LR), "--out", str(teacher),
    ])
    session.check(number, "teacher.ckpt", _check_ckpt(session, teacher / "teacher.ckpt",
                                                      wl.teacher_dims))
    session.check(number, "teacher_metrics.csv",
                  _check_metrics(teacher / "teacher_metrics.csv", wl.teacher_epochs))
    session.check(number, "determinism",
                  lambda: session.check_same(number, teacher, "teacher.ckpt",
                                             "teacher_metrics.csv"))

    distill_s, val_acc, biased = [], 0.0, 0
    for mode in wl.modes:
        out = work / f"distill-{mode.replace('=', '-')}"
        number, seconds = session.call([
            "distill", *common, "--teacher", str(teacher / "teacher.ckpt"),
            "--dims", wl.student_dims, "--epochs", str(wl.distill_epochs),
            "--lr", repr(wl.distill_lr), "--mode", mode, "--out", str(out),
        ])
        distill_s.append(seconds)
        session.check(number, "student.ckpt", _check_ckpt(session, out / "student.ckpt",
                                                          wl.student_dims))
        session.check(number, "metrics.csv", _check_metrics(out / "metrics.csv",
                                                            wl.distill_epochs))
        session.check(number, "determinism",
                      lambda: session.check_same(number, out, "student.ckpt", "metrics.csv"))
        if number in session.failures:
            continue
        for row in _read_metrics_csv(out / "metrics.csv"):
            biased += round((1.0 - float(row["teacher_right_fraction"])) * wl.n_train)
        if mode == "full":
            session.check(number, "summary.json", _check_summary(out / "summary.json"))
            if number not in session.failures:
                val_acc = json.loads((out / "summary.json").read_text())["final_val_acc"]

    out = work / "prop-check"
    number, prop_check_s = session.call(["prop-check", "--out", str(out)])
    session.check(number, "sweep.csv", lambda: session.check_same(number, out, "sweep.csv"))
    return Cycle(teacher_s, distill_s, prop_check_s, val_acc, biased)


def _cycle_s(c: Cycle) -> float:
    return c.teacher_s + sum(c.distill_s) + c.prop_check_s


def _end_to_end(wl, cycles, setup_s, session):
    n = wl.n_train
    return {
        "setup_s": setup_s,
        "teacher_samples_per_s": statistics.median(
            n * wl.teacher_epochs / c.teacher_s for c in cycles),
        "distill_samples_per_s": statistics.median(
            n * wl.distill_epochs / s for c in cycles for s in c.distill_s),
        "prop_check_s": statistics.median(c.prop_check_s for c in cycles),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "val_acc": cycles[-1].val_acc,
        "ok_fraction": 1.0 - len(session.failures) / session.attempted,
    }


def _layer_metrics(wl, tracer, traced, untraced_s, traced_s):
    totals = tracer.totals()
    distill = tracer.totals("cli.distill")
    metrics = {}
    for name, unit, _ in layer_metric_names():
        base, _, stat = name.rpartition(".")
        if stat in ("calls", "total_s", "self_s"):
            calls, total, self_s = totals.get(base, (0, 0.0, 0.0))
            metrics[name] = {"calls": calls, "total_s": total, "self_s": self_s}[stat]
    rectify_calls = distill.get("rectify.rectify_sample", (0,))[0]
    validate_calls = distill.get("numerics.as_prob_vector", (0,))[0]
    rows = wl.n_train * wl.distill_epochs * len(traced.distill_s)
    load_s = totals.get("data.load_csv", (0, 0.0))[1]
    load_mb = tracer.bytes_read.get("data.load_csv", 0) / 2**20
    metrics.update({
        "rectify.rectify_sample.calls_per_biased_row":
            rectify_calls / traced.biased_rows if traced.biased_rows else 0.0,
        "numerics.as_prob_vector.calls_per_row": validate_calls / rows,
        "data.load_csv.mb_per_s": load_mb / load_s if load_s else 0.0,
        "trace_overhead_frac": (traced_s - untraced_s) / untraced_s,
    })
    return metrics


def _trace_report(tracer):
    """Per CLI subcommand: total time, and each function's calls and self time."""
    report = {}
    for root in tracer.roots():
        per = tracer.totals(root)
        root_total = per[root][1]
        loss_self = sum(s for name, (_, _, s) in per.items() if name.startswith(LOSS_PATH))
        report[root] = {
            "total_s": root_total,
            "loss_path_self_share": loss_self / root_total if root_total else 0.0,
            "by_self_time": [[name, c, s, s / root_total]
                             for name, (c, _, s) in sorted(per.items(), key=lambda kv: -kv[1][2])],
        }
    return report


def run_workload(wl, seed, seconds, trace, work: Path, import_s=0.0):
    """Run one workload; return (result object for the last line, details)."""
    from rectidistill import cli
    from rectidistill.model import load_checkpoint

    session = Session(cli, load_checkpoint, work)
    tracer = Tracer(LAYER_FUNCTIONS, byte_args=("data.load_csv",))
    with session.traced(tracer) if trace else contextlib.nullcontext():
        gen_s = [gen_data(session, wl, seed) for _ in range(SETUP_REPS)]
    # The import ran before numpy could be probed: scale it by the first probe.
    setup_s = import_s * REF_PROBE_S / session.probes[0] + statistics.median(gen_s)
    details = {}

    if trace:
        untraced = run_cycle(session, wl, seed)
        with session.traced(tracer):
            traced = run_cycle(session, wl, seed)
        details["cycle_s"] = [_cycle_s(untraced), _cycle_s(traced)]
        metrics = _layer_metrics(wl, tracer, traced, *details["cycle_s"])
        units = {name: unit for name, unit, _ in layer_metric_names()}
        details["trace_missing"] = tracer.missing
        details["trace_by_cli_call"] = _trace_report(tracer)
    else:
        cycles, wall_s = [], []
        t_measure = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            cycles.append(run_cycle(session, wl, seed))
            wall_s.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - t_measure
            if len(cycles) >= MIN_CYCLES and elapsed + max(wall_s) > seconds:
                break
        metrics = _end_to_end(wl, cycles, setup_s, session)
        units = dict(END_TO_END)
        details["cycle_s"] = [_cycle_s(c) for c in cycles]
        details["failed_fraction"] = len(session.failures) / session.attempted

    details["failures"] = [session.failures[k] for k in sorted(session.failures)]
    details["probe_s_median"] = statistics.median(session.probes)
    details["raw_wall_s"] = {}
    for name, wall in session.raw_s:
        details["raw_wall_s"].setdefault(name, []).append(wall)
    result = {
        "correct": not session.failures,
        "attempted": session.attempted,
        "failed": len(session.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return result, details


def _git_sha(root: Path):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_info(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "numpy_blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": _git_sha(ROOT),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "rectidistill" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2

    for key in BLAS_ENV:
        os.environ.setdefault(key, "1")
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy as np
    import rectidistill.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    # Imports that module loading does not pay for, so that the tracer
    # finds every layer module already bound.
    for name in {f.split(".")[0] for f in LAYER_FUNCTIONS}:
        with contextlib.suppress(ImportError):
            __import__(f"rectidistill.{name}")

    wl = WORKLOADS[args.workload]
    work = WORK_ROOT / f"{wl.name}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result, details = run_workload(wl, args.seed, args.seconds, args.trace, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    print("machine " + json.dumps(machine_info(np), sort_keys=True))
    print("details " + json.dumps(details, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{wl.name} {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"{wl.name} failed_fraction = {details['failed_fraction']:.6g} ratio")
    for reason in details["failures"]:
        print(f"FAILED: {reason}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    # A terminated run still removes its scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.exit(main())
