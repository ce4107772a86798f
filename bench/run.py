"""Benchmark of the frugaleval command line on four seeded workloads.

    python3 bench/run.py --workload screen --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

With --trace 0 the workload's command runs again and again, each time in a
fresh child process, one at a time: a closed loop with a single caller,
because frugaleval is a batch tool. It reports the end-to-end metrics. The
benchmark and its children keep to one CPU, and a fixed calibration routine
(calibration.py) is timed before and after every command; wall_s and
setup_s are each run's time scaled by CAL_REF_S over the mean of the two
calibrations around it, so that a spell of load from other tenants of the
host does not read as a change of the program. The unscaled times are
printed and filed too.
With --trace 1 the same command runs in process, alternating untraced and
traced calls, and reports per-layer metrics from the trace (tracing.py)
together with the tracing overhead. --workload all runs every workload in
turn.

Every run's report is checked against the reference the workload computes
(workloads.py); a run that exits non-zero or reports a wrong result counts
as failed. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. A results file with the raw
samples, the exact counts and a stamp of the machine goes to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import importlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import tracing
from calibration import CAL_REF_S, calibrate
from workloads import WORKLOADS, Prepared

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END = [
    ("wall_s", "s", "lower"),
    ("items_per_s", "items/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
    ("setup_s", "s", "lower"),
]
MIN_SAMPLES = 3


@dataclass
class Run:
    """One command run and its verdict."""

    wall: float
    problems: list[str]
    rss_mib: float = 0.0
    report_bytes: int = 0
    covered: float = 0.0
    tracer: tracing.Tracer | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class Outcome:
    """Everything one workload measured, as printed and as filed."""

    metrics: dict[str, tuple[float, str, int]]  # name -> (value, unit, samples)
    runs: list[Run]
    samples: dict[str, list] = field(default_factory=dict)
    exact_counts: dict[str, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(not r.ok for r in self.runs)

    @property
    def correct(self) -> bool:
        return not self.failed and not self.problems

    def every_problem(self) -> list[str]:
        return [p for r in self.runs for p in r.problems] + self.problems


def machine_stamp() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            model = next((line.split(":", 1)[1].strip() for line in cpuinfo
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_model": model,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def read_report(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _report_files(out: Path) -> list[Path]:
    return sorted(out.parent.glob(out.name + "*"))  # the report and its companion


def judge(prepared: Prepared, out: Path, status: int) -> list[str]:
    if status != 0:
        return [f"exit status {status}"]
    try:
        report = read_report(out)
    except (OSError, ValueError) as exc:
        return [f"unreadable report: {exc}"]
    return prepared.check(report)


def run_child(prepared: Prepared, workdir: Path, env: dict[str, str]) -> Run:
    out = workdir / "report.json"
    for stale in _report_files(out):
        stale.unlink()
    argv = [sys.executable, "-m", prepared.module, *prepared.args, "--out", str(out)]
    with open(workdir / "stderr.txt", "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=stderr)
        try:
            # this child's own peak RSS; RUSAGE_CHILDREN would carry the
            # maximum over every earlier child
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    problems = judge(prepared, out, proc.returncode)
    if proc.returncode:
        problems += (workdir / "stderr.txt").read_text(errors="replace").splitlines()[-5:]
    return Run(wall, problems, usage.ru_maxrss / 1024.0,
               sum(p.stat().st_size for p in _report_files(out)))


def _call_main(module, argv: list[str]) -> tuple[int, list[str]]:
    try:
        return module.main(argv), []
    except Exception:  # a crash is a failed run, not the end of the benchmark
        return 1, traceback.format_exc().splitlines()[-3:]


def run_in_process(prepared: Prepared, workdir: Path, tracer: tracing.Tracer | None) -> Run:
    out = workdir / "report.json"
    for stale in _report_files(out):
        stale.unlink()
    argv = [*prepared.args, "--out", str(out)]
    module = importlib.import_module(prepared.module)
    gc.collect()
    with tracing.traced(tracer) if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        status, crash = _call_main(module, argv)
        wall = time.perf_counter() - start
    run = Run(wall, judge(prepared, out, status) + crash,
              report_bytes=sum(p.stat().st_size for p in _report_files(out)), tracer=tracer)
    if tracer is not None:
        run.covered = tracer.covered_s() / wall
    return run


def _keep_going(start: float, seconds: float, walls: list[float]) -> bool:
    if len(walls) < MIN_SAMPLES:
        return True
    return time.perf_counter() - start + statistics.median(walls) <= seconds


@contextlib.contextmanager
def one_cpu():
    """Keep this process, and the children it starts, on one CPU, so that
    the calibrations and the command between them run on the same core."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def measure_end_to_end(make: Callable[[], Prepared], workdir: Path, seconds: float) -> Outcome:
    """Make the inputs, run the command in a fresh child, time the
    calibration routine; repeat. Making the inputs again before every run
    (same seed, same files) samples set-up time across the whole run, as
    wall time is."""
    env = child_env()
    setup_times: list[float] = []
    timed: list[Run] = []
    with one_cpu():
        cals = [calibrate()]
        start = time.perf_counter()
        while _keep_going(start, seconds,
                          [r.wall + s + c for r, s, c in zip(timed, setup_times, cals[1:])]):
            begin = time.perf_counter()
            prepared = make()
            setup_times.append(time.perf_counter() - begin)
            timed.append(run_child(prepared, workdir, env))
            cals.append(calibrate())
    scale = [2 * CAL_REF_S / (before + after) for before, after in zip(cals, cals[1:])]
    walls = [r.wall for r in timed]
    rss = [r.rss_mib for r in timed]
    wall = statistics.median(w * k for w, k in zip(walls, scale))
    metrics = {
        "wall_s": (wall, "s", len(walls)),
        "items_per_s": (prepared.items / wall, "items/s", len(walls)),
        # the largest: the allocator lands a command on one of two RSS
        # levels a page block apart, and the median flips between them
        "peak_rss_mb": (max(rss), "MiB", len(rss)),
        "setup_s": (statistics.median(s * k for s, k in zip(setup_times, scale)), "s",
                    len(setup_times)),
    }
    samples = {"items": prepared.items, "unscaled_wall_s": walls, "peak_rss_mb": rss,
               "unscaled_setup_s": setup_times, "calibration_s": cals}
    return Outcome(metrics, timed, samples)


def _startup_times(prepared: Prepared) -> list[float]:
    """Child start plus import of the command's module, nothing run."""
    env = child_env()
    times = []
    for _ in range(MIN_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", f"import {prepared.module}"], cwd=ROOT, env=env,
                       check=True, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def measure_traced(prepared: Prepared, workdir: Path, seconds: float) -> Outcome:
    importlib.import_module(prepared.module)  # import cost stays out of the timed calls
    startup = _startup_times(prepared)
    plain: list[Run] = []
    traced: list[Run] = []
    start = time.perf_counter()
    while _keep_going(start, seconds, [r.wall for r in plain + traced]) or len(traced) < 2:
        plain.append(run_in_process(prepared, workdir, None))
        traced.append(run_in_process(prepared, workdir, tracing.Tracer()))

    problems = []
    counts = [{**r.tracer.exact_counts(), "cli.report_bytes": r.report_bytes} for r in traced]
    for other in counts[1:]:
        if other != counts[0]:
            diff = sorted(k for k in counts[0].keys() | other.keys()
                          if counts[0].get(k) != other.get(k))
            problems.append(f"exact counts differ between traced runs: {diff}")
    layer = [r.tracer.layer_metrics() for r in traced]
    traced_wall = statistics.median(r.wall for r in traced)
    plain_wall = statistics.median(r.wall for r in plain)
    values = {name: statistics.median(m[name] for m in layer) for name in layer[0]}
    values.update({
        "cli.startup_s": statistics.median(startup),
        "cli.report_bytes": traced[0].report_bytes,
        "trace.traced_wall_s": traced_wall,
        "trace.untraced_wall_s": plain_wall,
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.layer_coverage": statistics.median(r.covered for r in traced),
    })
    units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
    sizes = {"cli.startup_s": len(startup), "trace.untraced_wall_s": len(plain)}
    metrics = {name: (values[name], unit, sizes.get(name, len(traced)))
               for name, unit in units.items()}
    samples = {"traced_wall_s": [r.wall for r in traced],
               "untraced_wall_s": [r.wall for r in plain],
               "cli.startup_s": startup,
               "last_trace": traced[-1].tracer.dump()}
    return Outcome(metrics, plain + traced, samples, counts[0], problems)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes: dict | None = None) -> Outcome:
    """Set up one workload from its seed, measure it and file the results."""
    stamp = machine_stamp()
    workdir = OUT / f"{name}-seed{seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    make = functools.partial(WORKLOADS[name], seed, workdir, **(sizes or {}))
    try:
        if trace:
            outcome = measure_traced(make(), workdir, seconds)
        else:
            outcome = measure_end_to_end(make, workdir, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "sizes": sizes or "full", "machine": stamp,
        "attempted": len(outcome.runs), "failed": outcome.failed,
        "error_rate": outcome.failed / len(outcome.runs),
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in outcome.metrics.items()},
        "samples": outcome.samples, "exact_counts": outcome.exact_counts,
        "problems": outcome.every_problem()[:50],
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return outcome


def _print_outcome(name: str, outcome: Outcome) -> None:
    attempted = len(outcome.runs)
    rows = [(k, v, u, n) for k, (v, u, n) in outcome.metrics.items()]
    rows.append(("error_rate", outcome.failed / attempted, "ratio", attempted))
    for key in ("unscaled_wall_s", "unscaled_setup_s", "calibration_s"):
        if key in outcome.samples:
            values = outcome.samples[key]
            rows.append((f"({key} median)", statistics.median(values), "s", len(values)))
    for metric, value, unit, n in rows:
        print(f"{name:<12} {metric:<44} {value:>16.6f} {unit:<8} n={n}")
    for problem in outcome.every_problem()[:10]:
        print(f"{name:<12} FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM unwind normally: the running child is killed and reaped, the
    # work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "frugaleval" / "cli.py").is_file():
        print(f"error: frugaleval sources not found under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes = {}
    for name in names:
        outcomes[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _print_outcome(name, outcomes[name])
    prefix = len(names) > 1
    result = {
        "correct": all(o.correct for o in outcomes.values()),
        "attempted": sum(len(o.runs) for o in outcomes.values()),
        "failed": sum(o.failed for o in outcomes.values()),
        "metrics": {
            (f"{name}.{metric}" if prefix else metric): {"value": value, "unit": unit}
            for name, o in outcomes.items() for metric, (value, unit, _) in o.metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
