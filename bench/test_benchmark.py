"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "screen": {"corpus_rows": 2_000, "candidate_rows": 600, "candidates": 30},
    "bench": {"n_objects": 18, "reps": 4},  # 9 training objects: one rank-deficient fit
    "career": {"works": 60, "streak": (5, 15)},
    "recognition": {"population": 10, "trials": 2_000},
}

# result digests of the tiny screen and career workloads at seed 7, as the
# package reports them today; a faster implementation must reproduce them
PINNED = {
    "screen": "ddcf1b1e99866090ffe1055d87fccbbbb93c231cd51dee513124beb43b7437ec",
    "career": "6bbb7cd92df45c8863207cd7a9aa7cb748bccb90587450a94a0d8ed9a650cded",
}


@pytest.fixture(autouse=True)
def results_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_runs_clean(name, trace):
    outcome = run.run_workload(name, seed=7, seconds=0.01, trace=trace, sizes=TINY[name])
    assert outcome.correct, outcome.every_problem()
    assert outcome.failed == 0 and len(outcome.runs) >= 3
    names = {m for m, _, _ in (tracing.LAYER_METRICS if trace else run.END_TO_END)}
    assert set(outcome.metrics) == names
    if not trace:
        assert all(value > 0 for value, _, _ in outcome.metrics.values())
    elif name == "bench":
        assert outcome.metrics["ecology.linear_fits"][0] == 4
        assert outcome.metrics["ecology.linear_fallbacks"][0] == 1
    elif name == "career":
        assert outcome.metrics["careers.detect_calls"][0] == 2
        assert outcome.metrics["careers.intervals_scored"][0] == 2 * workloads.intervals_scanned(60, 3)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_report_matches_pinned_digest(name, tmp_path):
    prepared = workloads.WORKLOADS[name](7, tmp_path, **TINY[name])
    out = tmp_path / "report.json"
    subprocess.run([sys.executable, "-m", prepared.module, *prepared.args, "--out", str(out)],
                   env=run.child_env(), check=True, capture_output=True)
    report = json.loads(out.read_text())
    assert workloads.digest(report["result"]) == PINNED[name]
    assert prepared.check(report) == []


def test_times_are_scaled_by_the_calibration(monkeypatch):
    # a core running at half speed: every calibration takes twice the reference
    monkeypatch.setattr(run, "calibrate", lambda: 2 * run.CAL_REF_S)
    outcome = run.run_workload("career", seed=7, seconds=0.01, trace=False, sizes=TINY["career"])
    unscaled = outcome.samples["unscaled_wall_s"]
    assert len(outcome.samples["calibration_s"]) == len(unscaled) + 1
    assert outcome.metrics["wall_s"][0] == pytest.approx(statistics.median(unscaled) / 2)
    assert outcome.metrics["setup_s"][0] == pytest.approx(
        statistics.median(outcome.samples["unscaled_setup_s"]) / 2)


def test_tampered_report_counts_as_error(monkeypatch):
    def tampered(path):
        report = json.loads(Path(path).read_text())
        report["result"]["detected_interval"][1] += 1
        return report

    monkeypatch.setattr(run, "read_report", tampered)
    outcome = run.run_workload("career", seed=7, seconds=0.01, trace=False, sizes=TINY["career"])
    assert not outcome.correct
    assert outcome.failed == len(outcome.runs) > 0


def test_bench_check_pins_exact_values_and_minimalist_ranges(tmp_path):
    prepared = workloads.bench(7, tmp_path, **TINY["bench"])
    out = tmp_path / "report.json"
    subprocess.run([sys.executable, "-m", prepared.module, *prepared.args, "--out", str(out)],
                   env=run.child_env(), check=True, capture_output=True)
    report = json.loads(out.read_text())
    rows = {r["name"]: r for r in report["result"]["strategies"]}
    rows["minimalist"]["accuracy"] = min(1.0, rows["minimalist"]["accuracy"] + 1e-9)
    assert prepared.check(report) == []
    rows["tallying"]["frugality"] += 1e-12
    assert prepared.check(report) != []


def test_recognition_check_rejects_a_curve_without_the_effect():
    population, trials = TINY["recognition"]["population"], TINY["recognition"]["trials"]
    check = workloads.recognition(7, Path("."), population, trials).check
    rows = []
    for n in range(population + 1):
        exact = workloads.closed_form(population, n, 0.8, 0.6)
        # inside each row's interval, but full recognition now beats every interior n
        lo, hi = workloads.binomial_interval(trials, exact)
        rows.append([n, exact, (hi if n == population else lo) / trials])
    problems = check({"result": {"rows": rows}})
    assert len(problems) == 1 and "less-is-more" in problems[0]


def test_self_time_subtracts_children_and_counted_calls():
    tracer = tracing.Tracer()
    tracer.spans = [tracing.Span("cli.main", 0.0, None, 10.0),
                    tracing.Span("tables.read_corpus", 1.0, 0, 5.0, counted=1.5)]
    tracer.spans[0].counted = 2.0
    assert tracer.self_times() == [10.0 - 4.0 - 2.0, 4.0 - 1.5]


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.LAYER_METRICS


def test_fails_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((HERE.parent / "BENCHMARK.json").read_text())
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "career", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert "correct" not in done.stdout
