"""Each command loads only the package modules it runs, commands that do
no array work never import numpy, nor does a flag error in one that does,
and no command loads dataclasses.

Each command runs in a fresh interpreter as `python -X importtime -m
frugaleval.cli ...`, whose import log names every module the run loads
into sys.modules; `numpy` or a `numpy.` submodule in the log means numpy
was imported.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, stdin=subprocess.DEVNULL, timeout=60)


def modules_loaded(argv, cwd, status=0):
    """The modules a run loads, in load order. A run that fails (status 1)
    must say why on an `error:` line."""
    proc = run_python(["-X", "importtime", "-m", "frugaleval.cli", *argv], cwd)
    assert proc.returncode == status, proc.stderr[-2000:]
    assert status == 0 or "\nerror: " in "\n" + proc.stderr, proc.stderr[-2000:]
    imported = [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:") and "|" in line]
    assert "frugaleval" in imported  # the log is there to read
    return imported


def numpy_modules_loaded(argv, cwd, status=0):
    return [name for name in modules_loaded(argv, cwd, status)
            if name == "numpy" or name.startswith("numpy.")]


@pytest.fixture
def profiles(tmp_path):
    path = tmp_path / "profiles.csv"
    path.write_text("id,hcp,collab\nA,1,2\nB,1,3\n", encoding="utf-8")
    return path


# choose compares two numbers in either mode; bench, career and the
# less-is-more curve do array work and load numpy
NUMPY_FREE = ["screen", "choose --profiles", "choose --mode relative", "choose --corpus",
              "workload"]


def career_file(tmp_path):
    path = tmp_path / "career.csv"
    path.write_text("position,impact\n" + "".join(
        f"{k},{9 if 10 <= k < 16 else 1}\n" for k in range(30)), encoding="utf-8")
    return path


def environment_file(tmp_path):
    path = tmp_path / "environment.csv"
    path.write_text("id,criterion,a,b\n" + "".join(
        f"o{k},{k},{k % 3},{k % 2}\n" for k in range(8)), encoding="utf-8")
    return path


def command_argv(command, screen_inputs, profiles, tmp_path):
    argv = {
        "screen": ["screen", "--corpus", screen_inputs.corpus,
                   "--candidates", screen_inputs.candidates, "--quota", "0.25"],
        "choose --profiles": ["choose", "--profiles", profiles, "--cue-order", "hcp,collab"],
        "choose --mode relative": ["choose", "--profiles", profiles, "--cue-order", "hcp,collab",
                                   "--mode", "relative", "--delta", "0.1"],
        "choose --corpus": ["choose", "--corpus", screen_inputs.corpus,
                            "--candidates", screen_inputs.candidates,
                            "--cue-order", "highly_cited_papers", "--a", "cand00",
                            "--b", "cand01"],
        "workload": ["workload", "--papers", "100", "--panel-size", "10",
                     "--working-days", "20"],
        "bench": ["bench", "--gen", "binary", "--weights", "a=2,b=1", "--n-objects", "8"],
        "career": ["career", "--length", "40", "--baseline-mean", "5", "--multiplier", "6",
                   "--streak-len", "5:9"],
        "bench --environment": ["bench", "--environment", environment_file(tmp_path)],
        "career --impacts": ["career", "--impacts", career_file(tmp_path)],
        "career --save-career": ["career", "--length", "40", "--baseline-mean", "5",
                                 "--multiplier", "6", "--streak-len", "5:9",
                                 "--save-career", tmp_path / "saved.csv"],
    }[command]
    return [str(arg) for arg in argv] + ["--out", str(tmp_path / "report.txt")]


# The package modules each command loads, as `-X importtime` logs them
# (frugaleval.cli runs as __main__, so the log does not name it). Screen and
# choose load no ecology, careers or _pairs; career no ecology or heuristics,
# and indicators only with tables; bench --gen no tables or careers; workload
# only the records' shared _make from _records.
LOADS = {
    "screen": {"_records", "indicators", "heuristics", "tables"},
    "choose --profiles": {"_records", "indicators", "heuristics", "tables"},
    "choose --mode relative": {"_records", "indicators", "heuristics", "tables"},
    "choose --corpus": {"_records", "indicators", "heuristics", "tables"},
    "bench": {"_records", "indicators", "heuristics", "ecology", "_pairs"},
    "bench --environment": {"_records", "indicators", "heuristics", "ecology", "_pairs", "tables"},
    "career": {"_records", "careers", "_pairs"},
    "career --impacts": {"_records", "careers", "_pairs", "indicators", "tables"},
    "career --save-career": {"_records", "careers", "_pairs", "indicators", "tables"},
    "workload": {"_records"},
}


@pytest.mark.parametrize("command", sorted(LOADS))
def test_command_loads_only_the_modules_it_runs(command, screen_inputs, profiles, tmp_path):
    imported = modules_loaded(command_argv(command, screen_inputs, profiles, tmp_path), tmp_path)
    package = {name.partition(".")[2] for name in imported if name.startswith("frugaleval.")}
    assert package == LOADS[command]


@pytest.mark.parametrize("command", NUMPY_FREE)
def test_command_runs_without_numpy(command, screen_inputs, profiles, tmp_path):
    argv = command_argv(command, screen_inputs, profiles, tmp_path)
    assert numpy_modules_loaded(argv, tmp_path) == []
    assert (tmp_path / "report.txt").is_file()


# bench and career check their flags before they import an array module
@pytest.mark.parametrize("argv", [["career", "--length", "10"], ["bench", "--gen", "binary"]],
                         ids=" ".join)
def test_a_flag_error_exits_before_the_array_modules_load(argv, tmp_path):
    assert numpy_modules_loaded(argv, tmp_path, status=1) == []


# Importing dataclasses costs ~11 ms, most of it inspect, and each dataclass
# ~1 ms more to generate its methods, on every run with no bytecode cache.
# numpy loads inspect itself, so only the numpy-free commands must do without.
@pytest.mark.parametrize("command", [*NUMPY_FREE, "bench", "career"])
def test_command_loads_no_dataclasses(command, screen_inputs, profiles, tmp_path):
    imported = modules_loaded(command_argv(command, screen_inputs, profiles, tmp_path), tmp_path)
    assert "dataclasses" not in imported
    if command in NUMPY_FREE:
        assert "inspect" not in imported


def test_importing_the_package_loads_no_dataclasses_inspect_or_shlex(tmp_path):
    # shlex is loaded by a table report's config line, not by the import
    code = ("import sys\n"
            "import frugaleval, frugaleval.cli\n"
            "print([m for m in ('dataclasses', 'inspect', 'shlex') if m in sys.modules])\n")
    proc = run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_the_log_shows_numpy_when_a_command_uses_it(tmp_path):
    argv = ["bench", "--gen", "binary", "--weights", "a=2,b=1", "--n-objects", "8",
            "--out", str(tmp_path / "report.txt")]
    assert any(name.startswith("numpy.") for name in numpy_modules_loaded(argv, tmp_path))


def test_importing_the_package_leaves_numpy_unloaded(tmp_path):
    code = ("import sys\n"
            "import frugaleval, frugaleval.cli, frugaleval.tables\n"
            "print('numpy' in sys.modules)\n")
    proc = run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_a_library_that_checks_for_numpy_does_not_load_it(tmp_path):
    # Hypothesis seeds numpy.random when "numpy" is in sys.modules
    code = ("import sys\n"
            "import frugaleval\n"
            "from hypothesis import given, settings, strategies as st\n"
            "@settings(max_examples=2, database=None)\n"
            "@given(st.integers())\n"
            "def check(x):\n"
            "    pass\n"
            "check()\n"
            "print('numpy.random' in sys.modules)\n")
    proc = run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
