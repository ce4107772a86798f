"""Each command loads only the package modules it runs: numpy only through
the array modules, not at all on a flag error, and never dataclasses.

Each command mode runs once, in a fresh interpreter, as `python -X
importtime -m frugaleval.cli ...`, whose import log names every module the
run loads into sys.modules; `numpy` or a `numpy.` submodule in the log means
numpy was imported. The tests below read the same log of each mode.
"""

from types import SimpleNamespace

import pytest
from conftest import MODES, mode_argv, run_python, write_mode_inputs


def modules_loaded(argv, cwd, status=0):
    """The modules a run loads, in load order. A run that fails (status 1)
    must say why on an `error:` line."""
    proc = run_python(["-X", "importtime", "-m", "frugaleval.cli", *argv], cwd, text=True)
    assert proc.returncode == status, proc.stderr[-2000:]
    assert status == 0 or "\nerror: " in "\n" + proc.stderr, proc.stderr[-2000:]
    imported = [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:") and "|" in line]
    assert "frugaleval" in imported  # the log is there to read
    return imported


def numpy_modules(imported):
    return [name for name in imported if name == "numpy" or name.startswith("numpy.")]


# the modules that import numpy; a command loads numpy exactly when it runs one
ARRAY_MODULES = {"careers", "ecology"}
# the modes that run none, read from MODES
NUMPY_FREE = sorted(name for name, mode in MODES.items() if not mode.loads & ARRAY_MODULES)


@pytest.fixture(scope="module")
def command_run(tmp_path_factory):
    """`command_run(mode)` runs the MODES entry on its first call and returns
    what every later call for that mode reads: the modules the run loaded,
    and whether it wrote its report."""
    inputs = tmp_path_factory.mktemp("inputs")
    write_mode_inputs(inputs)
    runs = {}

    def run(name):
        if name not in runs:
            report = tmp_path_factory.mktemp("run") / "report.txt"
            imported = modules_loaded([*mode_argv(name), "--out", str(report)], inputs)
            runs[name] = SimpleNamespace(
                imported=imported,
                package={module.partition(".")[2] for module in imported
                         if module.startswith("frugaleval.")},
                report_written=report.is_file())
        return runs[name]
    return run


@pytest.mark.parametrize("command", sorted(MODES))
def test_command_loads_only_the_modules_it_runs(command, command_run):
    run = command_run(command)
    assert run.package == MODES[command].loads
    assert run.report_written


@pytest.mark.parametrize("command", NUMPY_FREE)
def test_command_runs_without_numpy(command, command_run):
    assert numpy_modules(command_run(command).imported) == []


def test_the_log_shows_numpy_when_a_command_uses_it(command_run):
    for command in sorted(set(MODES) - set(NUMPY_FREE)):
        assert numpy_modules(command_run(command).imported), command


# Importing dataclasses costs ~11 ms, most of it inspect, and each dataclass
# ~1 ms more to generate its methods, on every run with no bytecode cache.
# numpy loads inspect itself, so only the numpy-free commands must do without.
@pytest.mark.parametrize("command", sorted(MODES))
def test_command_loads_no_dataclasses(command, command_run):
    imported = command_run(command).imported
    assert "dataclasses" not in imported
    if command in NUMPY_FREE:
        assert "inspect" not in imported


# bench and career check their flags before they import an array module
@pytest.mark.parametrize("argv", [["career", "--length", "10"], ["bench", "--gen", "binary"]],
                         ids=" ".join)
def test_a_flag_error_exits_before_the_array_modules_load(argv, tmp_path):
    assert numpy_modules(modules_loaded(argv, tmp_path, status=1)) == []


@pytest.fixture(scope="module")
def deferred_after_import(tmp_path_factory):
    """Which of dataclasses, inspect, shlex and numpy importing the package
    loads, from one fresh interpreter."""
    code = ("import sys\n"
            "import frugaleval, frugaleval.cli, frugaleval.tables\n"
            "deferred = ('dataclasses', 'inspect', 'shlex', 'numpy')\n"
            "print(' '.join(m for m in deferred if m in sys.modules))\n")
    proc = run_python(["-c", code], tmp_path_factory.mktemp("probe"), text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_importing_the_package_loads_no_dataclasses_inspect_or_shlex(deferred_after_import):
    # shlex is loaded by a table report's config line, not by the import
    assert deferred_after_import & {"dataclasses", "inspect", "shlex"} == set()


def test_importing_the_package_leaves_numpy_unloaded(deferred_after_import):
    assert "numpy" not in deferred_after_import


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
    proc = run_python(["-c", code], tmp_path, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
