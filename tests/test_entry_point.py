"""The command line run as a process: `python -m frugaleval.cli`, which
ends through cli.process_main without interpreter teardown.

Every report of a small fixed run is pinned by its sha256, in both
formats, as the process writes it with --out, so the bytes that land
before the process ends are the ones a run must write.
"""

import ast
import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from frugaleval import cli

SRC = Path(__file__).resolve().parents[1] / "src"


def plateau_csv(n=30, start=10, end=19, low=1.0, high=10.0):
    return "position,impact\n" + "".join(
        f"{k},{high if start <= k <= end else low}\n" for k in range(n))


INPUTS = {
    "profiles.csv": "id,hcp,collab,grants\nA,3,2,1.5\nB,3,5,1.2\nC,1,9,4\n",
    "my profiles.csv": "id,h cp,collab\nA,1,2\nB,1,3\n",
    # criterion ties and cue values within 1.5 of each other
    "tied.csv": "id,criterion,a,b,c\n" + "".join(
        f"o{k},{k % 4},{k % 3},{(k * 7) % 5 - 1.25},{k % 2}\n" for k in range(16)),
    "noiseless.csv": plateau_csv(),
    "flush_start.csv": plateau_csv(start=0, end=7),
    "flush_end.csv": plateau_csv(start=22, end=29),
}

PUBLICATIONS = ["--corpus", "corpus.csv", "--candidates", "candidates.csv"]

# one run per line; each writes report.txt (table) and report.txt.json (machine)
RUNS = {
    "screen": ["screen", *PUBLICATIONS, "--quota", "0.25"],
    "screen-p": ["screen", *PUBLICATIONS, "--p", "0.2", "--quota", "0.5"],
    "choose-profiles": ["choose", "--profiles", "profiles.csv", "--a", "A", "--b", "B",
                        "--cue-order", "hcp,collab,grants", "--delta", "0.2",
                        "--mode", "relative"],
    "choose-publications": ["choose", *PUBLICATIONS, "--cue-order", "highly_cited_papers",
                            "--a", "cand00", "--b", "cand01", "--p", "0.2"],
    "bench-binary": ["bench", "--gen", "binary", "--weights", "a=4,b=2,c=1,d=1",
                     "--n-objects", "30", "--reps", "3", "--seed", "7"],
    "bench-gaussian": ["bench", "--gen", "gaussian", "--targets", "a=0.9,b=0.5,c=-0.2",
                       "--n-objects", "30", "--reps", "3", "--delta", "0.3",
                       "--mode", "relative", "--seed", "3"],
    "bench-tied": ["bench", "--environment", "tied.csv", "--strategies",
                   "take_the_best,tallying,minimalist", "--delta", "1.5", "--reps", "4"],
    "workload": ["workload", "--papers", "1200", "--panel-size", "12", "--working-days", "30"],
    "career-generate": ["career", "--length", "40", "--baseline-mean", "5", "--multiplier", "6",
                        "--streak-len", "5:9", "--noise-sigma", "0.3", "--seed", "11",
                        "--save-career", "career.csv"],
    "career-noiseless": ["career", "--impacts", "noiseless.csv"],
    "career-flush-start": ["career", "--impacts", "flush_start.csv", "--min-streak-len", "4"],
    "career-flush-end": ["career", "--impacts", "flush_end.csv", "--penalty-per-param", "5"],
}

REPORT_SHA256 = {
    "bench-binary": {
        "table": "f230957e049827b686fb1ba4d7fd805e3e8d25f6505bde854825cb2473f755c3",
        "machine": "a7ab8ffd4f48d265cb4d65057705c01f848ea6a0bf9d6f36b5364ff2f8ef89c5",
    },
    "bench-gaussian": {
        "table": "f02dd049cb530fca2bd2233499ef8f7d283ff318b26881abfe3d323651f79e4a",
        "machine": "489e604c2ae5397ff7b650c2d83f5954193043ab92e3a48260f720851806f3f4",
    },
    "bench-tied": {
        "table": "d5a976390ab95b479c78810361a78b83cbdf5e77307cb0d17b0e6bc92c551c61",
        "machine": "cfae7446131709355b7078c1c0c581df4e1f87c4abd0d280b1e877d1eb90eddc",
    },
    "career-flush-end": {
        "table": "c9f30359a9e84d21cda64b887b66044063d136f003c29a2bd4cb382d137ded61",
        "machine": "010f34c2725eadf9541a78df4ee15aede68e3101de1c7019717fe37472e01b01",
    },
    "career-flush-start": {
        "table": "8b53befb9b9051237b4e16053bea17043811476ec6553dc49ea59daac955de9d",
        "machine": "d444f94851c284da102ed7883cfa1864cf327dfd58afe57fc01b1b28cb8d3712",
    },
    "career-generate": {
        "table": "a4f3667145435736235adf358a61d437e4ebb6000b138af6aca401a202d65dcc",
        "machine": "796a885437867ced208d03d4463a43e8394763debe3aae56333d584a7f3e1881",
        "saved career": "16ec06cc3e86213100b49b0eeccca115bea58d07119ac2e8475a1141fb10ac0e",
    },
    "career-noiseless": {
        "table": "811a2831057fb1fce8a3f85c758aed5ff068649abd2b88630239fbf62adb07b6",
        "machine": "2fc637acdef0193f049f0afabeb933a6b9f6f6bc63f72cedccef7e84be64e5d6",
    },
    "choose-profiles": {
        "table": "0f9d3c8eaa2ff9751b1f964b966727bf5ef3a55fded32433e1660f44a9197f3a",
        "machine": "e166ba910333870e4c27d98f6b10dc2c18e9eb5deef84f66a1f829867440d7d3",
    },
    "choose-publications": {
        "table": "c5ee467a32250385bb8b9f5213a6d9f66d9b8c246bf60faaa348a7a6b8fbf5bf",
        "machine": "8ff5d38a8c2505d7ed30aa7f233269f412dcc2aa7bc9d6895b3845a592d35508",
    },
    "screen": {
        "table": "66f7aedf4f96a6eacca5fd9b169ff475f01455029cf0eed152d85a221bd1d54d",
        "machine": "28d699ab41512a66a69222a848cad454b0b50ebafde8fb8e0dc09b3c3a46dc6c",
    },
    "screen-p": {
        "table": "e32d22df088ff4f6baa278a83fb0cb91edb5742880713ab0a77800c0cc9c76bc",
        "machine": "0dc66440dc0f624ab91034793167738e332353fc69936f100b7be8bfa4d314d4",
    },
    "workload": {
        "table": "de18c75d22d89982641e526ad740ab4718ff8e4afd9588301e9b5da996a70b59",
        "machine": "695af787ab7dcc8e74fc1f0f1f169bf7fbdc80aa31075d2d7907fb0d18952cc0",
    },
}


def run_python(args, cwd, env=None, **kwargs):
    """`python ARGS` in a fresh interpreter that imports the package from src."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    kwargs.setdefault("capture_output", True)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          stdin=subprocess.DEVNULL, timeout=60, **kwargs)


def run_cli(argv, cwd, env=None, **kwargs):
    return run_python(["-m", "frugaleval.cli", *argv], cwd, env, **kwargs)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def inputs(screen_inputs, tmp_path):
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    return tmp_path


@pytest.mark.parametrize("run", sorted(RUNS))
def test_report_digests(run, inputs):
    proc = run_cli([*RUNS[run], "--out", "report.txt"], inputs)
    assert proc.returncode == 0, proc.stderr
    digests = {"table": sha256(inputs / "report.txt"),
               "machine": sha256(inputs / "report.txt.json")}
    if (inputs / "career.csv").exists():
        digests["saved career"] = sha256(inputs / "career.csv")
    assert digests == REPORT_SHA256[run]


# values that hold a space: a profiles path and a cue name
SPACED_RUN = ["choose", "--profiles", "my profiles.csv", "--cue-order", "h cp,collab"]


@pytest.mark.parametrize("run", [*sorted(RUNS), "choose-spaced"])
def test_config_line_splits_into_the_config_keys(run, inputs, monkeypatch, capsys):
    # the line splits back into its key=value pairs, quoted as a shell reads them
    monkeypatch.chdir(inputs)
    argv = SPACED_RUN if run == "choose-spaced" else RUNS[run]
    assert cli.main([*argv, "--out", "report.txt"]) == 0
    capsys.readouterr()
    [line] = [line for line in (inputs / "report.txt").read_text().splitlines()
              if line.startswith("# config: ")]
    pairs = dict(pair.partition("=")[::2] for pair in shlex.split(line.removeprefix("# config: ")))
    config = json.loads((inputs / "report.txt.json").read_text())["config"]
    assert list(pairs) == sorted(config)
    if run == "choose-spaced":
        assert pairs["profiles"] == "my profiles.csv"
        assert pairs["cue_order"] == "h cp,collab"


# mostly ASCII, where shlex.quote's safe characters are
TEXTS = st.text(st.characters(max_codepoint=0x7f)) | st.text()


@settings(max_examples=300, derandomize=True, database=None)
@given(TEXTS | st.lists(TEXTS, max_size=3))
@example("")
@example("~")
@example("é")
@example(["h cp", "collab"])
def test_a_config_value_echoes_as_shlex_quotes_it(value):
    typed = ",".join(value) if isinstance(value, list) else value
    assert cli._echo(value) == shlex.quote(typed)


def input_modes(source):
    """Every input mode of the command line: (handler, flags the mode needs)
    for each _mode call in the source of cli."""
    return {(handler.name, ast.literal_eval(call.args[1]))
            for handler in ast.parse(source).body if isinstance(handler, ast.FunctionDef)
            for call in ast.walk(handler) if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name) and call.func.id == "_mode"}


def test_input_modes_are_read_from_every_handler():
    source = (SRC / "frugaleval" / "cli.py").read_text(encoding="utf-8")
    new_mode = "def _cmd_new(p, seed):\n    _mode(p, ('flag',), ())\n"
    assert input_modes(source + new_mode) == input_modes(source) | {("_cmd_new", ("flag",))}


def test_every_input_mode_has_a_digest_in_both_formats(inputs, monkeypatch, capsys):
    # each pinned run, repeated in process, names the input modes it takes;
    # a mode that none of them takes, such as a new one, fails here
    original = cli._mode
    taken = {}

    def spy(p, needs, uses, **kwargs):
        taken.setdefault(run, set()).add((sys._getframe(1).f_code.co_name, needs))
        return original(p, needs, uses, **kwargs)

    monkeypatch.setattr(cli, "_mode", spy)
    monkeypatch.chdir(inputs)
    for run in sorted(RUNS):
        assert cli.main([*RUNS[run], "--out", "report.txt"]) == 0, run
    capsys.readouterr()
    assert set(REPORT_SHA256) == set(RUNS)
    assert all({"table", "machine"} <= set(digests) for digests in REPORT_SHA256.values())
    modes = input_modes((SRC / "frugaleval" / "cli.py").read_text(encoding="utf-8"))
    assert set().union(*taken.values()) == modes

WORKLOAD = ["workload", "--papers", "1200", "--panel-size", "12", "--working-days", "30"]


@pytest.mark.parametrize("argv, code, out, err", [
    (WORKLOAD, 0, "# frugaleval 0.1.0\n", ""),
    (["workload", "--papers", "0", "--panel-size", "12", "--working-days", "30"], 1, "",
     "error: papers must be strictly positive, got 0\n"),
    (["workload", "--bogus"], 2, "", "usage: frugaleval"),
    (["--help"], 0, "usage: frugaleval", ""),
    (["--version"], 0, "frugaleval 0.1.0\n", ""),
], ids=["report", "error", "usage", "help", "version"])
def test_exit_status(argv, code, out, err, tmp_path):
    proc = run_cli(argv, tmp_path, text=True)
    assert (proc.returncode, proc.stdout[:len(out)], proc.stderr[:len(err)]) == (code, out, err)
    assert bool(proc.stdout) == bool(out) and bool(proc.stderr) == bool(err)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_reader_that_closed_early(unbuffered, tmp_path):
    # buffered, the report waits in stdout's buffer until the exit flushes it;
    # unbuffered, main's own write fails. Either way, one error line and 1.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_cli(WORKLOAD, tmp_path, env, capture_output=False, stdout=write,
                       stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, "error: [Errno 32] Broken pipe\n")


def test_files_match_an_in_process_run(tmp_path, monkeypatch, capsys):
    argv = [*RUNS["career-generate"], "--format", "machine", "--out", "report.json"]
    names = ["career.csv", "report.json", "report.json.txt"]
    (tmp_path / "process").mkdir()
    proc = run_cli(argv, tmp_path / "process")
    assert proc.returncode == 0, proc.stderr
    (tmp_path / "in-process").mkdir()
    monkeypatch.chdir(tmp_path / "in-process")
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == proc.stderr.decode()
    for side in ("process", "in-process"):
        assert sorted(p.name for p in (tmp_path / side).iterdir()) == names
    for name in names:
        assert (tmp_path / "process" / name).read_bytes() == \
            (tmp_path / "in-process" / name).read_bytes()


def test_escaping_exception_unwinds_with_its_traceback(tmp_path):
    code = ("import atexit, frugaleval.cli as cli\n"
            "atexit.register(print, 'torn down')\n"
            "cli.main = lambda: 1 / 0\n"
            "cli.process_main()\n")
    proc = run_python(["-c", code], tmp_path, text=True)
    assert proc.returncode == 1
    assert proc.stdout == "torn down\n"
    assert proc.stderr.startswith("Traceback (most recent call last):")
    assert proc.stderr.endswith("ZeroDivisionError: division by zero\n")


def test_runs_register_no_exit_callback(tmp_path):
    # the entry point ends without the teardown that would run such callbacks
    code = ("import atexit, contextlib, io, json, sys\n"
            "before = atexit._ncallbacks()\n"
            "import numpy, frugaleval.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for argv in json.loads(sys.argv[1]):\n"
            "        assert cli.main(argv) == 0, argv\n"
            "print(atexit._ncallbacks() - before)\n")
    runs = json.dumps([RUNS["bench-binary"], RUNS["career-generate"]])
    proc = run_python(["-c", code, runs], tmp_path, text=True)
    assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr


def test_console_script_is_the_module_entry_point():
    tomllib = pytest.importorskip("tomllib")
    script = tomllib.loads((SRC.parent / "pyproject.toml").read_text(encoding="utf-8"))
    module, _, name = script["project"]["scripts"]["frugaleval"].partition(":")
    assert module == "frugaleval.cli"
    tree = ast.parse((SRC / "frugaleval" / "cli.py").read_text(encoding="utf-8"))
    guard = next(node for node in tree.body if isinstance(node, ast.If)
                 and ast.unparse(node.test) == "__name__ == '__main__'")
    assert [ast.unparse(node) for node in guard.body] == [f"{name}()"]
    assert callable(getattr(cli, name)) and name != "main"
