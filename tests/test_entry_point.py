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

import pytest
from conftest import SRC, input_modes, record_modes, run_python
from hypothesis import example, given, settings, strategies as st

from frugaleval import cli


def plateau_csv(n=30, start=10, end=19, low=1.0, high=10.0):
    return "position,impact\n" + "".join(
        f"{k},{high if start <= k <= end else low}\n" for k in range(n))


INPUTS = {
    "profiles.csv": "id,hcp,collab,grants\nA,3,2,1.5\nB,3,5,1.2\nC,1,9,4\n",
    "my profiles.csv": "id,h cp,collab\nA,1,2\nB,1,3\n",
    "my\x0cprof.csv": "id,hcp,collab\nA,1,2\nB,1,3\n",
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
        "table": "4ce3d6d4ac60f2763ef1645574592cc601a5f2109b402f790d7223a5541dc260",
        "machine": "a7ab8ffd4f48d265cb4d65057705c01f848ea6a0bf9d6f36b5364ff2f8ef89c5",
    },
    "bench-gaussian": {
        "table": "85b86b32d88ddf5265329360d07c4750e6e2670c6c17794288da81095a588940",
        "machine": "489e604c2ae5397ff7b650c2d83f5954193043ab92e3a48260f720851806f3f4",
    },
    "bench-tied": {
        "table": "870d30b1b66af1081bed53d2414a55e67118aa716f19259d32b6695f720bd92c",
        "machine": "cfae7446131709355b7078c1c0c581df4e1f87c4abd0d280b1e877d1eb90eddc",
    },
    "career-flush-end": {
        "table": "8d7a6eb573f1a211a36bc4be9917c70be31303d942b2a745aedd5423c1aaac0e",
        "machine": "a57b087440ad922796bfa22758242eb4585c423efdfbc97dfb8c192945847258",
    },
    "career-flush-start": {
        "table": "9e4bb0cb49b0b119fe39697edb0887226539d02869f7e2c261decb1d9a9a7788",
        "machine": "e35557624529c5852858d93432cf67b908dae0d200d5c37b397b08b07d34e8fa",
    },
    "career-generate": {
        "table": "6be2bced9458070b01415d180ba75780e0c04a3bced3f484caaa319688f9c1a7",
        "machine": "796a885437867ced208d03d4463a43e8394763debe3aae56333d584a7f3e1881",
        "saved career": "16ec06cc3e86213100b49b0eeccca115bea58d07119ac2e8475a1141fb10ac0e",
    },
    "career-noiseless": {
        "table": "f3b9746603a040e086b7be637429035227af6859e6b0f16e3d9e0af64c10d745",
        "machine": "938ea2e1d490460e0190a75e13783434c7b6e402466a32525057717d07070699",
    },
    "choose-profiles": {
        "table": "e09a747418621685543ed24ee7f26c8664d3c99e0cc17dbd34ffa35033e618d6",
        "machine": "b95214133096d9f26ea98d3f5cceab0096c926d8b30839ad2b74899f40f142d2",
    },
    "choose-publications": {
        "table": "ba4f5f27231c310a9804c72a13890c4588066b555be9906dd1c807a180f278e6",
        "machine": "7d948b856db36acff6f792a253d7dff9a5222cf494717fd872b37c15ae04c5b9",
    },
    "screen": {
        "table": "bbb207fbf0abf9abcf911f07b2fbf8fad786985b4521a7f7c632078f9b4551a9",
        "machine": "9fdca734e7fa9bb793f5b2e313886183c456ed9f76bc4b6fac0f9208fefdbc55",
    },
    "screen-p": {
        "table": "6dc141170c5b7232c46731c99278a4e58ddb78658db7b95312f8d7884e8cc79e",
        "machine": "a4a27e44fbda20a8d1414a190557c46a473b837ef0f9ac7b957fd0e76c46a419",
    },
    "workload": {
        "table": "9afda3a3a551d0386a2ac4af4a4ee90b22bed93eb12f6a8cec4d0d8387c3848f",
        "machine": "3dc5a29c9dff066597dbf2b62719b2ae5b9de1ceeafd71b4ca596981ec6e6622",
    },
}


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


# runs whose values must be quoted: a profiles path and a cue name that hold
# a space, and a profiles path that holds a form feed, at which
# str.splitlines would split the config line
QUOTED_RUNS = {
    "choose-spaced": ["choose", "--profiles", "my profiles.csv", "--cue-order", "h cp,collab"],
    "choose-form-feed": ["choose", "--profiles", "my\x0cprof.csv", "--cue-order", "hcp,collab"],
}


@pytest.mark.parametrize("run", [*sorted(RUNS), *QUOTED_RUNS])
def test_config_line_splits_into_the_config_keys(run, inputs, monkeypatch, capsys):
    # the line splits back into its key=value pairs, quoted as a shell reads them
    monkeypatch.chdir(inputs)
    argv = {**RUNS, **QUOTED_RUNS}[run]
    assert cli.main([*argv, "--out", "report.txt"]) == 0
    capsys.readouterr()
    [line] = [line for line in (inputs / "report.txt").read_text().split("\n")
              if line.startswith("# config: ")]
    pairs = dict(pair.partition("=")[::2] for pair in shlex.split(line.removeprefix("# config: ")))
    config = json.loads((inputs / "report.txt.json").read_text())["config"]
    assert list(pairs) == sorted(key for key, value in config.items() if value is not None)
    if run == "choose-spaced":
        assert pairs["profiles"] == "my profiles.csv"
        assert pairs["cue_order"] == "h cp,collab"
    if run == "choose-form-feed":
        assert pairs["profiles"] == "my\x0cprof.csv"


def replay(command, pairs):
    """The command line that sets the flag of each (key, value) pair."""
    return [command, *(f"--{key.replace('_', '-')}={value}" for key, value in pairs)]


@pytest.mark.parametrize("run", [*sorted(RUNS), *QUOTED_RUNS])
def test_a_report_replays_its_run(run, inputs, tmp_path_factory, monkeypatch, capsys):
    # the seed and config a report records, read from either format, are a
    # command line that writes the same reports and files again; so is a
    # --config file that holds the table's config line, one pair a line
    monkeypatch.chdir(inputs)
    argv = {**RUNS, **QUOTED_RUNS}[run]
    assert cli.main([*argv, "--out", "report.txt"]) == 0
    written = {path.name: path.read_bytes() for path in inputs.iterdir()}
    payload = json.loads(written["report.txt.json"])
    from_machine = replay(payload["command"], [
        (key, ",".join(value) if isinstance(value, list) else value)
        for key, value in {**payload["config"], "seed": payload["seed"]}.items()
        if value is not None])
    _, _, seed, config = written["report.txt"].decode().split("\n")[:4]
    seed = seed.removeprefix("# seed: ")
    pairs = [pair.partition("=")[::2] for pair in shlex.split(config.removeprefix("# config: "))]
    from_table = replay(payload["command"], [*pairs, *([] if seed == "None" else [("seed", seed)])])
    # each pair as the line prints it, its value quoted as shlex.quote quotes it
    config_file = tmp_path_factory.mktemp("config") / "run.cfg"
    config_file.write_text("".join(f"{key} = {shlex.quote(value)}\n" for key, value in pairs)
                           + ("" if seed == "None" else f"seed = {seed}\n"), encoding="utf-8")
    from_file = [payload["command"], "--config", str(config_file)]
    for rebuilt in (from_machine, from_table, from_file):
        for name in ("report.txt", "report.txt.json"):
            (inputs / name).unlink()
        assert cli.main([*rebuilt, "--out", "report.txt"]) == 0, rebuilt
        assert {path.name: path.read_bytes() for path in inputs.iterdir()} == written, rebuilt
    capsys.readouterr()


# mostly ASCII, where shlex.quote's safe characters are
TEXTS = st.text(st.characters(max_codepoint=0x7f)) | st.text()


def each_config_value(test):
    """Run a quoting property on 300 derandomized values, texts and lists of
    them, and on the edge cases, "it's" among them."""
    for value in ("", "~", "é", "it's", ["h cp", "collab"]):
        test = example(value)(test)
    return settings(max_examples=300, derandomize=True, database=None)(
        given(TEXTS | st.lists(TEXTS, max_size=3))(test))


def typed(value):
    return ",".join(value) if isinstance(value, list) else value


@each_config_value
def test_a_config_value_echoes_as_shlex_quotes_it(value):
    # one shell word, which a shell reads as the text as typed
    assert shlex.split(cli._echo(value)) == [typed(value)]


@each_config_value
def test_a_config_file_reads_a_quoted_value_as_its_text(value):
    assert cli._unquote(cli._echo(value)) == typed(value)


# values that shlex.quote does not give: each reads raw, as typed
@pytest.mark.parametrize("value", ["plain", "'plain'", "'a b", "'a' 'b'", "a' b'", "'a'b"])
def test_a_config_file_reads_any_other_value_raw(value):
    assert cli._unquote(value) == value


def test_input_modes_are_read_from_every_handler():
    source = (SRC / "frugaleval" / "cli.py").read_text(encoding="utf-8")
    new_mode = "def _cmd_new(p):\n    _mode(p, ('flag',), ())\n"
    modes = input_modes(source)
    assert len(set(modes)) == len(modes)  # each call's needs name its mode
    assert sorted(input_modes(source + new_mode)) == sorted([*modes, ("flag",)])


def test_every_input_mode_has_a_digest_in_both_formats(inputs, monkeypatch, capsys):
    # the pinned runs, repeated in process, take every input mode, so a mode
    # that none of them takes, such as a new one, fails here
    calls = record_modes(monkeypatch)
    monkeypatch.chdir(inputs)
    for run in sorted(RUNS):
        assert cli.main([*RUNS[run], "--out", "report.txt"]) == 0, run
    capsys.readouterr()
    assert set(REPORT_SHA256) == set(RUNS)
    assert all({"table", "machine"} <= set(digests) for digests in REPORT_SHA256.values())
    assert {needs for needs, _ in calls} == set(input_modes())


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


def test_the_version_is_written_once():
    # pyproject.toml reads it from the package, which --version and every report print
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((SRC.parent / "pyproject.toml").read_text(encoding="utf-8"))
    assert "version" not in config["project"] and "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "frugaleval.__version__"}
