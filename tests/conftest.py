import ast
import csv
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

SCREEN_CATEGORIES = ("astro", "bio", "chem", "geo", "math", "phys")
SCREEN_YEARS = range(2016, 2021)
DOC_TYPES = ("article", "review", "other")


def run_python(args, cwd, env=None, **kwargs):
    """`python ARGS` in a fresh interpreter that imports the package from src:
    every test that starts an interpreter starts it here."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    kwargs.setdefault("capture_output", True)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          stdin=subprocess.DEVNULL, timeout=60, **kwargs)


def _write_csv(path, header, rows):
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


@pytest.fixture
def screen_inputs(tmp_path):
    """A seeded corpus (600 rows in 30 (category, year) groups) and candidates
    file (300 rows, 40 candidates) for `frugaleval screen`. Citations come
    from a small range, so many papers tie at each group's top-10% boundary;
    all three doc types occur, and about 15% of the candidate rows are
    excluded."""
    rng = random.Random(2018)
    groups = [(category, year) for category in SCREEN_CATEGORIES for year in SCREEN_YEARS]

    def publication(prefix, i):
        # the first rows visit every group once, so no group is empty
        category, year = groups[i] if i < len(groups) else rng.choice(groups)
        doc_type = rng.choices(DOC_TYPES, weights=(8, 2, 1))[0]
        return [f"{prefix}{i}", year, category, rng.randrange(12), doc_type]

    corpus = [publication("r", i) for i in range(600)]
    candidates = [
        publication("c", i)
        + [f"cand{i if i < 40 else rng.randrange(40):02d}",
           "excluded" if rng.random() < 0.15 else "included"]
        for i in range(300)
    ]
    corpus_path = tmp_path / "corpus.csv"
    candidates_path = tmp_path / "candidates.csv"
    _write_csv(corpus_path, ["id", "year", "category", "citations", "doc_type"], corpus)
    _write_csv(candidates_path, ["id", "year", "category", "citations", "doc_type",
                                 "candidate_id", "validated"], candidates)
    return SimpleNamespace(corpus=corpus_path, candidates=candidates_path,
                           corpus_rows=len(corpus), candidate_rows=len(candidates),
                           groups=len(groups))


class Mode(NamedTuple):
    """An input mode of a command as the tests run it. Its name in MODES
    starts with the command."""

    # flag -> value, every flag the mode reads at a value other than its
    # default; an input file by its name in write_mode_inputs
    options: dict[str, str]
    # the package modules a run loads, as `-X importtime` logs them
    # (frugaleval.cli runs as __main__, so the log does not name it)
    loads: set[str]

    @property
    def draws(self):
        # a mode that draws reads --seed, so it is given one
        return "seed" in self.options


PUBLICATIONS = {"corpus": "corpus.csv", "candidates": "candidates.csv", "p": "0.2"}
PAIR = {"a": "bob", "b": "alice"}
RULE = {"delta": "0.5", "mode": "relative"}
SPLIT = {"strategies": "tallying,take_the_best", "train_fraction": "0.6", "reps": "3",
         "seed": "5", **RULE}
GENERATE = {"length": "30", "baseline_mean": "5", "multiplier": "10", "streak_len": "4:6",
            "noise_sigma": "0.1", "seed": "4", "min_streak_len": "2", "penalty_per_param": "1.5"}

# Screen and choose load no ecology or careers; career no ecology or
# heuristics; bench --gen no tables, indicators or careers. indicators loads
# only with tables, whose readers build its records; workload loads only the
# records' shared _make from _records.
SCORING = {"_records", "indicators", "heuristics", "tables"}
BENCH = {"_records", "heuristics", "ecology"}
CAREER = {"_records", "careers"}

# Every input mode of the command line, one entry a variant; together each
# command's entries give every flag but --out, --format and --config. This
# is the one statement of a mode's flags and of what it loads: README points
# here.
MODES = {
    "screen": Mode({**PUBLICATIONS, "quota": "0.5"}, SCORING),
    "choose --profiles": Mode({"profiles": "profiles.csv", "cue_order": "hcp,collab"}, SCORING),
    "choose --mode relative": Mode({"profiles": "profiles.csv", **PAIR,
                                    "cue_order": "hcp,collab", **RULE}, SCORING),
    "choose --corpus": Mode({**PUBLICATIONS, **PAIR, "cue_order": "highly_cited_papers", **RULE},
                            SCORING),
    "bench": Mode({"gen": "binary", "weights": "c1=4", "n_objects": "30", **SPLIT}, BENCH),
    "bench --gen gaussian": Mode({"gen": "gaussian", "targets": "c1=0.5", "n_objects": "30",
                                  **SPLIT}, BENCH),
    # without take-the-best the discrimination rule is not read
    "bench --strategies tallying,linear": Mode(
        {"gen": "binary", "weights": "c1=4", "n_objects": "30",
         **{k: v for k, v in SPLIT.items() if k not in RULE}, "strategies": "tallying,linear"},
        BENCH),
    "bench --environment": Mode({"environment": "environment.csv", **SPLIT},
                                 BENCH | {"indicators", "tables"}),
    "career": Mode(GENERATE, CAREER),
    "career --save-career": Mode({**GENERATE, "save_career": "saved.csv"},
                                 CAREER | {"indicators", "tables"}),
    "career --impacts": Mode({"impacts": "career.csv", "min_streak_len": "2",
                              "penalty_per_param": "1.5"}, CAREER | {"indicators", "tables"}),
    "workload": Mode({"papers": "100", "reviews_per_paper": "3", "panel_size": "10",
                      "working_days": "5"}, {"_records"}),
}


def write_mode_inputs(directory):
    """The files MODES reads, in DIRECTORY: a ten-paper corpus; alice's and
    bob's papers, three and one of them in its top tenth; two profiles; a
    twelve-object environment (object k: criterion k, cue i = bit i of k);
    and a seven-work career with a streak."""
    _write_csv(directory / "corpus.csv", ["id", "year", "category", "citations", "doc_type"],
               [[f"ref{i}", 2020, "phys", i, "article"] for i in range(10)])
    papers = [("alice", 9)] * 3 + [("alice", 5), ("bob", 9), ("bob", 5)]
    _write_csv(directory / "candidates.csv", ["id", "year", "category", "citations", "doc_type",
                                              "candidate_id", "validated"],
               [[f"p{k}", 2020, "phys", cited, "article", name, "included"]
                for k, (name, cited) in enumerate(papers)])
    _write_csv(directory / "profiles.csv", ["id", "hcp", "collab"], [["alice", 3, 5], ["bob", 3, 2]])
    _write_csv(directory / "environment.csv", ["id", "criterion", "c1", "c2"],
               [[f"o{k}", k, k & 1, k >> 1 & 1] for k in range(12)])
    _write_csv(directory / "career.csv", ["position", "impact"],
               enumerate([1.0, 1.5, 9.0, 9.5, 8.0, 1.0, 1.5]))


@pytest.fixture
def mode_inputs(tmp_path, monkeypatch):
    """Run in tmp_path, which holds the files MODES reads."""
    write_mode_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def as_flags(options):
    return list(itertools.chain.from_iterable(
        (f"--{k.replace('_', '-')}", v) for k, v in options.items()))


def mode_argv(name):
    return [name.split()[0], *as_flags(MODES[name].options)]


def input_modes(source=None):
    """The needs tuple of each _mode call in the source of cli (by default
    its file). The tuple names the input mode: no two calls share one."""
    source = source or (SRC / "frugaleval" / "cli.py").read_text(encoding="utf-8")
    return [ast.literal_eval(call.args[1]) for call in ast.walk(ast.parse(source))
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id == "_mode"]


def record_modes(monkeypatch):
    """Spy on cli._mode: each call appends (needs, every flag the mode reads)
    to the list returned."""
    from frugaleval import cli

    calls, original = [], cli._mode

    def spy(p, needs, uses, **kwargs):
        calls.append((needs, needs + uses))
        return original(p, needs, uses, **kwargs)

    monkeypatch.setattr(cli, "_mode", spy)
    return calls
