import csv
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

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
    return write_screen_inputs(tmp_path)


def write_screen_inputs(directory):
    """A seeded corpus (600 rows in 30 (category, year) groups) and candidates
    file (300 rows, 40 candidates) for `frugaleval screen`, written to
    DIRECTORY. Citations come from a small range, so many papers tie at each
    group's top-10% boundary; all three doc types occur, and about 15% of the
    candidate rows are excluded."""
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
    corpus_path = directory / "corpus.csv"
    candidates_path = directory / "candidates.csv"
    _write_csv(corpus_path, ["id", "year", "category", "citations", "doc_type"], corpus)
    _write_csv(candidates_path, ["id", "year", "category", "citations", "doc_type",
                                 "candidate_id", "validated"], candidates)
    return SimpleNamespace(corpus=corpus_path, candidates=candidates_path,
                           corpus_rows=len(corpus), candidate_rows=len(candidates),
                           groups=len(groups))
