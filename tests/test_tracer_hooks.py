"""The benchmark's tracer (bench/tracing.py) wraps functions and methods of
this package by name, and its callbacks read what those functions return.
Renaming or deleting one of them, or changing what a callback reads, breaks
the traced benchmark run; these tests make it break the main suite too.
They import bench/ and change nothing there.
"""

import importlib
import sys
from pathlib import Path

import pytest

from frugaleval import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    before = set(sys.modules)
    yield importlib.import_module("tracing")
    # bench/'s modules have generic names; do not leave them importable
    for name in set(sys.modules) - before:
        if str(BENCH) in str(getattr(sys.modules[name], "__file__", "")):
            del sys.modules[name]


def test_every_traced_name_exists_and_is_restored(tracing):
    # _instrument looks each name up, so a missing one raises AttributeError here
    hooks = [(owner, attr) for owner, attr, _ in tracing._instrument(tracing.Tracer())]
    assert hooks
    originals = [owner.__dict__[attr] for owner, attr in hooks]
    with tracing.traced(tracing.Tracer()):
        for (owner, attr), original in zip(hooks, originals):
            assert owner.__dict__[attr] is not original, f"{owner!r}.{attr} is not patched"
    for (owner, attr), original in zip(hooks, originals):
        assert owner.__dict__[attr] is original, f"{owner!r}.{attr} is not restored"


def test_screen_counts_reach_the_tracer(tracing, screen_inputs, tmp_path, capsys):
    # the counts come from the tracer's callbacks, which read what the
    # package returns: corpus.publications, group_keys() and profile.publications
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        code = cli.main(["screen", "--corpus", str(screen_inputs.corpus),
                         "--candidates", str(screen_inputs.candidates), "--quota", "0.25",
                         "--out", str(tmp_path / "report.txt")])
    capsys.readouterr()
    assert code == 0
    metrics = tracer.layer_metrics()
    assert metrics["tables.rows_read"] == screen_inputs.corpus_rows + screen_inputs.candidate_rows
    assert metrics["indicators.corpus_groups"] == screen_inputs.groups
    assert metrics["tables.read_corpus_s"] > 0 and metrics["tables.read_candidates_s"] > 0
