"""The benchmark's tracer (bench/tracing.py) wraps functions and methods of
this package by name. Renaming or deleting one of them breaks the traced
benchmark run; this test makes it break the main suite too. It imports
bench/ and changes nothing there.
"""

import importlib
import sys
from pathlib import Path

import pytest

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
