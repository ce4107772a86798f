"""The package's modules import one another without a cycle."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "frugaleval"


def imported_modules(source: str, modules: set[str]) -> set[str]:
    """Package modules (by file stem, the package itself as __init__) that
    the source imports anywhere, under `if TYPE_CHECKING:` included."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [f"frugaleval.{node.module}" if node.module else "frugaleval"]
            names += [f"frugaleval.{alias.name}" for alias in node.names if not node.module]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            head, _, rest = name.partition(".")
            module = rest.split(".")[0] or "__init__"
            if head == "frugaleval" and module in modules:
                found.add(module)
    return found


def import_graph() -> dict[str, set[str]]:
    paths = sorted(PACKAGE.glob("*.py"))
    modules = {path.stem for path in paths}
    return {path.stem: imported_modules(path.read_text(encoding="utf-8"), modules) - {path.stem}
            for path in paths}


def test_type_checking_imports_are_edges():
    source = "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    from .ecology import Environment\n"
    assert imported_modules(source, {"ecology", "heuristics"}) == {"ecology"}


def test_the_graph_sees_the_known_imports():
    graph = import_graph()
    assert {"careers", "ecology", "heuristics", "indicators", "tables"} <= graph["cli"]
    assert "heuristics" in graph["ecology"]


def test_package_imports_form_no_cycle():
    graph = import_graph()
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        pytest.fail("import cycle: " + " -> ".join(exc.args[1]))


def numpy_imports(source: str) -> list[int]:
    """Lines of the source that import numpy, or a numpy submodule, by name."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name == "numpy" or name.startswith("numpy.") for name in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_numpy_imports_are_seen():
    source = "import os, numpy as np\nif True:\n    from numpy.linalg import lstsq\nimport numpyx\n"
    assert numpy_imports(source) == [1, 3]


def eager_imports(source: str, modules: set[str]) -> set[str]:
    """Package modules that the source imports when it is itself imported: at
    module level, under `if`/`try` included, but not under `if TYPE_CHECKING:`
    and not inside a function or class body."""
    found, todo = set(), list(ast.parse(source).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= imported_modules(ast.unparse(node), modules)
        elif isinstance(node, ast.If):
            if not (isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"):
                todo += node.body
            todo += node.orelse
        elif isinstance(node, ast.Try):
            todo += node.body + node.orelse + node.finalbody
            todo += [stmt for handler in node.handlers for stmt in handler.body]
    return found


def test_eager_imports_skip_deferred_ones():
    source = ("from typing import TYPE_CHECKING\nfrom . import heuristics\n"
              "if TYPE_CHECKING:\n    from .ecology import Environment\n"
              "def read():\n    from .careers import CareerSequence\n"
              "try:\n    import frugaleval.tables\nexcept ImportError:\n    pass\n")
    modules = {"careers", "ecology", "heuristics", "tables"}
    assert eager_imports(source, modules) == {"heuristics", "tables"}


def test_only_the_deferred_loader_imports_numpy():
    # Outside the array layers, numpy loads only through a deferred import: a
    # cli handler, a tables reader or the package's __getattr__. A module-level
    # import of an array layer anywhere else would load numpy for every command.
    paths = sorted(PACKAGE.glob("*.py"))
    modules = {path.stem for path in paths}
    sources = {path.stem: path.read_text(encoding="utf-8") for path in paths}
    eager = {name: eager_imports(source, modules) - {name} for name, source in sources.items()}
    loads_numpy = {name for name, source in sources.items() if numpy_imports(source)}
    while grown := {name for name, imports in eager.items() if imports & loads_numpy} - loads_numpy:
        loads_numpy |= grown
    assert loads_numpy == {"careers", "ecology"}


def test_only_the_array_layers_take_numpy():
    # heuristics is the scalar reference layer; its array forms live in ecology.
    # Of the commands, only bench and career import the array layers; the
    # others never load numpy.
    found = {path.stem for path in PACKAGE.glob("*.py")
             if numpy_imports(path.read_text(encoding="utf-8"))}
    assert found == {"careers", "ecology"}
