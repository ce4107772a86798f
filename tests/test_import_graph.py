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


def test_only_the_deferred_loader_imports_numpy():
    # a direct import would load numpy at start-up for every command (see _numpy)
    found = {path.name: numpy_imports(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "_numpy.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_only_the_array_layers_take_numpy():
    # heuristics is the scalar reference layer; its array forms live in ecology,
    # and the pair walker that ecology and careers share lives in _pairs
    graph = import_graph()
    assert {module for module, imports in graph.items() if "_numpy" in imports} == {
        "_pairs", "careers", "ecology"}
