"""The package's internal import graph, read from the source with ast:
module-level and function-level imports alike."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import obsequiv

PACKAGE = Path(obsequiv.__file__).resolve().parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _imports(path):
    """(module, name) for every name a module imports from the package; a
    whole submodule, as in `from . import checks`, is (checks, None)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found |= {(alias.name.split(".")[1], None) for alias in node.names
                      if alias.name.startswith("obsequiv.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "obsequiv" and not module.startswith("obsequiv."):
                    continue
                module = module.removeprefix("obsequiv").lstrip(".")
            for alias in node.names:
                if module:
                    found.add((module, alias.name))
                elif alias.name in MODULES:
                    found.add((alias.name, None))
                else:
                    found.add(("__init__", alias.name))
    return found


GRAPH = {path.stem: _imports(path) for path in PACKAGE.glob("*.py")}


def test_fdd_imports_nothing_from_checks():
    assert not [name for module, name in GRAPH["fdd"] if module == "checks"]


def test_checks_imports_neither_representations_nor_process_specs():
    imported = GRAPH["checks"]
    assert not [name for module, name in imported if module == "representation"]
    assert not {"MarkovChainSpec", "SemiMarkovSpec"} & {name for _, name in imported}


def test_internal_import_graph_has_no_cycle():
    graph = {module: {dep for dep, _ in deps} for module, deps in GRAPH.items()}
    assert "checks" in graph["scenario"]  # the reader sees package imports
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")
