"""Scenario fuzzing: one mutated field ends in exit 0, 1 or 2, never in a
traceback, and every exit-2 message names its location.  The fuzzed
documents are the demo scenario, one of every kind, and the three benchmark
workloads' scenarios, all at small sizes."""

import copy
import importlib.util
import io
import json
import math
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obsequiv.scenario import run_scenario

ROOT = Path(__file__).resolve().parents[1]
DEMO = ROOT / "demos" / "scenario_basic.json"
BENCH = ROOT / "bench"


def _small(doc):
    for task in doc["tasks"]:
        if "n" in task:
            task["n"] = 100
        if task["kind"] == "entropy":
            task.update(length=400, L_max=2)
    return doc


def _bench_workloads():
    """bench/workloads.py, loaded by file path; it imports bench/reference.py
    by module name."""
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


# every task, system and observation kind, at small sizes
EVERY_KIND = {
    "seed": 7,
    "systems": {
        "rot": {"kind": "rotation", "alpha": 0.41421356237},
        "table": {"kind": "billiard", "width": 1.0, "height": 1.0, "speed": 1.0,
                  "obstacles": [{"center": [0.5, 0.5], "radius": 0.2}]},
        "baker": {"kind": "baker"},
    },
    "observations": {
        "halves": {"kind": "intervals", "system": "rot", "breaks": [0.0, 0.5, 1.0],
                   "labels": ["a", "b"]},
        "quarters": {"kind": "intervals", "system": "rot",
                     "breaks": [0.0, 0.25, 0.5, 0.75, 1.0], "labels": ["q0", "q1", "q2", "q3"]},
        "quad": {"kind": "grid", "system": "table", "nx": 2, "ny": 2},
        "sides": {"kind": "boxes", "system": "baker", "labels": ["l", "r"], "symbols": ["x", "y"],
                  "cells": [[{"lo": [0.0, 0.0], "hi": [0.5, 1.0]}],
                            [{"lo": [0.5, 0.0], "hi": [1.0, 1.0]}]]},
    },
    "processes": {
        "chain": {"kind": "markov", "states": ["a", "b"], "matrix": [[0.5, 0.5], [0.25, 0.75]],
                  "order": 1},
        "sm": {"kind": "semi_markov", "states": ["a", "b"], "matrix": [[0.5, 0.5], [0.5, 0.5]],
               "holding": {"a": {"coeff": "1"}, "b": {"coeff": "1/2", "radicand": 2}}},
    },
    "tasks": [
        {"kind": "simulate", "process": "chain", "grid": [0.0, 1.0], "n": 50, "seed": 3},
        {"kind": "simulate", "system": "table", "observation": "quad", "grid": [0.0, 0.5],
         "n": 10},
        {"kind": "entropy", "source": {"process": "sm", "representation": "flow"},
         "step": 0.5, "length": 400, "sequences": 1, "L_max": 2},
        {"kind": "check:observational_equivalence", "a": {"process": "sm"},
         "b": {"process": "sm", "representation": "shift"}, "grids": [[0.0, 1.1]], "n": 50},
        {"kind": "check:nontriviality", "system": "rot", "observation": "halves",
         "lags": [1.0], "n": 50},
        {"kind": "check:stationarity", "source": {"system": "baker", "observation": "sides"},
         "grid": [0.0, 1.0], "shifts": [1.0], "n": 50},
        {"kind": "check:measure_preservation", "system": "rot", "times": [1.0], "n": 50,
         "sets": [{"label": "h", "box": {"lo": [0.0], "hi": [0.5]}, "measure": 0.5}]},
        {"kind": "check:invariant_union", "system": "rot", "partition": "quarters",
         "horizon": 1.0, "tol": 0.01, "n": 50},
        {"kind": "check:simulation", "mode": "weak", "system": "rot", "phi": "halves",
         "psi": "quarters", "epsilon": 0.1, "grids": [[0.0, 1.0]], "n": 50,
         "gamma": {"q0": "a", "q1": "a", "q2": "b", "q3": "b"}},
        {"kind": "check:epsilon_congruence", "system": "baker", "coding": "sides",
         "epsilon": 0.5, "n": 50},
    ],
}

EXACT = {"demo": _small(json.loads(DEMO.read_text())), "every_kind": EVERY_KIND}
_workloads = _bench_workloads()
BENCH_DOCS = {
    f"bench_{w}": _small(_workloads.build(w, 2)[0]) for w in _workloads.WORKLOADS
}
DOCS = {**EXACT, **BENCH_DOCS}


def _paths(node, prefix=()):
    """The path (a tuple of keys and indices) of every value below node."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


DELETE = object()
SWAPS = ["x", 7, 2.5, True, None, [1], {"k": 1}]


def _mutations(value):
    """Each mutation of one field: type swaps, deletion, an empty list, a
    nested list, a negative value, NaN and Infinity."""
    negative = -value if isinstance(value, (int, float)) and not isinstance(value, bool) else -1
    swaps = [s for s in SWAPS if type(s) is not type(value)]
    return swaps + [DELETE, [], [value], negative, math.nan, math.inf]


def _mutated(doc, path, mutation):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if mutation is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = mutation
    return doc


def _value(doc, path):
    for key in path:
        doc = doc[key]
    return doc


LOCATION = re.compile(
    r"configuration error: "
    r"(\S+\.json: |tasks\[\d+\][ :]|(systems|observations|processes)[.: ])"
)


def _run(doc, out):
    scenario = out / "fuzz.json"
    scenario.write_text(json.dumps(doc))
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run_scenario(scenario, out_dir=out / "reports")
    return code, buf.getvalue()


@pytest.mark.parametrize("name", sorted(EXACT))
def test_unmutated_scenarios_run(tmp_path, name):
    assert _run(DOCS[name], tmp_path) == (0, "")


@pytest.mark.parametrize("name", sorted(BENCH_DOCS))
def test_unmutated_benchmark_scenarios_run(tmp_path, name):
    """Exit 1 is a Monte Carlo verdict that can flip at small n; exit 2 is a
    configuration error, which an unmutated benchmark scenario never has."""
    code, out = _run(DOCS[name], tmp_path)
    assert code in (0, 1) and out == ""


@st.composite
def _mutation(draw):
    doc = DOCS[draw(st.sampled_from(sorted(DOCS)))]
    path = draw(st.sampled_from(list(_paths(doc))))
    mutation = draw(st.sampled_from(_mutations(_value(doc, path))))
    return _mutated(doc, path, mutation)


@given(_mutation())
@settings(max_examples=300, deadline=None)
def test_one_mutated_field_exits_cleanly(tmp_path_factory, doc):
    code, out = _run(doc, tmp_path_factory.mktemp("fuzz"))
    assert code in (0, 1, 2)
    if code == 2:
        assert LOCATION.match(out), out
