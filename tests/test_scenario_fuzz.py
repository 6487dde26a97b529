"""Scenario fuzzing: one mutated field ends in exit 0, 1 or 2, never in a
traceback, and every exit-2 message names its location.  The fuzzed
documents are the demo scenario, one of every kind, and the three benchmark
workloads' scenarios, all at small sizes.  Unfuzzed, at full size, the demo
and the workloads at seed 2 write pinned report bytes."""

import copy
import hashlib
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


# sha256 of every report (--format both), and the exit code, of the demo
# scenario and of each workload's scenario at seed 2; a change that alters
# these bytes on purpose updates them and says why
PINNED_REPORTS = {
    "ensemble": (1, {
        "0-simulate.csv":
            "e205141fe10a0836bb9bba3ce0e4fbbf00583d5cd71587251b4a3504cded6663",
        "0-simulate.json":
            "7a39f1fa0fdcb0721107d20dfbd3fb3ad24851f8a2d018159a1ed76600d48fe4",
        "1-check_observational_equivalence.json":
            "5b69d26aaea70445185654b981792b5913b6df9a6b5c2e8b9b261ef80f94409e",
        "2-check_observational_equivalence.json":
            "1208d844361af0bedfcea6af0d95ceb650a09794024269af3524f14faa797c94",
        "3-check_observational_equivalence.json":
            "a81c75601a14ed821b20d470f24d3a7baa5a5b350ca013825e0aa4eed7998c62",
        "4-check_stationarity.json":
            "4bf22c755be71ceea6a7fc4114a1b774f505f8889dbc788aacc29f62205fecfd",
    }),
    "long-path": (0, {
        "0-entropy.csv":
            "2f35f110a6fcbe321314cba65cba1ae42c2f85cc4c733b4b55f2d8b3f4cefa51",
        "0-entropy.json":
            "a5edd3429f4d5b1477582ee476aca3e1bb82a00c16fe2783115367ffd7ddfb77",
        "1-entropy.csv":
            "21c685b21bc8f83ebb39a6b47477f0430f2e42728b518d94f95b1a93fb00ce8e",
        "1-entropy.json":
            "b592e565eb3b828d2a33b9157eb8b61f3ce9ca70ddc687e815c80090f522f698",
    }),
    "phase-space": (1, {
        "0-check_invariant_union.json":
            "cc8502681fbe2b532961e70bcfbee58c97899380548c3ba5f9158738a2cdcba4",
        "1-check_invariant_union.json":
            "ab99cc4c21044f1fa7c3633ab9e87193f03cb1db899755ae171d65e0c8ac9301",
        "2-check_nontriviality.json":
            "b89012760f57d9ba97e0a744e531427b5b63e263bc4b3e90ee26329870c6f066",
        "3-check_measure_preservation.json":
            "b61275f2f91626ed510a9fa021d1abeb0f7dfa19e86902f11c1ee43db3e6fa00",
        "4-check_epsilon_congruence.json":
            "9c15aebbc6196a3cfb882b2c9ac600e206ffd590cf2dc61e875fd1a2189c7a8f",
        "5-check_epsilon_congruence.json":
            "324b824f9a44d20eb669b9ebfecb0eb0ef2a9b469ae3168eaa4075f0069d6ece",
    }),
    "scenario_basic": (0, {
        "0-simulate.csv":
            "40c7950eed6ecc07ab7aab249337931b5bd50ad46cb457dc5c823e65eddbb0bc",
        "0-simulate.json":
            "4787ba237c081f292461170fe56ebbf7e1f2ec460c2969cf6a9b458d0d71a77f",
        "1-check_observational_equivalence.json":
            "d1c73a5c50ece9a905c33c2eba29830621d50acefee514db801a29a2a01a6810",
        "2-check_nontriviality.json":
            "6ce066537f830d304fd718b901983503b463bbdec093297f57d0cfb01a13a6dc",
        "3-entropy.csv":
            "00cf43d4af97ca6b69e0dd302148edf3bb6eb2c86ed7f6bb94860a3b210175fb",
        "3-entropy.json":
            "563385e6fc607f06584e9714d441b90bae1a75930f6e83a977b47b7f6349cd4a",
    }),
}


@pytest.mark.parametrize("stem", sorted(PINNED_REPORTS))
def test_full_size_reports_are_pinned(tmp_path, stem):
    if stem == "scenario_basic":
        scenario = DEMO
    else:
        scenario = tmp_path / f"{stem}.json"
        scenario.write_text(json.dumps(_workloads.build(stem, 2)[0]))
    with redirect_stdout(io.StringIO()):
        code = run_scenario(scenario, out_dir=tmp_path / "reports", fmt="both")
    reports = sorted((tmp_path / "reports" / stem).iterdir())
    digests = {r.name: hashlib.sha256(r.read_bytes()).hexdigest() for r in reports}
    assert (code, digests) == PINNED_REPORTS[stem]
