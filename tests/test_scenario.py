"""Scenario files, the runner's exit codes, and the command-line front end."""

import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest

from obsequiv.cli import main
from obsequiv.processes import MAX_PATH_STEPS
from obsequiv.scenario import (
    COMMON,
    KINDS,
    NESTED,
    SCENARIO,
    Scenario,
    ScenarioError,
    run_scenario,
)


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc, indent=2))
    return p


PASSING = {
    "seed": 1234,
    "processes": {
        "p": {"kind": "markov", "states": ["s1", "s2"], "matrix": [[0.5, 0.5], [0.75, 0.25]]}
    },
    "tasks": [
        {"kind": "simulate", "process": "p", "grid": [0.0, 1.0], "n": 200},
        {
            "kind": "check:observational_equivalence",
            "a": {"process": "p"},
            "b": {"process": "p"},
            "grids": [[0.0, 1.0]],
            "n": 500,
        },
    ],
}


def test_passing_scenario_exit_zero_and_reports(tmp_path):
    scn = _write(tmp_path, "ok.json", PASSING)
    out = tmp_path / "out"
    assert run_scenario(scn, out_dir=out) == 0
    sim = json.loads((out / "ok" / "0-simulate.json").read_text())
    assert sim["kind"] == "simulate"
    chk = json.loads((out / "ok" / "1-check_observational_equivalence.json").read_text())
    assert chk["schema"] == 1
    assert chk["verdict"] == "pass"


def test_failing_check_exit_one(tmp_path):
    doc = {
        "seed": 9,
        "processes": {
            "p": {"kind": "markov", "states": ["s1", "s2"], "matrix": [[0.5, 0.5], [0.5, 0.5]]},
            "q": {"kind": "markov", "states": ["a", "b"], "matrix": [[0.5, 0.5], [0.5, 0.5]]},
        },
        "tasks": [
            {
                "kind": "check:observational_equivalence",
                "a": {"process": "p"},
                "b": {"process": "q"},
                "grids": [[0.0]],
                "n": 100,
            }
        ],
    }
    scn = _write(tmp_path, "bad.json", doc)
    assert run_scenario(scn, out_dir=tmp_path / "out") == 1
    report = json.loads((tmp_path / "out" / "bad" / "0-check_observational_equivalence.json").read_text())
    assert report["verdict"] == "fail"


def test_unknown_system_kind_exit_two(tmp_path):
    doc = {"seed": 1, "systems": {"s": {"kind": "lorenz", "sigma": 10}}, "tasks": []}
    assert run_scenario(_write(tmp_path, "lorenz.json", doc), out_dir=tmp_path / "o") == 2


def test_missing_seed_exit_two(tmp_path):
    assert run_scenario(_write(tmp_path, "noseed.json", {"tasks": []}), out_dir=tmp_path / "o") == 2


def test_malformed_json_exit_two(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert run_scenario(p, out_dir=tmp_path / "o") == 2


def test_undefined_reference_exit_two(tmp_path):
    doc = {
        "seed": 1,
        "tasks": [
            {
                "kind": "check:observational_equivalence",
                "a": {"process": "ghost"},
                "b": {"process": "ghost"},
                "grids": [[0.0]],
            }
        ],
    }
    assert run_scenario(_write(tmp_path, "ref.json", doc), out_dir=tmp_path / "o") == 2


def test_unsorted_process_grid_exit_two(tmp_path, capsys):
    doc = dict(PASSING, tasks=[{"kind": "simulate", "process": "p", "grid": [1.0, 0.0]}])
    assert run_scenario(_write(tmp_path, "unsorted.json", doc), out_dir=tmp_path / "o") == 2
    assert "tasks[0]" in capsys.readouterr().out


ROTATION = {
    "systems": {"rot": {"kind": "rotation", "alpha": 0.41421356237}},
    "observations": {
        "halves": {"kind": "intervals", "system": "rot", "breaks": [0.0, 0.5, 1.0],
                   "labels": ["a", "b"]},
        "quarters": {"kind": "intervals", "system": "rot",
                     "breaks": [0.0, 0.25, 0.5, 0.75, 1.0], "labels": ["q0", "q1", "q2", "q3"]},
    },
}


@pytest.mark.parametrize(
    "task",
    [
        {"kind": "simulate", "system": "rot", "observation": "halves", "grid": [1.0, 0.0]},
        {"kind": "check:nontriviality", "system": "rot", "observation": "halves",
         "lags": [0]},
        {"kind": "entropy", "source": {"system": "rot", "observation": "halves"},
         "length": 100, "L_max": 4},
        {"kind": "check:simulation", "mode": "weak", "system": "rot", "phi": "halves",
         "psi": "quarters", "epsilon": 0.1, "gamma": {"q0": "a", "q1": "a", "q2": "b"}},
        {"kind": "check:nontriviality", "system": "rot", "observation": "halves", "lags": 5},
        {"kind": "check:stationarity", "source": {"system": "rot", "observation": "halves"},
         "grid": [0.0], "shifts": 1.0},
        {"kind": "check:measure_preservation", "system": "rot", "times": 1.0,
         "sets": [{"label": "h", "box": {"lo": [0.0], "hi": [0.5]}, "measure": 0.5}]},
        {"kind": "check:measure_preservation", "system": "rot", "sets": [5], "times": [1.0]},
        {"kind": "check:measure_preservation", "system": "rot", "times": [1.0],
         "sets": [{"label": "h", "box": {"lo": [0.0, 0.0], "hi": [0.5, 1.0]}, "measure": 0.5}]},
        {"kind": "simulate", "system": "rot", "observation": "halves", "grid": [0.0], "n": [5]},
        {"kind": "simulate", "system": "rot", "observation": "halves", "grid": [0.0], "n": True},
        {"kind": "simulate", "system": "rot", "observation": "halves", "grid": [0.0], "n": 5.5},
        {"kind": "check:nontriviality", "system": "rot", "observation": "halves",
         "lags": [[1]]},
        {"kind": "simulate", "system": "rot", "observation": "halves", "grid": ["0"]},
        {"kind": "check:stationarity", "source": {"system": "rot", "observation": "halves"},
         "grid": [0.0], "shifts": [None]},
        {"kind": "check:observational_equivalence", "a": {"system": "rot", "observation": "halves"},
         "b": {"system": "rot", "observation": "halves"}, "grids": [[0.0, [1.0]]]},
        {"kind": "check:measure_preservation", "system": "rot", "times": [False],
         "sets": [{"label": "h", "box": {"lo": [0.0], "hi": [0.5]}, "measure": 0.5}]},
        {"kind": "entropy", "source": {"system": "rot", "observation": "halves"},
         "length": 1000, "L_max": "2"},
        {"kind": "check:invariant_union", "system": "rot", "partition": "halves",
         "horizon": 2.0, "tol": -1},
        {"kind": "check:simulation", "mode": "strong", "system": "rot", "phi": "halves",
         "psi": "halves", "epsilon": "0.1"},
        {"kind": "check:stationarity", "source": 5, "grid": [0.0], "shifts": [1.0]},
        {"kind": "check:observational_equivalence", "a": "process", "b": {"process": "p"},
         "grids": [[0.0]]},
        {"kind": "check:nontriviality", "system": ["rot"], "observation": "halves",
         "lags": [1.0]},
        {"kind": "check:nontriviality", "system": "rot", "observation": {"name": "halves"},
         "lags": [1.0]},
        {"kind": "check:simulation", "mode": "weak", "system": "rot", "phi": "halves",
         "psi": "quarters", "epsilon": 0.1, "gamma": 5},
        {"kind": "check:simulation", "mode": "weak", "system": "rot", "phi": "halves",
         "psi": "quarters", "epsilon": 0.1,
         "gamma": {"q0": ["a"], "q1": "a", "q2": "b", "q3": "b"}},
        {"kind": "simulate", "process": "p", "representation": "spin", "grid": [0.0]},
        {"kind": "check:invariant_union", "system": "baker", "partition": "one_cell",
         "horizon": 1.0},
        {"kind": "entropy", "source": {"system": "rot", "observation": "halves"},
         "length": 1000, "L_max": 0},
    ],
    ids=["unsorted_system_grid", "zero_lag", "undersampled_entropy", "gamma_misses_symbol",
         "lags_not_a_list", "shifts_not_a_list", "times_not_a_list", "set_not_an_object",
         "set_box_of_other_dimension", "n_a_list", "n_a_bool", "n_fractional", "lags_nested",
         "grid_of_strings", "shift_null", "grids_nested_too_deep", "time_a_bool",
         "L_max_a_string", "negative_tol", "epsilon_a_string", "side_a_number",
         "side_a_string", "system_name_a_list", "observation_name_an_object",
         "gamma_a_number", "gamma_image_a_list", "unknown_representation",
         "one_cell_invariant_union", "L_max_zero"],
)
def test_bad_task_input_exit_two(tmp_path, capsys, task):
    doc = dict(ROTATION, seed=1, tasks=[task], processes=PASSING["processes"])
    doc["systems"] = dict(ROTATION["systems"], baker={"kind": "baker"})
    doc["observations"] = dict(ROTATION["observations"],
                               one_cell={"kind": "grid", "system": "baker", "nx": 1, "ny": 1})
    assert run_scenario(_write(tmp_path, "bad.json", doc), out_dir=tmp_path / "o") == 2
    assert capsys.readouterr().out.startswith(f"configuration error: tasks[0] ({task['kind']})")


@pytest.mark.parametrize(
    "observation, message",
    [
        ({"kind": "grid", "system": "baker", "nx": 2.5}, "field 'nx' must be an integer"),
        ({"kind": "grid", "system": "ghost"}, "undefined system 'ghost'"),
        ({"kind": "boxes", "system": "rot", "labels": ["l", "r"],
          "cells": [[{"lo": [0.0, 0.0], "hi": [0.5, 1.0]}], [{"lo": [0.5, 0.0], "hi": [1.0, 1.0]}]]},
         "2-d box in the 1-d phase space"),
        ({"kind": "grid", "system": "rot"}, "a grid needs a 2-d phase space"),
        ({"kind": "grid", "system": "baker", "nx": 0}, "a grid needs at least one cell per axis"),
        ({"kind": "grid", "system": ["baker"]}, "field 'system' must be a name, got ['baker']"),
        ({"kind": "intervals", "system": "rot", "breaks": [0.0, 0.5, 1.0], "labels": [["l"], "r"]},
         "field 'labels' must hold strings, got [['l'], 'r']"),
        ({"kind": "intervals", "system": "rot", "breaks": [0.0, 0.5, 1.0], "labels": ["l", "r"],
          "symbols": ["a", 1]}, "field 'symbols' must hold strings, got ['a', 1]"),
    ],
    ids=["fractional_nx", "undefined_system", "boxes_of_other_dimension", "grid_on_1d_system",
         "zero_nx", "system_name_a_list", "label_a_list", "symbol_a_number"],
)
def test_bad_observation_exit_two(tmp_path, capsys, observation, message):
    doc = {
        "seed": 1,
        "systems": {"rot": {"kind": "rotation", "alpha": 0.41421356237}, "baker": {"kind": "baker"}},
        "observations": {"obs": observation},
        "tasks": [{"kind": "check:nontriviality", "system": "rot", "observation": "obs",
                   "lags": [1.0], "n": 500}],
    }
    assert run_scenario(_write(tmp_path, "obs.json", doc), out_dir=tmp_path / "o") == 2
    out = capsys.readouterr().out
    assert message in out
    assert out.startswith("configuration error: observations.obs: ")


@pytest.mark.parametrize(
    "section, definition, message",
    [
        ("systems", {"kind": "rotation", "alpha": "fast"},
         "systems.d: field 'alpha' must be a number, got 'fast'"),
        ("systems", {"kind": "billiard", "width": 1.0, "height": 1.0, "speed": 1.0,
                     "obstacles": [{"center": [0.5, 0.5], "radius": [0.1]}]},
         "systems.d.obstacles[0]: field 'radius' must be a number, got [0.1]"),
        ("processes", {"kind": "markov", "states": ["a", "b"], "matrix": [[0.5, 0.6], [1, 0]]},
         "processes.d: rows must sum to 1"),
        ("processes", {"kind": "markov", "states": ["a", "b"], "matrix": [[1, 0], [0, 1]],
                       "order": True},
         "processes.d: field 'order' must be an integer, got True"),
        ("processes", {"kind": "semi_markov", "states": ["a", "b"],
                       "matrix": [[0.5, 0.5], [0.5, 0.5]],
                       "holding": {"a": {"coeff": "1"}, "b": {"coeff": "one"}}},
         "processes.d: Invalid literal for Fraction: 'one'"),
        ("processes", {"kind": "markov", "states": "ab", "matrix": [[0.5, 0.5], [0.5, 0.5]]},
         "processes.d: field 'states' must be a list"),
        ("processes", {"kind": "markov", "states": 2, "matrix": [[0.5, 0.5], [0.5, 0.5]]},
         "processes.d: field 'states' must be a list"),
        ("processes", {"kind": "markov", "states": ["a", "a"], "matrix": [[0.5, 0.5], [0.5, 0.5]]},
         "processes.d: duplicate states in ('a', 'a')"),
        ("processes", {"kind": "markov", "states": ["a", "b"],
                       "matrix": [[0.5, {"p": 0.5}], [0.5, 0.5]]},
         "processes.d: field 'matrix' must hold numbers, got [[0.5, {'p': 0.5}], [0.5, 0.5]]"),
        ("processes", {"kind": "markov", "states": ["a", "b"], "matrix": [["0.5", 0.5], [0.5, 0.5]]},
         "processes.d: field 'matrix' must hold numbers, got [['0.5', 0.5], [0.5, 0.5]]"),
        ("processes", {"kind": "markov", "states": ["a", "b"], "matrix": [[math.nan, 1], [0.5, 0.5]]},
         "processes.d: transition probabilities must be finite"),
        ("processes", {"kind": "semi_markov", "states": ["a", "b"],
                       "matrix": [[0.5, 0.5], [0.5, 0.5]], "holding": ["a", "b"]},
         "processes.d: field 'holding' must be an object, got ['a', 'b']"),
        ("systems", {"kind": "billiard", "width": -1.0, "height": 1.0, "speed": 1.0},
         "systems.d: table width and height must be finite and positive, got -1.0 x 1.0"),
        ("systems", {"kind": "billiard", "width": 1.0, "height": 1.0, "speed": math.nan},
         "systems.d: speed must be finite and positive, got nan"),
        ("systems", {"kind": "billiard", "width": 1.0, "height": 1.0, "speed": 1.0,
                     "obstacles": [{"center": [0.5, 0.5], "radius": 0.0}]},
         "systems.d: obstacle radius must be positive"),
        ("systems", {"kind": "rotation", "alpha": math.nan},
         "systems.d: alpha must be finite, got nan"),
        ("systems", {"kind": "rotation", "alpha": math.inf},
         "systems.d: alpha must be finite, got inf"),
    ],
    ids=["alpha_a_string", "radius_a_list", "rows_off_one", "order_a_bool", "coeff_not_a_fraction",
         "states_a_string", "states_a_number", "duplicate_states", "matrix_entry_an_object",
         "matrix_entry_a_string", "matrix_entry_nan", "holding_a_list", "negative_width",
         "speed_nan", "zero_radius", "alpha_nan", "alpha_inf"],
)
def test_bad_definition_names_its_location(tmp_path, capsys, section, definition, message):
    doc = {"seed": 1, section: {"d": definition}, "tasks": []}
    assert run_scenario(_write(tmp_path, "def.json", doc), out_dir=tmp_path / "o") == 2
    assert capsys.readouterr().out == f"configuration error: {message}\n"


def test_task_kind_not_a_string_exit_two(tmp_path, capsys):
    doc = dict(ROTATION, seed=1, tasks=[{"kind": ["simulate"]}])
    assert run_scenario(_write(tmp_path, "kind.json", doc), out_dir=tmp_path / "o") == 2
    assert capsys.readouterr().out == (
        "configuration error: tasks[0]: field 'kind' must be a string, got ['simulate']\n"
    )


SEMI_MARKOV = {
    "sm": {"kind": "semi_markov", "states": ["s1", "s2"], "matrix": [[0.5, 0.5], [0.5, 0.5]],
           "holding": {"s1": {"coeff": "1"}, "s2": {"coeff": "1", "radicand": 2}}}
}


@pytest.mark.parametrize(
    "task, message",
    [
        ({"kind": "simulate", "process": "sm", "grid": [0.0, math.nan]}, "finite times"),
        ({"kind": "simulate", "process": "sm", "grid": [0.0, math.inf]}, "finite times"),
        ({"kind": "check:observational_equivalence", "a": {"process": "sm"},
          "b": {"process": "sm", "representation": "flow"}, "grids": [[0.0, math.inf]]},
         "finite times"),
        ({"kind": "entropy", "source": {"process": "sm"}, "step": math.inf, "length": 100,
          "L_max": 1}, "finite times"),
        ({"kind": "entropy", "source": {"process": "sm"}, "length": 1, "sequences": 400,
          "L_max": 2}, "no sequence is as long as the block length L=2"),
    ],
    ids=["grid_nan", "grid_infinite", "grids_infinite", "step_infinite", "no_full_block"],
)
def test_process_task_bad_times_exit_two(tmp_path, capsys, task, message):
    doc = {"seed": 1, "processes": SEMI_MARKOV, "tasks": [task]}
    assert run_scenario(_write(tmp_path, "times.json", doc), out_dir=tmp_path / "o") == 2
    out = capsys.readouterr().out
    assert out.startswith(f"configuration error: tasks[0] ({task['kind']}): ")
    assert message in out


@pytest.mark.parametrize(
    "task",
    [
        {"kind": "check:observational_equivalence", "a": {"process": "sm"},
         "b": {"process": "sm", "representation": "flow"}, "grids": [[0.0, 1.0], [2.0, 0.5]]},
        {"kind": "check:stationarity", "source": {"process": "sm"}, "grid": [0.0, 1.0],
         "shifts": [0.5, -0.5]},
        {"kind": "check:simulation", "mode": "strong", "system": "rot", "phi": "halves",
         "psi": "halves", "epsilon": 0.1, "grids": [[0.0], [1.0, 0.0]]},
    ],
    ids=["grids", "shifts", "simulation_grids"],
)
def test_bad_table_grid_exits_two_through_the_cli(tmp_path, capsys, task):
    """A later table's grid that is unsorted, or negative after its shift, is
    refused with the grid message although every table is read from one draw
    on the union of their times."""
    doc = dict(ROTATION, seed=1, processes=SEMI_MARKOV, tasks=[dict(task, n=50)])
    assert main([str(_write(tmp_path, "table.json", doc)), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().out == (f"configuration error: tasks[0] ({task['kind']}): "
                                       "time grid must be ascending and nonnegative\n")


# a valid scenario with every kind of nested object
NESTING = {
    "seed": 1,
    "systems": {
        **ROTATION["systems"],
        "table": {"kind": "billiard", "width": 1.0, "height": 1.0, "speed": 1.0,
                  "obstacles": [{"center": [0.5, 0.5], "radius": 0.2}]},
    },
    "observations": {
        **ROTATION["observations"],
        "sides": {"kind": "boxes", "system": "rot", "labels": ["l", "r"],
                  "cells": [[{"lo": [0.0], "hi": [0.5]}], [{"lo": [0.5], "hi": [1.0]}]]},
    },
    "processes": SEMI_MARKOV,
    "tasks": [
        {"kind": "check:invariant_union", "system": "rot", "partition": "quarters",
         "horizon": 1.0, "n": 50},
        {"kind": "check:observational_equivalence", "a": {"process": "sm"},
         "b": {"process": "sm"}, "grids": [[0.0]], "n": 50},
        {"kind": "check:measure_preservation", "system": "rot", "times": [1.0], "n": 50,
         "sets": [{"label": "h", "box": {"lo": [0.0], "hi": [0.5]}, "measure": 0.5}]},
    ],
}


def _misspelled(path, key):
    """NESTING with key added to the object at path (a tuple of keys)."""
    doc = copy.deepcopy(NESTING)
    node = doc
    for step in path:
        node = node[step]
    node[key] = 1e-9
    return doc


@pytest.mark.parametrize(
    "path, key, location",
    [
        (("tasks", 0), "tolerance", "tasks[0] (check:invariant_union)"),
        (("systems", "rot"), "alhpa", "systems.rot"),
        (("observations", "halves"), "label", "observations.halves"),
        (("processes", "sm"), "state", "processes.sm"),
        (("processes", "sm", "holding", "s2"), "radicant", "processes.sm.holding.s2"),
        (("systems", "table", "obstacles", 0), "centre", "systems.table.obstacles[0]"),
        (("observations", "sides", "cells", 1, 0), "low", "observations.sides.cells[1][0]"),
        (("tasks", 2, "sets", 0), "mesure", "tasks[2] (check:measure_preservation).sets[0]"),
        (("tasks", 2, "sets", 0, "box"), "high", "tasks[2] (check:measure_preservation).sets[0]"),
        (("tasks", 1, "b"), "representaton", "tasks[1] (check:observational_equivalence).b"),
        ((), "task", "unknown.json"),
    ],
    ids=["task", "system", "observation", "process", "holding_entry", "obstacle", "cell_box",
         "measure_set", "set_box", "side", "top_level"],
)
def test_unknown_field_exit_two(tmp_path, capsys, path, key, location):
    p = _write(tmp_path, "unknown.json", _misspelled(path, key))
    assert run_scenario(p, out_dir=tmp_path / "o") == 2
    out = capsys.readouterr().out
    assert out.startswith("configuration error: ")
    assert out.endswith(f"{location}: unknown field {key!r}\n")


def test_scenario_without_misspelling_runs(tmp_path):
    assert run_scenario(_write(tmp_path, "ok.json", NESTING), out_dir=tmp_path / "o") == 0


@pytest.mark.parametrize(
    "task",
    [
        {"kind": "simulate", "process": "chain", "grid": [0.0, 1e9]},
        {"kind": "simulate", "process": "sm", "grid": [0.0, 1e9]},
        {"kind": "simulate", "process": "sm", "representation": "flow", "grid": [0.0, 1e9]},
        {"kind": "entropy", "source": {"process": "chain"}, "length": 10**9, "L_max": 2},
        {"kind": "simulate", "system": "baker", "observation": "quad", "grid": [0.0, 1e9]},
        {"kind": "simulate", "process": "chain", "grid": [0.0, 1.0], "n": 10**9},
        {"kind": "simulate", "system": "baker", "observation": "quad", "grid": [0.0],
         "n": 10**9},
    ],
    ids=["markov", "semi_markov", "flow", "entropy_length", "baker_grid", "markov_n",
         "baker_n"],
)
def test_oversized_request_exits_two_within_a_second(tmp_path, capsys, within_a_second, task):
    """The bound covers the whole request, checked before the first chunk:
    n = 10^9 rows would need tens of GB, and a baker grid time of 10^9 is
    10^9 map steps per path."""
    doc = {"seed": 1, "processes": dict(SEMI_MARKOV, chain=PASSING["processes"]["p"]),
           "systems": {"baker": {"kind": "baker"}},
           "observations": {"quad": {"kind": "grid", "system": "baker"}},
           "tasks": [task]}
    assert run_scenario(_write(tmp_path, "big.json", doc), out_dir=tmp_path / "o") == 2
    out = capsys.readouterr().out
    assert out.startswith(f"configuration error: tasks[0] ({task['kind']}): ")
    assert f"more than the {MAX_PATH_STEPS} one sampling call may draw" in out


@pytest.mark.parametrize("speed", [1e6, 1e300], ids=["large", "inf"])
def test_fast_billiard_exits_two_within_a_second(tmp_path, capsys, within_a_second, speed):
    """Billiard events count in the size bound: speed * max grid * perimeter
    / (pi * free area) per path, refused before the first chunk, also when it
    overflows."""
    doc = {"seed": 1,
           "systems": {"table": {"kind": "billiard", "width": 1.0, "height": 1.0,
                                 "speed": speed}},
           "observations": {"quad": {"kind": "grid", "system": "table"}},
           "tasks": [{"kind": "simulate", "system": "table", "observation": "quad",
                      "grid": [0.0, 1e10], "n": 1}]}
    assert run_scenario(_write(tmp_path, "fast.json", doc), out_dir=tmp_path / "o") == 2
    out = capsys.readouterr().out
    assert out.startswith("configuration error: tasks[0] (simulate): ")
    assert f"more than the {MAX_PATH_STEPS} one sampling call may draw" in out


def test_oversized_chain_exit_two(tmp_path, capsys, within_a_second):
    """A random order-7 chain over 4 states is a valid table, but its 16,384
    recurrent contexts are refused before any stationary solve."""
    table = np.random.default_rng(7).dirichlet(np.ones(4), 4**7)
    doc = {"seed": 1, "processes": {"p": {"kind": "markov", "states": list("abcd"), "order": 7,
                                          "matrix": table.tolist()}},
           "tasks": [{"kind": "simulate", "process": "p", "grid": [0.0, 1.0], "n": 10}]}
    assert run_scenario(_write(tmp_path, "big.json", doc), out_dir=tmp_path / "o") == 2
    assert capsys.readouterr().out.startswith(
        "configuration error: tasks[0] (simulate): 16384 recurrent contexts need")


@pytest.mark.parametrize("order", [100_000, 100_000_000])
def test_huge_chain_order_exits_two_within_a_second(tmp_path, capsys, within_a_second, order):
    """3^order rows are refused before the power is computed, and the
    message writes it symbolically rather than as a number of order / 2
    digits."""
    chain = {"kind": "markov", "states": list("abc"), "order": order,
             "matrix": np.full((3, 3), 1 / 3).tolist()}
    doc = {"seed": 1, "processes": {"p": chain},
           "tasks": [{"kind": "simulate", "process": "p", "grid": [0.0, 1.0], "n": 10}]}
    assert run_scenario(_write(tmp_path, "order.json", doc), out_dir=tmp_path / "o") == 2
    assert capsys.readouterr().out == (f"configuration error: processes.p: order {order} needs "
                                       f"a table of shape (3^{order}, 3), got (3, 3)\n")


@pytest.mark.parametrize(
    "holding, message",
    [
        ({"coeff": "1", "radicand": 10**18 + 3},
         "processes.sm: radicand 1000000000000000003 is above MAX_RADICAND = 1000000000000"),
        ({"coeff": "1e400"}, "processes.sm: holding time is inf as a float"),
        ({"coeff": "1e-400"}, "processes.sm: holding time is 0.0 as a float"),
        ({"coeff": "1e10000000"},
         "processes.sm.holding.s1: field 'coeff' has exponent 10000000, far outside"),
        ({"coeff": "1e-10000000"},
         "processes.sm.holding.s1: field 'coeff' has exponent -10000000, far outside"),
    ],
    ids=["large_radicand", "huge_coeff", "tiny_coeff", "long_exponent", "long_negative_exponent"],
)
def test_bad_holding_time_exits_two_within_a_second(
    tmp_path, capsys, within_a_second, holding, message
):
    processes = copy.deepcopy(SEMI_MARKOV)
    processes["sm"]["holding"]["s1"] = holding
    doc = {"seed": 1, "processes": processes,
           "tasks": [{"kind": "simulate", "process": "sm", "grid": [0.0, 1.0], "n": 10}]}
    assert run_scenario(_write(tmp_path, "hold.json", doc), out_dir=tmp_path / "o") == 2
    assert capsys.readouterr().out.startswith(f"configuration error: {message}")


def test_size_bound_message_of_a_tiny_holding_time_is_short(tmp_path, capsys, within_a_second):
    """A valid holding time of 1e-300 asks for about 1e300 sojourns per path.
    The refusal prints its step counts in three significant digits, not as
    300-digit numbers."""
    processes = copy.deepcopy(SEMI_MARKOV)
    processes["sm"]["holding"]["s1"] = {"coeff": "1e-300"}
    doc = {"seed": 1, "processes": processes,
           "tasks": [{"kind": "simulate", "process": "sm", "grid": [0.0, 1.0], "n": 10}]}
    assert main([str(_write(tmp_path, "tiny.json", doc)), "--out", str(tmp_path / "o")]) == 2
    out = capsys.readouterr().out
    assert out.startswith("configuration error: tasks[0] (simulate): ")
    assert f"more than the {MAX_PATH_STEPS} one sampling call may draw" in out
    assert all(len(line) < 200 for line in out.splitlines())


@pytest.mark.parametrize("exponent", ["1e10000000", "1e-10000000", "0e-99999999"])
def test_fraction_field_refuses_a_far_exponent_before_expanding_it(within_a_second, exponent):
    processes = copy.deepcopy(SEMI_MARKOV)
    processes["sm"]["holding"]["s1"] = {"coeff": exponent}
    with pytest.raises(ScenarioError, match=r"^processes\.sm\.holding\.s1: field 'coeff'"):
        Scenario({"seed": 1, "processes": processes})


@pytest.mark.parametrize("coeff, value", [("1.5e-3", 0.0015), ("0.000001e310", 1e304),
                                          ("3/4", 0.75), ("2.5E+2", 250.0)])
def test_fraction_field_keeps_exponents_near_the_float_range(coeff, value):
    processes = copy.deepcopy(SEMI_MARKOV)
    processes["sm"]["holding"]["s1"] = {"coeff": coeff}
    assert Scenario({"seed": 1, "processes": processes}).processes["sm"].u("s1") == value


def test_oversized_grid_observation_exit_two(tmp_path, capsys, within_a_second):
    doc = {"seed": 1, "systems": {"baker": {"kind": "baker"}},
           "observations": {"fine": {"kind": "grid", "system": "baker",
                                     "nx": 100_000, "ny": 100_000}}}
    assert run_scenario(_write(tmp_path, "fine.json", doc), out_dir=tmp_path / "o") == 2
    assert capsys.readouterr().out.startswith(
        "configuration error: observations.fine: a 100000 x 100000 grid cuts the space")


def test_flow_of_a_markov_chain_exit_two(tmp_path, capsys):
    task = {"kind": "simulate", "process": "p", "representation": "flow", "grid": [0.0]}
    doc = dict(PASSING, tasks=[task])
    assert run_scenario(_write(tmp_path, "flow.json", doc), out_dir=tmp_path / "o") == 2
    assert capsys.readouterr().out == (
        "configuration error: tasks[0] (simulate): "
        "a flow needs a semi-Markov process, got MarkovChainSpec\n"
    )


def test_bad_master_seed_exit_two(tmp_path, capsys):
    doc = dict(PASSING, seed=[1])
    assert run_scenario(_write(tmp_path, "seed.json", doc), out_dir=tmp_path / "o") == 2
    assert "field 'seed' must be an integer" in capsys.readouterr().out


def test_demo_scenario_reports_share_the_schema(tmp_path):
    demo = Path(__file__).resolve().parents[1] / "demos" / "scenario_basic.json"
    assert run_scenario(demo, out_dir=tmp_path) == 0
    reports = sorted((tmp_path / "scenario_basic").glob("*.json"))
    kinds = {json.loads(p.read_text())["kind"] for p in reports}
    assert {"simulate", "entropy"} <= kinds
    for p in reports:
        obj = json.loads(p.read_text())
        assert obj["schema"] == 1, p.name


def test_determinism_byte_identical_json(tmp_path):
    scn = _write(tmp_path, "det.json", PASSING)
    run_scenario(scn, out_dir=tmp_path / "a")
    run_scenario(scn, out_dir=tmp_path / "b")
    for name in ("0-simulate.json", "1-check_observational_equivalence.json"):
        assert (tmp_path / "a" / "det" / name).read_bytes() == (
            tmp_path / "b" / "det" / name
        ).read_bytes()


def test_seed_override_changes_reports(tmp_path):
    scn = _write(tmp_path, "seeded.json", PASSING)
    run_scenario(scn, out_dir=tmp_path / "a")
    run_scenario(scn, out_dir=tmp_path / "b", seed=777)
    a = (tmp_path / "a" / "seeded" / "0-simulate.json").read_text()
    b = (tmp_path / "b" / "seeded" / "0-simulate.json").read_text()
    assert a != b


def test_scenario_with_system_and_observation(tmp_path):
    doc = {
        "seed": 5,
        "systems": {"rot": {"kind": "rotation", "alpha": 0.41421356237}},
        "observations": {
            "halves": {
                "kind": "intervals",
                "system": "rot",
                "breaks": [0.0, 0.5, 1.0],
                "labels": ["a", "b"],
            }
        },
        "tasks": [
            {
                "kind": "check:nontriviality",
                "system": "rot",
                "observation": "halves",
                "lags": [1.0],
                "n": 2000,
            }
        ],
    }
    assert run_scenario(_write(tmp_path, "rot.json", doc), out_dir=tmp_path / "o") == 0


def test_entropy_task_serializes(tmp_path):
    doc = {
        "seed": 3,
        "processes": {
            "p": {"kind": "markov", "states": ["s1", "s2"], "matrix": [[0.5, 0.5], [0.5, 0.5]]}
        },
        "tasks": [
            {"kind": "entropy", "source": {"process": "p"}, "length": 5000, "L_max": 3}
        ],
    }
    scn = _write(tmp_path, "ent.json", doc)
    assert run_scenario(scn, out_dir=tmp_path / "o") == 0
    obj = json.loads((tmp_path / "o" / "ent" / "0-entropy.json").read_text())
    assert obj["positive_rate"] is True
    assert len(obj["block_entropies"]) == 3
    assert [p.name for p in (tmp_path / "o").rglob("*") if p.is_file()] == ["0-entropy.json"]


def test_entropy_task_at_one_block_length_rates_by_its_entropy(tmp_path):
    """With L_max 1 there is no increment: the rate estimate is H_1."""
    doc = {"seed": 3, "processes": PASSING["processes"],
           "tasks": [{"kind": "entropy", "source": {"process": "p"}, "length": 1000,
                      "L_max": 1}]}
    assert run_scenario(_write(tmp_path, "ent1.json", doc), out_dir=tmp_path / "o") == 0
    obj = json.loads((tmp_path / "o" / "ent1" / "0-entropy.json").read_text())
    assert obj["increments"] == []
    assert obj["rate_estimate"] == obj["block_entropies"][0]


def test_scenario_object_validates_structure():
    with pytest.raises(ScenarioError):
        Scenario(["not", "a", "dict"])
    with pytest.raises(ScenarioError):
        Scenario({"seed": 1, "tasks": "nope"})


def test_cli_main_runs_and_maps_exit_codes(tmp_path, monkeypatch):
    scn = _write(tmp_path, "cli.json", PASSING)
    out = tmp_path / "cliout"
    assert main([str(scn), "--out", str(out)]) == 0
    assert {p.suffix for p in out.rglob("*") if p.is_file()} == {".json"}
    assert main([str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("alpha, shown", [(math.nan, "nan"), (math.inf, "inf")])
def test_cli_refuses_a_non_finite_rotation_alpha(tmp_path, capsys, within_a_second, alpha, shown):
    doc = dict(ROTATION, seed=1, tasks=[{"kind": "simulate", "system": "rot",
                                         "observation": "halves", "grid": [0.0], "n": 10}])
    doc["systems"] = {"rot": {"kind": "rotation", "alpha": alpha}}
    assert main([str(_write(tmp_path, "alpha.json", doc)), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().out == (
        f"configuration error: systems.rot: alpha must be finite, got {shown}\n")


@pytest.mark.parametrize("measure", [1.5, -0.5, math.nan, math.inf])
def test_measure_outside_the_unit_interval_exits_two_without_a_report(
        tmp_path, capsys, within_a_second, measure):
    doc = dict(ROTATION, seed=1, tasks=[
        {"kind": "check:measure_preservation", "system": "rot", "times": [1.0], "n": 10**6,
         "sets": [{"label": "h", "box": {"lo": [0.0], "hi": [0.5]}, "measure": measure}]}])
    out = tmp_path / "o"
    assert run_scenario(_write(tmp_path, "mu.json", doc), out_dir=out) == 2
    assert capsys.readouterr().out == (
        "configuration error: tasks[0] (check:measure_preservation): "
        f"set 'h' has measure {measure}, outside [0, 1]\n")
    assert not [p for p in out.rglob("*") if p.is_file()]


def test_cli_rejects_removed_jobs_flag(tmp_path):
    scn = _write(tmp_path, "jobs.json", PASSING)
    with pytest.raises(SystemExit) as exc:
        main([str(scn), "--out", str(tmp_path / "o"), "--jobs", "2"])
    assert exc.value.code == 2


def test_cli_rejects_removed_format_flag(tmp_path, capsys):
    """JSON is the one report format: --format is an unknown argument."""
    scn = _write(tmp_path, "fmt.json", PASSING)
    with pytest.raises(SystemExit) as exc:
        main([str(scn), "--out", str(tmp_path / "o"), "--format", "both"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_seed_override(tmp_path):
    scn = _write(tmp_path, "ovr.json", PASSING)
    assert main([str(scn), "--out", str(tmp_path / "a"), "--seed", "42"]) == 0
    assert main([str(scn), "--out", str(tmp_path / "b"), "--seed", "42"]) == 0
    assert (tmp_path / "a" / "ovr" / "0-simulate.json").read_bytes() == (
        tmp_path / "b" / "ovr" / "0-simulate.json"
    ).read_bytes()


def _readme_tables():
    """{heading: (kinds line, sorted table rows)} under README's "Scenario fields"."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("\n## Scenario fields\n")[1].split("\n## ")[0]
    tables = {}
    for part in section.split("\n### ")[1:]:
        heading, *lines = part.splitlines()
        kinds = [line for line in lines if line.startswith("Kinds: ")]
        rows = [tuple(cell.strip().strip("`") for cell in line.strip("|").split("|"))
                for line in lines if line.startswith("|")]
        tables[heading] = (kinds, sorted(rows[2:]))  # rows[:2]: header and rule
    return tables


def _rows(table, *kind):
    def default(row):
        return "required" if len(row) == 1 else "none" if row[1] is None else json.dumps(row[1])
    return [(*kind, field, row[0], default(row)) for field, row in table.items()]


def test_readme_lists_exactly_the_scenario_fields():
    expected = {
        "Top level": ([], sorted(_rows(SCENARIO))),
        "Nested objects": ([], sorted(r for name, t in NESTED.items() for r in _rows(t, name))),
    }
    for section, kinds in KINDS.items():
        rows = _rows(COMMON[section], "every")
        rows += [r for kind, table in kinds.items() for r in _rows(table, kind)]
        expected[section] = (["Kinds: " + ", ".join(f"`{k}`" for k in kinds) + "."], sorted(rows))
    assert _readme_tables() == expected
