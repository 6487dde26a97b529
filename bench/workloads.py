"""The three benchmark workloads: their scenario files, direct API calls,
per-round symbol counts and the check each operation's output must pass.

`build(workload, seed)` is a pure function of its arguments: the same seed
gives the same scenario bytes and the same arrays.  Each scenario task and
each direct `entropy_rate` call is one operation.

Seeds.  The workload seed sets the scenario's master seed, which seeds every
task without a `seed` field, and the coin and rotation arrays.  Tasks whose
verdict is a 3-sigma Monte Carlo test that holds by construction (the
equivalence, stationarity and measure-preservation checks, and the simulate
table whose marginals are checked against a 3-sigma band) keep a pinned seed,
as the acceptance gate does: such a test fails by chance at its nominal rate
(about 0.3% per table, more where a verdict ORs several tables), and a
benchmark run must attempt the same operations with the same outcome on
every seed.  The pinned seeds are the acceptance gate's own (criteria 01, 03
and 04) and the measure-preservation test's.
"""

from __future__ import annotations

import random

import numpy as np

from reference import ROTATION_ALPHA

WORKLOADS = ("ensemble", "long-path", "phase-space")

# pinned Monte Carlo seeds (see the module docstring)
SEED_SIMULATE = 20_260_823  # criterion 01
SEED_STATIONARITY = 103  # criterion 03
SEED_FLOW_EQUIVALENCE = 109  # criterion 04
SEED_SHIFT_EQUIVALENCE = 113  # criterion 04
SEED_MEASURE_PRESERVATION = 29  # test_measure_preservation_rotation_passes

# ensemble sizes: criteria 03/04 grids and shifts at reduced n
ENSEMBLE_GRID = [0.0, 0.7, 1.9]
ENSEMBLE_SHIFTS = [0.3, 1.0, 1.7]
FLOW_GRIDS = [[0.0], [0.4, 1.1, 2.3]]
SHIFT_GRIDS = [[0.0], [0.0, 1.0, 2.0]]
DIFF_GRIDS = [[0.0, 1.0]]
N_SIMULATE = 4000
N_EQUIVALENCE = 4000
N_DIFFERENT = 2000
N_STATIONARITY = 2000

# long-path sizes
SM_LENGTH, SM_STEP, SM_LMAX = 10_000, 0.5, 6
BILLIARD_SEQS, BILLIARD_LENGTH, BILLIARD_STEP, BILLIARD_LMAX = 8, 4000, 0.5, 3
COIN_LENGTH, COIN_LMAX = 400_000, 8
ROTATION_SEQS, ROTATION_LENGTH, ROTATION_LMAX = 6, 70_000, 12

# phase-space sizes
N_INVARIANT_UNION = 2000
N_NONTRIVIALITY = 2000
NONTRIVIALITY_LAGS = [0.3, 1.0, 2.0]
N_MEASURE = 2000
MEASURE_TIMES = [0.5, 1.0, 2.0]
N_CONGRUENCE = 4000

FAIR_SEMI_MARKOV = {
    "kind": "semi_markov",
    "states": ["s1", "s2"],
    "matrix": [[0.5, 0.5], [0.5, 0.5]],
    "holding": {
        "s1": {"coeff": "1", "radicand": 1},
        "s2": {"coeff": "1", "radicand": 2},
    },
}
CHAIN_P = [[0.5, 0.5], [0.75, 0.25]]  # stationary law (0.6, 0.4)
OTHER_P = [[0.25, 0.75], [0.5, 0.5]]  # stationary law (0.4, 0.6)
BILLIARD = {
    "kind": "billiard",
    "width": 1.0,
    "height": 1.0,
    "obstacles": [{"center": [0.5, 0.5], "radius": 0.2}],
    "speed": 1.0,
}
TWO_PI_PLUS = 7.0  # upper angle bound covering [0, 2*pi)


def master_seed(workload, seed):
    return random.Random(f"obsequiv-bench:{workload}:{seed}").randrange(1, 2**31)


def _op(task, check, symbols, expect_verdict=None):
    return {"task": task, "check": check, "symbols": symbols, "verdict": expect_verdict}


def _ensemble(seed):
    grid_syms = lambda grids, n: sum(2 * n * len(g) for g in grids)
    ops = [
        _op(
            {"kind": "simulate", "process": "sm", "grid": ENSEMBLE_GRID,
             "n": N_SIMULATE, "seed": SEED_SIMULATE},
            "simulate_marginals", N_SIMULATE * len(ENSEMBLE_GRID),
        ),
        _op(
            {"kind": "check:observational_equivalence", "a": {"process": "sm"},
             "b": {"process": "sm", "representation": "flow"}, "grids": FLOW_GRIDS,
             "n": N_EQUIVALENCE, "seed": SEED_FLOW_EQUIVALENCE},
            "verdict", grid_syms(FLOW_GRIDS, N_EQUIVALENCE), "pass",
        ),
        _op(
            {"kind": "check:observational_equivalence", "a": {"process": "chain"},
             "b": {"process": "chain", "representation": "shift"}, "grids": SHIFT_GRIDS,
             "n": N_EQUIVALENCE, "seed": SEED_SHIFT_EQUIVALENCE},
            "chain_time0", grid_syms(SHIFT_GRIDS, N_EQUIVALENCE), "pass",
        ),
        _op(
            {"kind": "check:observational_equivalence", "a": {"process": "chain"},
             "b": {"process": "other"}, "grids": DIFF_GRIDS, "n": N_DIFFERENT},
            "verdict", grid_syms(DIFF_GRIDS, N_DIFFERENT), "fail",
        ),
        _op(
            {"kind": "check:stationarity", "source": {"process": "sm"},
             "grid": ENSEMBLE_GRID, "shifts": ENSEMBLE_SHIFTS, "n": N_STATIONARITY,
             "seed": SEED_STATIONARITY},
            "verdict", 2 * N_STATIONARITY * len(ENSEMBLE_GRID) * len(ENSEMBLE_SHIFTS), "pass",
        ),
    ]
    doc = {
        "seed": master_seed("ensemble", seed),
        "processes": {
            "sm": FAIR_SEMI_MARKOV,
            "chain": {"kind": "markov", "states": ["a", "b"], "matrix": CHAIN_P},
            "other": {"kind": "markov", "states": ["a", "b"], "matrix": OTHER_P},
        },
    }
    return doc, ops, []


def _long_path(seed):
    ops = [
        _op(
            {"kind": "entropy", "source": {"process": "sm"}, "step": SM_STEP,
             "length": SM_LENGTH, "sequences": 1, "L_max": SM_LMAX},
            "positive_rate", 2 * SM_LENGTH,
        ),
        _op(
            {"kind": "entropy", "source": {"system": "table", "observation": "quad"},
             "step": BILLIARD_STEP, "length": BILLIARD_LENGTH,
             "sequences": BILLIARD_SEQS, "L_max": BILLIARD_LMAX},
            "positive_rate", 2 * BILLIARD_SEQS * BILLIARD_LENGTH,
        ),
    ]
    doc = {
        "seed": master_seed("long-path", seed),
        "systems": {"table": BILLIARD},
        "observations": {"quad": {"kind": "grid", "system": "table", "nx": 2, "ny": 2}},
        "processes": {"sm": FAIR_SEMI_MARKOV},
    }
    rng = np.random.default_rng(np.random.SeedSequence([seed, 9]))
    coin = rng.integers(0, 2, COIN_LENGTH).astype(np.int8)
    ts = np.arange(float(ROTATION_LENGTH))
    rotation = np.stack(
        [((x + ROTATION_ALPHA * ts) % 1.0 >= 0.5).astype(np.int8)
         for x in rng.random(ROTATION_SEQS)]
    )
    direct = [
        {"name": "coin", "array": coin[None, :], "L_max": COIN_LMAX,
         "check": "coin_rate", "symbols": COIN_LENGTH},
        {"name": "rotation", "array": rotation, "L_max": ROTATION_LMAX,
         "check": "rotation_exact", "symbols": ROTATION_SEQS * ROTATION_LENGTH},
    ]
    return doc, ops, direct


def _phase_space(seed):
    half = lambda axis: {
        "label": "xy"[axis] + "<0.5",
        "box": {"lo": [0.0, 0.0, 0.0],
                "hi": [0.5 if axis == 0 else 1.0, 0.5 if axis == 1 else 1.0, TWO_PI_PLUS]},
        "measure": 0.5,
    }
    ops = [
        _op(
            {"kind": "check:invariant_union", "system": "table", "partition": "cells14",
             "horizon": 1.0, "n": N_INVARIANT_UNION},
            "verdict", 2 * N_INVARIANT_UNION, "pass",
        ),
        _op(
            {"kind": "check:invariant_union", "system": "identity", "partition": "quarters",
             "horizon": 1.0, "n": N_INVARIANT_UNION},
            "verdict", 2 * N_INVARIANT_UNION, "fail",
        ),
        _op(
            {"kind": "check:nontriviality", "system": "table", "observation": "quad",
             "lags": NONTRIVIALITY_LAGS, "n": N_NONTRIVIALITY},
            "verdict", 2 * N_NONTRIVIALITY * len(NONTRIVIALITY_LAGS), "pass",
        ),
        _op(
            {"kind": "check:measure_preservation", "system": "table",
             "sets": [half(0), half(1)], "times": MEASURE_TIMES, "n": N_MEASURE,
             "seed": SEED_MEASURE_PRESERVATION},
            "measure_half", N_MEASURE * len(MEASURE_TIMES), "pass",
        ),
        _op(
            {"kind": "check:epsilon_congruence", "system": "baker", "coding": "fine",
             "epsilon": 0.1, "n": N_CONGRUENCE},
            "fine_coding", N_CONGRUENCE, "pass",
        ),
        _op(
            {"kind": "check:epsilon_congruence", "system": "baker", "coding": "coarse",
             "epsilon": 0.1, "n": N_CONGRUENCE},
            "verdict", N_CONGRUENCE, "fail",
        ),
    ]
    doc = {
        "seed": master_seed("phase-space", seed),
        "systems": {
            "table": BILLIARD,
            "identity": {"kind": "rotation", "alpha": 1.0},
            "baker": {"kind": "baker"},
        },
        "observations": {
            "cells14": {"kind": "grid", "system": "table", "nx": 7, "ny": 2},
            "quad": {"kind": "grid", "system": "table", "nx": 2, "ny": 2},
            "quarters": {"kind": "intervals", "system": "identity",
                         "breaks": [0.0, 0.25, 0.5, 0.75, 1.0],
                         "labels": ["q0", "q1", "q2", "q3"]},
            "fine": {"kind": "grid", "system": "baker", "nx": 16, "ny": 16},
            "coarse": {"kind": "grid", "system": "baker", "nx": 2, "ny": 1},
        },
    }
    return doc, ops, []


def build(workload, seed):
    """(scenario document, scenario operations, direct entropy calls)."""
    doc, ops, direct = {
        "ensemble": _ensemble,
        "long-path": _long_path,
        "phase-space": _phase_space,
    }[workload](seed)
    doc["tasks"] = [op["task"] for op in ops]
    return doc, ops, direct


def symbols_per_round(ops, direct):
    return sum(op["symbols"] for op in ops) + sum(d["symbols"] for d in direct)


def expected_exit(ops):
    """The CLI exits 1 when any check fails, so 1 iff a negative fixture runs."""
    return 1 if any(op["verdict"] == "fail" for op in ops) else 0
