"""Declarative scenario files: named systems, observations, processes, and
a task list, all read on load.  The runner executes the tasks in order, writing
one JSON report per task; identical input and seed give byte-identical JSON.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import checks, entropy as entropy_mod
from .checks import ObservedSystemSource
from .fdd import REPORT_SCHEMA, CheckReport, estimate_fdd
from .partitions import (
    Box,
    ObservationFunction,
    Partition,
    grid_partition,
    interval_partition,
)
from .processes import HoldingTime, MarkovChainSpec, SemiMarkovSpec, check_path_steps
from .representation import SemiMarkovFlowRep, ShiftRepresentation
from .systems import BakerMap, BilliardFlow, RotationFlow

__all__ = ["ScenarioError", "Scenario", "run_scenario"]


class ScenarioError(ValueError):
    """Configuration problem; maps to exit code 2."""


# ---------------------------------------------------------------------------
# the schema: each field a scenario may hold, as (JSON type, default); a row
# without a default is a required field.  A system, observation or process
# is the name of a definition in that section, a side an object of SIDE
# fields, and [t] a list of t.

# JSON type -> (the Python classes of its values, what a value must be)
_TYPES = {
    "number": ((int, float), "a number"), "integer": (int, "an integer"),
    "string": (str, "a string"), "fraction": ((str, int, float), "a fraction"),
    "object": (dict, "an object"), "side": (dict, "an object"),
    "system": (str, "a name"), "observation": (str, "a name"), "process": (str, "a name"),
}
_SECTION_OF = {"system": "systems", "observation": "observations", "process": "processes"}

N = ("integer", 1000)  # the Monte Carlo sample size of a task
SCENARIO = {"seed": ("integer",), "systems": ("object", {}), "observations": ("object", {}),
            "processes": ("object", {}), "tasks": ("[object]", [])}
SIDE = {"process": ("process", None), "representation": ("string", None),
        "system": ("system", None), "observation": ("observation", None)}
# the fields every kind of a section has
COMMON = {
    "systems": {"kind": ("string",)},
    "observations": {"kind": ("string",), "system": ("system",), "symbols": ("[string]", None)},
    "processes": {"kind": ("string",), "states": ("[string]",), "matrix": ("[[number]]",),
                  "order": ("integer", 1)},
    "tasks": {"kind": ("string",), "seed": ("integer", None)},
}
# the further fields of each kind
KINDS = {
    "systems": {
        "rotation": {"alpha": ("number",)},
        "billiard": {"width": ("number",), "height": ("number",), "speed": ("number",),
                     "obstacles": ("[object]", [])},
        "baker": {},
    },
    "observations": {
        "intervals": {"breaks": ("[number]",), "labels": ("[string]",)},
        "grid": {"nx": ("integer", 2), "ny": ("integer", 2)},
        "boxes": {"cells": ("[[object]]",), "labels": ("[string]",)},
    },
    "processes": {"markov": {}, "semi_markov": {"holding": ("object",)}},
    "tasks": {
        "simulate": {"grid": ("[number]",), "n": N, **SIDE},
        "entropy": {"source": ("side",), "step": ("number", 1.0), "length": ("integer", 10_000),
                    "sequences": ("integer", 1), "L_max": ("integer",)},
        "check:observational_equivalence": {"a": ("side",), "b": ("side",),
                                            "grids": ("[[number]]",), "n": N},
        "check:nontriviality": {"system": ("system",), "observation": ("observation",),
                                "lags": ("[number]",), "n": N},
        "check:stationarity": {"source": ("side",), "grid": ("[number]",),
                               "shifts": ("[number]",), "n": N},
        "check:measure_preservation": {"system": ("system",), "sets": ("[object]",),
                                       "times": ("[number]",), "n": N},
        "check:invariant_union": {"system": ("system",), "partition": ("observation",),
                                  "horizon": ("number",), "tol": ("number", 0.01), "n": N},
        "check:simulation": {"system": ("system",), "phi": ("observation",),
                             "psi": ("observation",), "epsilon": ("number",),
                             "gamma": ("object", None), "n": N},
        "check:epsilon_congruence": {"system": ("system",), "coding": ("observation",),
                                     "epsilon": ("number",), "n": N},
    },
}
# objects nested in a definition or task
NESTED = {
    "obstacle": {"center": ("[number]",), "radius": ("number",)},
    "box": {"lo": ("[number]",), "hi": ("[number]",)},
    "holding": {"coeff": ("fraction",), "radicand": ("integer", 1)},
    "set": {"label": ("string",), "box": ("object",), "measure": ("number",)},
    "side": SIDE,
}
REQUIRED = object()  # the default of a required field


def _field(cfg, key, where, type, default=REQUIRED):
    """Field key of the JSON object cfg, checked against its JSON type (a
    bool is never a number); default when the field is absent."""
    if key not in cfg:
        if default is REQUIRED:
            raise ScenarioError(f"{where}: missing field {key!r}")
        return default
    value = cfg[key]
    depth = type.count("[")
    classes, what = _TYPES[type.strip("[]")]
    items = [value]
    for _ in range(depth):
        if not all(isinstance(v, list) for v in items):
            lists = " of lists" * (depth - 1)
            raise ScenarioError(f"{where}: field {key!r} must be a list{lists}")
        items = [x for v in items for x in v]
    if any(isinstance(x, bool) or not isinstance(x, classes) for x in items):
        what = f"hold {what.split()[-1]}s" if depth else f"be {what}"
        raise ScenarioError(f"{where}: field {key!r} must {what}, got {value!r}")
    if key != "seed" and any(isinstance(x, int) and abs(x) > sys.float_info.max
                             for x in items):  # float(x) would overflow; SeedSequence takes any
        raise ScenarioError(f"{where}: field {key!r} holds an integer beyond the float range")
    if type == "number":
        return float(value)
    if type != "fraction":
        return value
    # an exponent beyond len(mantissa) + 2 * 308 puts the value far outside the
    # float range, and Fraction would spend seconds expanding it
    mantissa, _, exponent = str(value).lower().partition("e")
    digits = exponent.strip().lstrip("+-").replace("_", "")
    if digits.isdigit() and int(digits) > len(mantissa) + 2 * sys.float_info.max_10_exp:
        raise ScenarioError(
            f"{where}: field {key!r} has exponent {exponent}, far outside the float range")
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise ScenarioError(f"{where}: field {key!r} must be a fraction, got {value!r}") from None


def _seed(seed, where):
    """A master or task seed, which SeedSequence needs non-negative."""
    if seed is not None and seed < 0:
        shown = seed if seed >= -sys.float_info.max else "an integer beyond the float range"
        raise ScenarioError(f"{where} must be non-negative, got {shown}")
    return seed


@contextmanager
def _at(where):
    """Raise a package error of the block as a ScenarioError at where."""
    try:
        yield
    except ScenarioError:
        raise
    except ValueError as exc:  # every package error is a ValueError
        raise ScenarioError(f"{where}: {exc}") from exc


def _read(cfg, where, table):
    """{field: value} over every row of table, read from the JSON object
    cfg; a key that is not in the table is an error."""
    if not isinstance(cfg, dict):
        raise ScenarioError(f"{where}: must be an object")
    for key in cfg:
        if key not in table:
            raise ScenarioError(f"{where}: unknown field {key!r}")
    return {key: _field(cfg, key, where, *row) for key, row in table.items()}


def _kind_table(cfg, where, section):
    """The table of cfg, a definition or task of section: the fields common
    to the section, then those of cfg's kind."""
    if not isinstance(cfg, dict):
        raise ScenarioError(f"{where}: must be an object")
    kind = _field(cfg, "kind", where, "string")
    if kind not in KINDS[section]:
        raise ScenarioError(f"{where}: unsupported kind {kind!r}")
    return {**COMMON[section], **KINDS[section][kind]}


def _box(cfg, where):
    box = _read(cfg, where, NESTED["box"])
    return Box(tuple(box["lo"]), tuple(box["hi"]))


def _set(cfg, where, space):
    s = _read(cfg, where, NESTED["set"])
    box = _box(s["box"], where)
    if box.dim != space.dim:
        raise ScenarioError(f"{where}: a {box.dim}-d box in the {space.dim}-d space {space.name!r}")
    return s["label"], box.contains, s["measure"]


# ---------------------------------------------------------------------------
# definition builders: each takes the fields read by its kind's table


def _build_system(f, where):
    if f["kind"] == "rotation":
        return RotationFlow(f["alpha"])
    if f["kind"] == "billiard":
        obstacles = []
        for k, o in enumerate(f["obstacles"]):
            o = _read(o, at := f"{where}.obstacles[{k}]", NESTED["obstacle"])
            if len(o["center"]) != 2:
                raise ScenarioError(f"{at}: the center needs 2 coordinates, got {o['center']}")
            obstacles.append((tuple(o["center"]), o["radius"]))
        return BilliardFlow(f["width"], f["height"], obstacles, f["speed"])
    return BakerMap()


def _build_observation(f, where):
    space = f["system"].space
    if f["kind"] == "intervals":
        part = interval_partition(f["breaks"], f["labels"], space=space)
    elif f["kind"] == "grid":
        part = grid_partition(f["nx"], f["ny"], space=space)
    else:
        cells = tuple(tuple(_box(b, f"{where}.cells[{i}][{j}]") for j, b in enumerate(cell))
                      for i, cell in enumerate(f["cells"]))
        part = Partition(space, cells, tuple(f["labels"]))
    return ObservationFunction(part, f["symbols"])


def _build_process(f, where):
    chain = MarkovChainSpec(tuple(f["states"]), np.asarray(f["matrix"], dtype=float), f["order"])
    if f["kind"] == "markov":
        return chain
    holding = {}
    for s, h in f["holding"].items():
        h = _read(h, f"{where}.holding.{s}", NESTED["holding"])
        holding[s] = HoldingTime(h["coeff"], h["radicand"])
    return SemiMarkovSpec(chain, holding)


class Scenario:
    def __init__(self, doc, path="<scenario>"):
        top = _read(doc, path, SCENARIO)
        self.seed = _seed(top["seed"], f"{path}: field 'seed'")
        self.systems = self._build_all(top, "systems", _build_system)
        self.observations = self._build_all(top, "observations", _build_observation)
        self.processes = self._build_all(top, "processes", _build_process)
        self.tasks = [self._read_task(idx, task) for idx, task in enumerate(top["tasks"])]

    def _build_all(self, top, section, build):
        """{name: build(fields, where)} over a section; errors name section.name."""
        built = {}
        for name, cfg in top[section].items():
            where = f"{section}.{name}"
            with _at(where):
                built[name] = build(self.read(cfg, where, _kind_table(cfg, where, section)), where)
        return built

    def _read_task(self, idx, task):
        """(where, fields) of task idx (see read), with its own side, sets and gamma built."""
        kind = _field(task, "kind", f"tasks[{idx}]", "string")
        where = f"tasks[{idx}] ({kind})"
        with _at(where):
            f = self.read(task, where, _kind_table(task, where, "tasks"))
            _seed(f["seed"], f"{where}: field 'seed'")
            if kind == "simulate":
                f["source"] = self.source(f, where)
            if kind == "check:measure_preservation":
                space = f["system"].space
                f["sets"] = [_set(s, f"{where}.sets[{i}]", space) for i, s in enumerate(f["sets"])]
        gamma = f.get("gamma")  # simulation's images of psi's symbols
        if gamma is not None:
            if not all(isinstance(v, str) for v in gamma.values()):
                raise ScenarioError(f"{where}: field 'gamma' must map symbols to strings")
            missing = [str(s) for s in f["psi"].alphabet if str(s) not in gamma]
            if missing:
                raise ScenarioError(f"{where}: gamma has no image for psi symbols {missing}")
            f["gamma"] = lambda s: gamma[str(s)]
        return where, f

    @classmethod
    def load(cls, path):
        path = Path(path)
        try:
            doc = json.loads(path.read_text())
        except OSError as exc:
            raise ScenarioError(f"cannot read {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}:{exc.lineno}: {exc.msg}") from exc
        return cls(doc, str(path))

    def read(self, cfg, where, table):
        """The fields of cfg by table (see _read), with each name replaced by
        the definition it names and each side by its symbol source."""
        f = _read(cfg, where, table)
        for key, (type, *_) in table.items():
            if f[key] is None:
                continue
            if type == "side":
                at = f"{where}.{key}"
                f[key] = self.source(self.read(f[key], at, SIDE), at)
            elif type in _SECTION_OF:
                defs = getattr(self, _SECTION_OF[type])
                if f[key] not in defs:
                    raise ScenarioError(f"{where}: undefined {type} {f[key]!r}")
                f[key] = defs[f[key]]
        return f

    def source(self, side, where):
        """A symbol source from the read fields of a side; a process reads as "shift" by default."""
        if side["process"] is not None:
            if side["system"] is not None or side["observation"] is not None:
                raise ScenarioError(f"{where}: a side names a process or a system, not both")
            if side["representation"] == "flow":
                return SemiMarkovFlowRep(side["process"])
            if side["representation"] in (None, "shift"):
                return ShiftRepresentation(side["process"])
            raise ScenarioError(f"{where}: unknown representation {side['representation']!r}")
        if side["representation"] is not None:
            raise ScenarioError(f"{where}: field 'representation' needs a process side")
        if side["system"] is not None:
            if side["observation"] is None:
                raise ScenarioError(f"{where}: observation required")
            return ObservedSystemSource(side["system"], side["observation"])
        raise ScenarioError(f"{where}: side needs 'system'+'observation' or 'process'")


# ---------------------------------------------------------------------------
# task execution


def _run_task(scn: Scenario, idx, f):
    kind = f["kind"]
    seed = scn.seed + idx if f["seed"] is None else f["seed"]

    if kind == "simulate":
        src = f["source"]
        fdd = estimate_fdd(src.sample_codes(f["grid"], f["n"], seed), src.alphabet, f["grid"])
        return {"schema": REPORT_SCHEMA, "kind": kind, "fdd": fdd.to_json_obj()}, True

    if kind == "entropy":
        check_path_steps(f["sequences"], f["length"])
        grid = [i * f["step"] for i in range(f["length"])]
        # block entropies do not depend on how the symbols are labelled
        codes = f["source"].sample_codes(grid, f["sequences"], seed)
        trend = entropy_mod.entropy_rate(codes, f["L_max"])
        return {
            "schema": REPORT_SCHEMA,
            "kind": kind,
            "step": f["step"],
            "block_entropies": [e.bits for e in trend.estimates],
            "increments": trend.increments,
            "rate_estimate": trend.rate_estimate,
            "positive_rate": trend.positive_rate,
        }, True

    report = _run_check(kind.removeprefix("check:"), f, seed)
    return report.to_json_obj(), report.passed


def _run_check(what, f, seed) -> CheckReport:
    n = f["n"]
    if what == "observational_equivalence":
        return checks.check_observational_equivalence(f["a"], f["b"], f["grids"], n, seed)
    if what == "nontriviality":
        return checks.check_nontriviality(f["system"], f["observation"], f["lags"], n, seed)
    if what == "stationarity":
        return checks.check_stationarity(f["source"], f["grid"], f["shifts"], n, seed)
    if what == "measure_preservation":
        return checks.check_measure_preservation(f["system"], f["sets"], f["times"], n, seed)
    if what == "invariant_union":
        return checks.check_invariant_union(
            f["system"], f["partition"].partition, f["horizon"], n, seed, tol=f["tol"]
        )
    if what == "simulation":
        return checks.check_simulation(f["system"], f["phi"], f["psi"], f["epsilon"], n, seed,
                                       gamma=f["gamma"])
    system, obs = f["system"], f["coding"]  # epsilon_congruence
    centers = dict(zip(obs.symbols, obs.partition.centers()))  # shared: the last cell's
    return checks.check_epsilon_congruence(system, obs, centers.get, f["epsilon"], n, seed)


def run_scenario(path, out_dir="out", seed=None) -> int:
    """Execute a scenario file; returns the process exit code.

    0: all checks passed; 1: at least one check failed; 2: configuration
    error.  Reports land in <out>/<scenario-stem>/<index>-<kind>.json.
    """
    try:
        scn = Scenario.load(path)
        if seed is not None:
            scn.seed = _seed(int(seed), "--seed")
        target = Path(out_dir) / Path(path).stem
        target.mkdir(parents=True, exist_ok=True)
        all_ok = True
        for idx, (where, f) in enumerate(scn.tasks):
            with _at(where):
                obj, ok = _run_task(scn, idx, f)
            all_ok = all_ok and ok
            name = f"{idx}-{f['kind'].replace(':', '_')}.json"
            (target / name).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
        return 0 if all_ok else 1
    except ScenarioError as exc:
        print(f"configuration error: {exc}")
        return 2
