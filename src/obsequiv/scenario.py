"""Declarative scenario files: named systems, observations, processes, and
a task list.  The runner executes tasks in order, writing one JSON report
(and optional CSV) per task; identical input and seed give byte-identical
JSON.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import checks, entropy as entropy_mod
from .checks import REPORT_SCHEMA, CheckReport, ObservedSystemSource
from .fdd import estimate_fdd
from .partitions import (
    Box,
    ObservationFunction,
    Partition,
    grid_partition,
    interval_partition,
    observation_from_partition,
)
from .processes import HoldingTime, MarkovChainSpec, SemiMarkovSpec
from .representation import SemiMarkovFlowRep, ShiftRepresentation
from .systems import baker_system, billiard_system, rotation_system

__all__ = ["ScenarioError", "Scenario", "run_scenario"]


class ScenarioError(ValueError):
    """Configuration problem; maps to exit code 2."""


def _require(cfg, key, where):
    if not isinstance(cfg, dict):
        raise ScenarioError(f"{where}: must be an object")
    if key not in cfg:
        raise ScenarioError(f"{where}: missing field {key!r}")
    return cfg[key]


def _require_list(cfg, key, where, nested=False, default=None):
    """A JSON list field (a list of lists if nested); required unless default is given."""
    value = _require(cfg, key, where) if default is None else cfg.get(key, default)
    if not isinstance(value, list) or nested and not all(isinstance(v, list) for v in value):
        raise ScenarioError(f"{where}: field {key!r} must be a list{' of lists' if nested else ''}")
    return value


def _number(cfg, key, where, default=None, integer=False):
    """A JSON number field (an integer if integer); required unless default
    is given.  A bool is not a number here."""
    value = _require(cfg, key, where) if default is None else cfg.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        kind = "an integer" if integer else "a number"
        raise ScenarioError(f"{where}: field {key!r} must be {kind}, got {value!r}")
    return value if integer else float(value)


def _numbers(cfg, key, where, nested=False, default=None):
    """A JSON list (of lists if nested) of numbers."""
    value = _require_list(cfg, key, where, nested, default)
    for v in value if nested else [value]:
        if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in v):
            raise ScenarioError(f"{where}: field {key!r} must hold numbers, got {value!r}")
    return value


def _strings(cfg, key, where):
    """A JSON list of strings: state names, cell labels and symbols."""
    value = _require_list(cfg, key, where)
    if not all(isinstance(x, str) for x in value):
        raise ScenarioError(f"{where}: field {key!r} must hold strings, got {value!r}")
    return value


def _object(cfg, key, where):
    """A JSON object field."""
    value = _require(cfg, key, where)
    if not isinstance(value, dict):
        raise ScenarioError(f"{where}: field {key!r} must be an object, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# definition builders


def _build_system(name, cfg):
    where = f"systems.{name}"
    kind = _require(cfg, "kind", where)
    if kind == "rotation":
        return rotation_system(_number(cfg, "alpha", where))
    if kind == "billiard":
        at = f"{where}.obstacles"
        obstacles = [
            (tuple(_numbers(o, "center", at)), _number(o, "radius", at))
            for o in _require_list(cfg, "obstacles", where, default=[])
        ]
        return billiard_system(
            _number(cfg, "width", where),
            _number(cfg, "height", where),
            obstacles,
            _number(cfg, "speed", where),
        )
    if kind == "baker":
        return baker_system()
    raise ScenarioError(f"{where}: unsupported system kind {kind!r}")


def _build_observation(name, cfg, scn):
    where = f"observations.{name}"
    kind = _require(cfg, "kind", where)
    space = scn.named(cfg, "system", where).space
    if kind == "intervals":
        part = interval_partition(
            _numbers(cfg, "breaks", where), _strings(cfg, "labels", where), space=space
        )
    elif kind == "grid":
        nx = _number(cfg, "nx", where, default=2, integer=True)
        ny = _number(cfg, "ny", where, default=2, integer=True)
        part = grid_partition(nx, ny, space=space)
    elif kind == "boxes":
        cells = tuple(
            tuple(
                Box(tuple(_numbers(b, "lo", where)), tuple(_numbers(b, "hi", where)))
                for b in cell
            )
            for cell in _require_list(cfg, "cells", where, nested=True)
        )
        part = Partition(space, cells, tuple(_strings(cfg, "labels", where)))
    else:
        raise ScenarioError(f"{where}: unsupported kind {kind!r}")
    symbols = _strings(cfg, "symbols", where) if "symbols" in cfg else None
    return observation_from_partition(part, symbols)


def _build_process(name, cfg):
    where = f"processes.{name}"
    kind = _require(cfg, "kind", where)
    states = tuple(_strings(cfg, "states", where))
    matrix = np.asarray(_numbers(cfg, "matrix", where, nested=True), dtype=float)
    chain = MarkovChainSpec(states, matrix, _number(cfg, "order", where, default=1, integer=True))
    if kind == "markov":
        return chain
    if kind == "semi_markov":
        holding = {}
        for s, h in _object(cfg, "holding", where).items():
            at = f"{where}.holding.{s}"
            coeff = Fraction(str(_require(h, "coeff", at)))
            holding[s] = HoldingTime(coeff, _number(h, "radicand", at, default=1, integer=True))
        return SemiMarkovSpec(chain, holding)
    raise ScenarioError(f"{where}: unsupported kind {kind!r}")


def _build_all(doc, section, build):
    """{name: build(name, cfg)} over a section; errors name section.name."""
    defs = doc.get(section, {})
    if not isinstance(defs, dict):
        raise ScenarioError(f"{section} must be an object")
    built = {}
    for name, cfg in defs.items():
        try:
            built[name] = build(name, cfg)
        except ScenarioError:
            raise
        except ValueError as exc:
            raise ScenarioError(f"{section}.{name}: {exc}") from exc
    return built


class Scenario:
    def __init__(self, doc, path="<scenario>"):
        if not isinstance(doc, dict):
            raise ScenarioError(f"{path}: top level must be an object")
        if "seed" not in doc:
            raise ScenarioError(f"{path}: master seed is mandatory")
        self.seed = _number(doc, "seed", path, integer=True)
        self.systems = _build_all(doc, "systems", _build_system)
        self.observations = _build_all(
            doc, "observations", lambda k, v: _build_observation(k, v, self)
        )
        self.processes = _build_all(doc, "processes", _build_process)
        self.tasks = _require_list(doc, "tasks", path, default=[])

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

    # -- name resolution ----------------------------------------------------

    def source(self, cfg, where):
        """A symbol source from a side description, a JSON object."""
        if not isinstance(cfg, dict):
            raise ScenarioError(f"{where}: a side must be an object, got {cfg!r}")
        if "process" in cfg:
            spec = self.named(cfg, "process", where)
            rep = cfg.get("representation")
            if rep == "flow":
                return SemiMarkovFlowRep(spec)
            if rep in ("shift", None):
                return ShiftRepresentation(spec)
            raise ScenarioError(f"{where}: unknown representation {rep!r}")
        if "system" in cfg:
            if "observation" not in cfg:
                raise ScenarioError(f"{where}: observation required")
            return ObservedSystemSource(
                self.named(cfg, "system", where), self.named(cfg, "observation", where)
            )
        raise ScenarioError(f"{where}: side needs 'system'+'observation' or 'process'")

    def named(self, cfg, key, where, kind=None):
        """The system, observation or process (kind, by default key) that
        field key of cfg names."""
        kind = kind or key
        name = _require(cfg, key, where)
        if not isinstance(name, str):
            raise ScenarioError(f"{where}: field {key!r} must be a name, got {name!r}")
        defs = getattr(self, "processes" if kind == "process" else kind + "s")
        if name not in defs:
            raise ScenarioError(f"{where}: undefined {kind} {name!r}")
        return defs[name]


# ---------------------------------------------------------------------------
# task execution


def _run_task(scn: Scenario, idx, task):
    kind = _require(task, "kind", f"tasks[{idx}]")
    if not isinstance(kind, str):
        raise ScenarioError(f"tasks[{idx}]: field 'kind' must be a string, got {kind!r}")
    where = f"tasks[{idx}] ({kind})"
    seed = _number(task, "seed", where, default=scn.seed + idx, integer=True)
    n = _number(task, "n", where, default=1000, integer=True)

    if kind == "simulate":
        src = scn.source(task, where)
        grid = _numbers(task, "grid", where)
        fdd = estimate_fdd(src.sample_codes(grid, n, seed), src.alphabet, grid)
        obj = {"schema": REPORT_SCHEMA, "kind": kind, "fdd": fdd.to_json_obj()}
        return obj, fdd.to_csv(), True

    if kind == "entropy":
        src = scn.source(_require(task, "source", where), where)
        step = _number(task, "step", where, default=1.0)
        length = _number(task, "length", where, default=10_000, integer=True)
        n_seq = _number(task, "sequences", where, default=1, integer=True)
        grid = [i * step for i in range(length)]
        # block entropies do not depend on how the symbols are labelled
        codes = src.sample_codes(grid, n_seq, seed)
        trend = entropy_mod.entropy_rate(codes, _number(task, "L_max", where, integer=True))
        obj = {
            "schema": REPORT_SCHEMA,
            "kind": kind,
            "step": step,
            "block_entropies": [e.bits for e in trend.estimates],
            "increments": trend.increments,
            "rate_estimate": trend.rate_estimate,
            "positive_rate": trend.positive_rate,
        }
        return obj, trend.to_csv(), True

    if kind.startswith("check:"):
        report = _run_check(scn, kind.removeprefix("check:"), task, where, seed, n)
        obj = report.to_json_obj()
        return obj, None, report.passed

    raise ScenarioError(f"{where}: unknown task kind {kind!r}")


def _run_check(scn, what, task, where, seed, n) -> CheckReport:
    if what == "observational_equivalence":
        return checks.check_observational_equivalence(
            scn.source(_require(task, "a", where), where),
            scn.source(_require(task, "b", where), where),
            _numbers(task, "grids", where, nested=True),
            n,
            seed,
        )
    if what == "nontriviality":
        return checks.check_nontriviality(
            scn.named(task, "system", where),
            scn.named(task, "observation", where),
            _numbers(task, "lags", where),
            n,
            seed,
        )
    if what == "stationarity":
        return checks.check_stationarity(
            scn.source(_require(task, "source", where), where),
            _numbers(task, "grid", where),
            _numbers(task, "shifts", where),
            n,
            seed,
        )
    if what == "measure_preservation":
        system = scn.named(task, "system", where)
        sets = []
        for i, s in enumerate(_require_list(task, "sets", where)):
            at = f"{where} sets[{i}]"
            box = _require(s, "box", at)
            box = Box(tuple(_numbers(box, "lo", at)), tuple(_numbers(box, "hi", at)))
            sets.append((_require(s, "label", at), box.contains, _number(s, "measure", at)))
        return checks.check_measure_preservation(
            system, sets, _numbers(task, "times", where), n, seed
        )
    if what == "invariant_union":
        obs = scn.named(task, "partition", where, "observation")
        return checks.check_invariant_union(
            scn.named(task, "system", where),
            obs.partition,
            _number(task, "horizon", where),
            n,
            seed,
            tol=_number(task, "tol", where, default=0.01),
        )
    if what == "simulation":
        mode = _require(task, "mode", where)
        psi = scn.named(task, "psi", where, "observation")
        gamma = None
        if "gamma" in task:
            gamma_map = _object(task, "gamma", where)
            if not all(isinstance(v, str) for v in gamma_map.values()):
                raise ScenarioError(f"{where}: field 'gamma' must map symbols to strings")
            missing = [str(s) for s in psi.alphabet if str(s) not in gamma_map]
            if missing:
                raise ScenarioError(f"{where}: gamma has no image for psi symbols {missing}")
            gamma = lambda s: gamma_map[str(s)]
        return checks.check_simulation(
            mode,
            scn.named(task, "system", where),
            scn.named(task, "phi", where, "observation"),
            psi,
            _number(task, "epsilon", where),
            _numbers(task, "grids", where, nested=True, default=[]),
            n,
            seed,
            gamma=gamma,
        )
    if what == "epsilon_congruence":
        system = scn.named(task, "system", where)
        obs = scn.named(task, "coding", where, "observation")
        part = obs.partition
        centers = {
            sym: tuple(
                (lo + hi) / 2.0 for lo, hi in zip(cell[0].lo, cell[0].hi)
            )
            for sym, cell in zip(obs.symbols, part.cells)
        }
        return checks.check_epsilon_congruence(
            system,
            lambda m: obs(system.coords(m)),
            lambda sym: centers[sym],
            _number(task, "epsilon", where),
            n,
            seed,
        )
    raise ScenarioError(f"{where}: unknown check kind {what!r}")


def run_scenario(path, out_dir="out", seed=None, fmt="json") -> int:
    """Execute a scenario file; returns the process exit code.

    0: all checks passed; 1: at least one check failed; 2: configuration
    error.  Reports land in <out>/<scenario-stem>/<index>-<kind>.json.
    """
    try:
        scn = Scenario.load(path)
        if seed is not None:
            scn.seed = int(seed)
        stem = Path(path).stem
        target = Path(out_dir) / stem
        target.mkdir(parents=True, exist_ok=True)
        all_ok = True
        for idx, task in enumerate(scn.tasks):
            try:
                obj, csv_text, ok = _run_task(scn, idx, task)
            except ScenarioError:
                raise
            except ValueError as exc:  # every package error is a ValueError
                raise ScenarioError(f"tasks[{idx}] ({task.get('kind')}): {exc}") from exc
            all_ok = all_ok and ok
            kind = task.get("kind", "task").replace(":", "_")
            base = target / f"{idx}-{kind}"
            if fmt in ("json", "both"):
                base.with_suffix(".json").write_text(
                    json.dumps(obj, sort_keys=True, indent=2) + "\n"
                )
            if fmt in ("csv", "both") and csv_text is not None:
                base.with_suffix(".csv").write_text(csv_text)
        return 0 if all_ok else 1
    except ScenarioError as exc:
        print(f"configuration error: {exc}")
        return 2
