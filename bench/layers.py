"""Span tracing of obsequiv's layers from outside the package.

`Tracer.install()` replaces each traced function with a timing wrapper at
every name it is bound under (the defining module, each module that imported
it, the package namespace), and each traced method on its class.  Spans are
aggregated in memory per (name, parent) into a call count, total time and
self time (total minus the time of traced children); `layer_metrics()` turns
one round's aggregate into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import sys
from time import perf_counter

from obsequiv import checks, entropy, fdd, processes, representation, scenario, systems
from obsequiv.partitions import Partition


def _n_arg(args, kwargs):
    return int(kwargs["n"] if "n" in kwargs else args[1])


def _masks(args, kwargs, result):
    # the mask loop runs once, and once more on the pass path for the minimum
    k = args[1].size
    return {"checks.invariant_union_masks": (2**k - 2) * (2 if result.passed else 1)}


# (module, function, span name, counter(args, kwargs, result) -> {counter: +n})
FUNCTIONS = [
    (scenario, "run_scenario", "scenario.run_scenario", None),
    (scenario, "_run_task", "scenario.task", None),
    (processes, "validate_markov_spec", "processes.validate_markov_spec", None),
    (processes, "sample_semi_markov", "processes.sample_semi_markov",
     lambda a, k, r: {"processes.realizations": 1}),
    (processes, "sample_chain", "processes.sample_chain",
     lambda a, k, r: {"processes.realizations": 1}),
    (fdd, "estimate_fdd", "fdd.estimate_fdd", lambda a, k, r: {"fdd.entries": len(r.events)}),
    (fdd, "compare_fdd", "fdd.compare_fdd", None),
    (systems, "trajectory_symbols", "systems.trajectory_symbols", None),
    (entropy, "entropy_rate", "entropy.entropy_rate",
     lambda a, k, r: {"entropy.symbols_in": sum(len(s) for s in a[0])}),
    (entropy, "block_entropy", "entropy.block_entropy", None),
    (checks, "check_observational_equivalence", "checks.observational_equivalence", None),
    (checks, "check_nontriviality", "checks.nontriviality", None),
    (checks, "check_stationarity", "checks.stationarity", None),
    (checks, "check_measure_preservation", "checks.measure_preservation", None),
    (checks, "check_invariant_union", "checks.invariant_union", _masks),
    (checks, "check_epsilon_congruence", "checks.epsilon_congruence", None),
]

# (class, method, span name, counter)
METHODS = [
    (scenario.Scenario, "load", "scenario.load", None),
    (processes.RealizationPath, "value", "processes.path_value", None),
    (representation.SemiMarkovFlowRep, "sample_path", "representation.flow_sample_path", None),
    (representation.ShiftRepresentation, "sample_path", "representation.shift_sample_path", None),
    (systems.BilliardFlow, "evolve", "systems.billiard_evolve", None),
    (Partition, "cell_index", "partitions.cell_index", None),
] + [
    (cls, "sample_initial", "systems.sample_initial", None)
    for cls in (systems.RotationFlow, systems.BilliardFlow, systems.BakerMap,
                systems.SuspensionFlow)
]


class Tracer:
    def __init__(self):
        self._stack = []  # [name, time covered by traced children]
        self.spans = {}  # (name, parent) -> [count, total_s, self_s]
        self.inclusive = {}  # name -> total_s of outermost spans of that name
        self.counters = {}

    def reset(self):
        self.spans, self.inclusive, self.counters = {}, {}, {}

    def wrap(self, fn, name, counter=None):
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                parent = stack[-1][0] if stack else None
                if stack:
                    stack[-1][1] += dur
                rec = self.spans.setdefault((name, parent), [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                if all(f[0] != name for f in stack):
                    self.inclusive[name] = self.inclusive.get(name, 0.0) + dur
            if counter is not None:
                for key, inc in counter(args, kwargs, result).items():
                    self.counters[key] = self.counters.get(key, 0) + inc
            return result

        return traced

    def install(self):
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "obsequiv"]
        for module, attr, name, counter in FUNCTIONS:
            orig = getattr(module, attr)
            traced = self.wrap(orig, name, counter)
            for m in modules:
                if getattr(m, attr, None) is orig:
                    setattr(m, attr, traced)
        # every spawn_rngs binding counts generators; the checkers' binding
        # also counts the trajectories the checkers sample
        orig = systems.spawn_rngs
        for m in modules:
            if getattr(m, "spawn_rngs", None) is orig:
                def count(a, k, r, in_checks=m is checks):
                    n = _n_arg(a, k)
                    out = {"systems.rngs_spawned": n}
                    if in_checks:
                        out["checks.paths_sampled"] = n
                    return out

                setattr(m, "spawn_rngs", self.wrap(orig, "systems.spawn_rngs", count))
        for cls, attr, name, counter in METHODS:
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(raw.__func__, name, counter)))
            else:
                setattr(cls, attr, self.wrap(raw, name, counter))

    def self_time(self, name):
        return sum(rec[2] for (n, _), rec in self.spans.items() if n == name)

    def calls(self, name):
        return sum(rec[0] for (n, _), rec in self.spans.items() if n == name)

    def layer_metrics(self):
        """Per-layer metrics of the spans recorded since the last reset."""
        inc = lambda name: self.inclusive.get(name, 0.0)
        out = {
            "processes.validate_s": inc("processes.validate_markov_spec"),
            "scenario.self_s": self.self_time("scenario.run_scenario"),
            "systems.spawn_rngs_s": inc("systems.spawn_rngs"),
            "processes.sample_semi_markov_s": inc("processes.sample_semi_markov"),
            "processes.sample_chain_s": inc("processes.sample_chain"),
            "processes.path_value_s": inc("processes.path_value"),
            "processes.path_value_calls": self.calls("processes.path_value"),
            "representation.flow_sample_path_s": inc("representation.flow_sample_path"),
            "representation.shift_sample_path_s": inc("representation.shift_sample_path"),
            "fdd.estimate_s": inc("fdd.estimate_fdd"),
            "fdd.compare_s": inc("fdd.compare_fdd"),
            "systems.billiard_evolve_s": inc("systems.billiard_evolve"),
            "systems.billiard_evolve_calls": self.calls("systems.billiard_evolve"),
            "systems.sample_initial_s": inc("systems.sample_initial"),
            "systems.trajectory_symbols_s": inc("systems.trajectory_symbols"),
            "partitions.cell_index_s": inc("partitions.cell_index"),
            "partitions.cell_index_calls": self.calls("partitions.cell_index"),
            "entropy.entropy_rate_s": inc("entropy.entropy_rate"),
            "entropy.block_entropy_calls": self.calls("entropy.block_entropy"),
        }
        for kind in ("observational_equivalence", "stationarity", "nontriviality",
                     "invariant_union", "measure_preservation", "epsilon_congruence"):
            out[f"checks.{kind}_self_s"] = self.self_time(f"checks.{kind}")
        for key in ("systems.rngs_spawned", "processes.realizations", "fdd.entries",
                    "checks.paths_sampled", "checks.invariant_union_masks",
                    "entropy.symbols_in"):
            out[key] = self.counters.get(key, 0)
        return out

    def span_table(self):
        return [
            {"name": n, "parent": p, "count": c, "total_s": t, "self_s": s}
            for (n, p), (c, t, s) in sorted(self.spans.items(), key=lambda kv: -kv[1][1])
        ]

