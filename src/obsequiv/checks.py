"""Empirical checkers for the equivalence notions.

Observational equivalence, transition nontriviality, stationarity, measure
preservation, invariant-union search, epsilon-congruence, and strong/weak
simulation.  Every verdict is Monte Carlo at reported 3-sigma tolerances;
a fail always carries a concrete witnessing entry.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .fdd import ProbEstimate, bonferroni_z, compare_fdd, estimate_fdd
from .systems import spawn_rngs, trajectory_symbols

__all__ = [
    "CheckReport",
    "ObservedSystemSource",
    "check_observational_equivalence",
    "check_nontriviality",
    "check_stationarity",
    "check_measure_preservation",
    "check_invariant_union",
    "check_epsilon_congruence",
    "check_simulation",
]

REPORT_SCHEMA = 1


class CheckError(ValueError):
    pass


@dataclass
class CheckReport:
    kind: str
    verdict: str  # pass | fail | inconclusive
    items: list = field(default_factory=list)
    seed: int = 0
    n_samples: int = 0
    tolerances: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @property
    def passed(self):
        return self.verdict == "pass"

    def witnesses(self):
        return [it for it in self.items if not it.get("pass", True)]

    def to_json_obj(self):
        return {
            "schema": REPORT_SCHEMA,
            "kind": self.kind,
            "verdict": self.verdict,
            "seed": self.seed,
            "n_samples": self.n_samples,
            "tolerances": self.tolerances,
            "notes": self.notes,
            "items": self.items,
        }

    def to_json(self):
        return json.dumps(self.to_json_obj(), sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# symbol sources: anything that yields symbols on a time grid


class ObservedSystemSource:
    """A deterministic system coarse-grained by an observation function."""

    def __init__(self, system, obs):
        self.system = system
        self.obs = obs

    @property
    def alphabet(self):
        if hasattr(self.obs, "alphabet"):
            return tuple(self.obs.alphabet)
        return tuple(self.system.alphabet)

    def sample_path(self, grid, rng):
        return trajectory_symbols(self.system, self.obs, grid, rng).symbols


def _as_source(side):
    if hasattr(side, "sample_path") and hasattr(side, "alphabet"):
        return side
    if isinstance(side, tuple) and len(side) == 2:
        return ObservedSystemSource(*side)
    from .processes import MarkovChainSpec, SemiMarkovSpec
    from .representation import ShiftRepresentation

    if isinstance(side, (MarkovChainSpec, SemiMarkovSpec)):
        return ShiftRepresentation(side)
    raise CheckError(f"cannot interpret {type(side).__name__} as a symbol source")


def _sample_paths(source, grid, n, seed):
    """n symbol tuples of the source on the grid.

    A source with a batch kernel (sample_codes) draws all paths at once;
    any other source draws one path per generator from spawn_rngs.
    """
    if hasattr(source, "sample_codes"):
        symbols = np.empty(len(source.alphabet), dtype=object)
        for i, s in enumerate(source.alphabet):  # elements may be tuples
            symbols[i] = s
        return list(map(tuple, symbols[source.sample_codes(grid, n, seed)].tolist()))
    rngs = spawn_rngs(seed, n)
    return [tuple(source.sample_path(grid, rng)) for rng in rngs]


# ---------------------------------------------------------------------------
# checkers


def check_observational_equivalence(side_a, side_b, grids, n, seed) -> CheckReport:
    """Same outcome set and matching finite-dimensional distributions."""
    a, b = _as_source(side_a), _as_source(side_b)
    report = CheckReport("observational_equivalence", "pass", seed=seed, n_samples=n)
    report.tolerances = {"policy": "3sigma Wald, Bonferroni over entries"}
    if set(a.alphabet) != set(b.alphabet):
        report.verdict = "fail"
        report.items.append(
            {
                "label": "alphabet",
                "pass": False,
                "reason": "outcome sets differ",
                "alphabet_a": sorted(map(str, a.alphabet)),
                "alphabet_b": sorted(map(str, b.alphabet)),
            }
        )
        return report
    seeds = np.random.SeedSequence(seed).spawn(2 * len(grids))
    for gi, grid in enumerate(grids):
        pa = _sample_paths(a, grid, n, seeds[2 * gi])
        pb = _sample_paths(b, grid, n, seeds[2 * gi + 1])
        events = sorted(set(pa) | set(pb))
        fa = estimate_fdd(pa, grid, events)
        fb = estimate_fdd(pb, grid, events)
        cmp = compare_fdd(fa, fb, label=f"grid{gi}")
        report.items.extend(cmp.items)
        if not cmp.passed:
            report.verdict = "fail"
    return report


def check_nontriviality(system, obs, lags, n, seed) -> CheckReport:
    """For each lag, hunt for a transition probability strictly inside (0,1).

    A lag passes when some pair of outcomes has a conditional estimate whose
    3-sigma interval excludes both 0 and 1.  This samples a finite lag set;
    it is evidence, not proof, of the for-every-lag property.
    """
    if hasattr(obs, "nontrivial") and not obs.nontrivial:
        raise CheckError("trivial observation function rejected")
    if any(k <= 0 for k in lags):
        raise CheckError("lags must be positive")
    source = ObservedSystemSource(system, obs)
    alphabet = source.alphabet
    report = CheckReport("nontriviality", "pass", seed=seed, n_samples=n)
    report.tolerances = {"interval": "3sigma Wald strictly inside (0,1)"}
    report.notes.append("finite lag sample; not a proof over all lags")
    seeds = np.random.SeedSequence(seed).spawn(len(lags))
    for li, k in enumerate(lags):
        paths = _sample_paths(source, (0.0, float(k)), n, seeds[li])
        witness = None
        tried = 0
        for oi, oj in product(alphabet, repeat=2):
            den = sum(1 for p in paths if p[0] == oi)
            if den == 0:
                continue
            tried += 1
            num = sum(1 for p in paths if p[0] == oi and p[1] == oj)
            est = ProbEstimate.from_counts(num, den)
            if est.strictly_inside_unit():
                witness = (oi, oj, est)
                break
        item = {"label": f"lag={k}", "lag": float(k), "pass": witness is not None}
        if witness is not None:
            oi, oj, est = witness
            item.update(
                {
                    "from": str(oi),
                    "to": str(oj),
                    "estimate": est.estimate,
                    "halfwidth": est.halfwidth,
                    "counts": [est.numerator, est.denominator],
                }
            )
        else:
            item["reason"] = "all conditional estimates consistent with {0,1}"
        report.items.append(item)
        if witness is None:
            report.verdict = "inconclusive" if tried == 0 else "fail"
    return report


def check_stationarity(source, grid, shifts, n, seed) -> CheckReport:
    """FDD on the grid vs FDD on the grid shifted by h, for each shift."""
    source = _as_source(source)
    if not grid:
        raise CheckError("grid must be nonempty")
    grid = tuple(float(t) for t in grid)
    report = CheckReport("stationarity", "pass", seed=seed, n_samples=n)
    report.tolerances = {"policy": "3sigma Wald, Bonferroni over entries"}
    seeds = np.random.SeedSequence(seed).spawn(2 * len(shifts))
    for hi, h in enumerate(shifts):
        shifted = tuple(t + h for t in grid)
        pa = _sample_paths(source, grid, n, seeds[2 * hi])
        pb = _sample_paths(source, shifted, n, seeds[2 * hi + 1])
        events = sorted(set(pa) | set(pb))
        fa = estimate_fdd(pa, grid, events)
        fb = estimate_fdd(pb, grid, events)  # same symbol tuples, shifted clock
        cmp = compare_fdd(fa, fb, label=f"shift={h}")
        report.items.extend(cmp.items)
        if not cmp.passed:
            report.verdict = "fail"
    return report


def check_measure_preservation(system, test_sets, times, n, seed) -> CheckReport:
    """Empirical mu(T_t^{-1}(A)) against the known mu(A) for each (A, t).

    test_sets is a list of (label, membership, measure) where membership
    takes the system's coordinates.  Each (set, time) pair is one entry of
    a Bonferroni family: it passes when the estimate lies within z standard
    errors of mu(A), the standard error taken under the null,
    sqrt(mu(A)(1 - mu(A))/n).
    """
    times = sorted(float(t) for t in times)
    k = max(len(test_sets) * len(times), 1)
    z = bonferroni_z(k)
    report = CheckReport("measure_preservation", "pass", seed=seed, n_samples=n)
    report.tolerances = {
        "policy": "3sigma Wald under the null mu(A), Bonferroni over (set, time) pairs",
        "k": k,
        "z": z,
    }
    rngs = spawn_rngs(seed, n)
    hits = {(label, t): 0 for label, _, _ in test_sets for t in times}
    for rng in rngs:
        state = system.sample_initial(rng)
        t_now = 0.0
        for t in times:
            state = system.evolve(state, t - t_now)
            t_now = t
            c = system.coords(state)
            for label, member, _ in test_sets:
                if member(c):
                    hits[(label, t)] += 1
    for label, _, mu_a in test_sets:
        tol = z * math.sqrt(mu_a * (1.0 - mu_a) / n)
        for t in times:
            est = hits[(label, t)] / n
            ok = abs(est - mu_a) <= tol
            report.items.append(
                {
                    "label": label,
                    "time": t,
                    "estimate": est,
                    "expected": float(mu_a),
                    "tolerance": tol,
                    "pass": bool(ok),
                }
            )
            if not ok:
                report.verdict = "fail"
    return report


def check_invariant_union(system, partition, horizon, n, seed, tol=0.01) -> CheckReport:
    """Search unions of cells for an (almost) invariant set at one time step.

    Reports any union C of partition cells with empirical
    mu(T_horizon(C) symmetric-difference C) below tol.  Finding one
    witnesses failure of the no-invariant-set assumption, so the verdict is
    then "fail"; "pass" means no invariant union was detected.
    """
    k = partition.size
    if k < 2:
        raise CheckError("partition must be nontrivial")
    if k > 20:
        raise CheckError("cell count above 20 rejected (2^20 union cap)")
    rngs = spawn_rngs(seed, n)
    joint = np.zeros((k, k), dtype=np.int64)
    for rng in rngs:
        state = system.sample_initial(rng)
        i = partition.cell_index(system.coords(state))
        j = partition.cell_index(system.coords(system.evolve(state, horizon)))
        joint[i, j] += 1
    report = CheckReport("invariant_union", "pass", seed=seed, n_samples=n)
    report.tolerances = {"symmetric_difference": tol}
    viol = _union_violations(joint)[1:-1] / n  # entry i: the union of mask i + 1
    found = np.flatnonzero(viol < tol)
    if found.size:
        report.verdict = "fail"
        for i in found[np.argsort(viol[found], kind="stable")][:8]:
            mask = int(i) + 1
            labels = [partition.labels[c] for c in range(k) if mask >> c & 1]
            report.items.append(
                {
                    "label": "invariant_union",
                    "cells": labels,
                    "violation_measure": viol[i],
                    "pass": False,
                }
            )
    else:
        report.items.append(
            {"label": "no_invariant_union", "min_violation": viol.min(), "pass": True}
        )
    return report


def _union_violations(joint):
    """Sample count leaving or entering the union, for every mask of cells.

    Entry `mask` sums joint[i, j] over the pairs with exactly one of cells i
    and j in the union.  Adding cell c to a union U of lower cells adds the
    flows between c and the cells outside U and removes those between c and
    U, so each doubling of the mask range costs one vectorized pass.
    """
    s = joint + joint.T
    cross = np.zeros(1, dtype=np.int64)
    for c in range(len(s)):
        inside = np.zeros(1, dtype=np.int64)  # flow between c and the union
        for j in range(c):
            inside = np.concatenate([inside, inside + s[c, j]])
        cross = np.concatenate([cross, cross + s[c].sum() - s[c, c] - 2 * inside])
    return cross


def check_epsilon_congruence(system, encoder, embed, epsilon, n, seed) -> CheckReport:
    """mu{m : d(m, embed(encoder(m))) >= eps} must be below eps.

    encoder maps a state to the time-zero outcome of its encoded
    realization; embed places outcomes back into the phase space.
    """
    if epsilon <= 0:
        raise CheckError("epsilon must be positive")
    rngs = spawn_rngs(seed, n)
    far = 0
    worst = 0.0
    for rng in rngs:
        m = system.sample_initial(rng)
        d = system.metric(m, embed(encoder(m)))
        worst = max(worst, d)
        if d >= epsilon:
            far += 1
    est = ProbEstimate.from_counts(far, n)
    ok = est.estimate + est.halfwidth < epsilon
    report = CheckReport(
        "epsilon_congruence",
        "pass" if ok else "fail",
        seed=seed,
        n_samples=n,
        tolerances={"epsilon": epsilon},
    )
    report.items.append(
        {
            "label": "violation_measure",
            "estimate": est.estimate,
            "halfwidth": est.halfwidth,
            "max_distance_seen": worst,
            "pass": bool(ok),
        }
    )
    return report


def check_simulation(
    mode, system, phi, psi, epsilon, grids, n, seed, gamma=None
) -> CheckReport:
    """Strong/weak simulation check: observation mismatch measure below eps.

    Strong: mu{m : psi(m) != phi(m)} < eps with matching alphabets.
    Weak: gamma maps psi's alphabet onto phi's; mismatch of gamma(psi(m))
    vs phi(m).  Also reports the FDDs of the simulating symbol process.
    """
    if mode not in ("strong", "weak"):
        raise CheckError("mode must be 'strong' or 'weak'")
    if mode == "weak" and gamma is None:
        raise CheckError("weak mode requires a gamma observation")
    if epsilon <= 0:
        raise CheckError("epsilon must be positive")
    report = CheckReport(
        f"simulation_{mode}", "pass", seed=seed, n_samples=n,
        tolerances={"epsilon": epsilon},
    )
    sim = (lambda c: gamma(psi(c))) if mode == "weak" else psi
    phi_alpha = set(phi.alphabet)
    sim_alpha = set(gamma(s) for s in psi.alphabet) if mode == "weak" else set(psi.alphabet)
    if sim_alpha != phi_alpha:
        report.verdict = "fail"
        report.items.append(
            {
                "label": "alphabet",
                "pass": False,
                "reason": "outcome sets differ",
                "simulating": sorted(map(str, sim_alpha)),
                "target": sorted(map(str, phi_alpha)),
            }
        )
        return report
    rngs = spawn_rngs(seed, n)
    mismatch = 0
    for rng in rngs:
        c = system.coords(system.sample_initial(rng))
        if sim(c) != phi(c):
            mismatch += 1
    est = ProbEstimate.from_counts(mismatch, n)
    ok = est.estimate + est.halfwidth < epsilon
    report.items.append(
        {
            "label": "mismatch_measure",
            "estimate": est.estimate,
            "halfwidth": est.halfwidth,
            "pass": bool(ok),
        }
    )
    if not ok:
        report.verdict = "fail"
    # report the simulating process' FDDs on the supplied grids
    src = ObservedSystemSource(system, sim)
    seeds = np.random.SeedSequence(seed).spawn(len(grids) + 1)
    for gi, grid in enumerate(grids):
        paths = _sample_paths(src, grid, min(n, 10_000), seeds[gi + 1])
        fdd = estimate_fdd(paths, grid)
        report.items.append(
            {
                "label": f"simulating_fdd_grid{gi}",
                "pass": True,
                "fdd": fdd.to_json_obj(),
            }
        )
    return report

