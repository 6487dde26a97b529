"""Empirical checkers for the equivalence notions.

Observational equivalence, transition nontriviality, stationarity, measure
preservation, invariant-union search, epsilon-congruence, and strong/weak
simulation.  Every verdict is Monte Carlo at reported 3-sigma tolerances;
a fail always carries a concrete witnessing entry.
"""

from __future__ import annotations

import math

import numpy as np

from .fdd import CheckReport, bonferroni_z, compare_fdd, estimate_fdd, stderr, wald
from .processes import as_grid
from .systems import observe_trajectories

__all__ = [
    "ObservedSystemSource",
    "check_observational_equivalence",
    "check_nontriviality",
    "check_stationarity",
    "check_measure_preservation",
    "check_invariant_union",
    "check_epsilon_congruence",
    "check_simulation",
]

FDD_POLICY = "3sigma Wald, Bonferroni over entries"


class CheckError(ValueError):
    pass


# ---------------------------------------------------------------------------
# symbol sources: an alphabet and sample_codes(grid, n, seed), an int array
# (n, len(grid)) indexing the alphabet


class ObservedSystemSource:
    """A deterministic system coarse-grained by an observation function: the
    alphabet indices of its symbols, coded one chunk of paths at a time."""

    def __init__(self, system, obs):
        self.system = system
        self.obs = obs
        self.alphabet = tuple(obs.alphabet)

    def sample_codes(self, grid, n, seed):
        return observe_trajectories(self.system, self.obs.codes, grid, n, seed)


def _as_source(side):
    if hasattr(side, "sample_codes") and hasattr(side, "alphabet"):
        return side
    raise CheckError(f"cannot interpret {type(side).__name__} as a symbol source; "
                     "pass a process spec as ShiftRepresentation(spec)")


def _require_items(**families):
    for name, items in families.items():
        if len(items) == 0:
            raise CheckError(f"{name} must be nonempty")


def _require_positive(**bounds):
    for name, value in bounds.items():
        if not (math.isfinite(value) and value > 0):
            raise CheckError(f"{name} must be finite and positive, got {value!r}")


def _alphabet_items(alphabet_a, alphabet_b, key_a, key_b):
    """[] when the two outcome sets agree, else one failing item listing
    each under its key."""
    if set(alphabet_a) == set(alphabet_b):
        return []
    return [{"label": "alphabet", "pass": False, "reason": "outcome sets differ",
             key_a: sorted(map(str, alphabet_a)), key_b: sorted(map(str, alphabet_b))}]


def _union_draw(source, grids, n, seed):
    """Codes (n, len(grid)) of source on each grid, read as columns of one
    draw on the sorted union of their times.

    Each grid is checked by processes.as_grid before the union is taken, so
    a bad grid is refused with as_grid's message.  The union is a sorted set
    of Python floats: np.unique and np.union1d would import numpy.ma.
    """
    grids = [as_grid(grid).tolist() for grid in grids]
    union = sorted({t for grid in grids for t in grid})
    codes = source.sample_codes(union, n, seed)
    return [codes[:, np.searchsorted(union, grid)] for grid in grids]


def _compare_tables(a, b, tables, n, seed):
    """compare_fdd items over tables of (label, grid_a, grid_b).

    Source a is drawn once, from seed child 0, on the union of the grid_a,
    and source b once, from child 1, on the union of the grid_b; each table
    reads its columns of the two draws and is labelled by grid_a.
    """
    labels, grids_a, grids_b = zip(*tables)
    seed_a, seed_b = np.random.SeedSequence(seed).spawn(2)
    columns = zip(_union_draw(a, grids_a, n, seed_a), _union_draw(b, grids_b, n, seed_b))
    items = []
    for label, grid, (codes_a, codes_b) in zip(labels, grids_a, columns):
        fa, fb = estimate_fdd(codes_a, a.alphabet, grid), estimate_fdd(codes_b, b.alphabet, grid)
        items += compare_fdd(fa, fb, label=label).items
    return items


def _one_sided_item(label, violations, n, epsilon, **extra):
    """mu(violation) < epsilon: the 3-sigma Wald upper bound of the share of
    the n samples flagged in violations must stay below epsilon."""
    p, hw = wald(int(np.count_nonzero(violations)), n)
    return {"label": label, "estimate": p, "halfwidth": hw, **extra, "pass": bool(p + hw < epsilon)}


# ---------------------------------------------------------------------------
# checkers


def check_observational_equivalence(side_a, side_b, grids, n, seed) -> CheckReport:
    """Same outcome set and matching finite-dimensional distributions."""
    a, b = _as_source(side_a), _as_source(side_b)
    _require_items(grids=grids)
    items = _alphabet_items(a.alphabet, b.alphabet, "alphabet_a", "alphabet_b")
    if not items:
        tables = [(f"grid{gi}", grid, grid) for gi, grid in enumerate(grids)]
        items = _compare_tables(a, b, tables, n, seed)
    return CheckReport("observational_equivalence", items, seed, n, {"policy": FDD_POLICY})


def check_nontriviality(system, obs, lags, n, seed) -> CheckReport:
    """For each lag, hunt for a transition probability strictly inside (0,1).

    obs is an ObservationFunction, applied to the sampled coordinates one
    chunk of paths at a time; every lag reads its column of one draw on
    (0, *lags).  A lag passes when some pair of outcomes has a
    conditional estimate whose 3-sigma interval excludes both 0 and 1.  This
    samples a finite lag set; it is evidence, not proof, of the for-every-lag
    property.  Only the observed (from, to) pairs are counted: an unobserved
    pair estimates 0, so it is never a witness.
    """
    if len(obs.alphabet) < 2:
        raise CheckError("trivial observation function rejected")
    _require_items(lags=lags)
    if any(k <= 0 for k in lags):
        raise CheckError("lags must be positive")
    source = ObservedSystemSource(system, obs)
    alphabet = source.alphabet
    a = len(alphabet)
    report = CheckReport("nontriviality", [], seed, n,
                         {"interval": "3sigma Wald strictly inside (0,1)"},
                         ["finite lag sample; not a proof over all lags"])
    child = np.random.SeedSequence(seed).spawn(1)[0]
    for k, codes in zip(lags, _union_draw(source, [(0.0, float(k)) for k in lags], n, child)):
        # stable: the default quicksort's code adds about 0.3 MB of peak memory
        pairs = np.sort(codes[:, 0] * a + codes[:, 1], kind="stable")
        starts = np.flatnonzero(np.diff(pairs, prepend=-1))  # first of each distinct pair
        counts = np.diff(starts, append=len(pairs)).tolist()
        den = np.bincount(codes[:, 0], minlength=a).tolist()
        item = {"label": f"lag={k}", "lag": float(k)}
        for pair, count in zip(pairs[starts].tolist(), counts):  # (from, to) in alphabet order
            i, j = divmod(pair, a)
            p, hw = wald(count, den[i])
            if p - hw > 0.0 and p + hw < 1.0:
                item.update({"pass": True, "from": str(alphabet[i]), "to": str(alphabet[j]),
                             "estimate": p, "halfwidth": hw, "counts": [count, den[i]]})
                break
        else:
            item.update({"pass": False,
                         "reason": "all conditional estimates consistent with {0,1}"})
        report.items.append(item)
    return report


def check_stationarity(source, grid, shifts, n, seed) -> CheckReport:
    """FDD on the grid vs FDD on the grid shifted by h, for each shift."""
    source = _as_source(source)
    _require_items(grid=grid, shifts=shifts)
    grid = tuple(float(t) for t in grid)
    tables = [(f"shift={h}", grid, tuple(t + h for t in grid)) for h in shifts]
    items = _compare_tables(source, source, tables, n, seed)
    return CheckReport("stationarity", items, seed, n, {"policy": FDD_POLICY})


def check_measure_preservation(system, test_sets, times, n, seed) -> CheckReport:
    """Empirical mu(T_t^{-1}(A)) against the known mu(A) for each (A, t).

    test_sets is a list of (label, membership, measure) where membership
    maps a coordinate array (..., d) of states to a bool array (...), as
    Box.contains does (so c[..., 0] < 0.5, not c[0] < 0.5).  Each (set,
    time) pair is one entry of a Bonferroni family: it passes when the
    estimate lies within z standard errors of mu(A), the standard error
    taken under the null, sqrt(mu(A)(1 - mu(A))/n).  A mu(A) outside [0, 1]
    is refused before any path is sampled.
    """
    _require_items(test_sets=test_sets, times=times)
    for label, _, mu_a in test_sets:
        if not 0.0 <= mu_a <= 1.0:
            raise CheckError(f"set {label!r} has measure {mu_a}, outside [0, 1]")
    times = sorted(float(t) for t in times)
    k = len(test_sets) * len(times)
    z = bonferroni_z(k)
    report = CheckReport("measure_preservation", seed=seed, n_samples=n)
    report.tolerances = {
        "policy": "3sigma Wald under the null mu(A), Bonferroni over (set, time) pairs",
        "k": k,
        "z": z,
    }
    inside = lambda c: np.stack([member(c) for _, member, _ in test_sets], axis=-1)
    hits = observe_trajectories(system, inside, times, n, seed).sum(axis=0).tolist()
    for si, (label, _, mu_a) in enumerate(test_sets):
        tol = z * stderr(mu_a, n)
        for ti, t in enumerate(times):
            est = hits[ti][si] / n
            report.items.append(
                {
                    "label": label,
                    "time": t,
                    "estimate": est,
                    "expected": float(mu_a),
                    "tolerance": tol,
                    "pass": bool(abs(est - mu_a) <= tol),
                }
            )
    return report


def check_invariant_union(system, partition, horizon, n, seed, tol=0.01) -> CheckReport:
    """Search unions of cells for an (almost) invariant set at one time step.

    Reports any union C of partition cells with empirical
    mu(T_horizon(C) symmetric-difference C) below tol.  Finding one
    witnesses failure of the no-invariant-set assumption, so the verdict is
    then "fail"; "pass" means no invariant union was detected.  Each chunk
    of sampled (time 0, horizon) coordinates is coded by one
    partition.cell_index call.
    """
    k = partition.size
    if k < 2:
        raise CheckError("partition must be nontrivial")
    if k > 20:
        raise CheckError("cell count above 20 rejected (2^20 union cap)")
    _require_positive(tol=tol)
    ij = observe_trajectories(system, partition.cell_index, (0.0, horizon), n, seed)
    joint = np.bincount(ij[:, 0] * k + ij[:, 1], minlength=k * k).reshape(k, k)
    report = CheckReport("invariant_union", seed=seed, n_samples=n)
    report.tolerances = {"symmetric_difference": tol}
    viol = _union_violations(joint)[1:-1] / n  # entry i: the union of mask i + 1
    found = np.flatnonzero(viol < tol)
    if found.size:
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


def check_epsilon_congruence(system, coding, embed, epsilon, n, seed) -> CheckReport:
    """mu{m : d(m, embed(coding(m))) >= eps} must be below eps.

    coding is an ObservationFunction, applied once per chunk of sampled
    coordinates; embed places one symbol of its alphabet back into the phase
    space as a point of d coordinates, and is called once per symbol; d is
    the system's metric.
    """
    _require_positive(epsilon=epsilon)
    k = len(coding.alphabet)
    points = np.array([embed(s) for s in coding.alphabet], dtype=float).reshape(k, -1)
    distance = lambda c: system.metric(c, points[coding.codes(c)])
    d = observe_trajectories(system, distance, (0.0,), n, seed)[:, 0]
    item = _one_sided_item(
        "violation_measure", d >= epsilon, n, epsilon, max_distance_seen=float(d.max())
    )
    return CheckReport("epsilon_congruence", [item], seed, n, {"epsilon": epsilon})


def check_simulation(system, phi, psi, epsilon, n, seed, gamma=None) -> CheckReport:
    """Simulation check: observation mismatch measure below eps.

    Strong (no gamma): mu{m : psi(m) != phi(m)} < eps with matching
    alphabets.  Weak: gamma maps psi's alphabet onto phi's; mismatch of
    gamma(psi(m)) vs phi(m).  psi and phi are ObservationFunctions, each
    applied once per chunk of sampled coordinates; gamma is applied once per
    symbol of psi.
    """
    _require_positive(epsilon=epsilon)
    images = psi.alphabet if gamma is None else tuple(map(gamma, psi.alphabet))
    items = _alphabet_items(set(images), set(phi.alphabet), "simulating", "target")
    kind = "simulation_strong" if gamma is None else "simulation_weak"
    report = CheckReport(kind, items, seed, n, {"epsilon": epsilon})
    if items:
        return report
    code = {s: i for i, s in enumerate(phi.alphabet)}
    image_code = np.array([code[s] for s in images])  # psi's codes index their images
    differ = lambda c: image_code[psi.codes(c)] != phi.codes(c)
    mismatch = observe_trajectories(system, differ, (0.0,), n, seed)
    report.items.append(_one_sided_item("mismatch_measure", mismatch, n, epsilon))
    return report
