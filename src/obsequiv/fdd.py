"""Empirical finite-dimensional distributions and their comparison.

The statistical policy throughout is 3-sigma Wald intervals, with a
Bonferroni correction over the entries of a comparison table.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

__all__ = [
    "SymbolPath",
    "ProbEstimate",
    "EmpiricalFDD",
    "estimate_fdd",
    "compare_fdd",
    "conditional_estimate",
    "THREE_SIGMA_ALPHA",
    "bonferroni_z",
]

# two-sided tail mass of a 3-sigma normal interval
THREE_SIGMA_ALPHA = math.erfc(3.0 / math.sqrt(2.0))


def bonferroni_z(k):
    """Two-sided normal quantile splitting THREE_SIGMA_ALPHA over k tests."""
    return -NormalDist().inv_cdf(THREE_SIGMA_ALPHA / (2.0 * k))


class FDDError(ValueError):
    pass


@dataclass(frozen=True)
class SymbolPath:
    """Symbols sampled on a fixed time grid."""

    times: tuple
    symbols: tuple

    def __post_init__(self):
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if len(self.times) != len(self.symbols):
            raise FDDError("times and symbols differ in length")

    def at(self, t):
        for ti, s in zip(self.times, self.symbols):
            if abs(ti - t) < 1e-12:
                return s
        raise FDDError(f"path not defined at t={t}")


@dataclass(frozen=True)
class ProbEstimate:
    """Point estimate with a 3-sigma Wald half-width, clipped to [0,1]."""

    estimate: float
    halfwidth: float
    numerator: int
    denominator: int

    @classmethod
    def from_counts(cls, numerator, denominator):
        if denominator <= 0:
            raise FDDError("denominator must be positive")
        p = numerator / denominator
        hw = 3.0 * math.sqrt(p * (1.0 - p) / denominator)
        return cls(p, hw, numerator, denominator)

    @property
    def lower(self):
        return max(self.estimate - self.halfwidth, 0.0)

    @property
    def upper(self):
        return min(self.estimate + self.halfwidth, 1.0)

    def strictly_inside_unit(self):
        return self.lower > 0.0 and self.upper < 1.0


@dataclass(frozen=True)
class EmpiricalFDD:
    """Relative frequencies of symbol tuples on a time grid.

    events are per-time single symbols (singleton cylinder constraints);
    one entry per event tuple.
    """

    grid: tuple
    events: tuple  # tuple of symbol tuples, one symbol per grid time
    counts: tuple
    n_samples: int

    def __post_init__(self):
        object.__setattr__(self, "grid", tuple(float(t) for t in self.grid))
        object.__setattr__(self, "events", tuple(tuple(e) for e in self.events))
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        if self.n_samples <= 0:
            raise FDDError("sample size must be positive")
        if len(self.events) != len(self.counts):
            raise FDDError("one count per event required")
        for e in self.events:
            if len(e) != len(self.grid):
                raise FDDError("event tuple length must match grid length")

    @property
    def estimates(self):
        return np.asarray(self.counts) / self.n_samples

    @property
    def stderrs(self):
        p = self.estimates
        return np.sqrt(p * (1.0 - p) / self.n_samples)

    def probability(self, event):
        return self.counts[self.events.index(tuple(event))] / self.n_samples

    def total_mass(self):
        return sum(self.counts) / self.n_samples

    def merge(self, other):
        """Combine two ensembles over the same grid and events (associative)."""
        if self.grid != other.grid or self.events != other.events:
            raise FDDError("can only merge tables with identical grids and events")
        counts = tuple(a + b for a, b in zip(self.counts, other.counts))
        return EmpiricalFDD(self.grid, self.events, counts, self.n_samples + other.n_samples)

    def to_csv(self):
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["times", "symbols", "count", "estimate", "stderr"])
        for e, c, p, s in zip(self.events, self.counts, self.estimates, self.stderrs):
            w.writerow([";".join(str(t) for t in self.grid), ";".join(map(str, e)), c, p, s])
        return buf.getvalue()

    def to_json_obj(self):
        return {
            "grid": list(self.grid),
            "n_samples": self.n_samples,
            "entries": [
                {"symbols": list(e), "count": c, "estimate": float(p), "stderr": float(s)}
                for e, c, p, s in zip(self.events, self.counts, self.estimates, self.stderrs)
            ],
        }


def _path_symbols(path, grid):
    if isinstance(path, SymbolPath):
        if path.times == tuple(float(t) for t in grid):
            return path.symbols
        return tuple(path.at(t) for t in grid)
    if hasattr(path, "value"):
        return tuple(path.value(t) for t in grid)
    sym = tuple(path)
    if len(sym) != len(grid):
        raise FDDError("path shorter than grid horizon")
    return sym


def estimate_fdd(paths, grid, events=None) -> EmpiricalFDD:
    """Relative frequencies of event tuples across an ensemble of paths.

    If events is None, every observed tuple becomes an entry, so the table
    carries total mass exactly 1.
    """
    grid = tuple(float(t) for t in grid)
    if not grid:
        raise FDDError("empty time grid")
    observed = {}
    n = 0
    for path in paths:
        key = _path_symbols(path, grid)
        observed[key] = observed.get(key, 0) + 1
        n += 1
    if n < 1:
        raise FDDError("need at least one path")
    if events is None:
        events = tuple(sorted(observed))
    else:
        events = tuple(tuple(e) for e in events)
    counts = tuple(observed.get(e, 0) for e in events)
    return EmpiricalFDD(grid, events, counts, n)


def compare_fdd(a: EmpiricalFDD, b: EmpiricalFDD, label="fdd") -> "FDDComparison":
    """Entrywise comparison under 3-sigma tolerance, Bonferroni-corrected.

    Pass iff every entry's |difference| stays below z * combined standard
    error, where z is the 3-sigma quantile adjusted for the number of
    entries.
    """
    if a.grid != b.grid:
        raise FDDError("mismatched time grids")
    if a.events != b.events:
        raise FDDError("mismatched event sets")
    k = max(len(a.events), 1)
    z = bonferroni_z(k)
    items = []
    ok = True
    pa, pb = a.estimates, b.estimates
    sa, sb = a.stderrs, b.stderrs
    for i, event in enumerate(a.events):
        se = math.sqrt(sa[i] ** 2 + sb[i] ** 2)
        delta = abs(pa[i] - pb[i])
        tol = z * se
        entry_ok = delta <= tol or delta == 0.0
        ok = ok and entry_ok
        items.append(
            {
                "label": label,
                "event": list(event),
                "estimate_a": float(pa[i]),
                "estimate_b": float(pb[i]),
                "delta": float(delta),
                "tolerance": float(tol),
                "pass": bool(entry_ok),
            }
        )
    return FDDComparison(passed=ok, items=items, z=z)


@dataclass
class FDDComparison:
    passed: bool
    items: list = field(default_factory=list)
    z: float = 3.0

    @property
    def max_delta(self):
        return max((it["delta"] for it in self.items), default=0.0)

    def witnesses(self):
        return [it for it in self.items if not it["pass"]]


def conditional_estimate(paths, lag, sym_from, sym_to, anchors=(0.0,)) -> ProbEstimate:
    """Estimate P{Z_{t+lag}=sym_to | Z_t=sym_from}, pooled over anchor times.

    Pooling over anchors is valid for stationary ensembles; pass a single
    anchor otherwise.
    """
    if lag < 0:
        raise FDDError("lag must be nonnegative")
    num = den = 0
    for path in paths:
        for t in anchors:
            pair = _path_symbols(path, (t, t + lag))
            if pair[0] == sym_from:
                den += 1
                if pair[1] == sym_to:
                    num += 1
    if den == 0:
        raise FDDError(f"conditioning symbol {sym_from!r} never observed")
    return ProbEstimate.from_counts(num, den)
