"""Empirical finite-dimensional distributions, their comparison and reports.

The statistical policy throughout is 3-sigma Wald intervals, with a
Bonferroni correction over the entries of a comparison table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

__all__ = [
    "CheckReport",
    "stderr",
    "wald",
    "EmpiricalFDD",
    "estimate_fdd",
    "compare_fdd",
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


REPORT_SCHEMA = 1


@dataclass
class CheckReport:
    """A checker's items; the verdict is "fail" iff some item fails."""

    kind: str
    items: list = field(default_factory=list)
    seed: int = 0
    n_samples: int = 0
    tolerances: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @property
    def verdict(self):
        return "fail" if self.witnesses() else "pass"

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


def stderr(p, n):
    """Wald standard error sqrt(p(1 - p)/n) of a share p of n samples; p may
    be an array."""
    return np.sqrt(p * (1.0 - p) / n)


def wald(numerator, denominator):
    """Share numerator/denominator and its 3-sigma Wald half-width."""
    if denominator <= 0:
        raise FDDError("denominator must be positive")
    p = numerator / denominator
    return p, 3.0 * stderr(p, denominator)


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
        if len(set(self.events)) != len(self.events):
            raise FDDError("each event may have only one count")
        low, total = min(self.counts, default=0), sum(self.counts)
        if low < 0 or total > self.n_samples:
            raise FDDError(f"counts must be nonnegative with a sum of at most n_samples = "
                           f"{self.n_samples}, got least count {low} and sum {total}")

    @property
    def estimates(self):
        return np.asarray(self.counts) / self.n_samples

    @property
    def stderrs(self):
        return stderr(self.estimates, self.n_samples)

    def to_json_obj(self):
        return {
            "grid": list(self.grid),
            "n_samples": self.n_samples,
            "entries": [
                {"symbols": list(e), "count": c, "estimate": float(p), "stderr": float(s)}
                for e, c, p, s in zip(self.events, self.counts, self.estimates, self.stderrs)
            ],
        }


def estimate_fdd(codes, alphabet, grid) -> EmpiricalFDD:
    """Relative frequencies of the symbol tuples of an ensemble of paths.

    codes is the (n, len(grid)) integer array of a source's sample_codes,
    indexing alphabet.  The symbols are ranked once in sorted(set(alphabet)),
    so codes with the same symbol count as one; each row's ranks fold into one
    mixed-radix code, counted by one bincount, and only the distinct events
    are mapped back to symbols.  Every observed tuple becomes an entry, in
    sorted order, so the table carries total mass exactly 1.
    """
    grid = tuple(float(t) for t in grid)
    if not grid:
        raise FDDError("empty time grid")
    codes = np.asarray(codes)
    if codes.ndim != 2 or codes.shape[1] != len(grid):
        raise FDDError(f"codes must have shape (n, {len(grid)}), got {codes.shape}")
    n = len(codes)
    if n < 1:
        raise FDDError("need at least one path")
    if codes.dtype.kind not in "iu":
        raise FDDError(f"codes must be integers, got dtype {codes.dtype}")
    if codes.min() < 0 or codes.max() >= len(alphabet):
        raise FDDError(f"codes span {codes.min()}..{codes.max()}, outside 0..{len(alphabet) - 1}")
    symbols = sorted(set(alphabet))
    rank = {s: i for i, s in enumerate(symbols)}
    rows = np.array([rank[s] for s in alphabet], dtype=np.intp)[codes]
    code = rows[:, 0]
    for column in rows.T[1:]:  # the first grid time is the most significant digit
        if code.max() >= n:  # re-ranked in order, a code stays below n * len(symbols)
            code = np.unique(code, return_inverse=True)[1]
        code = code * len(symbols) + column
    counts = np.bincount(code)
    seen = np.flatnonzero(counts)
    last = np.empty(len(counts), np.intp)
    last[code] = np.arange(n)  # a row of each observed code
    events = [tuple(symbols[i] for i in row) for row in rows[last[seen]].tolist()]
    return EmpiricalFDD(grid, events, counts[seen], n)


def compare_fdd(a: EmpiricalFDD, b: EmpiricalFDD, label="fdd") -> CheckReport:
    """Entrywise comparison under 3-sigma tolerance, Bonferroni-corrected.

    The entries are the sorted union of the events of both tables, with
    count 0 where one side did not observe an event.  Returns a CheckReport
    of kind fdd_comparison with z in its tolerances: it passes iff every
    entry's |difference| stays below z * combined standard error, where z
    is the 3-sigma quantile adjusted for the number of entries.
    """
    if a.grid != b.grid:
        raise FDDError("mismatched time grids")
    events = sorted(set(a.events) | set(b.events))
    z = bonferroni_z(max(len(events), 1))
    sides = []
    for fdd in (a, b):  # EmpiricalFDD.estimates and .stderrs over the union
        count = dict(zip(fdd.events, fdd.counts))
        p = np.asarray([count.get(e, 0) for e in events]) / fdd.n_samples
        sides.append((p, stderr(p, fdd.n_samples)))
    (pa, sa), (pb, sb) = sides
    items = []
    for event, xa, xb, ea, eb in zip(events, pa, pb, sa, sb):
        delta, tol = abs(xa - xb), z * math.sqrt(ea ** 2 + eb ** 2)
        items.append({"label": label, "event": list(event), "estimate_a": float(xa),
                      "estimate_b": float(xb), "delta": float(delta), "tolerance": float(tol),
                      "pass": bool(delta <= tol or delta == 0.0)})
    return CheckReport("fdd_comparison", items, tolerances={"z": z})
