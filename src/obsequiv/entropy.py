"""Block-entropy and entropy-rate estimation of observed symbol processes.

Plug-in Shannon entropy of the empirical block distribution with the
Miller-Madow small-sample correction.  This bounds the per-symbol
information rate from below; no supremum over partitions is attempted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["EntropyEstimate", "EntropyTrend", "block_entropy", "entropy_rate"]

UNDERSAMPLING_FACTOR = 100
POSITIVE_RATE_THRESHOLD = 0.05  # bits


class EntropyError(ValueError):
    pass


@dataclass(frozen=True)
class EntropyEstimate:
    """Block entropy H_L in bits with the sample size behind it."""

    block_length: int
    bits: float
    n_blocks: int
    alphabet_size: int

    @property
    def rate(self):
        return self.bits / self.block_length


@dataclass
class EntropyTrend:
    estimates: list
    increments: list = field(init=False)
    positive_rate: bool = field(init=False)

    def __post_init__(self):
        hs = [float(e.bits) for e in self.estimates]
        self.increments = [b - a for a, b in zip(hs, hs[1:])]
        last = self.increments[-1] if self.increments else hs[0]
        self.positive_rate = bool(last > POSITIVE_RATE_THRESHOLD)

    @property
    def rate_estimate(self):
        """Last entropy increment, the tightest per-symbol rate bound here."""
        if self.increments:
            return self.increments[-1]
        return self.estimates[0].bits

    def to_csv(self):
        lines = ["L,H_L,increment"]
        for i, e in enumerate(self.estimates):
            inc = self.increments[i - 1] if i > 0 else ""
            lines.append(f"{e.block_length},{e.bits},{inc}")
        return "\n".join(lines) + "\n"


def _encode(sequences):
    # ndarray rows become lists first: the dict then hashes Python scalars
    rows = [seq.tolist() if isinstance(seq, np.ndarray) else seq for seq in sequences]
    alphabet = sorted(set().union(*rows), key=str)
    index = {s: i for i, s in enumerate(alphabet)}
    codes = [np.fromiter(map(index.__getitem__, row), np.int64, len(row)) for row in rows]
    return codes, len(alphabet)


def _block_counts(encoded, k, L):
    counts = {}
    for seq in encoded:
        if len(seq) < L:
            continue
        m = len(seq) - L + 1
        # incremental base-k code: one O(m) buffer instead of an m*L window
        codes = seq[:m].copy()
        for j in range(1, L):
            codes *= k
            codes += seq[j : j + m]
        uniq, cnt = np.unique(codes, return_counts=True)
        for u, c in zip(uniq.tolist(), cnt.tolist()):
            counts[u] = counts.get(u, 0) + c
    return counts


def block_entropy(sequences, L) -> EntropyEstimate:
    """Miller-Madow corrected plug-in entropy of the empirical L-blocks.

    Rejects undersampled requests: the total symbol count must be at least
    100 * |alphabet|^L.
    """
    return _block_entropies(sequences, [L])[0]


def entropy_rate(sequences, L_max) -> EntropyTrend:
    """Block entropies for L=1..L_max and the increment trend.

    The positive/vanishing flag compares the last increment against the
    0.05-bit threshold.
    """
    if L_max < 1:
        raise EntropyError("L_max must be >= 1")
    return EntropyTrend(_block_entropies(sequences, range(1, L_max + 1)))


def _block_entropies(sequences, lengths):
    """block_entropy for each block length, from one encoding of the sequences."""
    encoded, k = _encode(sequences)
    total = sum(len(s) for s in encoded)
    estimates = []
    for L in lengths:
        if L < 1:
            raise EntropyError("block length must be >= 1")
        if total < UNDERSAMPLING_FACTOR * k**L:
            raise EntropyError(
                f"undersampled: need >= {UNDERSAMPLING_FACTOR * k ** L} symbols "
                f"for L={L} over {k} symbols, got {total}"
            )
        counts = _block_counts(encoded, k, L)
        n = sum(counts.values())
        if n == 0:
            raise EntropyError(f"no sequence is as long as the block length L={L}")
        # canonical summation order: relabeling the alphabet permutes the block
        # counts, sorting makes the entropy bit-for-bit invariant under it
        p = np.sort(np.fromiter(counts.values(), dtype=float)) / n
        h = float(-np.sum(p * np.log2(p)))
        h += (len(counts) - 1) / (2.0 * n * np.log(2.0))  # Miller-Madow
        h = min(h, float(L * np.log2(k))) if k > 1 else 0.0
        estimates.append(EntropyEstimate(int(L), float(h), int(n), int(k)))
    return estimates
