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
    """Code arrays over 0..k-1 and k, the observed symbol count: 1-D integer
    or bool array rows by one sort of their values, other rows by a dict."""
    if isinstance(sequences, str) or getattr(sequences, "ndim", 2) != 2:
        raise EntropyError("sequences must be a collection of 1-D sequences")
    rows = list(sequences)
    if rows and all(isinstance(r, np.ndarray) and r.ndim == 1 and r.dtype.kind in "biu"
                    for r in rows):
        values = np.sort(np.concatenate(rows))
        if values.dtype.kind in "biu":  # int64 with uint64 would mix into float64
            alphabet = np.concatenate((values[:1], values[1:][values[1:] != values[:-1]]))
            return [np.searchsorted(alphabet, r) for r in rows], len(alphabet)
    # ndarray rows become lists first: the dict then hashes Python scalars
    rows = [r.tolist() if isinstance(r, np.ndarray) else r for r in rows]
    try:
        alphabet = sorted(set().union(*rows), key=str)
        index = {s: i for i, s in enumerate(alphabet)}
        codes = [np.fromiter(map(index.__getitem__, row), np.int64, len(row)) for row in rows]
    except TypeError:
        raise EntropyError("sequences must be a collection of 1-D sequences") from None
    return codes, len(alphabet)


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
    """block_entropy per length; a sequence's base-k L-block codes extend its L-1 codes."""
    codes, k = _encode(sequences)
    total, longest = sum(map(len, codes)), max(map(len, codes), default=0)
    for L in lengths:
        if L < 1:
            raise EntropyError("block length must be >= 1")
        if total < UNDERSAMPLING_FACTOR * k**L:
            raise EntropyError(
                f"undersampled: need >= {UNDERSAMPLING_FACTOR * k ** L} symbols "
                f"for L={L} over {k} symbols, got {total}"
            )
        if longest < L:
            raise EntropyError(f"no sequence is as long as the block length L={L}")
    # the guard keeps k^L within 1% of the input, and the int64 codes exact
    counts = {L: np.zeros(k**L, np.int64) for L in lengths}
    for seq in codes:
        block = seq.astype(np.int64)  # a copy: the codes are extended in place
        for L in range(1, min(max(counts), len(seq)) + 1):
            if L > 1:
                block = block[: len(seq) - L + 1]
                block *= k
                block += seq[L - 1 :]
            if L in counts:
                counts[L] += np.bincount(block, minlength=k**L)
    estimates = []
    for L in lengths:
        c = counts[L][counts[L] > 0]
        n = int(c.sum())
        # canonical summation order: relabeling the alphabet permutes the block
        # counts, sorting makes the entropy bit-for-bit invariant under it
        p = np.sort(c) / n
        h = float(-np.sum(p * np.log2(p)))
        h += (len(c) - 1) / (2.0 * n * np.log(2.0))  # Miller-Madow
        h = min(h, float(L * np.log2(k))) if k > 1 else 0.0
        estimates.append(EntropyEstimate(int(L), float(h), n, int(k)))
    return estimates
