"""Block-entropy and entropy-rate estimation of observed symbol processes.

Plug-in Shannon entropy of the empirical block distribution with the
Miller-Madow small-sample correction.  This bounds the per-symbol
information rate from below; no supremum over partitions is attempted.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = ["EntropyEstimate", "EntropyTrend", "block_entropy", "entropy_rate"]

UNDERSAMPLING_FACTOR = 100
COUNT_BLOCK = 1 << 16  # most block starts coded and counted in one pass
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


@dataclass
class EntropyTrend:
    estimates: list
    increments: list = field(init=False)
    positive_rate: bool = field(init=False)

    def __post_init__(self):
        hs = [float(e.bits) for e in self.estimates]
        self.increments = [b - a for a, b in zip(hs, hs[1:])]
        self.positive_rate = bool(self.rate_estimate > POSITIVE_RATE_THRESHOLD)

    @property
    def rate_estimate(self):
        """Last entropy increment, the tightest per-symbol rate bound here."""
        if self.increments:
            return self.increments[-1]
        return self.estimates[0].bits


def _encode(sequences):
    """Codes over 0..k-1 of an (n, len) integer or bool array in the narrowest
    dtype, and k, the observed symbol count: through a table of the values
    present if their range is shorter than the array, else by sorting."""
    try:
        a = np.asarray(sequences)
    except ValueError:  # rows of different lengths
        a = None
    if a is None or a.ndim != 2 or a.dtype.kind not in "biu" or a.size == 0:
        raise EntropyError("sequences must be a nonempty (n, len) integer or bool array")
    lo, hi = int(a.min()), int(a.max())
    if hi - lo >= a.size:  # np.unique would import numpy.ma
        values = np.sort(a, axis=None)
        values = values[np.r_[True, values[1:] != values[:-1]]]
        return np.searchsorted(values, a).astype(np.min_scalar_type(values.size - 1)), values.size
    # x - lo, wrapped in unsigned arithmetic as wide as hi - lo, is exact
    narrow = np.min_scalar_type(hi - lo)
    shifted = np.subtract(a, lo % 256**narrow.itemsize, dtype=narrow, casting="unsafe")
    present = np.zeros(hi - lo + 1, bool)
    present[shifted] = True
    if present.all():  # the table is the identity, and shifted its codes
        return shifted, hi - lo + 1
    code_of = np.cumsum(present) - 1
    return code_of.astype(np.min_scalar_type(code_of[-1]))[shifted], int(code_of[-1]) + 1


def _length(value, name):
    """value as an int, or an EntropyError that names it."""
    try:
        return operator.index(value)
    except TypeError:
        raise EntropyError(f"{name} must be an integer, got {value!r}") from None


def block_entropy(sequences, L) -> EntropyEstimate:
    """Miller-Madow corrected plug-in entropy of the empirical L-blocks of the
    rows of an (n, len) integer or bool array.

    Rejects undersampled requests: the total symbol count must be at least
    100 * |alphabet|^L.
    """
    return _block_entropies(sequences, [_length(L, "block length")])[0]


def entropy_rate(sequences, L_max) -> EntropyTrend:
    """Block entropies for L=1..L_max and the increment trend.

    The positive/vanishing flag compares the last increment against the
    0.05-bit threshold.
    """
    L_max = _length(L_max, "L_max")
    if L_max < 1:
        raise EntropyError("L_max must be >= 1")
    return EntropyTrend(_block_entropies(sequences, range(1, L_max + 1)))


def _block_entropies(sequences, lengths):
    """block_entropy per length, counted at the longest and summed down: every
    L-block but each row's last is the prefix of an (L+1)-block."""
    codes, k = _encode(sequences)
    (rows, width), total = codes.shape, codes.size
    for L in lengths:
        if L < 1:
            raise EntropyError("block length must be >= 1")
        if total < UNDERSAMPLING_FACTOR * k**L:
            raise EntropyError(
                f"undersampled: need >= {UNDERSAMPLING_FACTOR * k ** L} symbols "
                f"for L={L} over {k} symbols, got {total}"
            )
        if width < L:
            raise EntropyError(f"no sequence is as long as the block length L={L}")
    if k == 1:  # every block is the one constant block: nothing to count
        return [EntropyEstimate(int(L), 0.0, rows * (width - L + 1), 1) for L in lengths]
    # the guard keeps k^top bins within 1% of the input
    top = max(lengths)
    starts, step = width - top + 1, max(1, COUNT_BLOCK // rows)  # start columns: all, per pass
    c = np.zeros(k**top, np.int64)
    for s in range(0, starts, step):
        block = codes[:, s : min(s + step, starts)].astype(np.min_scalar_type(k**top))
        for j in range(1, top):
            block *= k
            block += codes[:, s + j : s + j + block.shape[1]]
        c += np.bincount(block.ravel(), minlength=k**top)
    counts = {top: c}
    tails = codes[:, starts:] @ k ** np.arange(top - 2, -1, -1)  # mod k^L: a row's last L-block
    for L in range(top - 1, min(lengths) - 1, -1):
        counts[L] = counts[L + 1].reshape(-1, k).sum(axis=1) + np.bincount(
            tails % k**L, minlength=k**L)
    estimates = []
    for L in lengths:
        c = counts[L][counts[L] > 0]
        n = int(c.sum())
        # canonical summation order: relabeling the alphabet permutes the block
        # counts, sorting makes the entropy bit-for-bit invariant under it
        p = np.sort(c) / n
        h = float(-np.sum(p * np.log2(p)))
        h += (len(c) - 1) / (2.0 * n * np.log(2.0))  # Miller-Madow
        h = min(h, float(L * np.log2(k)))
        estimates.append(EntropyEstimate(int(L), float(h), n, int(k)))
    return estimates
