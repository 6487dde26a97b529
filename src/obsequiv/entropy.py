"""Block-entropy and entropy-rate estimation of observed symbol processes.

Plug-in Shannon entropy of the empirical block distribution with the
Miller-Madow small-sample correction.  This bounds the per-symbol
information rate from below; no supremum over partitions is attempted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

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
    """All rows' codes over 0..k-1 laid end to end in the narrowest dtype, the
    row lengths, and k, the observed symbol count: 1-D integer or bool array
    rows are coded at once by _integer_codes, other rows by a dict."""
    if isinstance(sequences, str) or getattr(sequences, "ndim", 2) != 2:
        raise EntropyError("sequences must be a collection of 1-D sequences")
    rows = list(sequences)
    if rows and all(isinstance(r, np.ndarray) and r.ndim == 1 and r.dtype.kind in "biu"
                    for r in rows):
        flat = sequences.reshape(-1) if isinstance(sequences, np.ndarray) else np.concatenate(rows)
        if flat.dtype.kind in "biu":  # int64 with uint64 would mix into float64
            codes, k = _integer_codes(flat)
            return codes, np.array([r.size for r in rows], np.int64), k
    # ndarray rows become lists first: the dict then hashes Python scalars
    try:
        rows = [r.tolist() if isinstance(r, np.ndarray) else r for r in rows]
        alphabet = sorted(set().union(*rows), key=str)
        index = {s: i for i, s in enumerate(alphabet)}
        sizes = np.array([len(row) for row in rows], np.int64)
        codes = np.fromiter(map(index.__getitem__, chain.from_iterable(rows)),
                            np.min_scalar_type(len(alphabet) - 1), int(sizes.sum()))
    except TypeError:
        raise EntropyError("sequences must be a collection of 1-D sequences") from None
    return codes, sizes, len(alphabet)


def _integer_codes(flat):
    """Codes of an integer or bool array over its sorted distinct values, and
    their count k: through a table of the values present when their range is
    shorter than the array (so the table is too), otherwise by one sort."""
    lo, hi = (int(flat.min()), int(flat.max())) if flat.size else (0, 0)
    if hi - lo < flat.size:
        # x - lo, wrapped in unsigned arithmetic as wide as hi - lo, is exact
        narrow = np.min_scalar_type(hi - lo)
        shifted = np.subtract(flat, lo % 256**narrow.itemsize, dtype=narrow, casting="unsafe")
        present = np.zeros(hi - lo + 1, bool)
        present[shifted] = True
        code_of = np.cumsum(present) - 1
        return code_of.astype(np.min_scalar_type(code_of[-1]))[shifted], int(code_of[-1]) + 1
    values = np.sort(flat)
    alphabet = np.concatenate((values[:1], values[1:][values[1:] != values[:-1]]))
    codes = np.searchsorted(alphabet, flat).astype(np.min_scalar_type(alphabet.size - 1))
    return codes, alphabet.size


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
    """block_entropy per length, counted at the longest and summed down: every
    L-block but each row's last is the prefix of an (L+1)-block."""
    codes, sizes, k = _encode(sequences)
    total, longest = codes.size, sizes.max(initial=0)
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
    if k == 1:  # every block is the one constant block: nothing to count
        return [EntropyEstimate(int(L), 0.0, int(np.maximum(sizes - L + 1, 0).sum()), 1)
                for L in lengths]
    # the guard keeps k^top, the extra bin, within 1% of the input
    top = max(lengths)
    back = np.cumsum(sizes)[:, None] - np.arange(1, top)  # each row's last top-1 places
    starts = total - top + 1
    crossing = np.sort(back[(back >= 0) & (back < starts)])  # starts of blocks past a row end
    c = np.zeros(k**top + 1, np.int64)
    for s in range(0, starts, COUNT_BLOCK):
        block = codes[s : min(s + COUNT_BLOCK, starts)].astype(np.min_scalar_type(k**top))
        for j in range(1, top):
            block *= k
            block += codes[s + j : s + j + block.size]
        first, last = np.searchsorted(crossing, (s, s + block.size))
        block[crossing[first:last] - s] = k**top  # an extra bin
        c += np.bincount(block, minlength=k**top + 1)
    counts = {top: c[: k**top]}
    tails = codes[np.maximum(back, 0)] @ k ** np.arange(top - 1)  # mod k^L: a row's last L-block
    for L in range(top - 1, min(lengths) - 1, -1):
        counts[L] = counts[L + 1].reshape(-1, k).sum(axis=1) + np.bincount(
            tails[sizes >= L] % k**L, minlength=k**L)
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
