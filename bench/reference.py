"""Reference computations made apart from obsequiv.

Every value the benchmark checks the program's outputs against comes from
here: exact block entropies of a coded rotation, an independent plug-in
Miller-Madow block count, and hand-solved stationary laws.  Nothing here
imports obsequiv.  Run this file to self-check the references:

    python3 bench/reference.py
"""

from __future__ import annotations

import math

import numpy as np

SQRT2 = math.sqrt(2.0)
# rotation step of the zero-entropy source (acceptance criterion 09)
ROTATION_ALPHA = 1.0 / 3.0 + 1e-4 * SQRT2
# criterion 09 pins H_16 - H_15 of that rotation to this value
CRITERION_09_INCREMENT = 0.008524597892020758
# P(Z_0 = s2) of the fair two-state semi-Markov process with holding times
# (1, sqrt 2): embedded law (1/2, 1/2) weighted by the sojourn lengths
SEMI_MARKOV_S2_MARGINAL = SQRT2 / (1.0 + SQRT2)


def exact_rotation_block_entropy(alpha, L):
    """Exact L-block entropy (bits) of x -> x + alpha coded by [0,1/2), [1/2,1).

    The cells of the L-fold join are the arcs between the cut points
    -k*alpha and 1/2 - k*alpha (k < L); each block's probability is its
    arc length.
    """
    cuts = sorted(
        {(-k * alpha) % 1.0 for k in range(L)}
        | {(0.5 - k * alpha) % 1.0 for k in range(L)}
    )
    lens = [b - a for a, b in zip(cuts, cuts[1:])]
    lens.append(1.0 - cuts[-1] + cuts[0])
    return -sum(l * math.log2(l) for l in lens if l > 0)


def block_counts(sequences, L):
    """Counts of distinct length-L windows over all sequences, by row."""
    rows = np.ascontiguousarray(
        np.concatenate(
            [
                np.lib.stride_tricks.sliding_window_view(np.asarray(s), L)
                for s in sequences
                if len(s) >= L
            ]
        )
    )
    # one opaque key per window row: equal rows <=> equal bytes
    keys = rows.view(np.dtype((np.void, rows.dtype.itemsize * L))).ravel()
    _, counts = np.unique(keys, return_counts=True)
    return counts


def miller_madow_bits(counts, L, alphabet_size):
    """Plug-in entropy of block counts plus the Miller-Madow term, in bits,
    capped at L*log2(alphabet_size) like the estimator it checks."""
    if alphabet_size <= 1:
        return 0.0
    counts = np.asarray(counts, dtype=float)
    n = counts.sum()
    p = np.sort(counts) / n
    h = float(-np.sum(p * np.log2(p))) + (len(counts) - 1) / (2.0 * n * math.log(2.0))
    return min(h, L * math.log2(alphabet_size))


def independent_block_entropy(sequences, L):
    k = len(np.unique(np.concatenate([np.asarray(s) for s in sequences])))
    return miller_madow_bits(block_counts(sequences, L), L, k)


def stationary_two_state(P):
    """Hand-solved stationary law of a 2x2 chain: (p21, p12) / (p12 + p21)."""
    p12, p21 = P[0][1], P[1][0]
    return (p21 / (p12 + p21), p12 / (p12 + p21))


def selfcheck():
    """Raise AssertionError unless every reference reproduces a known value."""
    inc = exact_rotation_block_entropy(ROTATION_ALPHA, 16) - exact_rotation_block_entropy(
        ROTATION_ALPHA, 15
    )
    if abs(inc - CRITERION_09_INCREMENT) > 1e-15:
        raise AssertionError(f"rotation L=16 increment {inc!r}")

    # 0 1 1 0 1 1 0 1 has 2-blocks 01 11 10 01 11 10 01: counts 3, 2, 2
    seq = np.array([0, 1, 1, 0, 1, 1, 0, 1], dtype=np.int8)
    if sorted(block_counts([seq], 2).tolist()) != [2, 2, 3]:
        raise AssertionError("hand-counted 2-blocks not reproduced")
    by_hand = -(3 / 7 * math.log2(3 / 7) + 2 * (2 / 7 * math.log2(2 / 7)))
    by_hand += 2 / (2 * 7 * math.log(2.0))
    if abs(independent_block_entropy([seq], 2) - by_hand) > 1e-12:
        raise AssertionError("Miller-Madow entropy of the hand-counted blocks")

    P = [[0.5, 0.5], [0.75, 0.25]]
    pi = stationary_two_state(P)
    if max(abs(a - b) for a, b in zip(pi, (0.6, 0.4))) > 1e-15:
        raise AssertionError(f"stationary law {pi}")
    piP = np.asarray(pi) @ np.asarray(P)
    if np.max(np.abs(piP - np.asarray(pi))) > 1e-15:
        raise AssertionError("pi P != pi")


if __name__ == "__main__":
    selfcheck()
    print("reference self-check passed")
