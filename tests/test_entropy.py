"""Block entropy and entropy-rate trend estimation."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from obsequiv import entropy
from obsequiv.entropy import (
    EntropyError,
    block_entropy,
    entropy_rate,
)
from obsequiv.processes import MarkovChainSpec, sample_chain
from obsequiv.systems import spawn_rngs


def test_constant_process_zero_bits():
    seq = ["a"] * 10_000
    for L in (1, 2, 5):
        est = block_entropy([seq], L)
        assert est.bits == 0.0
        assert est.alphabet_size == 1


def test_fair_coin_eight_blocks():
    rng = np.random.default_rng(101)
    seq = rng.integers(0, 2, 400_000)
    est = block_entropy([seq], 8)
    assert abs(est.bits - 8.0) < 0.05  # analytic: H_L = L for i.i.d.(1/2,1/2)


def test_biased_coin_single_symbol_entropy():
    rng = np.random.default_rng(5)
    seq = (rng.random(200_000) < 0.25).astype(int)
    h = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
    assert abs(block_entropy([seq], 1).bits - h) < 0.01


def test_markov_chain_rate_matches_formula():
    # pi=(0.6,0.4); rate = 0.6*H(0.5) + 0.4*H(0.75)
    spec = MarkovChainSpec(("s1", "s2"), np.array([[0.5, 0.5], [0.75, 0.25]]))
    rate = 0.6 * 1.0 + 0.4 * -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    seq = sample_chain(spec, 300_000, spawn_rngs(7, 1)[0])
    trend = entropy_rate([seq], 4)
    assert abs(trend.rate_estimate - rate) < 0.05


def test_undersampling_guard():
    rng = np.random.default_rng(1)
    seq = rng.integers(0, 2, 1000)
    with pytest.raises(EntropyError):
        block_entropy([seq], 8)  # needs 100 * 2^8 symbols
    with pytest.raises(EntropyError):
        block_entropy([seq], 0)


def test_entropy_rate_without_a_full_block_raises():
    # 400 one-symbol sequences pass the undersampling guard at L=2 but hold no 2-block
    seqs = [[i % 2] for i in range(400)]
    assert entropy_rate(seqs, 1).estimates[0].n_blocks == 400
    with pytest.raises(EntropyError, match="L=2"):
        entropy_rate(seqs, 2)


def test_entropy_bounded_by_log_alphabet():
    rng = np.random.default_rng(2)
    seq = rng.integers(0, 3, 100_000)
    for L in (1, 2, 3):
        est = block_entropy([seq], L)
        assert 0.0 <= est.bits <= L * math.log2(3) + 1e-12


def test_block_entropy_monotone_and_concave():
    rng = np.random.default_rng(3)
    seq = (rng.random(500_000) < 0.3).astype(int)
    trend = entropy_rate([seq], 6)
    hs = [e.bits for e in trend.estimates]
    assert all(b >= a - 1e-9 for a, b in zip(hs, hs[1:]))
    incs = trend.increments
    assert all(b <= a + 0.02 for a, b in zip(incs, incs[1:]))


def test_counts_merge_across_sequences():
    rng = np.random.default_rng(4)
    whole = rng.integers(0, 2, 60_000)
    joint = block_entropy([whole[:30_000], whole[30_000:]], 2)
    # block count differs by one boundary window only
    single = block_entropy([whole], 2)
    assert joint.n_blocks == single.n_blocks - 1
    assert abs(joint.bits - single.bits) < 1e-3


@given(st.permutations([0, 1, 2]))
@settings(max_examples=10, deadline=None)
def test_relabel_invariance_exact(perm):
    rng = np.random.default_rng(8)
    seq = rng.integers(0, 3, 30_000)
    relabeled = np.asarray(perm)[seq]
    assert block_entropy([seq], 2).bits == block_entropy([relabeled], 2).bits


def test_positive_and_vanishing_flags():
    rng = np.random.default_rng(9)
    coin = rng.integers(0, 2, 100_000)
    assert entropy_rate([coin], 5).positive_rate
    assert not entropy_rate([["a", "b"] * 20_000], 5).positive_rate


def _exact_rotation_block_entropy(alpha, L):
    """Exact L-block entropy of rotation by alpha coded by the halves partition.

    Distinct L-blocks correspond to the circle intervals cut by the orbit
    preimages of {0, 1/2}; the block law is the interval-length law.
    """
    cuts = sorted(
        {(-k * alpha) % 1.0 for k in range(L)}
        | {(0.5 - k * alpha) % 1.0 for k in range(L)}
    )
    lens = [b - a for a, b in zip(cuts, cuts[1:])]
    lens.append(1.0 - cuts[-1] + cuts[0])
    return -sum(l * math.log2(l) for l in lens if l > 0)


def test_rotation_block_entropy_matches_exact_oracle():
    alpha = math.sqrt(2) - 1.0
    L = 4
    rng = np.random.default_rng(12)
    x0 = rng.random(300)
    ts = np.arange(700.0)
    seqs = [((x + alpha * ts) % 1.0 >= 0.5).astype(int) for x in x0]
    est = block_entropy(seqs, L)
    assert abs(est.bits - _exact_rotation_block_entropy(alpha, L)) < 0.02


def test_entropy_rate_equals_block_entropy_at_every_length():
    """One encoding for all L gives each L's block entropy bit for bit, also
    for tuple symbols over several sequences."""
    rng = np.random.default_rng(14)
    seqs = [[("x", int(v)) for v in rng.integers(0, 3, 4000)] for _ in range(3)]
    trend = entropy_rate(seqs, 3)
    assert trend.estimates == [block_entropy(seqs, L) for L in (1, 2, 3)]
    with pytest.raises(EntropyError, match="L=5"):  # needs 100 * 3^5 symbols
        entropy_rate(seqs, 5)


@pytest.mark.parametrize(
    "bad",
    [np.array([0, 1] * 5000), np.zeros((2, 3, 400), int), "01" * 2000],
    ids=["bare-1d-array", "3d-array", "bare-str"],
)
def test_malformed_sequences_raise_entropy_error(bad):
    # unchecked, a bare str reads as one-symbol rows, and a bare row or a 3-D
    # array fails in the symbol dict with a TypeError
    for call in (lambda: entropy_rate(bad, 2), lambda: block_entropy(bad, 1)):
        with pytest.raises(EntropyError, match="must be a collection of 1-D sequences"):
            call()


# -- oracle: the dict coding and per-sequence np.unique merge the counter replaced


def _reference_encode(sequences):
    rows = [seq.tolist() if isinstance(seq, np.ndarray) else seq for seq in sequences]
    alphabet = sorted(set().union(*rows), key=str)
    index = {s: i for i, s in enumerate(alphabet)}
    codes = [np.fromiter(map(index.__getitem__, row), np.int64, len(row)) for row in rows]
    return codes, len(alphabet)


def _reference_block_counts(encoded, k, L):
    counts = {}
    for seq in encoded:
        if len(seq) < L:
            continue
        m = len(seq) - L + 1
        codes = seq[:m].copy()
        for j in range(1, L):
            codes *= k
            codes += seq[j : j + m]
        uniq, cnt = np.unique(codes, return_counts=True)
        for u, c in zip(uniq.tolist(), cnt.tolist()):
            counts[u] = counts.get(u, 0) + c
    return counts


def _reference_entropies(sequences, lengths):
    """(L, bits, n_blocks, alphabet_size) per length, or the error message."""
    encoded, k = _reference_encode(sequences)
    total = sum(len(s) for s in encoded)
    out = []
    for L in lengths:
        if L < 1:
            return "block length must be >= 1"
        if total < 100 * k**L:
            return (f"undersampled: need >= {100 * k ** L} symbols "
                    f"for L={L} over {k} symbols, got {total}")
        counts = _reference_block_counts(encoded, k, L)
        n = sum(counts.values())
        if n == 0:
            return f"no sequence is as long as the block length L={L}"
        p = np.sort(np.fromiter(counts.values(), dtype=float)) / n
        h = float(-np.sum(p * np.log2(p)))
        h += (len(counts) - 1) / (2.0 * n * np.log(2.0))
        h = min(h, float(L * np.log2(k))) if k > 1 else 0.0
        out.append((L, h, n, k))
    return out


def _entropies_or_message(call):
    try:
        return [(e.block_length, e.bits, e.n_blocks, e.alphabet_size) for e in call()]
    except EntropyError as err:
        return str(err)


_LABELS = {
    "int8": lambda c: c.astype(np.int8),
    "uint64": lambda c: np.array([0, 2**40, 2**64 - 1], np.uint64)[c],
    "bool": lambda c: c % 2 == 1,
    "negative": lambda c: np.array([-5, -1, 3])[c],
    "sparse": lambda c: np.array([0, 10**12, 7])[c],
    "ints": lambda c: c.tolist(),
    "strings": lambda c: [("a", "bb", "c")[v] for v in c],
    "tuples": lambda c: [("x", v) for v in c.tolist()],
}


def _rows(kind, sizes, k, seed):
    rng = np.random.default_rng(seed)
    if kind == "2d":
        return rng.integers(0, k, (len(sizes), sizes[0]))
    codes = [rng.integers(0, k, size) for size in sizes]
    if kind == "mixed":  # int64 and uint64 rows together
        return [c if i % 2 else c.astype(np.uint64) for i, c in enumerate(codes)]
    return [_LABELS[kind](c) for c in codes]


@given(
    st.sampled_from(sorted(_LABELS) + ["2d", "mixed"]),
    st.lists(st.integers(0, 1500), min_size=1, max_size=4),
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
@example("int8", [1500, 2, 1500], 2, 4, 0)  # a middle row shorter than L=3 < L_max
@example("strings", [900, 1, 900, 3], 3, 2, 1)
@example("sparse", [1000, 2, 1000], 2, 3, 2)
@settings(max_examples=80, deadline=None)
def test_counter_matches_the_dict_and_unique_reference(kind, sizes, k, L_max, seed):
    seqs = _rows(kind, sizes, k, seed)
    assert _entropies_or_message(lambda: entropy_rate(seqs, L_max).estimates) == (
        _reference_entropies(seqs, range(1, L_max + 1))
    )
    for L in range(L_max + 1):
        assert _entropies_or_message(lambda: [block_entropy(seqs, L)]) == (
            _reference_entropies(seqs, [L])
        )


def test_error_messages_match_the_reference():
    rng = np.random.default_rng(15)
    coin = [rng.integers(0, 2, 1000)]
    short = [[i % 2] for i in range(400)]
    cases = [(coin, [0]), (coin, [1, 2, 3, 4]), (short, [1, 2])]
    expect = [
        "block length must be >= 1",
        "undersampled: need >= 1600 symbols for L=4 over 2 symbols, got 1000",
        "no sequence is as long as the block length L=2",
    ]
    for (seqs, lengths), message in zip(cases, expect):
        assert _reference_entropies(seqs, lengths) == message
        call = (lambda: [block_entropy(seqs, 0)]) if lengths == [0] else (
            lambda: entropy_rate(seqs, lengths[-1]).estimates)
        assert _entropies_or_message(call) == message


def _edge_rows(kind):
    """(rows, L_max) of one edge case of the integer coding and the row ends."""
    rng = np.random.default_rng(16)
    draw = lambda values, size, dtype: np.array(values, dtype)[rng.integers(0, len(values), size)]
    coin = lambda size: rng.integers(0, 2, size)
    return {
        "int8 -128..127": ([draw([-128, -1, 0, 127], 3500, np.int8) for _ in range(2)], 3),
        "int8 every value": ([rng.integers(-128, 128, 30_000).astype(np.int8)], 1),
        "uint8 0..255": ([draw([0, 1, 128, 255], 3500, np.uint8) for _ in range(2)], 3),
        "negative int16": ([draw([-1000, -7, -1], 4000, np.int16)], 3),
        "dense uint64 near 2^64": ([draw([2**64 - 4, 2**64 - 2, 2**64 - 1], 4000, np.uint64)], 3),
        "sparse uint64": ([draw([0, 2**40, 2**64 - 1], 4000, np.uint64)], 3),
        "bool": ([coin(3000) == 1, coin(2000) == 0], 4),
        "3000 x 5": (coin((3000, 5)), 5),
        "empty and short rows between long": (
            [coin(2000), coin(0), coin(2), coin(2000), coin(3), coin(0)], 4),
        "rows of length L_max": ([coin(4) for _ in range(2000)], 4),
    }[kind]


@pytest.mark.parametrize("kind", [
    "int8 -128..127", "int8 every value", "uint8 0..255", "negative int16",
    "dense uint64 near 2^64", "sparse uint64", "bool", "3000 x 5",
    "empty and short rows between long", "rows of length L_max",
])
def test_counter_matches_the_reference_on_edge_rows(kind):
    seqs, L_max = _edge_rows(kind)
    assert _entropies_or_message(lambda: entropy_rate(seqs, L_max).estimates) == (
        _reference_entropies(seqs, range(1, L_max + 1))
    )


@pytest.mark.parametrize("count_block", [1, 2, 3, 5, 64])
def test_counts_do_not_depend_on_the_pass_size(monkeypatch, count_block):
    """Passes of a few block starts split rows, and the blocks that cross a
    row end, at every offset."""
    monkeypatch.setattr(entropy, "COUNT_BLOCK", count_block)
    rng = np.random.default_rng(18)
    seqs = [rng.integers(0, 2, size) for size in (300, 0, 2, 1, 257, 3, 4, 250)]
    assert _entropies_or_message(lambda: entropy_rate(seqs, 3).estimates) == (
        _reference_entropies(seqs, range(1, 4))
    )


def test_bincount_calls_do_not_grow_with_the_row_count(monkeypatch):
    """The same 100,000 symbols in 10 rows or in 10,000: one count per pass of
    COUNT_BLOCK block starts and per shorter length, none per row."""
    calls = []
    bincount = np.bincount

    def counting(*args, **kwargs):
        calls.append(1)
        return bincount(*args, **kwargs)

    monkeypatch.setattr(np, "bincount", counting)
    rng = np.random.default_rng(17)
    made = []
    for rows in (rng.integers(0, 2, (10, 10_000)), rng.integers(0, 2, (10_000, 10))):
        calls.clear()
        entropy_rate(rows, 5)
        entropy_rate(list(rows), 5)
        made.append(len(calls))
    assert made[0] == made[1]


_PINNED_COIN_BITS = [
    0.8815309385223927, 1.7630653814846788, 2.6445977868062474, 3.5261354706366186,
    4.407682326374368, 5.2892060795636056, 6.170719851886251, 7.052209676933137,
]
_PINNED_ROTATION_BITS = [
    1.0, 1.6612868511944376, 2.270937262199536, 2.815180286901156, 3.2699982536714627,
    3.581725029195236, 3.6951729229213433, 3.8086227657425624, 3.9220745576042497,
    4.035529591541917, 4.148986574421616, 4.253588732699222,
]


def _biased_coin():
    return (np.random.default_rng(2024).random(400_000) < 0.3).astype(np.int8)


def test_entropy_rate_bits_are_pinned():
    """Bits of the counter that extended each row's block codes one length at a
    time: the one block code and the summed-down counts give the same floats."""
    rng = np.random.default_rng(2025)
    ts = np.arange(70_000.0)
    rotation = np.stack([((x + (math.sqrt(2) - 1) * ts) % 1.0 >= 0.5).astype(np.int8)
                         for x in rng.random(6)])
    assert [e.bits for e in entropy_rate([_biased_coin()], 8).estimates] == _PINNED_COIN_BITS
    assert [e.bits for e in entropy_rate(rotation, 12).estimates] == _PINNED_ROTATION_BITS


def test_coin_entropy_rate_peak_memory():
    """400,000 int8 symbols at L_max 8 (6.4 MB when each row's codes were
    int64 and extended per length): one-byte symbol codes, and block codes of
    at most COUNT_BLOCK starts at a time."""
    coin = [_biased_coin()]
    tracemalloc.start()
    try:
        entropy_rate(coin, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def _one_symbol_rows():
    """One 1,000-symbol constant row and 2,000 one-symbol rows: k = 1, which
    the undersampling guard lets through at any L_max."""
    return [np.zeros(1000, np.int8)] + [np.zeros(1, np.int8)] * 2000


def test_one_symbol_entropies_are_counted_without_blocks():
    rows = _one_symbol_rows()
    expect = [(1, 0.0, 3000, 1)] + [(L, 0.0, 1001 - L, 1) for L in range(2, 1001)]
    tracemalloc.start()
    try:
        got = _entropies_or_message(lambda: entropy_rate(rows, 1000).estimates)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == expect
    assert peak < 2_000_000  # 46 MB when every row's last L_max - 1 places were gathered
    assert _entropies_or_message(lambda: entropy_rate(rows, 5).estimates) == (
        _reference_entropies(rows, range(1, 6)))


def test_one_symbol_guards_still_fire():
    assert _entropies_or_message(lambda: entropy_rate(_one_symbol_rows(), 1001).estimates) == (
        "no sequence is as long as the block length L=1001")
    assert _entropies_or_message(lambda: entropy_rate([np.zeros(50, np.int8)], 3).estimates) == (
        "undersampled: need >= 100 symbols for L=1 over 1 symbols, got 50")
