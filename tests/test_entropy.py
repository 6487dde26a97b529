"""Block entropy and entropy-rate trend estimation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert est.rate == pytest.approx(est.bits / 8)


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


def test_trend_csv_format():
    rng = np.random.default_rng(10)
    trend = entropy_rate([rng.integers(0, 2, 10_000)], 3)
    lines = trend.to_csv().strip().splitlines()
    assert lines[0] == "L,H_L,increment"
    assert len(lines) == 4


def test_entropy_rate_equals_block_entropy_at_every_length():
    """One encoding for all L gives each L's block entropy bit for bit, also
    for tuple symbols over several sequences."""
    rng = np.random.default_rng(14)
    seqs = [[("x", int(v)) for v in rng.integers(0, 3, 4000)] for _ in range(3)]
    trend = entropy_rate(seqs, 3)
    assert trend.estimates == [block_entropy(seqs, L) for L in (1, 2, 3)]
    with pytest.raises(EntropyError, match="L=5"):  # needs 100 * 3^5 symbols
        entropy_rate(seqs, 5)
