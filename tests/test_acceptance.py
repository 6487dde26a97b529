"""Acceptance gate: ten end-to-end criteria at pinned tolerances.

Each test prints one `criterion NN (...): PASS|FAIL` line (visible with -s,
or in captured output on failure) and then asserts the verdict.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chisquare, norm

from obsequiv.checks import (
    check_epsilon_congruence,
    check_nontriviality,
    check_observational_equivalence,
    check_simulation,
    check_stationarity,
)
from obsequiv.entropy import block_entropy, entropy_rate
from obsequiv.fdd import THREE_SIGMA_ALPHA
from obsequiv.partitions import (
    Box,
    ObservationFunction,
    Partition,
    UNIT_INTERVAL,
    grid_partition,
    interval_partition,
)
from obsequiv.processes import (
    HoldingTime,
    MarkovChainSpec,
    SemiMarkovSpec,
    block_embedding,
    sample_chain,
    sample_semi_markov,
    validate_markov_spec,
)
from obsequiv.representation import SemiMarkovFlowRep, ShiftRepresentation
from obsequiv.systems import (
    BakerMap,
    BilliardFlow,
    RoofFunction,
    RotationFlow,
    SuspensionFlow,
    spawn_rngs,
    trajectory_symbols,
)

N_LARGE = 100_000
SQRT2 = math.sqrt(2.0)


def _verdict(num, name, ok):
    print(f"criterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'}")
    return ok


@pytest.fixture(scope="module")
def sm_spec():
    chain = MarkovChainSpec(("s1", "s2"), np.full((2, 2), 0.5))
    return SemiMarkovSpec(
        chain, {"s1": HoldingTime(Fraction(1)), "s2": HoldingTime(Fraction(1), 2)}
    )


@pytest.fixture(scope="module")
def stationary_ensemble(sm_spec):
    """10^5 stationary realizations plus the wall-clock cost of drawing them."""
    t0 = time.perf_counter()
    rngs = spawn_rngs(20_260_823, N_LARGE)
    reals = [sample_semi_markov(sm_spec, 0.1, rng) for rng in rngs]
    return reals, time.perf_counter() - t0


def test_criterion_01_time_weighted_marginal(stationary_ensemble):
    reals, elapsed = stationary_ensemble
    target = SQRT2 / (1.0 + SQRT2)
    hits = sum(1 for r in reals if r.value(0.0) == "s2")
    est = hits / N_LARGE
    tol = 3.0 * math.sqrt(target * (1.0 - target) / N_LARGE)
    ok = abs(est - target) <= tol and elapsed < 30.0
    assert _verdict(1, "time-weighted marginal", ok), (est, target, tol, elapsed)


def test_criterion_02_first_jump_uniformity(stationary_ensemble, sm_spec):
    reals, _ = stationary_ensemble
    ok = True
    detail = {}
    for state in ("s1", "s2"):
        u = sm_spec.u(state)
        offsets = [r.first_jump for r in reals if r.symbols[0] == state]
        counts, _ = np.histogram(offsets, bins=20, range=(0.0, u))
        p = chisquare(counts).pvalue
        detail[state] = p
        ok = ok and p > 0.01
    assert _verdict(2, "first-jump offset uniformity", ok), detail


def test_criterion_03_stationarity(sm_spec, deterministic_start_source):
    rep = check_stationarity(
        ShiftRepresentation(sm_spec), (0.0, 0.7, 1.9), [0.3, 1.0, 1.7], 20_000, 103
    )
    fixture = check_stationarity(
        deterministic_start_source, (0.0, 0.7, 1.9), [0.3, 1.0, 1.7], 20_000, 107
    )
    ok = rep.passed and fixture.verdict == "fail"
    assert _verdict(3, "stationarity", ok), (rep.verdict, fixture.verdict)


def test_criterion_04_representation_fidelity(sm_spec):
    flow = check_observational_equivalence(
        ShiftRepresentation(sm_spec),
        SemiMarkovFlowRep(sm_spec),
        [(0.0,), (0.4, 1.1, 2.3)],
        N_LARGE,
        109,
    )
    chain = MarkovChainSpec(("a", "b"), np.array([[0.5, 0.5], [0.75, 0.25]]))
    shift = check_observational_equivalence(
        ShiftRepresentation(chain),
        ShiftRepresentation(chain),
        [(0.0,), (0.0, 1.0, 2.0)],
        N_LARGE,
        113,
    )
    ok = flow.passed and shift.passed
    assert _verdict(4, "representation fidelity", ok), (flow.verdict, shift.verdict)


def test_criterion_05_transition_nontriviality():
    table = BilliardFlow(1.0, 1.0, [((0.5, 0.5), 0.2)], 1.0)
    obs = ObservationFunction(grid_partition(2, 2, space=table.space))
    ok = True
    timings = {}
    for i, k in enumerate((0.3, 1.0, 2.0)):
        t0 = time.perf_counter()
        rep = check_nontriviality(table, obs, [k], 4000, 127 + i)
        timings[k] = time.perf_counter() - t0
        ok = ok and rep.passed and timings[k] < 60.0
    halves = ObservationFunction(interval_partition([0.0, 0.5, 1.0], ["L", "R"]))
    trivial = check_nontriviality(RotationFlow(1.0), halves, [1.0], 4000, 131)
    ok = ok and trivial.verdict == "fail"
    assert _verdict(5, "transition nontriviality", ok), (timings, trivial.verdict)


def test_criterion_06_block_embedding():
    pa = {"aa": 0.9, "ab": 0.3, "ba": 0.6, "bb": 0.2}
    table = np.array([[pa[c], 1 - pa[c]] for c in ("aa", "ab", "ba", "bb")])
    spec = MarkovChainSpec(("a", "b"), table, order=2)
    path = sample_chain(spec, 200_000, spawn_rngs(137, 1)[0])
    blocks = list(zip(path, path[1:]))

    # (a) Markov property of the block process: P(c | b, a) = P(c | b)
    triple, pair, single = {}, {}, {}
    for b0, b1, b2 in zip(blocks, blocks[1:], blocks[2:]):
        triple[(b0, b1, b2)] = triple.get((b0, b1, b2), 0) + 1
        pair[(b0, b1)] = pair.get((b0, b1), 0) + 1
    for b1, b2 in zip(blocks, blocks[1:]):
        single[(b1, b2)] = single.get((b1, b2), 0) + 1
    marg = {}
    for (b1, _), c in single.items():
        marg[b1] = marg.get(b1, 0) + c
    comparisons = []
    for (b0, b1), n01 in pair.items():
        for b2 in set(bl for (x, bl) in single if x == b1):
            p_ctx = triple.get((b0, b1, b2), 0) / n01
            p_marg = single.get((b1, b2), 0) / marg[b1]
            se = math.sqrt(
                p_ctx * (1 - p_ctx) / n01 + p_marg * (1 - p_marg) / marg[b1]
            )
            comparisons.append((abs(p_ctx - p_marg), se))
    z = float(norm.isf(THREE_SIGMA_ALPHA / (2.0 * len(comparisons))))
    markov_ok = all(d <= z * se for d, se in comparisons)

    # (b) block-chain stationary marginals match joint 2-block frequencies;
    # independent draws keep the 3-sigma Wald band valid
    emb = block_embedding(spec)
    diag = validate_markov_spec(emb)
    n_ind = 50_000
    draws = [tuple(sample_chain(spec, 2, rng)) for rng in spawn_rngs(1009, n_ind)]
    marg_ok = True
    for state, p_exp in zip(emb.states, diag.stationary):
        p_emp = sum(1 for b in draws if b == state) / n_ind
        tol = 3.0 * math.sqrt(max(p_exp * (1 - p_exp), 1e-12) / n_ind)
        marg_ok = marg_ok and abs(p_emp - p_exp) <= tol
    ok = markov_ok and marg_ok
    assert _verdict(6, "block embedding", ok), (markov_ok, marg_ok)


def test_criterion_07_epsilon_congruence():
    bk = BakerMap()
    fine = ObservationFunction(grid_partition(16, 16))
    centers = {
        sym: tuple((lo + hi) / 2 for lo, hi in zip(cell[0].lo, cell[0].hi))
        for sym, cell in zip(fine.symbols, fine.partition.cells)
    }
    good = check_epsilon_congruence(
        bk, lambda m: fine(m), lambda s: centers[s], 0.1, 10_000, 139
    )
    # geometric bound: half-diagonal of a 1/16 cell is sqrt(2)/32 < 0.1
    bound_ok = good.items[0]["max_distance_seen"] <= SQRT2 / 32 + 1e-12
    coarse = ObservationFunction(interval_partition([0.0, 0.5, 1.0], ["L", "R"]))
    coarse_centers = {"L": (0.25, 0.5), "R": (0.75, 0.5)}
    bad = check_epsilon_congruence(
        bk, lambda c: coarse(c[..., :1]), lambda s: coarse_centers[s], 0.1, 10_000, 149
    )
    ok = good.passed and bound_ok and bad.verdict == "fail"
    assert _verdict(7, "epsilon congruence", ok), (good.verdict, bound_ok, bad.verdict)


def test_criterion_08_simulation():
    rot = RotationFlow(SQRT2 - 1.0)
    halves = ObservationFunction(interval_partition([0.0, 0.5, 1.0], ["a", "b"]))
    identity_ok = all(
        check_simulation(rot, halves, halves, eps, 5000, 151).passed
        for eps in (0.001, 0.01, 0.1, 0.5)
    )
    perturbed = ObservationFunction(
        Partition(
            UNIT_INTERVAL,
            (
                (Box((0.0,), (0.01,)),),
                (Box((0.01,), (0.5,)),),
                (Box((0.5,), (1.0,)),),
            ),
            ("head", "body", "tail"),
        ),
        symbols=("b", "a", "b"),
    )  # disagrees with halves exactly on [0, 0.01)
    loose = check_simulation(rot, halves, perturbed, 0.05, 20_000, 157)
    tight = check_simulation(rot, halves, perturbed, 0.005, 20_000, 163)
    quarters = ObservationFunction(
        interval_partition([0.0, 0.25, 0.5, 0.75, 1.0], ["q0", "q1", "q2", "q3"])
    )
    gamma = {"q0": "a", "q1": "a", "q2": "b", "q3": "b"}.get
    weak_ok = all(
        check_simulation(rot, halves, quarters, eps, 5000, 167, gamma=gamma).passed
        for eps in (0.001, 0.01, 0.1, 0.5)
    )
    ok = identity_ok and loose.passed and tight.verdict == "fail" and weak_ok
    assert _verdict(8, "simulation", ok), (
        identity_ok,
        loose.verdict,
        tight.verdict,
        weak_ok,
    )


def _exact_rotation_block_entropy(alpha, L):
    """Exact L-block entropy (bits) of rotation coded by the halves partition."""
    cuts = sorted(
        {(-k * alpha) % 1.0 for k in range(L)}
        | {(0.5 - k * alpha) % 1.0 for k in range(L)}
    )
    lens = [b - a for a, b in zip(cuts, cuts[1:])]
    lens.append(1.0 - cuts[-1] + cuts[0])
    return -sum(l * math.log2(l) for l in lens if l > 0)


def test_criterion_09_entropy_dichotomy():
    t0 = time.perf_counter()
    rng = np.random.default_rng(173)
    coin = rng.integers(0, 2, 400_000)
    coin_rate = entropy_rate([coin], 8).rate_estimate
    coin_ok = abs(coin_rate - 1.0) <= 0.05

    # irrational step close to 1/3: genuinely zero-entropy, and its exact
    # L=16 increment (~0.0085 bits) sits safely under the 0.05 threshold
    alpha = 1.0 / 3.0 + 1e-4 * SQRT2
    exact_inc = _exact_rotation_block_entropy(alpha, 16) - _exact_rotation_block_entropy(
        alpha, 15
    )
    assert exact_inc == pytest.approx(0.008524597892020758)
    rot = RotationFlow(alpha)
    starts = [rot.sample_initial(r) for r in spawn_rngs(179, 70)]
    ts = np.arange(100_000.0)
    seqs = [(np.asarray(rot.evolve(x, ts)) >= 0.5).astype(np.int8) for x in starts]
    trend = entropy_rate(seqs, 16)
    rot_ok = (not trend.positive_rate) and trend.increments[-1] < 0.05
    close_to_exact = abs(
        trend.estimates[-1].bits - _exact_rotation_block_entropy(alpha, 16)
    ) < 0.02

    table = BilliardFlow(1.0, 1.0, [((0.5, 0.5), 0.2)], 1.0)
    obs = ObservationFunction(grid_partition(2, 2, space=table.space))
    grid = [0.5 * i for i in range(4000)]
    bseqs = [
        trajectory_symbols(table, obs, grid, rng)
        for rng in spawn_rngs(181, 8)
    ]
    btrend = entropy_rate(bseqs, 3)
    billiard_ok = btrend.positive_rate
    elapsed = time.perf_counter() - t0
    ok = coin_ok and rot_ok and close_to_exact and billiard_ok and elapsed < 60.0
    assert _verdict(9, "entropy dichotomy", ok), (
        coin_rate,
        trend.increments[-1],
        btrend.rate_estimate,
        elapsed,
    )


class _LabeledBaker:
    """Baker base with a two-letter label for the suspension roof."""

    def __init__(self):
        self._bk = BakerMap()

    def sample_initial(self, rng):
        return self._bk.sample_initial(rng)

    def step(self, s):
        return self._bk.step(s)

    def label(self, s):
        return "a" if s[0] < 0.5 else "b"

    def coords(self, s):
        return s

    def metric(self, x, y):
        return self._bk.metric(x, y)


def test_criterion_10_mechanics():
    table = BilliardFlow(1.0, 1.0, [((0.5, 0.5), 0.2)], 1.0)
    state = table.sample_initial(spawn_rngs(191, 1)[0])
    drift = table.speed_drift(state, 10_000)
    drift_ok = drift < 1e-9

    rot = RotationFlow(SQRT2 - 1.0)
    rng = np.random.default_rng(193)
    rot_ok = True
    for _ in range(1000):
        x = rot.sample_initial(rng)
        t1, t2 = 3 * rng.random(), 3 * rng.random()
        one, two = rot.evolve(x, t1 + t2), rot.evolve(rot.evolve(x, t1), t2)
        if rot.metric(rot.coords(one), rot.coords(two)) >= 1e-9:
            rot_ok = False
            break

    flow = SuspensionFlow(
        _LabeledBaker(), RoofFunction({"a": 1.0, "b": SQRT2})
    )
    susp_ok = True
    for _ in range(1000):
        s = flow.sample_initial(rng)
        t1, t2 = 3 * rng.random(), 3 * rng.random()
        one, two = flow.evolve(s, t1 + t2), flow.evolve(flow.evolve(s, t1), t2)
        if flow.metric(flow.coords(one), flow.coords(two)) >= 1e-9:
            susp_ok = False
            break
    ok = drift_ok and rot_ok and susp_ok
    assert _verdict(10, "mechanics", ok), (drift, rot_ok, susp_ok)
