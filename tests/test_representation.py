"""Shift and flow-under-a-function representations of processes."""

import math
from fractions import Fraction

import numpy as np
import pytest

from obsequiv.processes import (
    HoldingTime,
    MarkovChainSpec,
    ProcessError,
    SemiMarkovSpec,
    sample_chain,
    sample_semi_markov,
)
from obsequiv.representation import SemiMarkovFlowRep, ShiftRepresentation
from obsequiv.systems import SystemError, observe_trajectories, spawn_rngs

P2 = np.array([[0.5, 0.5], [0.75, 0.25]])
GRID = (0.0, 0.3, 1.0, 2.7, 4.9)


def test_shift_identity_on_realizations(fair_semi_markov):
    """Observing the t-shifted realization at zero reads the path at t:
    two generators from one seed draw the same realization, which the shift
    representation reads on the grid and RealizationPath.value at each t."""
    rep = ShiftRepresentation(fair_semi_markov)
    for a, b in zip(spawn_rngs(31, 50), spawn_rngs(31, 50)):
        r = sample_semi_markov(fair_semi_markov, GRID[-1], b)
        assert rep.sample_path(GRID, a) == tuple(r.value(t) for t in GRID)


def test_shift_identity_on_chain_paths():
    """A chain's shift representation reads its path at floor(t)."""
    spec = MarkovChainSpec(("a", "b"), P2)
    rep = ShiftRepresentation(spec)
    for a, b in zip(spawn_rngs(31, 50), spawn_rngs(31, 50)):
        path = sample_chain(spec, math.floor(GRID[-1]) + 1, b)
        assert rep.sample_path(GRID, a) == tuple(path[math.floor(t)] for t in GRID)


def test_shift_representation_rejects_invalid_chain():
    reducible = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ProcessError):
        ShiftRepresentation(MarkovChainSpec(("a", "b"), reducible))
    with pytest.raises(ProcessError):
        ShiftRepresentation("not a spec")


def test_shift_representation_discrete_chain_path():
    rep = ShiftRepresentation(MarkovChainSpec(("a", "b"), P2))
    path = rep.sample_path((0.0, 1.0, 2.0), spawn_rngs(7, 1)[0])
    assert len(path) == 3
    assert all(s in ("a", "b") for s in path)


def test_flow_rep_refuses_more_roofs_than_the_step_cap(fair_semi_markov, within_a_second):
    flow = SemiMarkovFlowRep(fair_semi_markov)
    state = flow.sample_initial(np.random.default_rng(0))
    with pytest.raises(SystemError, match=r"roofs in one evolve call, got t=1e\+20$"):
        flow.evolve(state, 1e20)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -0.3])
def test_flow_rep_rejects_a_non_finite_time(fair_semi_markov, within_a_second, t):
    flow = SemiMarkovFlowRep(fair_semi_markov)
    state = flow.sample_initial(np.random.default_rng(0))
    with pytest.raises(SystemError, match=f"runs forward only, for a finite time, got t={t}$"):
        flow.evolve(state, t)
    (_, contexts), _ = state[0]
    assert len(contexts) == 1


def test_flow_rep_requires_irrational_ratios():
    chain = MarkovChainSpec(("s1", "s2"), np.full((2, 2), 0.5))
    rational = SemiMarkovSpec(
        chain, {"s1": HoldingTime(Fraction(1)), "s2": HoldingTime(Fraction(2))}
    )
    with pytest.raises(ProcessError):
        SemiMarkovFlowRep(rational)


def test_flow_rep_sojourn_lengths_exact(fair_semi_markov):
    flow = SemiMarkovFlowRep(fair_semi_markov)
    u = {"s1": 1.0, "s2": math.sqrt(2)}
    rng = spawn_rngs(13, 1)[0]
    state = flow.sample_initial(rng)
    # walk in fine steps; measure each full sojourn between symbol changes
    dt = 0.01
    prev = flow.observe(state)
    length = None
    seen = []
    for _ in range(3000):
        state = flow.evolve(state, dt)
        cur = flow.observe(state)
        if cur != prev:
            if length is not None:
                seen.append((prev, length))
            length = 0.0
            prev = cur
        elif length is not None:
            length += dt
    assert seen, "expected at least one complete sojourn"
    # self-transitions merge observed runs: each run spans k full holdings
    for sym, dur in seen:
        k = round((dur + dt) / u[sym])
        assert k >= 1
        assert abs((dur + dt) - k * u[sym]) < 2 * dt


def test_flow_rep_time_marginal(fair_semi_markov):
    flow = SemiMarkovFlowRep(fair_semi_markov)
    target = math.sqrt(2) / (1 + math.sqrt(2))
    n = 30_000
    hits = sum(
        1 for rng in spawn_rngs(41, n) if flow.observe(flow.sample_initial(rng)) == "s2"
    )
    assert abs(hits / n - target) < 3 * math.sqrt(target * (1 - target) / n)


def test_flow_rep_evolution_is_consistent(fair_semi_markov):
    """Evolving in two legs agrees with one leg (exact semigroup on fibers)."""
    flow = SemiMarkovFlowRep(fair_semi_markov)
    rng = np.random.default_rng(8)
    for _ in range(100):
        s = flow.sample_initial(rng)
        t1, t2 = 3 * rng.random(), 3 * rng.random()
        a = flow.evolve(flow.evolve(s, t1), t2)
        b = flow.evolve(s, t1 + t2)
        assert flow.observe(a) == flow.observe(b)
        assert abs(a[1] - b[1]) < 1e-9


def test_flow_rep_observed_as_a_system(fair_semi_markov):
    """A flow point's coordinates are (block index, height), every height
    under its block's roof; the metric is the height difference within one
    block, and 1 more across blocks."""
    flow = SemiMarkovFlowRep(fair_semi_markov)
    rows = observe_trajectories(flow, lambda c: c, GRID, 50, 3)
    assert rows.shape == (50, len(GRID), 2)
    block, height = rows[..., 0], rows[..., 1]
    assert set(block.ravel().tolist()) == {0.0, 1.0}
    roofs = np.array([flow.roof(s) for s in flow.alphabet])
    assert np.all((0.0 <= height) & (height < roofs[block.astype(int)]))
    a, b = rows[:, 0], rows[:, 1]
    same = a[:, 0] == b[:, 0]
    assert same.any() and not same.all()
    assert flow.metric(a, a).tolist() == [0.0] * 50
    assert flow.metric(a, b).tolist() == (np.abs(a[:, 1] - b[:, 1]) + ~same).tolist()


def test_flow_rep_order2_blocks():
    pa = {"aa": 0.9, "ab": 0.3, "ba": 0.6, "bb": 0.2}
    table = np.array([[pa[c], 1 - pa[c]] for c in ("aa", "ab", "ba", "bb")])
    chain = MarkovChainSpec(("a", "b"), table, order=2)
    spec = SemiMarkovSpec(
        chain, {"a": HoldingTime(Fraction(1)), "b": HoldingTime(Fraction(1), 2)}
    )
    flow = SemiMarkovFlowRep(spec)
    # base states are 2-blocks; the roof depends on the block's first symbol
    state = flow.sample_initial(spawn_rngs(2, 1)[0])
    block = flow.observe(state)
    assert isinstance(block, tuple) and len(block) == 2


def test_sample_path_deterministic_given_seed(fair_semi_markov):
    flow = SemiMarkovFlowRep(fair_semi_markov)
    grid = (0.0, 0.5, 1.3)
    a = flow.sample_path(grid, spawn_rngs(99, 1)[0])
    b = flow.sample_path(grid, spawn_rngs(99, 1)[0])
    assert a == b
