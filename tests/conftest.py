"""Shared fixtures: canonical process specs and contrast fixtures."""

import math
import signal
from fractions import Fraction

import numpy as np
import pytest

from obsequiv.partitions import UNIT_INTERVAL
from obsequiv.processes import (
    HoldingTime,
    MarkovChainSpec,
    SemiMarkovSpec,
    as_grid,
    sample_in_chunks,
    sojourn_steps,
)


@pytest.fixture
def within_a_second():
    """Raise TimeoutError in the test, rather than let it hang, after 1 s."""

    def alarm(signum, frame):
        raise TimeoutError("still running after 1 s")

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def fair_semi_markov():
    """p=(1/2,1/2) embedded chain with holding times (1, sqrt(2))."""
    chain = MarkovChainSpec(("s1", "s2"), np.full((2, 2), 0.5))
    return SemiMarkovSpec(
        chain,
        {"s1": HoldingTime(Fraction(1)), "s2": HoldingTime(Fraction(1), 2)},
    )


class DeterministicStartSource:
    """Semi-Markov sampler forced to begin a fresh s1 sojourn at time 0.

    Violates stationarity on purpose: the time-0 marginal is a point mass
    instead of the time-weighted marginal.
    """

    def __init__(self, spec):
        self.spec = spec

    @property
    def alphabet(self):
        return self.spec.states

    def sample_codes(self, grid, n, seed):
        grid = as_grid(grid)
        steps = sojourn_steps(grid[-1], min(map(self.spec.u, self.spec.states)))
        return sample_in_chunks(lambda m, rng: self._codes(grid, m, rng), n, seed, steps)

    def _codes(self, grid, m, rng):
        """m paths in lockstep: s1 on [0, u(s1)), then each jump drawn by
        inverse CDF from the embedded chain's row for the current context."""
        chain = self.spec.chain
        k, s1 = chain.n_states, chain.states.index("s1")
        hold = np.array([self.spec.u(s) for s in chain.states])
        cum = np.cumsum(chain.table, axis=1)
        ctx = np.full(m, sum(s1 * k**j for j in range(chain.order)))  # context (s1, ..., s1)
        t = np.full(m, hold[s1])  # epoch of the next jump
        codes = np.full((m, len(grid)), s1)
        while (t <= grid[-1]).any():
            s = (cum[ctx] > rng.random(m)[:, None]).argmax(axis=1)
            ctx = ctx * k % len(cum) + s
            codes = np.where(grid >= t[:, None], s[:, None], codes)
            t = t + hold[s]
        return codes


@pytest.fixture
def deterministic_start_source(fair_semi_markov):
    return DeterministicStartSource(fair_semi_markov)


class ContractionMap:
    """x -> x/2 per unit time on [0,1); not measure-preserving."""

    space = UNIT_INTERVAL

    def sample_initial(self, rng):
        return float(rng.random())

    def evolve(self, state, t):
        return state * (0.5 ** float(t))

    def coords(self, state):
        return (state,)

    def metric(self, a, b):
        return np.abs(np.asarray(a)[..., 0] - np.asarray(b)[..., 0])


@pytest.fixture
def contraction_map():
    return ContractionMap()
