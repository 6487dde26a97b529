"""Deterministic representations of stochastic processes.

The shift construction (phase space = realizations, evolution = time shift,
observation = value at time zero) and the flow-under-a-function
representation of semi-Markov processes over the block shift of the
embedded chain.
"""

from __future__ import annotations

import numpy as np

from .processes import (
    MarkovChainSpec,
    ProcessError,
    RealizationPath,
    SemiMarkovSpec,
    _chain_tables,
    _draw,
    as_grid,
    block_embedding,
    chain_codes,
    chain_steps,
    check_path_steps,
    sample_chain,
    sample_in_chunks,
    sample_semi_markov,
    semi_markov_codes,
    sojourn_steps,
)
from .systems import RoofFunction, SuspensionFlow

__all__ = [
    "ShiftRepresentation",
    "SemiMarkovFlowRep",
    "shift_representation",
    "semi_markov_flow_representation",
    "observe_at_zero",
]


def observe_at_zero(r: RealizationPath):
    """Value of the realization at time zero (right-continuous at jumps)."""
    return r.value(0.0)


class ShiftRepresentation:
    """Shift system on realizations of a process, observed at time zero.

    States are realization paths; shift(r, t) moves the path so that its
    time-t value sits at time zero; observing a shifted state with
    observe_at_zero reads off the original path at time t.
    """

    def __init__(self, spec):
        if isinstance(spec, SemiMarkovSpec):
            diag = spec.chain.validate()
        elif isinstance(spec, MarkovChainSpec):
            diag = spec.validate()
        else:
            raise ProcessError(f"unsupported process spec {type(spec).__name__}")
        if not diag.valid:
            raise ProcessError("invalid process spec")
        self.spec = spec

    @property
    def alphabet(self):
        return tuple(self.spec.states)

    def sample_realization(self, horizon, rng) -> RealizationPath:
        if isinstance(self.spec, SemiMarkovSpec):
            return sample_semi_markov(self.spec, horizon, rng)
        # discrete-time chain as a unit-sojourn step path
        length = int(np.ceil(horizon)) + 2
        symbols = sample_chain(self.spec, length, rng)
        return RealizationPath(tuple(range(length + 1)), symbols, 1.0)

    @staticmethod
    def shift(r: RealizationPath, t) -> RealizationPath:
        return r.shifted(t)

    @staticmethod
    def observe(r: RealizationPath):
        return observe_at_zero(r)

    def sample_codes(self, grid, n, seed):
        """Alphabet indices (n, len(grid)) of n realizations read on the grid.

        Reading the t-shifted realization at time zero is reading the
        realization at time t, so the shift is applied to the whole grid at
        once by the process kernel.
        """
        grid = as_grid(grid)
        if isinstance(self.spec, SemiMarkovSpec):
            steps = sojourn_steps(grid[-1], min(map(self.spec.u, self.spec.states)))
        else:
            steps = chain_steps(grid)
        return sample_in_chunks(lambda m, rng: self._codes(grid, m, rng), n, seed, steps)

    def sample_path(self, grid, rng):
        """Symbols Phi_0(T_t(r)) for t in grid, for one sampled realization."""
        return tuple(self.alphabet[c] for c in self._codes(grid, 1, rng)[0])

    def _codes(self, grid, n, rng):
        """State indices (n, len(grid)) from the process kernel of the spec."""
        if isinstance(self.spec, SemiMarkovSpec):
            return semi_markov_codes(self.spec, grid, n, rng)
        return chain_codes(self.spec, grid, n, rng)


def shift_representation(spec) -> ShiftRepresentation:
    return ShiftRepresentation(spec)


class _LazyChainPath:
    """Forward sample path of an order-1 chain, extended on demand.

    Memoization makes base states immutable values: the symbol at a given
    index never changes once drawn, so the shift semigroup law holds exactly.
    """

    def __init__(self, states, table, stationary, rng):
        self._states = states
        self._table = table
        self._rng = rng
        self._blocks = [states[rng.choice(len(states), p=stationary)]]

    def block(self, i):
        while len(self._blocks) <= i:
            row = self._table[self._states.index(self._blocks[-1])]
            self._blocks.append(self._states[self._rng.choice(len(self._states), p=row)])
        return self._blocks[i]


class _ChainShiftBase:
    """Shift on chain paths; a base state is (lazy path, position)."""

    def __init__(self, block_chain: MarkovChainSpec):
        self.chain = block_chain
        diag = block_chain.validate()
        if not diag.valid:
            raise ProcessError("block chain invalid")
        self.stationary = diag.stationary

    def sample_initial(self, rng):
        path = _LazyChainPath(
            list(self.chain.states), self.chain.table, self.stationary, rng
        )
        return (path, 0)

    def step(self, state):
        path, i = state
        return (path, i + 1)

    def label(self, state):
        path, i = state
        return path.block(i)

    def coords(self, state):
        return (float(self.chain.states.index(self.label(state))),)

    def metric(self, a, b):
        """Discrete metric of block coordinates (..., 1): 0 on one block, else 1."""
        return (np.asarray(a)[..., 0] != np.asarray(b)[..., 0]).astype(float)


class SemiMarkovFlowRep(SuspensionFlow):
    """Flow built under the holding-time roof over the block shift.

    The fiber observation (base block, height) -> block reproduces the
    semi-Markov process: sojourns equal the holding time of the current
    outcome exactly and jump targets follow the embedded chain.
    """

    def __init__(self, spec: SemiMarkovSpec):
        if not isinstance(spec, SemiMarkovSpec):
            raise ProcessError(f"a flow needs a semi-Markov process, got {type(spec).__name__}")
        if not spec.irrationally_related():
            raise ProcessError("holding-time set is not irrationally related")
        self.spec = spec
        blocks = block_embedding(spec.chain)
        base = _ChainShiftBase(blocks)

        def block_holding(block):
            first = block[0] if isinstance(block, tuple) else block
            return spec.u(first)

        roof = RoofFunction({b: block_holding(b) for b in blocks.states})
        super().__init__(base, roof)
        self._roofs = np.array([roof(b) for b in blocks.states])

    @property
    def alphabet(self):
        return tuple(self.base.chain.states)

    def sample_codes(self, grid, n, seed):
        """Alphabet indices (n, len(grid)) of n flow trajectories on the grid."""
        grid = as_grid(grid)
        steps = sojourn_steps(grid[-1], self._roofs.min())
        return sample_in_chunks(lambda m, rng: self._codes(grid, m, rng), n, seed, steps)

    def sample_path(self, grid, rng):
        """Delta-observed symbols along one flow trajectory."""
        return tuple(self.alphabet[c] for c in self._codes(as_grid(grid), 1, rng)[0])

    def _codes(self, grid, n, rng):
        """Block indices (n, len(grid)) of n flow trajectories, evolved in
        lockstep as (block, height) arrays.

        The initial point is drawn from the invariant measure: a block from
        the block chain's stationary law, kept with probability roof/max
        roof (length bias by rejection), then a height uniform under its
        roof.  Along the grid the height rises at unit rate; each time it
        reaches the roof it drops by the roof and the base shifts one block
        forward, a step of the block chain.
        """
        roof = self._roofs
        check_path_steps(n, sojourn_steps(grid[-1], roof.min()))
        start, cum = _chain_tables(self.base.chain)
        block = np.empty(n, dtype=np.intp)
        todo = np.arange(n)
        while todo.size:
            proposed = _draw(start, rng.random(todo.size))
            keep = rng.random(todo.size) * roof.max() < roof[proposed]
            block[todo[keep]] = proposed[keep]
            todo = todo[~keep]
        height = rng.random(n) * roof[block]
        out = np.empty((n, len(grid)), dtype=np.intp)
        t_now = 0.0
        for j, t in enumerate(grid):
            height += t - t_now
            t_now = t
            while True:
                up = np.flatnonzero(height >= roof[block])
                if not up.size:
                    break
                height[up] -= roof[block[up]]
                block[up] = _draw(cum[block[up]], rng.random(up.size))
            out[:, j] = block
        return out


def semi_markov_flow_representation(spec: SemiMarkovSpec) -> SemiMarkovFlowRep:
    return SemiMarkovFlowRep(spec)
