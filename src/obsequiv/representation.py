"""Deterministic representations of stochastic processes.

The shift construction (phase space = realizations, evolution = time shift,
observation = value at time zero) and the flow-under-a-function
representation of semi-Markov processes over the shift of the context chain
of the embedded chain.
"""

from __future__ import annotations

import numpy as np

from .processes import (
    MarkovChainSpec,
    ProcessError,
    SemiMarkovSpec,
    _chain_tables,
    _draw,
    _recurrent_blocks,
    _semi_markov_tables,
    _step,
    as_grid,
    chain_codes,
    chain_steps,
    check_path_steps,
    irrationally_related,
    require_valid,
    sample_in_chunks,
    semi_markov_codes,
    sojourn_steps,
)
from .systems import RoofFunction, SuspensionFlow

__all__ = ["ShiftRepresentation", "SemiMarkovFlowRep"]


class ShiftRepresentation:
    """Shift system on realizations of a process, observed at time zero.

    States are realizations; the time-t shift moves a realization so that
    its time-t value sits at time zero.  sample_codes and sample_path shift
    by every grid time at once: they read each realization drawn by the
    process kernel on the grid.
    """

    def __init__(self, spec):
        if isinstance(spec, SemiMarkovSpec):
            shortest = min(map(spec.u, spec.states))
            self._kernel, self._steps = semi_markov_codes, lambda g: sojourn_steps(g[-1], shortest)
        elif isinstance(spec, MarkovChainSpec):
            self._kernel, self._steps = chain_codes, chain_steps
        else:
            raise ProcessError(f"unsupported process spec {type(spec).__name__}")
        require_valid(getattr(spec, "chain", spec))
        self.spec, self.alphabet = spec, tuple(spec.states)

    def sample_codes(self, grid, n, seed):
        """Alphabet indices (n, len(grid)) of n realizations read on the grid.

        Reading the t-shifted realization at time zero is reading the
        realization at time t, so the shift is applied to the whole grid at
        once by the process kernel.
        """
        grid = as_grid(grid)
        draw = lambda m, rng: self._kernel(self.spec, grid, m, rng)
        return sample_in_chunks(draw, n, seed, self._steps(grid))

    def sample_path(self, grid, rng):
        """Symbols Phi_0(T_t(r)) for t in grid, for one sampled realization."""
        return tuple(self.alphabet[c] for c in self._kernel(self.spec, grid, 1, rng)[0])


class _ContextShift:
    """Shift on stationary paths of a flow's context chain.

    A base state is (path, i), position i of a path (rng, contexts) whose
    contexts are drawn from rng on demand by the flow's draw rule and
    memoized: the context at a position never changes once drawn, so the
    shift semigroup law holds exactly.  Each context is a one-row index
    array, so the scalar walk is the one-path case of the flow's kernel.
    """

    def __init__(self, flow):
        self.flow = flow

    def sample_initial(self, rng):
        return ((rng, [_draw(self.flow._start, rng.random(1))]), 0)

    def step(self, state):
        path, i = state
        return (path, i + 1)

    def code(self, state):
        """Alphabet index of the context at the state's position."""
        (rng, contexts), i = state
        while len(contexts) <= i:
            contexts.append(_step(self.flow._cum, contexts[-1], rng.random(1))[0])
        return int(self.flow._code[contexts[i]][0])

    def label(self, state):
        return self.flow.alphabet[self.code(state)]

    def coords(self, state):
        return (float(self.code(state)),)

    def metric(self, a, b):
        """Discrete metric of block coordinates (..., 1): 0 on one block, else 1."""
        return (np.asarray(a)[..., 0] != np.asarray(b)[..., 0]).astype(float)


class SemiMarkovFlowRep(SuspensionFlow):
    """Flow built under the holding-time roof over the shift of the context
    chain of the embedded chain.

    A base point is a context, the block of the last order states; its roof
    is the holding time of its first state.  The fiber observation (base
    block, height) -> block reproduces the semi-Markov process: sojourns
    equal the holding time of the current outcome exactly and jump targets
    follow the embedded chain.  The alphabet is the recurrent blocks in
    context order (states for order 1, tuples of states above).
    """

    def __init__(self, spec: SemiMarkovSpec):
        if not isinstance(spec, SemiMarkovSpec):
            raise ProcessError(f"a flow needs a semi-Markov process, got {type(spec).__name__}")
        if not irrationally_related(spec.holding.values()):
            raise ProcessError("holding-time set is not irrationally related")
        chain = spec.chain
        self._start, self._cum = _chain_tables(chain)
        recurrent, self.alphabet = _recurrent_blocks(chain)
        self._code = np.full(len(self._cum), -1, dtype=np.intp)
        self._code[recurrent] = np.arange(len(recurrent))
        first = np.arange(len(self._cum)) // chain.n_states ** (chain.order - 1)
        self._roofs = _semi_markov_tables(spec)[2][first]  # the holding time of each first state
        roof = RoofFunction(dict(zip(self.alphabet, self._roofs[recurrent])))
        super().__init__(_ContextShift(self), roof)

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
        lockstep as (context, height) arrays.

        The initial point is drawn from the invariant measure: a context
        from the chain's stationary law, kept with probability roof/max roof
        (length bias by rejection), then a height uniform under its roof.
        Along the grid the height rises at unit rate; each time it reaches
        the roof it drops by the roof and the base shifts one context
        forward by one chain step.
        """
        roof = self._roofs
        check_path_steps(n, sojourn_steps(grid[-1], roof.min()))
        ctx = np.empty(n, dtype=np.intp)
        todo = np.arange(n)
        while todo.size:
            proposed = _draw(self._start, rng.random(todo.size))
            keep = rng.random(todo.size) * roof.max() < roof[proposed]
            ctx[todo[keep]] = proposed[keep]
            todo = todo[~keep]
        height = rng.random(n) * roof[ctx]
        out = np.empty((n, len(grid)), dtype=np.intp)
        t_now = 0.0
        for j, t in enumerate(grid):
            height += t - t_now
            t_now = t
            while True:
                up = np.flatnonzero(height >= roof[ctx])
                if not up.size:
                    break
                height[up] -= roof[ctx[up]]
                ctx[up] = _step(self._cum, ctx[up], rng.random(up.size))[0]
            out[:, j] = ctx
        return self._code[out]
