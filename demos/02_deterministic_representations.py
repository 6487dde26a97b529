"""Two deterministic systems that reproduce a stochastic process exactly.

The shift representation evolves whole realizations and reads them at time
zero; the flow built under the holding-time roof evolves a (block, height)
pair. An empirical check confirms both produce the same finite-dimensional
distributions as direct process sampling.
"""

from fractions import Fraction

import numpy as np

from obsequiv import (
    HoldingTime,
    MarkovChainSpec,
    SemiMarkovFlowRep,
    SemiMarkovSpec,
    ShiftRepresentation,
    check_observational_equivalence,
    sample_semi_markov,
    spawn_rngs,
)

chain = MarkovChainSpec(("s1", "s2"), np.full((2, 2), 0.5))
spec = SemiMarkovSpec(
    chain, {"s1": HoldingTime(Fraction(1)), "s2": HoldingTime(Fraction(1), 2)}
)

# two generators from one seed draw the same realization r: the shift
# representation reads its t-shifted copies at time zero, r.value reads r at t
grid = (0.0, 0.7, 2.3, 4.9)
read = ShiftRepresentation(spec).sample_path(grid, spawn_rngs(3, 1)[0])
r = sample_semi_markov(spec, grid[-1], spawn_rngs(3, 1)[0])
print("shift identity: (T_t r) read at 0 == r.value(t)")
for t, symbol in zip(grid, read):
    print(f"  t={t}: {symbol} == {r.value(t)}")

flow = SemiMarkovFlowRep(spec)
state = flow.sample_initial(spawn_rngs(4, 1)[0])
print("\nflow trajectory (t, symbol):")
t_now = 0.0
for t in np.arange(0.0, 4.0, 0.5):
    state = flow.evolve(state, t - t_now)
    t_now = float(t)
    print(f"  {t:4.1f}  {flow.observe(state)}")

report = check_observational_equivalence(
    ShiftRepresentation(spec), flow, grids=[(0.0, 1.1, 2.4)], n=20_000, seed=5
)
print("\nprocess vs flow representation:", report.verdict)
