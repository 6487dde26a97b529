"""Positive versus vanishing information rate from block entropies.

A fair coin produces one bit per symbol at every block length; a circle
rotation coded by halves produces ever-slower entropy growth (zero rate);
a coarse-grained billiard keeps producing information.
"""

import numpy as np

from obsequiv import (
    BilliardFlow,
    ObservationFunction,
    RotationFlow,
    entropy_rate,
    grid_partition,
    spawn_rngs,
    trajectory_symbols,
)

rng = np.random.default_rng(0)
coin = rng.integers(0, 2, 100_000)
trend = entropy_rate([coin], 6)
print(f"fair coin:     rate ~ {trend.rate_estimate:.3f} bits, positive={trend.positive_rate}")

rot = RotationFlow(1.0 / 3.0 + 1e-4 * np.sqrt(2.0))
ts = np.arange(50_000.0)
seqs = [
    (np.asarray(rot.evolve(rot.sample_initial(r), ts)) >= 0.5).astype(np.int8)
    for r in spawn_rngs(1, 20)
]
trend = entropy_rate(seqs, 12)
print(f"rotation:      last increment {trend.increments[-1]:.4f} bits, positive={trend.positive_rate}")

table = BilliardFlow(1.0, 1.0, [((0.5, 0.5), 0.2)], 1.0)
obs = ObservationFunction(grid_partition(2, 2, space=table.space))
grid = [0.5 * i for i in range(2000)]
bseqs = [[obs.alphabet.index(s) for s in trajectory_symbols(table, obs, grid, r)]
         for r in spawn_rngs(2, 6)]
trend = entropy_rate(bseqs, 3)
print(f"billiard:      last increment {trend.increments[-1]:.4f} bits, positive={trend.positive_rate}")
