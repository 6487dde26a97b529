"""Coarse-grained billiard dynamics look stochastic at every sampled lag.

A hard-wall table with a central circular obstacle, observed through a
2x2 position grid: conditional next-cell probabilities stay strictly
between 0 and 1, unlike the rigid rotation whose time-1 map is the
identity.
"""

from obsequiv import (
    BilliardFlow,
    RotationFlow,
    check_nontriviality,
    grid_partition,
    interval_partition,
    observation_from_partition,
)

table = BilliardFlow(1.0, 1.0, [((0.5, 0.5), 0.2)], 1.0)
obs = observation_from_partition(grid_partition(2, 2, space=table.space))

for lag in (0.3, 1.0, 2.0):
    rep = check_nontriviality(table, obs, [lag], n=3000, seed=7)
    item = rep.items[0]
    print(
        f"billiard lag {lag}: {rep.verdict}  "
        f"P({item.get('to')} | {item.get('from')}) = {item.get('estimate'):.3f}"
        f" +/- {item.get('halfwidth'):.3f}"
    )

halves = observation_from_partition(interval_partition([0.0, 0.5, 1.0], ["L", "R"]))
rep = check_nontriviality(RotationFlow(1.0), halves, [1.0], n=3000, seed=8)
print(f"rotation alpha=1 lag 1: {rep.verdict} (time-1 map is the identity)")
