"""How close is a finite coding to the system it encodes?

Epsilon-congruence asks every cell to sit within epsilon of its coded
representative, off a set of measure below epsilon. Strong and weak
simulation ask an observation (or a relabeling of a finer one) to agree
with the target observation off a small set.
"""

import math

from obsequiv import (
    BakerMap,
    ObservationFunction,
    RotationFlow,
    check_epsilon_congruence,
    check_simulation,
    grid_partition,
    interval_partition,
)

bk = BakerMap()

for bits, (nx, ny) in (("4-bit", (16, 16)), ("1-bit", (2, 1))):
    obs = ObservationFunction(grid_partition(nx, ny))
    centers = {
        sym: tuple((lo + hi) / 2 for lo, hi in zip(cell[0].lo, cell[0].hi))
        for sym, cell in zip(obs.symbols, obs.partition.cells)
    }
    rep = check_epsilon_congruence(
        bk, lambda m, o=obs: o(m), lambda s, c=centers: c[s], 0.1, 5000, seed=11
    )
    worst = rep.items[0]["max_distance_seen"]
    print(f"{bits} dyadic coding at eps=0.1: {rep.verdict} (max distance {worst:.4f})")
print(f"4-bit geometric bound: sqrt(2)/32 = {math.sqrt(2) / 32:.4f}")

rot = RotationFlow(math.sqrt(2) - 1)
halves = ObservationFunction(interval_partition([0.0, 0.5, 1.0], ["a", "b"]))
quarters = ObservationFunction(
    interval_partition([0.0, 0.25, 0.5, 0.75, 1.0], ["q0", "q1", "q2", "q3"])
)
gamma = {"q0": "a", "q1": "a", "q2": "b", "q3": "b"}.get

strong = check_simulation("strong", rot, halves, halves, 0.01, [], 5000, seed=12)
weak = check_simulation(
    "weak", rot, halves, quarters, 0.01, [], 5000, seed=13, gamma=gamma
)
print(f"\nstrong simulation (identical observation): {strong.verdict}")
print(f"weak simulation (refine then merge):       {weak.verdict}")
