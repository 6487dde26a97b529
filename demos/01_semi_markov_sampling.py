"""Sample a stationary semi-Markov process and inspect its time-0 law.

The state holding times are exact symbolic values (1 and sqrt(2)), so the
fraction of time spent in each state differs from the embedded chain's
stationary distribution: long-holding states are over-represented at any
fixed observation time.
"""

import math
from fractions import Fraction

import numpy as np

from obsequiv import (
    HoldingTime,
    MarkovChainSpec,
    SemiMarkovSpec,
    irrationally_related,
    sample_semi_markov,
    spawn_rngs,
    validate_markov_spec,
)

chain = MarkovChainSpec(("s1", "s2"), np.full((2, 2), 0.5))
spec = SemiMarkovSpec(
    chain, {"s1": HoldingTime(Fraction(1)), "s2": HoldingTime(Fraction(1), 2)}
)

print("embedded chain marginal:", validate_markov_spec(chain).marginal)
print("time-weighted marginal: ", spec.time_weighted_marginal())
print("holding times irrationally related:", irrationally_related(spec.holding.values()))

n = 20_000
hits = sum(
    1 for rng in spawn_rngs(1, n) if sample_semi_markov(spec, 0.1, rng).value(0.0) == "s2"
)
target = math.sqrt(2) / (1 + math.sqrt(2))
print(f"\nempirical P(Z_0 = s2) over {n} draws: {hits / n:.4f}")
print(f"exact sqrt(2)/(1+sqrt(2)):             {target:.4f}")

r = sample_semi_markov(spec, 8.0, spawn_rngs(2, 1)[0])
print("\none realization (epoch, symbol):")
print("epoch,symbol")
for epoch, symbol in zip(r.breaks, r.symbols):
    print(f"{epoch},{symbol}")
print()
