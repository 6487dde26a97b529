"""obsequiv: measure-preserving systems and stationary processes side by
side, with empirical checkers for observational equivalence."""

from .partitions import (
    Box,
    ObservationFunction,
    Partition,
    PhaseSpace,
    grid_partition,
    interval_partition,
    refine,
)
from .fdd import (
    CheckReport,
    EmpiricalFDD,
    compare_fdd,
    estimate_fdd,
)
from .systems import (
    BakerMap,
    BilliardFlow,
    RoofFunction,
    RotationFlow,
    SuspensionFlow,
    observe_trajectories,
    spawn_rngs,
    trajectory_symbols,
)
from .processes import (
    HoldingTime,
    MarkovChainSpec,
    RealizationPath,
    SemiMarkovSpec,
    block_embedding,
    irrationally_related,
    sample_chain,
    sample_semi_markov,
    validate_markov_spec,
)
from .representation import (
    SemiMarkovFlowRep,
    ShiftRepresentation,
)
from .checks import (
    ObservedSystemSource,
    check_epsilon_congruence,
    check_invariant_union,
    check_measure_preservation,
    check_nontriviality,
    check_observational_equivalence,
    check_simulation,
    check_stationarity,
)
from .entropy import EntropyEstimate, EntropyTrend, block_entropy, entropy_rate
from .scenario import Scenario, run_scenario

__version__ = "0.1.0"
