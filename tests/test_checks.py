"""Equivalence, stationarity, nontriviality, congruence, and simulation checkers."""

import json
import math
import time
from itertools import product

import numpy as np
import pytest

from obsequiv.checks import (
    CheckError,
    ObservedSystemSource,
    _union_violations,
    check_epsilon_congruence,
    check_invariant_union,
    check_measure_preservation,
    check_nontriviality,
    check_observational_equivalence,
    check_simulation,
    check_stationarity,
)
from obsequiv.partitions import (
    Box,
    ObservationFunction,
    Partition,
    UNIT_INTERVAL,
    grid_partition,
    interval_partition,
)
from obsequiv.fdd import wald
from obsequiv.processes import MarkovChainSpec
from obsequiv.representation import SemiMarkovFlowRep, ShiftRepresentation
from obsequiv.systems import BakerMap, BilliardFlow, RotationFlow

P2 = np.array([[0.5, 0.5], [0.75, 0.25]])
HALVES = ObservationFunction(interval_partition([0.0, 0.5, 1.0], ["a", "b"]))
QUARTERS = ObservationFunction(
    interval_partition([0.0, 0.25, 0.5, 0.75, 1.0], ["q0", "q1", "q2", "q3"])
)


def _symbol_paths(source, grid, n, seed):
    """The sampled paths of a source as tuples of symbols."""
    codes = source.sample_codes(grid, n, seed)
    return [tuple(source.alphabet[c] for c in row) for row in codes.tolist()]


def test_report_json_schema_and_determinism():
    spec = ShiftRepresentation(MarkovChainSpec(("a", "b"), P2))
    rep1 = check_observational_equivalence(spec, spec, [(0.0, 1.0)], 400, 5)
    rep2 = check_observational_equivalence(spec, spec, [(0.0, 1.0)], 400, 5)
    obj = rep1.to_json_obj()
    assert obj["schema"] == 1
    assert obj["verdict"] in ("pass", "fail", "inconclusive")
    assert {"kind", "seed", "n_samples", "tolerances", "notes", "items"} <= set(obj)
    text1, text2 = (json.dumps(r.to_json_obj(), sort_keys=True, indent=2) for r in (rep1, rep2))
    assert text1 == text2
    json.loads(text1)


def test_equivalence_same_spec_passes():
    spec = ShiftRepresentation(MarkovChainSpec(("a", "b"), P2))
    rep = check_observational_equivalence(spec, spec, [(0.0,), (0.0, 1.0, 2.0)], 3000, 7)
    assert rep.passed


def test_equivalence_different_alphabets_fail_fast():
    a = ShiftRepresentation(MarkovChainSpec(("a", "b"), P2))
    b = ShiftRepresentation(MarkovChainSpec(("x", "y"), P2))
    rep = check_observational_equivalence(a, b, [(0.0,)], 100, 1)
    assert rep.verdict == "fail"
    assert rep.items[0]["reason"] == "outcome sets differ"


def test_side_that_is_neither_source_nor_spec_is_refused():
    spec = MarkovChainSpec(("a", "b"), P2)
    with pytest.raises(CheckError, match="cannot interpret RotationFlow as a symbol source"):
        check_observational_equivalence(RotationFlow(0.3), spec, [(0.0,)], 10, 1)


@pytest.mark.parametrize("bare", ["chain", "semi_markov"])
def test_bare_process_spec_side_is_refused(bare, fair_semi_markov):
    spec = MarkovChainSpec(("a", "b"), P2) if bare == "chain" else fair_semi_markov
    message = (f"cannot interpret {type(spec).__name__} as a symbol source; "
               r"pass a process spec as ShiftRepresentation\(spec\)")
    with pytest.raises(CheckError, match=message):
        check_observational_equivalence(spec, ShiftRepresentation(spec), [(0.0,)], 10, 1)
    with pytest.raises(CheckError, match=message):
        check_observational_equivalence(ShiftRepresentation(spec), spec, [(0.0,)], 10, 1)
    with pytest.raises(CheckError, match=message):
        check_stationarity(spec, (0.0,), [1.0], 10, 1)


def test_equivalence_different_dynamics_fail():
    a = ShiftRepresentation(MarkovChainSpec(("a", "b"), np.full((2, 2), 0.5)))
    b = ShiftRepresentation(MarkovChainSpec(("a", "b"), np.array([[0.95, 0.05], [0.05, 0.95]])))
    rep = check_observational_equivalence(a, b, [(0.0, 1.0)], 20_000, 11)
    assert rep.verdict == "fail"
    assert rep.witnesses()


def test_nontriviality_irrational_rotation_passes():
    rep = check_nontriviality(RotationFlow(math.sqrt(2) - 1), HALVES, [1.0], 3000, 13)
    assert rep.passed
    assert rep.items[0]["pass"]
    assert "not a proof" in rep.notes[0]


def test_nontriviality_identity_rotation_fails():
    # alpha=1 at lag 1 is the identity: every conditional is 0 or 1
    rep = check_nontriviality(RotationFlow(1.0), HALVES, [1.0], 3000, 17)
    assert rep.verdict == "fail"


def test_nontriviality_rejects_trivial_observation():
    whole = ObservationFunction(
        interval_partition([0.0, 0.5, 1.0], ["a", "b"]), symbols=("x", "x")
    )
    with pytest.raises(CheckError):
        check_nontriviality(RotationFlow(0.3), whole, [1.0], 100, 1)
    with pytest.raises(CheckError):
        check_nontriviality(RotationFlow(0.3), HALVES, [0.0], 100, 1)


def _billiard_grid(nx):
    table = BilliardFlow(1.0, 1.0, [((0.5, 0.5), 0.2)], 1.0)
    return table, ObservationFunction(grid_partition(nx, nx, space=table.space))


def test_nontriviality_pair_counts_match_brute_force():
    """The witness is the first (from, to) pair in alphabet order whose
    estimate lies strictly inside (0, 1), with the pair counts of a
    per-path scan over the same sampled paths: one draw, from seed child 0,
    on time 0 and every lag, each lag reading its own column; with no such
    pair the item fails and says why.  The inputs are a 4- and a 36-symbol
    billiard coding, and two with no witness: a 64-symbol baker coding at 20
    paths, and the identity rotation."""
    cases = [
        (*_billiard_grid(2), [0.3, 1.0], 600, True),
        (*_billiard_grid(6), [0.05, 0.3], 600, True),
        (BakerMap(), ObservationFunction(grid_partition(8, 8)), [1.0], 20, False),
        (RotationFlow(1.0), HALVES, [1.0, 2.0], 300, False),
    ]
    for system, obs, lags, n, witnessed in cases:
        rep = check_nontriviality(system, obs, lags, n, 7)
        times = (0.0, *lags)
        (child,) = np.random.SeedSequence(7).spawn(1)
        paths = _symbol_paths(ObservedSystemSource(system, obs), times, n, child)
        for item, lag in zip(rep.items, lags):
            witness = None
            for oi, oj in product(obs.alphabet, repeat=2):
                den = sum(1 for p in paths if p[0] == oi)
                num = sum(1 for p in paths if (p[0], p[times.index(lag)]) == (oi, oj))
                share, hw = wald(num, den) if den else (0.0, 0.0)
                if share - hw > 0.0 and share + hw < 1.0:
                    witness = [oi, oj, num, den]
                    break
            assert (witness is not None) == witnessed
            if witness is None:
                assert item == {"label": f"lag={lag}", "lag": lag, "pass": False,
                                "reason": "all conditional estimates consistent with {0,1}"}
            else:
                assert item["pass"]
                assert [item["from"], item["to"], *item["counts"]] == witness
        assert rep.passed == witnessed


def test_nontriviality_counts_only_the_observed_pairs(within_a_second):
    """The baker's 64 x 64 coding has 4,096 symbols, so an alphabet-squared
    table would hold 16.8 million counts; 2,000 paths observe at most 2,000
    pairs, and those are all that is counted."""
    import tracemalloc

    coding = ObservationFunction(grid_partition(64, 64))
    tracemalloc.start()
    try:
        rep = check_nontriviality(BakerMap(), coding, [1.0], 2000, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000
    assert rep.items[0]["reason"]  # about one path per symbol: no interval inside (0, 1)


def test_simulation_maps_images_in_one_pass(within_a_second):
    """psi's images reach phi's codes through one dict, not one alphabet
    scan per symbol, on the baker's 4,096-symbol coding."""
    coding = ObservationFunction(grid_partition(64, 64))
    rep = check_simulation(BakerMap(), coding, coding, 0.01, 2000, 3)
    assert rep.passed


@pytest.mark.parametrize(
    "call",
    [
        lambda s: check_observational_equivalence(s, s, [], 10, 1),
        lambda s: check_stationarity(s, (0.0,), [], 10, 1),
        lambda s: check_nontriviality(RotationFlow(0.3), HALVES, [], 10, 1),
        lambda s: check_measure_preservation(RotationFlow(0.3), [], [1.0], 10, 1),
        lambda s: check_measure_preservation(
            RotationFlow(0.3), [("left", lambda c: c[..., 0] < 0.5, 0.5)], [], 10, 1
        ),
    ],
    ids=["grids", "shifts", "lags", "sets", "times"],
)
def test_empty_family_is_rejected_not_passed(call):
    with pytest.raises(CheckError):
        call(ShiftRepresentation(MarkovChainSpec(("a", "b"), P2)))


def test_stationarity_semi_markov_passes(fair_semi_markov):
    rep = check_stationarity(
        ShiftRepresentation(fair_semi_markov), (0.0, 0.7), [0.3, 1.7], 8000, 19
    )
    assert rep.passed


def test_stationarity_deterministic_start_fails(deterministic_start_source):
    rep = check_stationarity(
        deterministic_start_source, (0.0,), [1.0, 1.7], 4000, 23
    )
    assert rep.verdict == "fail"


def test_measure_preservation_rotation_passes():
    sets = [("left", lambda c: c[..., 0] < 0.5, 0.5), ("tenth", lambda c: c[..., 0] < 0.1, 0.1)]
    rep = check_measure_preservation(
        RotationFlow(math.sqrt(2) - 1), sets, [0.5, 1.7], 8000, 29
    )
    assert rep.passed


def test_measure_preservation_false_fail_rate_is_nominal():
    """Correct system, 6 (set, time) pairs, 200 seeds at small n.

    The family-wise level is THREE_SIGMA_ALPHA (0.27%, so about 0.5 expected
    false fails); per-pair uncorrected 3-sigma tests failed 5 of these 200.
    """
    sets = [("left", lambda c: c[..., 0] < 0.5, 0.5), ("tenth", lambda c: c[..., 0] < 0.1, 0.1)]
    rot = RotationFlow(math.sqrt(2) - 1)
    reports = [
        check_measure_preservation(rot, sets, [0.5, 1.7, 3.1], 200, seed)
        for seed in range(200)
    ]
    assert reports[0].tolerances["k"] == 6
    assert reports[0].tolerances["z"] == pytest.approx(3.5089, abs=1e-4)
    assert sum(r.verdict == "fail" for r in reports) <= 3


@pytest.mark.parametrize("measure", [1.5, -0.5, math.nan, math.inf])
def test_measure_preservation_refuses_a_measure_that_is_not_a_probability(measure):
    """A set's measure outside [0, 1], where the null standard error
    sqrt(mu(1 - mu)/n) is not a number, is refused by name before any path
    is sampled."""

    def member(c):
        raise AssertionError("sampled before the measure was checked")

    with pytest.raises(CheckError, match=rf"^set 'h' has measure {measure}, outside \[0, 1\]$"):
        check_measure_preservation(RotationFlow(0.3), [("h", member, measure)], [1.0], 10, 1)


def test_measure_preservation_accepts_measures_zero_and_one():
    sets = [("none", lambda c: c[..., 0] > 1.0, 0), ("all", lambda c: c[..., 0] < 1.0, 1.0)]
    rep = check_measure_preservation(RotationFlow(0.3), sets, [1.0], 200, 1)
    assert rep.passed
    assert [(i["expected"], i["tolerance"]) for i in rep.items] == [(0.0, 0.0), (1.0, 0.0)]


def test_measure_preservation_contraction_fails(contraction_map):
    sets = [("left", lambda c: c[..., 0] < 0.5, 0.5)]
    rep = check_measure_preservation(contraction_map, sets, [2.0], 4000, 31)
    assert rep.verdict == "fail"
    assert rep.witnesses()


def test_invariant_union_none_for_half_rotation():
    # rotation by 1/2 swaps the halves: no nontrivial invariant union
    part = interval_partition([0.0, 0.5, 1.0], ["L", "R"])
    rep = check_invariant_union(RotationFlow(0.5), part, 1.0, 4000, 37)
    assert rep.passed
    assert rep.items[0]["label"] == "no_invariant_union"


def test_invariant_union_found_for_identity():
    # alpha=1 at horizon 1 fixes every cell: each union is invariant
    part = interval_partition([0.0, 0.25, 0.5, 0.75, 1.0], ["a", "b", "c", "d"])
    rep = check_invariant_union(RotationFlow(1.0), part, 1.0, 4000, 41)
    assert rep.verdict == "fail"
    assert rep.items[0]["violation_measure"] == 0.0


def test_union_violations_match_pairwise_count():
    rng = np.random.default_rng(5)
    for k in range(1, 8):
        joint = rng.integers(0, 30, size=(k, k))
        viol = _union_violations(joint)
        assert len(viol) == 2**k
        for mask in range(2**k):
            inside = [mask >> i & 1 for i in range(k)]
            assert viol[mask] == sum(
                joint[i, j] for i in range(k) for j in range(k) if inside[i] != inside[j]
            )


def test_invariant_union_witnesses_ordered_by_violation_then_mask():
    part = interval_partition([0.0, 0.25, 0.5, 0.75, 1.0], ["a", "b", "c", "d"])
    rep = check_invariant_union(RotationFlow(1.0), part, 1.0, 400, 41)
    assert [it["cells"] for it in rep.items] == [
        ["a"], ["b"], ["a", "b"], ["c"], ["a", "c"], ["b", "c"], ["a", "b", "c"], ["d"]
    ]
    rep = check_invariant_union(RotationFlow(0.1), part, 1.0, 2000, 43, tol=1.01)
    viol = [it["violation_measure"] for it in rep.items]
    assert len(viol) == 8 and viol == sorted(viol) and viol[0] < viol[-1]


def test_invariant_union_twenty_cells_is_fast():
    # rotation by one cell per step: no union but the empty and full ones
    # is invariant; the old double pure-Python mask loop took minutes
    part = interval_partition([i / 20 for i in range(21)], [f"c{i}" for i in range(20)])
    t0 = time.perf_counter()
    rep = check_invariant_union(RotationFlow(0.05), part, 1.0, 400, 3)
    assert time.perf_counter() - t0 < 5.0
    assert rep.passed
    assert rep.items[0]["min_violation"] > 0.01


def test_invariant_union_rejects_huge_partitions():
    part = interval_partition(
        [i / 21 for i in range(22)], [f"c{i}" for i in range(21)]
    )
    with pytest.raises(CheckError):
        check_invariant_union(RotationFlow(0.3), part, 1.0, 10, 1)


def _invariant_union_at(tol):
    part = interval_partition([0.0, 0.5, 1.0], ["L", "R"])
    return check_invariant_union(RotationFlow(0.5), part, 2.0, 400, 5, tol=tol)


def _congruence_at(epsilon):
    return check_epsilon_congruence(RotationFlow(0.3), HALVES, lambda s: (0.5,), epsilon, 400, 5)


def _simulation_at(epsilon):
    return check_simulation(RotationFlow(0.3), HALVES, HALVES, epsilon, 400, 5)


@pytest.mark.parametrize(
    "check, value",
    [(_invariant_union_at, v) for v in (math.nan, -1.0, 0.0, math.inf)]
    + [(_congruence_at, v) for v in (math.inf, math.nan, 0.0, -0.3)]
    + [(_simulation_at, v) for v in (math.inf, math.nan, -1.0)],
)
def test_bad_tolerance_is_rejected_not_passed(check, value):
    """The rotation by 1/2 over two steps fixes both halves, so the union
    search fails at tol=0.01; NaN and negative tolerances used to pass it."""
    assert _invariant_union_at(0.01).verdict == "fail"
    with pytest.raises(CheckError):
        check(value)


def test_epsilon_congruence_fine_coding_passes():
    bk = BakerMap()
    obs = ObservationFunction(grid_partition(16, 16))
    centers = dict(zip(obs.symbols, obs.partition.centers()))
    rep = check_epsilon_congruence(bk, obs, centers.get, 0.1, 2000, 43)
    assert rep.passed
    # every state is within the half-diagonal of its 1/16 cell
    assert rep.items[0]["max_distance_seen"] <= math.sqrt(2) / 32 + 1e-12


def test_epsilon_congruence_coarse_coding_fails():
    bk = BakerMap()
    obs = ObservationFunction(grid_partition(2, 1), ["L", "R"])
    centers = {"L": (0.25, 0.5), "R": (0.75, 0.5)}
    rep = check_epsilon_congruence(bk, obs, centers.get, 0.1, 2000, 47)
    assert rep.verdict == "fail"


def test_epsilon_congruence_embeds_each_symbol_once():
    """embed is called once per alphabet symbol, in alphabet order, however
    many cells share a symbol or states are sampled."""
    obs = ObservationFunction(grid_partition(4, 4), [f"s{i % 3}" for i in range(16)])
    centers = dict(zip(obs.symbols, obs.partition.centers()))
    calls = []
    embed = lambda s: calls.append(s) or centers[s]
    check_epsilon_congruence(BakerMap(), obs, embed, 0.5, 20_000, 53)
    assert calls == ["s0", "s1", "s2"]


def test_epsilon_congruence_rejects_bad_epsilon(contraction_map):
    with pytest.raises(CheckError):
        check_epsilon_congruence(contraction_map, lambda m: 0, lambda s: 0.0, 0.0, 10, 1)


@pytest.fixture
def perturbed_halves():
    """Halves observation flipped on [0, 0.01): mismatch measure exactly 0.01."""
    part = Partition(
        UNIT_INTERVAL,
        (
            (Box((0.0,), (0.01,)),),
            (Box((0.01,), (0.5,)),),
            (Box((0.5,), (1.0,)),),
        ),
        ("head", "body", "tail"),
    )
    return ObservationFunction(part, symbols=("b", "a", "b"))


def test_simulation_strong_identity_passes_every_epsilon():
    rot = RotationFlow(math.sqrt(2) - 1)
    for eps in (0.005, 0.05, 0.5):
        rep = check_simulation(rot, HALVES, HALVES, eps, 2000, 53)
        assert rep.passed


def test_simulation_strong_perturbation_thresholds(perturbed_halves):
    rot = RotationFlow(math.sqrt(2) - 1)
    ok = check_simulation(rot, HALVES, perturbed_halves, 0.05, 20_000, 59)
    assert ok.passed
    bad = check_simulation(rot, HALVES, perturbed_halves, 0.005, 20_000, 61)
    assert bad.verdict == "fail"


def test_simulation_weak_merge_passes():
    rot = RotationFlow(math.sqrt(2) - 1)
    quarters = ObservationFunction(
        interval_partition([0.0, 0.25, 0.5, 0.75, 1.0], ["q0", "q1", "q2", "q3"])
    )
    gamma = {"q0": "a", "q1": "a", "q2": "b", "q3": "b"}.get
    for eps in (0.005, 0.05, 0.5):
        rep = check_simulation(rot, HALVES, quarters, eps, 2000, 67, gamma=gamma)
        assert rep.passed


def test_simulation_never_ignores_gamma():
    """A given gamma makes the check weak; without one it is strong, and the
    quarters' outcome set differs from the halves'."""
    rot = RotationFlow(math.sqrt(2) - 1)
    merge = {"q0": "a", "q1": "a", "q2": "b", "q3": "b"}.get
    weak = check_simulation(rot, HALVES, QUARTERS, 0.05, 2000, 73, gamma=merge)
    assert weak.passed and weak.kind == "simulation_weak"
    assert [item["label"] for item in weak.items] == ["mismatch_measure"]
    strong = check_simulation(rot, HALVES, QUARTERS, 0.05, 2000, 73)
    assert strong.kind == "simulation_strong" and strong.verdict == "fail"
    assert strong.items[0]["reason"] == "outcome sets differ"


def test_simulation_alphabet_mismatch_fails():
    rot = RotationFlow(0.3)
    other = ObservationFunction(
        interval_partition([0.0, 0.5, 1.0], ["x", "y"])
    )
    rep = check_simulation(rot, HALVES, other, 0.5, 100, 71)
    assert rep.verdict == "fail"
    assert rep.items[0]["reason"] == "outcome sets differ"


def test_equivalence_flow_and_process_small(fair_semi_markov):
    """Cheap version of the representation-fidelity check."""
    flow = SemiMarkovFlowRep(fair_semi_markov)
    rep = check_observational_equivalence(
        ShiftRepresentation(fair_semi_markov), flow, [(0.0, 1.1)], 6000, 73
    )
    assert rep.passed
