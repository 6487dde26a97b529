"""Lockstep sampling kernels and system sources: determinism, chunk layout,
laws, and the flow kernel against the scalar flow evolution."""

import hashlib
import math
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

from obsequiv import checks, scenario, systems
from obsequiv.checks import (
    ObservedSystemSource,
    check_epsilon_congruence,
    check_invariant_union,
    check_measure_preservation,
    check_nontriviality,
    check_observational_equivalence,
    check_simulation,
    check_stationarity,
)
from obsequiv.fdd import compare_fdd, estimate_fdd
from obsequiv.partitions import ObservationFunction, Partition, grid_partition, interval_partition
from obsequiv.processes import (
    CHUNK,
    WALK_CELLS,
    WALK_ROWS,
    HoldingTime,
    MarkovChainSpec,
    ProcessError,
    RealizationPath,
    SemiMarkovSpec,
    _chain_lockstep,
    _chain_tables,
    _semi_markov_lockstep,
    _semi_markov_tables,
    sample_chain,
    sample_semi_markov,
    validate_markov_spec,
)
from obsequiv.representation import SemiMarkovFlowRep, ShiftRepresentation
from obsequiv.systems import (
    LOCKSTEP_ROWS,
    BakerMap,
    BilliardFlow,
    RotationFlow,
    observe_trajectories,
    spawn_rngs,
    trajectory_symbols,
)

P2 = np.array([[0.5, 0.5], [0.75, 0.25]])
HALVES = ObservationFunction(interval_partition([0.0, 0.5, 1.0], ["a", "b"]))
ORDER2_TABLE = np.array([[0.9, 0.1], [0.3, 0.7], [0.6, 0.4], [0.2, 0.8]])  # aa ab ba bb


def _order2_chain():
    return MarkovChainSpec(("a", "b"), ORDER2_TABLE, order=2)


def _order2_semi_markov():
    return SemiMarkovSpec(
        _order2_chain(), {"a": HoldingTime(Fraction(1)), "b": HoldingTime(Fraction(1), 2)}
    )


def _process_sources(fair_semi_markov):
    return [
        ShiftRepresentation(fair_semi_markov),
        ShiftRepresentation(MarkovChainSpec(("a", "b"), P2)),
        SemiMarkovFlowRep(fair_semi_markov),
    ]


def _sources(fair_semi_markov):
    system = ObservedSystemSource(RotationFlow(math.sqrt(2) - 1), HALVES)
    return _process_sources(fair_semi_markov) + [system]


def test_same_grid_n_seed_gives_identical_codes(fair_semi_markov):
    grid = (0.0, 0.7, 1.9, 3.0)
    for src in _sources(fair_semi_markov):
        a = src.sample_codes(grid, 3000, 17)
        b = src.sample_codes(grid, 3000, 17)
        assert a.shape == (3000, len(grid))
        assert np.array_equal(a, b)
        assert a.min() >= 0 and a.max() < len(src.alphabet)
        # a SeedSequence seed is read, not consumed
        ss = np.random.SeedSequence(17)
        assert np.array_equal(src.sample_codes(grid, 50, ss), src.sample_codes(grid, 50, ss))


def test_first_chunk_does_not_depend_on_later_chunks(fair_semi_markov):
    grid = (0.0, 1.1)
    for src in _sources(fair_semi_markov):
        one = src.sample_codes(grid, CHUNK, 5)
        two = src.sample_codes(grid, 2 * CHUNK, 5)
        assert np.array_equal(two[:CHUNK], one)
        assert not np.array_equal(two[CHUNK:], one)


def test_scalar_sample_path_is_the_one_path_kernel(fair_semi_markov):
    grid = (0.0, 0.5, 1.3, 4.0)
    sources = _process_sources(fair_semi_markov) + [SemiMarkovFlowRep(_order2_semi_markov())]
    for seed in range(23, 33):
        child = np.random.SeedSequence(seed, spawn_key=(0,))
        for src in sources:
            row = tuple(src.alphabet[c] for c in src.sample_codes(grid, 1, seed)[0])
            assert src.sample_path(grid, np.random.default_rng(child)) == row
            if isinstance(src, SemiMarkovFlowRep):
                # the flow's deterministic system (sample_initial, then evolve
                # and observe per grid time) draws as its kernel does
                assert _scalar_flow_paths(src, grid, [np.random.default_rng(child)]) == [row]


def _observed_systems():
    table = BilliardFlow(1.0, 1.0, [((0.5, 0.5), 0.2)], 1.0)
    return [
        (RotationFlow(math.sqrt(2) - 1), HALVES),
        (table, ObservationFunction(grid_partition(2, 2, space=table.space))),
        (BakerMap(), ObservationFunction(grid_partition(4, 2))),
    ]


@pytest.mark.parametrize("case", range(3), ids=["rotation", "billiard", "baker"])
def test_system_chunk_rows_are_sequential_trajectories(case):
    """Chunk 0 of a system source draws its paths from the chunk's
    generator: the rotation and baker one after another, as repeated
    trajectory_symbols calls do, the billiard all starts first, each then
    flown by _flight."""
    system, obs = _observed_systems()[case]
    src = ObservedSystemSource(system, obs)
    grid = (0.0, 0.5, 1.3, 4.0)
    rows = src.sample_codes(grid, 30, 23)
    rng = np.random.default_rng(np.random.SeedSequence(23, spawn_key=(0,)))
    if isinstance(system, BilliardFlow):
        flights = [system._flight(start, grid) for start in system._starts(30, rng).tolist()]
        expect = [tuple(row) for row in obs(np.reshape(flights, (30, len(grid), 3))).tolist()]
    else:
        expect = [trajectory_symbols(system, obs, grid, rng) for _ in range(30)]
    assert [tuple(src.alphabet[c] for c in row) for row in rows] == expect


def test_rotation_and_baker_streams_match_batched_draws():
    """Rotation path j starts at rng.random(m)[j], baker path j at
    rng.random((m, 2))[j]: the layout a batched kernel can keep.  Billiard
    path j off the obstacle at rng.random((m, 2))[j] starts there, and the
    theta of every path is the generator's last rng.random(m) call."""
    m, child = 50, np.random.SeedSequence(5, spawn_key=(0,))
    rot = observe_trajectories(RotationFlow(0.3), lambda c: c, (0.0,), m, 5)
    assert np.array_equal(rot[:, 0, 0], np.random.default_rng(child).random(m))
    bk = observe_trajectories(BakerMap(), lambda c: c, (0.0,), m, 5)
    assert np.array_equal(bk[:, 0], np.random.default_rng(child).random((m, 2)))
    table = BilliardFlow(2.0, 1.0, [((0.5, 0.5), 0.2)], 1.0)
    bl = observe_trajectories(table, lambda c: c, (0.0,), m, 5)[:, 0]
    first = np.random.default_rng(child).random((m, 2)) * (2.0, 1.0)
    free = np.hypot(first[:, 0] - 0.5, first[:, 1] - 0.5) > 0.2
    assert 0 < np.count_nonzero(free) < m
    assert np.array_equal(bl[free, :2], first[free])
    rng = np.random.default_rng(child)
    assert np.array_equal(table.trajectories((0.0,), m, rng)[:, 0], bl)
    rng.bit_generator.advance(-m)  # back over the last m uniforms
    thetas = (rng.random(m) * (2 * math.pi)).tolist()  # read back from the velocity
    assert bl[:, 2].tolist() == [math.atan2(math.sin(t), math.cos(t)) % (2 * math.pi)
                                 for t in thetas]


@pytest.mark.parametrize("case", ["billiard_lockstep", "billiard_per_row", "baker", "rotation"])
def test_union_grid_columns_equal_direct_draws(case):
    """Each grid's columns of one draw on the union of the grids' times, as
    the checkers read their tables, are bit for bit the direct
    observe_trajectories draw on that grid from the same seed child: the
    billiard flown in lockstep (a chunk of at least LOCKSTEP_ROWS paths) and
    path by path, the baker and the rotation."""
    table = BilliardFlow(1.0, 1.0, [((0.5, 0.5), 0.2)], 1.0)
    system, n = {"billiard_lockstep": (table, LOCKSTEP_ROWS + 44),
                 "billiard_per_row": (table, 40), "baker": (BakerMap(), 300),
                 "rotation": (RotationFlow(math.sqrt(2) - 1), 300)}[case]
    coordinates = lambda grid, n, seed: observe_trajectories(system, lambda c: c, grid, n, seed)
    grids = [(0.0, 0.3), (0.3, 1.0, 2.5), (1.7,), (0.0, 0.3, 1.0, 1.7, 2.5)]
    child = np.random.SeedSequence(11).spawn(2)[1]
    union = checks._union_draw(SimpleNamespace(sample_codes=coordinates), grids, n, child)
    for grid, columns in zip(grids, union):
        direct = coordinates(grid, n, child)
        assert columns.shape == direct.shape and columns.tobytes() == direct.tobytes()


def test_one_cell_index_call_per_coded_chunk(monkeypatch):
    """System sources and checkers code each chunk of sampled coordinates
    with one Partition.cell_index call, never point by point."""
    calls = []
    cell_index = Partition.cell_index

    def counted(self, point):
        calls.append(np.shape(point))
        return cell_index(self, point)

    monkeypatch.setattr(Partition, "cell_index", counted)
    rot = RotationFlow(math.sqrt(2) - 1)
    for system, obs in _observed_systems():
        ObservedSystemSource(system, obs).sample_codes((0.0, 1.0), 2 * CHUNK + 3, 5)
        assert [c[0] for c in calls] == [CHUNK, CHUNK, 3]
        calls.clear()
        trajectory_symbols(system, obs, (0.0, 1.0, 2.0), np.random.default_rng(1))
        assert len(calls) == 1
        calls.clear()
    check_nontriviality(rot, HALVES, [1.0, 2.0], 300, 3)
    check_invariant_union(rot, HALVES.partition, 1.0, 300, 5)
    check_epsilon_congruence(rot, HALVES, lambda s: (0.25,) if s == "a" else (0.75,),
                             0.5, 300, 7)
    check_simulation(rot, HALVES, HALVES, 0.1, 300, 9)
    assert len(calls) == 1 + 1 + 1 + 2


def _reference_semi_markov(spec, horizon, rng):
    """Per-path sampler with Generator.choice, one draw per decision."""
    chain = spec.chain
    ctxs = list(product(chain.states, repeat=chain.order))
    weights = validate_markov_spec(chain).stationary * np.array([spec.u(c[-1]) for c in ctxs])
    ctx = ctxs[rng.choice(len(ctxs), p=weights / weights.sum())]
    t = spec.u(ctx[-1]) * (1.0 - rng.random())
    breaks, symbols = [t - spec.u(ctx[-1]), t], [ctx[-1]]
    while t <= horizon:
        row = chain.table[ctxs.index(ctx)]
        s = chain.states[rng.choice(chain.n_states, p=row)]
        ctx = ctx[1:] + (s,)
        t += spec.u(s)
        breaks.append(t)
        symbols.append(s)
    return tuple(breaks), tuple(symbols)


def test_one_path_kernels_match_per_path_reference(fair_semi_markov):
    """For one path the kernels consume the generator as a per-path
    sampler drawing each decision with Generator.choice does."""
    for spec in (fair_semi_markov, _order2_semi_markov()):
        for seed in range(5):
            r = sample_semi_markov(spec, 12.0, np.random.default_rng(seed))
            breaks, symbols = _reference_semi_markov(spec, 12.0, np.random.default_rng(seed))
            assert r.symbols == symbols
            assert r.breaks == pytest.approx(breaks, abs=1e-12)
    spec = _order2_chain()
    rng = np.random.default_rng(9)
    ctxs = list(product(spec.states, repeat=spec.order))
    ctx = ctxs[rng.choice(4, p=validate_markov_spec(spec).stationary)]
    path = list(ctx)
    for _ in range(40):
        s = spec.states[rng.choice(2, p=spec.table[ctxs.index(tuple(path[-2:]))])]
        path.append(s)
    assert sample_chain(spec, 42, np.random.default_rng(9)) == tuple(path)


def _stepwise_chain(spec, length, n, rng):
    """Reference chain kernel: one inverse-CDF draw per step for all paths."""
    start, cum = _chain_tables(spec)
    k, order = spec.n_states, spec.order
    ctx = (start > rng.random(n)[:, None]).argmax(axis=1)
    out = np.empty((n, length), dtype=np.intp)
    for j in range(min(length, order)):
        out[:, j] = ctx // k ** (order - 1 - j) % k
    u = rng.random((max(length - order, 0), n))
    for j in range(order, length):
        s = (cum[ctx] > u[j - order][:, None]).argmax(axis=1)
        ctx = ctx * k % len(cum) + s
        out[:, j] = s
    return out


def _stepwise_semi_markov(spec, horizon, n, rng):
    """Reference semi-Markov kernel: one row of uniforms per sojourn,
    epochs summed one sojourn at a time."""
    start, cum, hold = _semi_markov_tables(spec)
    k = spec.chain.n_states
    ctx = (start > rng.random(n)[:, None]).argmax(axis=1)
    s = ctx % k
    t = hold[s] * (1.0 - rng.random(n))
    codes, ends = [s], [t]
    while (t <= horizon).any():
        s = (cum[ctx] > rng.random(n)[:, None]).argmax(axis=1)
        ctx = ctx * k % len(cum) + s
        t = t + hold[s]
        codes.append(s)
        ends.append(t)
    return np.array(codes).T, np.array(ends).T


def _random_semi_markov(rng):
    """A valid chain of order 1-3 over 2-4 states, some table entries
    zeroed, with random exact holding times."""
    order = int(rng.integers(1, 4))
    k = int(rng.integers(2, 5))
    states = tuple(f"s{i}" for i in range(k))
    while True:
        table = rng.dirichlet(np.ones(k), size=k**order)
        if rng.random() < 0.5:
            table[rng.random(table.shape) < 0.3] = 0.0
            table[table.sum(axis=1) == 0, int(rng.integers(k))] = 1.0
            table /= table.sum(axis=1, keepdims=True)
        chain = MarkovChainSpec(states, table, order=order)
        if validate_markov_spec(chain).valid:
            break
    holding = {
        s: HoldingTime(Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 5))),
                       int(rng.integers(1, 4)))
        for s in states
    }
    return SemiMarkovSpec(chain, holding)


def test_block_walks_match_the_stepwise_kernels():
    """The block-scanned kernels give the codes, epochs and generator state
    of one draw per step, whatever the block size and where blocks end."""
    specs = np.random.default_rng(2024)
    for case in range(32):
        spec = _random_semi_markov(specs)
        chain, m = spec.chain, len(spec.chain.table)
        for n in (1, 2, 16, 33, 2000):
            rows = WALK_CELLS // (n * m)
            rows = rows if rows >= WALK_ROWS else 1
            lengths = {0, chain.order - 1, chain.order, chain.order + 1}
            if n < 2000:
                lengths |= {chain.order + q * rows + e for q in (1, 3) for e in (-1, 0, 1)}
                horizons = (1.0, float(np.exp(specs.uniform(0.0, math.log(5000.0)))))
            else:
                horizons = (1.0, 7.5)
            if case % 8 == 0 and n == 1:
                horizons += (5000.0,)
            for length in sorted(lengths):
                seed = 1000 * case + length
                a, b = np.random.default_rng(seed), np.random.default_rng(seed)
                assert np.array_equal(_chain_lockstep(chain, length, n, a),
                                      _stepwise_chain(chain, length, n, b))
                assert a.random() == b.random()
            for horizon in horizons:
                seed = 1000 * case + n
                a, b = np.random.default_rng(seed), np.random.default_rng(seed)
                codes, ends = _semi_markov_lockstep(spec, horizon, n, a)
                ref_codes, ref_ends = _stepwise_semi_markov(spec, horizon, n, b)
                assert np.array_equal(codes, ref_codes)
                assert np.array_equal(ends, ref_ends)
                assert a.random() == b.random()


def _sha256(symbols):
    return hashlib.sha256("".join(symbols).encode()).hexdigest()


def test_long_paths_keep_their_pinned_streams(fair_semi_markov):
    """One long semi-Markov path and criterion 06's chain path, as the
    one-step-per-draw kernels drew them from these seeds."""
    rng = np.random.default_rng(7)
    r = sample_semi_markov(fair_semi_markov, 5000.0, rng)
    assert len(r.symbols) == 4150
    assert r.breaks[-1] == 5000.3542323133115
    assert _sha256(r.symbols) == (
        "ad92b8145e510919469ebe7c398d648df12678ee899dd5f7bce50f76aac6c58d"
    )
    assert rng.random() == 0.25944036591620057
    rng = spawn_rngs(137, 1)[0]
    path = sample_chain(_order2_chain(), 200_000, rng)
    assert path.count("a") == 120894
    assert _sha256(path) == "8a0b4bca330271ca453824799e7047400a7bb4af828df0bf5a0d945d7d39b167"
    assert rng.random() == 0.5472444823547831


def test_order2_semi_markov_time0_marginal():
    spec = _order2_semi_markov()
    n = 40_000
    codes = ShiftRepresentation(spec).sample_codes((0.0, 2.5), n, 31)
    target = spec.time_weighted_marginal()
    for col in codes.T:
        for i, s in enumerate(spec.states):
            p = target[s]
            assert abs(np.mean(col == i) - p) <= 3 * math.sqrt(p * (1 - p) / n)


def test_order2_chain_marginal_at_every_time():
    spec = _order2_chain()
    n = 40_000
    codes = ShiftRepresentation(spec).sample_codes((0.0, 1.0, 5.0), n, 37)
    marginal = validate_markov_spec(spec).marginal
    for col in codes.T:
        for i, s in enumerate(spec.states):
            p = marginal[s]
            assert abs(np.mean(col == i) - p) <= 3 * math.sqrt(p * (1 - p) / n)


def test_chain_kernel_never_takes_a_zero_probability_step():
    spec = MarkovChainSpec(("a", "b"), np.array([[0.0, 1.0], [0.5, 0.5]]))
    codes = ShiftRepresentation(spec).sample_codes(np.arange(12.0), 5000, 3)
    assert not np.any((codes[:, :-1] == 0) & (codes[:, 1:] == 0))


def _scalar_flow_paths(flow, grid, rngs):
    """Reference: one scalar SuspensionFlow trajectory per generator."""
    paths = []
    for rng in rngs:
        state = flow.sample_initial(rng)
        t_now, row = 0.0, []
        for t in grid:
            state = flow.evolve(state, t - t_now)
            t_now = t
            row.append(flow.observe(state))
        paths.append(tuple(row))
    return paths


@pytest.mark.parametrize("order", [1, 2])
def test_flow_kernel_matches_scalar_flow_evolution(fair_semi_markov, order):
    spec = fair_semi_markov if order == 1 else _order2_semi_markov()
    flow = SemiMarkovFlowRep(spec)
    grid = (0.0, 0.4, 1.1, 2.3)
    n = 6000
    batch = flow.sample_codes(grid, n, 41)
    scalar = _scalar_flow_paths(flow, grid, spawn_rngs(43, n))
    batch_symbols = {flow.alphabet[c] for row in batch.tolist() for c in row}
    assert batch_symbols == {s for p in scalar for s in p}
    if order == 2:
        assert all(isinstance(s, tuple) and len(s) == 2 for s in batch_symbols)
    index = {s: i for i, s in enumerate(flow.alphabet)}
    scalar = np.array([[index[s] for s in p] for p in scalar])
    cmp = compare_fdd(
        estimate_fdd(batch, flow.alphabet, grid), estimate_fdd(scalar, flow.alphabet, grid)
    )
    assert cmp.passed, cmp.witnesses()


def test_kernels_reject_bad_grids(fair_semi_markov):
    for src in _sources(fair_semi_markov):
        for grid in ((), (1.0, 0.5), (-0.5, 1.0)):
            with pytest.raises(ProcessError):
                src.sample_codes(grid, 10, 1)
        with pytest.raises(ProcessError):
            src.sample_codes((0.0,), 0, 1)


def test_sample_size_beyond_the_float_range_is_refused(fair_semi_markov):
    """An integer n no float can hold is refused by the size bound, not
    overflowed on the way to it."""
    for src in _sources(fair_semi_markov):
        with pytest.raises(ProcessError, match="above 1.8e\\+308"):
            src.sample_codes((0.0,), 10**400, 1)


def test_process_checks_spawn_no_generators_and_read_no_paths(monkeypatch, fair_semi_markov):
    """Neither process nor system checks spawn per-path generators."""
    assert not hasattr(checks, "spawn_rngs") and not hasattr(scenario, "spawn_rngs")
    calls = {"spawn_rngs": 0, "value": 0}
    spawn, value = systems.spawn_rngs, RealizationPath.value

    def counted_spawn(seed, n):
        calls["spawn_rngs"] += 1
        return spawn(seed, n)

    def counted_value(self, t):
        calls["value"] += 1
        return value(self, t)

    monkeypatch.setattr(systems, "spawn_rngs", counted_spawn)
    monkeypatch.setattr(RealizationPath, "value", counted_value)
    chain = MarkovChainSpec(("a", "b"), P2)
    grids = [(0.0,), (0.4, 1.1, 2.3)]
    flow = check_observational_equivalence(
        ShiftRepresentation(fair_semi_markov), SemiMarkovFlowRep(fair_semi_markov), grids, 2000, 3
    )
    shift = check_observational_equivalence(
        ShiftRepresentation(chain), ShiftRepresentation(chain), grids, 2000, 5
    )
    assert flow.passed and shift.passed
    rot = RotationFlow(math.sqrt(2) - 1)
    source = ObservedSystemSource(rot, HALVES)
    gamma = {"a": "a", "b": "b"}.get
    reports = [
        check_observational_equivalence(source, source, grids, 500, 7),
        check_stationarity(source, (0.0, 1.0), [0.5], 500, 11),
        check_nontriviality(rot, HALVES, [1.0], 500, 13),
        check_measure_preservation(rot, [("a", lambda c: c[..., 0] < 0.5, 0.5)], [1.0], 500, 17),
        check_invariant_union(rot, HALVES.partition, 1.0, 500, 19),
        check_epsilon_congruence(rot, HALVES, lambda s: 0.5, 0.9, 500, 23),
        check_simulation(rot, HALVES, HALVES, 0.1, 500, 29, gamma=gamma),
    ]
    assert all(r.verdict == "pass" for r in reports), [r.kind for r in reports if not r.passed]
    assert calls == {"spawn_rngs": 0, "value": 0}
