"""Markov and semi-Markov specs, holding times, sampling."""

import json
import math
import re
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obsequiv import processes
from obsequiv.processes import (
    HoldingTime,
    MarkovChainSpec,
    ProcessError,
    RealizationPath,
    SemiMarkovSpec,
    block_embedding,
    irrationally_related,
    sample_chain,
    sample_semi_markov,
    validate_markov_spec,
)
from obsequiv.representation import SemiMarkovFlowRep, ShiftRepresentation
from obsequiv.scenario import run_scenario
from obsequiv.systems import spawn_rngs


# -- holding times ------------------------------------------------------------


def test_holding_time_normalizes_radicand():
    h = HoldingTime(Fraction(1), 8)  # sqrt(8) = 2*sqrt(2)
    assert h.coeff == Fraction(2)
    assert h.radicand == 2
    assert h.value == pytest.approx(math.sqrt(8.0))


@given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 200))
@settings(max_examples=100, deadline=None)
def test_holding_time_value_matches_float(p, q, d):
    h = HoldingTime(Fraction(p, q), d)
    assert h.value == pytest.approx((p / q) * math.sqrt(d))


def test_holding_time_rejects_nonpositive():
    with pytest.raises(ProcessError):
        HoldingTime(Fraction(0))
    with pytest.raises(ProcessError):
        HoldingTime(Fraction(1), 0)


@pytest.mark.parametrize(
    "coeff, radicand, message",
    [
        (Fraction(1), 10**14 + 31, f"radicand {10**14 + 31} is above MAX_RADICAND = {10**12}"),
        (Fraction("1e400"), 1, "holding time is inf as a float"),
        (Fraction("1e-400"), 1, "holding time is 0.0 as a float"),
    ],
    ids=["large_radicand", "huge_coeff", "tiny_coeff"],
)
def test_holding_time_refuses_what_it_cannot_split_or_float(
    within_a_second, coeff, radicand, message
):
    with pytest.raises(ProcessError, match=message):
        HoldingTime(coeff, radicand)


def test_holding_time_splits_radicands_up_to_the_limit(within_a_second):
    """Trial division at MAX_RADICAND stops within 10^6 steps, also for a prime."""
    assert HoldingTime(Fraction(1), 999_999_999_989).radicand == 999_999_999_989
    assert HoldingTime(Fraction(1), processes.MAX_RADICAND).coeff == 10**6


def test_irrationally_related_decisions():
    one = HoldingTime(Fraction(1))
    rt2 = HoldingTime(Fraction(1), 2)
    rt3 = HoldingTime(Fraction(1), 3)
    rt8 = HoldingTime(Fraction(1), 8)  # rational multiple of sqrt(2)
    assert irrationally_related([one, rt2])
    assert irrationally_related([one, rt2, rt3])
    assert not irrationally_related([rt2, rt8])
    assert not irrationally_related([one, HoldingTime(Fraction(3, 7))])
    # exact duplicates count as one element of the set
    assert irrationally_related([rt2, HoldingTime(Fraction(1), 2), one])


def test_irrationally_related_rejects_bare_floats():
    with pytest.raises(ProcessError):
        irrationally_related([1.0, math.sqrt(2)])


# -- chain validation ----------------------------------------------------------


P2 = np.array([[0.5, 0.5], [0.75, 0.25]])


def test_chain_spec_shape_checks():
    with pytest.raises(ProcessError):
        MarkovChainSpec(("a", "b"), np.array([[0.5, 0.5]]))
    with pytest.raises(ProcessError):
        MarkovChainSpec(("a", "b"), np.array([[0.6, 0.5], [0.5, 0.5]]))
    with pytest.raises(ProcessError):
        MarkovChainSpec(("a", "b"), P2, order=0)


@pytest.mark.parametrize("order", [1.7, 2.0, "2", None])
def test_chain_order_must_be_an_integer(order):
    """A non-integral order is refused when the spec is built, rather than
    passing the shape check as int(order) and failing in the sampler; an
    integral one is stored as a Python int."""
    message = f"^order must be an integer, got {re.escape(repr(order))}$"
    with pytest.raises(ProcessError, match=message):
        MarkovChainSpec(("a", "b"), P2, order=order)
    spec = MarkovChainSpec(("a", "b"), P2, order=np.int64(1))
    assert type(spec.order) is int
    assert len(sample_chain(spec, 3, 1)) == 3


def test_chain_spec_rejects_non_finite_entries():
    with pytest.raises(ProcessError, match="must be finite"):
        MarkovChainSpec(("a", "b"), np.array([[np.nan, 1.0], [0.5, 0.5]]))


def test_chain_spec_rejects_duplicate_states():
    with pytest.raises(ProcessError, match="duplicate states"):
        MarkovChainSpec(("a", "a"), P2)


@pytest.mark.parametrize("grid", [[0.0, math.inf], [math.inf], [math.nan], [0.0, 1.0, math.nan]])
def test_as_grid_rejects_non_finite_times(grid):
    with pytest.raises(ProcessError, match="finite times"):
        processes.as_grid(grid)


@pytest.mark.parametrize(
    "draw",
    [
        lambda sm: sample_chain(sm.chain, 10**12, 0),
        lambda sm: ShiftRepresentation(sm.chain).sample_codes([0, 1e9], 100, 0),
        lambda sm: sample_semi_markov(sm, 1e12, 0),
        lambda sm: ShiftRepresentation(sm).sample_codes([0, 1e9], 100, 0),
        lambda sm: SemiMarkovFlowRep(sm).sample_codes([0, 1e9], 100, 0),
    ],
    ids=["chain_path", "chain_rows", "semi_markov_path", "semi_markov_rows", "flow_rows"],
)
def test_kernels_refuse_more_than_max_path_steps(fair_semi_markov, within_a_second, draw):
    with pytest.raises(ProcessError, match=f"more than the {processes.MAX_PATH_STEPS} "):
        draw(fair_semi_markov)


def _argmax_draws(p, u):
    """The former 1-D draw rule, the oracle: the first entry above u of the
    unclipped cumulative law, set to 1 from its last positive entry on."""
    cum = np.cumsum(p)
    cum[np.flatnonzero(p > 0)[-1]:] = 1.0
    return (cum > u[:, None]).argmax(axis=1)


def test_one_dimensional_draws_match_the_argmax_rule():
    """Over random laws with zeros, and laws whose partial sums round above 1
    before a last tiny entry, np.searchsorted on the clipped law draws what
    the (n, m) comparison drew, also at u equal to a partial sum."""
    rng = np.random.default_rng(12)
    rounding_rows = 0
    laws = [np.array([0.5, 0.5000000000000002, 1e-17]), np.array([1.0, 0.0, 0.0])]
    for _ in range(2000):
        w = rng.random(rng.integers(1, 7)) * (rng.random() < 0.8)
        w[rng.integers(w.size)] += 0.1
        w /= w.sum()
        if rng.random() < 0.5:
            w = np.concatenate([w * (1 + 4e-16), [1e-17], np.zeros(rng.integers(3))])
        laws.append(w)
    for p in laws:
        cum = processes._inverse_cdf(p)[0]
        assert np.all(np.diff(cum) >= 0) and cum[-1] == 1.0
        rounding_rows += bool(np.any(np.cumsum(p)[:-1] > 1.0))
        partial = np.cumsum(p)
        u = np.concatenate([rng.random(50), partial[partial < 1.0],
                            np.nextafter(partial[partial < 1.0], 0.0), [1 - 2**-53, 0.0]])
        assert np.array_equal(processes._draw(cum, u), _argmax_draws(p, u))
    assert rounding_rows > 100


def test_one_dimensional_draws_allocate_no_n_by_m_array():
    """Start draws over 4,096 contexts for 2,000 paths hold O(n) memory: the
    (n, m) comparison would allocate an 8 MB bool array."""
    import tracemalloc

    cum = processes._inverse_cdf(np.full(4096, 1 / 4096))[0]
    u = np.random.default_rng(3).random(2000)
    tracemalloc.start()
    try:
        processes._draw(cum, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_stationary_distribution_exact():
    diag = validate_markov_spec(MarkovChainSpec(("s1", "s2"), P2))
    assert diag.irreducible and diag.aperiodic and diag.valid
    # pi P = pi solved by hand: pi = (0.6, 0.4)
    assert diag.marginal["s1"] == pytest.approx(0.6)
    assert diag.marginal["s2"] == pytest.approx(0.4)


def test_reducible_chain_flagged():
    P = np.array(
        [
            [0.5, 0.5, 0.0, 0.0],
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5],
            [0.0, 0.0, 0.5, 0.5],
        ]
    )
    diag = validate_markov_spec(MarkovChainSpec(("a", "b", "c", "d"), P))
    assert not diag.irreducible
    assert not diag.valid


def test_periodic_chain_flagged():
    P = np.array([[0.0, 1.0], [1.0, 0.0]])
    diag = validate_markov_spec(MarkovChainSpec(("a", "b"), P))
    assert diag.irreducible
    assert not diag.aperiodic
    assert diag.period == 2


@pytest.mark.parametrize(
    "matrix, fault",
    [
        ([[1.0, 0.0], [0.0, 1.0]], "reducible"),
        ([[0.0, 1.0], [1.0, 0.0]], "periodic with period 2"),
        ([[1.0, 0.0], [1.0, 0.0]], "state 'b' has zero stationary probability"),
    ],
    ids=["reducible", "periodic", "zero_state"],
)
def test_invalid_chain_is_refused_with_its_fault(tmp_path, capsys, matrix, fault):
    """Sampling, embedding, the time-weighted marginal, the flow
    representation and a scenario task all refuse an invalid chain with one
    message that says why."""
    spec = MarkovChainSpec(("a", "b"), np.array(matrix))
    assert validate_markov_spec(spec).fault == fault
    message = f"invalid chain: {fault}"
    semi = SemiMarkovSpec(spec, {"a": HoldingTime(Fraction(1)), "b": HoldingTime(Fraction(1), 2)})
    for refuse in (lambda: sample_chain(spec, 5, 1), lambda: block_embedding(spec),
                   lambda: SemiMarkovFlowRep(semi), semi.time_weighted_marginal):
        with pytest.raises(ProcessError, match=f"^{re.escape(message)}$"):
            refuse()
    chain = {"kind": "markov", "states": ["a", "b"], "matrix": matrix}
    doc = {"seed": 1, "processes": {"p": chain},
           "tasks": [{"kind": "simulate", "process": "p", "grid": [0.0, 1.0], "n": 10}]}
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    assert run_scenario(path, out_dir=tmp_path / "out") == 2
    assert capsys.readouterr().out == f"configuration error: tasks[0] (simulate): {message}\n"


def _reference_diagnostics(spec):
    """(irreducible, period, recurrent contexts) of the context chain by
    brute force: a boolean transitive closure and the gcd of return times."""
    ctxs = list(product(spec.states, repeat=spec.order))
    m = len(ctxs)
    step = np.zeros((m, m), dtype=bool)
    for i, ctx in enumerate(ctxs):
        for j, s in enumerate(spec.states):
            if spec.table[i, j] > 0:
                step[i, ctxs.index((ctx + (s,))[1:])] = True
    reach = step | np.eye(m, dtype=bool)
    for c in range(m):  # Warshall
        reach |= reach[:, [c]] & reach[[c], :]
    # a state is recurrent iff it is reached back from everything it reaches
    recurrent = [i for i in range(m) if all(reach[j, i] for j in np.flatnonzero(reach[i]))]
    closed = {tuple(np.flatnonzero(reach[i])) for i in recurrent}
    if len(closed) != 1:
        return False, 0, []
    r = recurrent[0]
    period, walk = 0, step.copy()
    # for each cycle of the class, two closed walks from r of at most 3m
    # steps differ by its length, so their gcd is the period
    for length in range(1, 3 * m + 1):
        if walk[r, r]:
            period = math.gcd(period, length)
        walk = (walk.astype(int) @ step.astype(int)) > 0
    return True, period, recurrent


def _random_chain(rng):
    """A random chain spec: order 1 with 1-8 states or order 2 with 1-3,
    sparse (often reducible) or with its states split into cyclic classes
    that each move only to the next class (periodic when irreducible)."""
    order = int(rng.integers(1, 3))
    k = int(rng.integers(1, 9 if order == 1 else 4))
    m = k**order
    table = rng.random((m, k)) * (rng.random((m, k)) < rng.choice([0.2, 0.5, 1.0]))
    if rng.random() < 0.4:
        classes = rng.integers(0, int(rng.integers(1, k + 1)), size=k)
        d = classes.max() + 1
        for i in range(m):
            table[i] = rng.random(k) * (classes == (classes[i % k] + 1) % d)
    for i in range(m):
        if table[i].sum() == 0:
            table[i, rng.integers(0, k)] = 1.0
    return MarkovChainSpec(tuple(f"x{i}" for i in range(k)), table / table.sum(1, keepdims=True), order)


def test_validate_matches_brute_force_reference():
    rng = np.random.default_rng(20_261_018)
    seen = {"reducible": 0, "periodic": 0, "aperiodic": 0, "order2": 0, "transient": 0}
    for _ in range(600):
        spec = _random_chain(rng)
        diag = validate_markov_spec(spec)
        irreducible, period, recurrent = _reference_diagnostics(spec)
        assert diag.irreducible == irreducible
        assert diag.period == period
        assert diag.aperiodic == (period == 1)
        if irreducible:
            # stationary mass exactly on the one closed class
            assert np.flatnonzero(diag.stationary > 0).tolist() == recurrent
            assert diag.stationary.sum() == pytest.approx(1.0)
            seen["periodic" if period > 1 else "aperiodic"] += 1
            seen["transient"] += len(recurrent) < len(spec.table)
        else:
            assert not diag.stationary.any()
            seen["reducible"] += 1
        seen["order2"] += spec.order == 2
    assert min(seen.values()) >= 30, seen


def test_period_of_complete_bipartite_chain_is_fast():
    # K7,7: listing its simple cycles took about half a minute
    P = np.zeros((14, 14))
    P[:7, 7:] = P[7:, :7] = 1 / 7
    spec = MarkovChainSpec(tuple(range(14)), P)
    t0 = time.perf_counter()
    diag = validate_markov_spec(spec)
    assert time.perf_counter() - t0 < 0.5
    assert diag.irreducible and not diag.aperiodic and diag.period == 2


def test_sticky_chain_keeps_its_stationary_law():
    """Exits of 1e-17 leave diagonal entries of exactly 1.0, so Q_jj - 1 would
    cancel to 0; taken as minus the row's other entries, it keeps them, and
    pi is in the ratio of the opposite exits."""
    P = np.array([[1 - 1e-17, 1e-17], [2e-17, 1 - 2e-17]])
    diag = validate_markov_spec(MarkovChainSpec(("a", "b"), P))
    assert diag.valid
    assert diag.stationary == pytest.approx([2 / 3, 1 / 3], rel=1e-12)


def _funnel(order):
    """Order-n chain over a, b, c, d whose every row puts mass 1/2 on a and
    1/2 on b: its recurrent class is the 2^order contexts over a and b."""
    table = np.zeros((4**order, 4))
    table[:, :2] = 0.5
    return MarkovChainSpec(tuple("abcd"), table, order)


@pytest.mark.parametrize("order, peak_limit", [(5, 1_000_000), (7, 20_000_000)])
def test_funnel_chain_validates_within_its_recurrent_class(order, peak_limit):
    """The stationary solve is sized by the recurrent class (2^order
    contexts), not by the 4^order contexts of the table."""
    import tracemalloc

    spec = _funnel(order)
    tracemalloc.start()
    try:
        diag = validate_markov_spec(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < peak_limit
    assert diag.irreducible and diag.aperiodic
    recurrent = np.flatnonzero(diag.stationary)
    assert len(recurrent) == 2**order
    assert diag.stationary[recurrent] == pytest.approx(np.full(2**order, 2.0**-order))
    assert diag.marginal == pytest.approx({"a": 0.5, "b": 0.5, "c": 0.0, "d": 0.0})


def test_recurrent_class_above_the_solve_budget_is_refused():
    """A random order-7 chain over 4 states has 16,384 recurrent contexts: its
    stationary solve would need 2^28 cells, more than MAX_PATH_STEPS."""
    table = np.random.default_rng(7).dirichlet(np.ones(4), 4**7)
    spec = MarkovChainSpec(tuple("abcd"), table, 7)
    with pytest.raises(ProcessError, match="^16384 recurrent contexts need a stationary solve"):
        validate_markov_spec(spec)


def test_validate_is_cached_on_spec():
    spec = MarkovChainSpec(("s1", "s2"), P2)
    assert validate_markov_spec(spec) is validate_markov_spec(spec)


@pytest.mark.parametrize("order", [1, 2])
def test_direct_validation_fills_the_cache(monkeypatch, order):
    """A direct validate_markov_spec call, the samplers and block_embedding
    share one validation of the spec."""
    calls = []
    diagnose = processes._diagnose
    monkeypatch.setattr(processes, "_diagnose", lambda spec: calls.append(spec) or diagnose(spec))
    table = P2 if order == 1 else np.array([[0.9, 0.1], [0.3, 0.7], [0.6, 0.4], [0.2, 0.8]])
    spec = MarkovChainSpec(("s1", "s2"), table, order)
    diag = validate_markov_spec(spec)
    ShiftRepresentation(spec).sample_codes((0.0, 1.0, 2.0), 50, 1)
    block_embedding(spec)
    assert validate_markov_spec(spec) is diag
    assert calls == [spec]


# -- block embedding -----------------------------------------------------------


def test_block_embedding_order1_is_identity():
    spec = MarkovChainSpec(("a", "b"), P2)
    emb = block_embedding(spec)
    assert emb.states == ("a", "b")
    assert np.allclose(emb.table, P2)


def test_block_embedding_order2_structure():
    # contexts (aa, ab, ba, bb); next-state prob of "a" per context
    pa = {"aa": 0.9, "ab": 0.3, "ba": 0.6, "bb": 0.2}
    table = np.array([[pa[c], 1 - pa[c]] for c in ("aa", "ab", "ba", "bb")])
    spec = MarkovChainSpec(("a", "b"), table, order=2)
    emb = block_embedding(spec)
    assert set(emb.states) == {("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")}
    # block (x, y) can only move to (y, z)
    for i, b in enumerate(emb.states):
        for j, c in enumerate(emb.states):
            if b[1] != c[0]:
                assert emb.table[i, j] == 0.0
    # block-chain marginal over last symbol equals the 2-step chain's marginal
    diag2 = validate_markov_spec(spec)
    diag1 = validate_markov_spec(emb)
    last = {"a": 0.0, "b": 0.0}
    for b, p in zip(emb.states, diag1.stationary):
        last[b[1]] += p
    assert last["a"] == pytest.approx(diag2.marginal["a"])


# -- sampling -------------------------------------------------------------------


def test_sample_chain_marginal_matches_stationary():
    spec = MarkovChainSpec(("s1", "s2"), P2)
    n = 40_000
    hits = sum(
        1 for rng in spawn_rngs(21, n) if sample_chain(spec, 1, rng)[0] == "s1"
    )
    assert abs(hits / n - 0.6) < 3 * math.sqrt(0.6 * 0.4 / n)


def test_sample_chain_transition_frequencies():
    spec = MarkovChainSpec(("s1", "s2"), P2)
    path = sample_chain(spec, 60_000, spawn_rngs(3, 1)[0])
    num = sum(1 for a, b in zip(path, path[1:]) if a == "s2" and b == "s1")
    den = sum(1 for a in path[:-1] if a == "s2")
    assert abs(num / den - 0.75) < 3 * math.sqrt(0.75 * 0.25 / den)


# -- realization paths -----------------------------------------------------------


def test_realization_path_right_continuous():
    r = RealizationPath((-0.5, 0.7, 1.7), ("a", "b"), 0.7)
    assert r.value(0.0) == "a"
    assert r.value(0.7) == "b"  # right-continuous at the jump
    assert r.value(0.6999999) == "a"
    with pytest.raises(ProcessError):
        r.value(2.0)


def test_realization_path_needs_one_more_break_than_symbols():
    with pytest.raises(ProcessError, match="need one more break than symbols"):
        RealizationPath((0.0, 1.0), ("a", "b"), 0.5)


def test_realization_path_needs_increasing_breaks():
    with pytest.raises(ProcessError):
        RealizationPath((0.0, 0.0, 1.0), ("a", "b"), 0.5)


# -- semi-Markov ------------------------------------------------------------------


@pytest.fixture
def sm_spec():
    chain = MarkovChainSpec(("s1", "s2"), np.full((2, 2), 0.5))
    return SemiMarkovSpec(
        chain,
        {"s1": HoldingTime(Fraction(1)), "s2": HoldingTime(Fraction(1), 2)},
    )


def test_semi_markov_requires_certificates(sm_spec):
    with pytest.raises(ProcessError):
        SemiMarkovSpec(sm_spec.chain, {"s1": 1.0, "s2": math.sqrt(2)})
    with pytest.raises(ProcessError):
        SemiMarkovSpec(sm_spec.chain, {"s1": HoldingTime(Fraction(1))})


def test_time_weighted_marginal_exact(sm_spec):
    # p=(1/2,1/2), u=(1,sqrt2): P(Z_0=s2) = sqrt2/(1+sqrt2)
    m = sm_spec.time_weighted_marginal()
    assert m["s2"] == pytest.approx(math.sqrt(2) / (1 + math.sqrt(2)))
    assert m["s1"] + m["s2"] == pytest.approx(1.0)


def test_sample_semi_markov_sojourns_exact(sm_spec):
    r = sample_semi_markov(sm_spec, 30.0, spawn_rngs(17, 1)[0])
    u = {"s1": 1.0, "s2": math.sqrt(2)}
    for sym, dur in zip(r.symbols[1:-1], np.diff(r.breaks[1:-1])):
        assert dur == pytest.approx(u[sym])
    # straddling sojourn covers time 0 with the full holding length
    assert r.breaks[0] <= 0.0 < r.breaks[1]
    assert r.breaks[1] - r.breaks[0] == pytest.approx(u[r.symbols[0]])
    assert r.breaks[-1] > 30.0


def test_sample_semi_markov_first_jump_in_range(sm_spec):
    for rng in spawn_rngs(23, 200):
        r = sample_semi_markov(sm_spec, 2.0, rng)
        u0 = {"s1": 1.0, "s2": math.sqrt(2)}[r.symbols[0]]
        assert 0.0 < r.first_jump <= u0


def test_sample_semi_markov_rejects_bad_horizon(sm_spec):
    with pytest.raises(ProcessError):
        sample_semi_markov(sm_spec, 0.0, 1)


@pytest.mark.parametrize("horizon", [math.nan, math.inf, -math.inf])
def test_sample_semi_markov_names_a_non_finite_horizon(sm_spec, horizon):
    with pytest.raises(ProcessError, match=f"finite, got {horizon}"):
        sample_semi_markov(sm_spec, horizon, 1)


def test_sample_chain_names_a_negative_length(sm_spec):
    with pytest.raises(ProcessError, match="nonnegative, got -3"):
        sample_chain(sm_spec.chain, -3, 0)
    assert sample_chain(sm_spec.chain, 0, 0) == ()
