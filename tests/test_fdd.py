"""Empirical finite-dimensional distributions and 3-sigma comparison."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

import obsequiv
from obsequiv.checks import CheckReport, check_stationarity
from obsequiv.fdd import (
    THREE_SIGMA_ALPHA,
    EmpiricalFDD,
    FDDError,
    bonferroni_z,
    compare_fdd,
    estimate_fdd,
    stderr,
    wald,
)
from obsequiv.representation import ShiftRepresentation


def _codes(paths, alphabet):
    """The (n, g) code array of symbol tuples over alphabet."""
    return np.array([[alphabet.index(s) for s in p] for p in paths])


def test_three_sigma_alpha_matches_normal_tail():
    assert THREE_SIGMA_ALPHA == pytest.approx(2.0 * norm.sf(3.0))
    # single-entry comparison reduces to plain 3-sigma
    assert float(norm.isf(THREE_SIGMA_ALPHA / 2.0)) == pytest.approx(3.0)


def test_bonferroni_z_matches_scipy_quantile():
    k = np.arange(1, 20_001)
    ref = norm.isf(2.0 * norm.sf(3.0) / (2.0 * k))
    z = np.array([bonferroni_z(int(i)) for i in k])
    assert np.max(np.abs(z - ref) / ref) < 1e-14
    assert bonferroni_z(1) == pytest.approx(3.0, rel=1e-14)


def test_import_loads_neither_scipy_nor_networkx():
    code = "import sys, obsequiv; print(*{m.split('.')[0] for m in sys.modules})"
    src = str(Path(obsequiv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout
    loaded = set(out.split())
    assert "obsequiv" in loaded and "numpy" in loaded
    assert not loaded & {"scipy", "networkx"}


def test_prob_estimate_wald_interval():
    p, hw = wald(25, 100)
    assert p == 0.25
    assert hw == pytest.approx(3.0 * math.sqrt(0.25 * 0.75 / 100))
    assert p - hw > 0.0 and p + hw < 1.0
    for numerator in (0, 100):  # a share of 0 or 1 has a zero-width interval
        p, hw = wald(numerator, 100)
        assert hw == 0.0 and not (p - hw > 0.0 and p + hw < 1.0)
    with pytest.raises(FDDError):
        wald(1, 0)


def test_stderr_is_the_wald_rule_on_floats_and_arrays():
    """One rule for scalars and tables: np.sqrt rounds as math.sqrt does, so
    each float equals the math expression bit for bit, and an EmpiricalFDD's
    stderrs are the rule applied to its estimates."""
    ps = np.random.default_rng(3).random(1000)
    for n in (1, 7, 2000):
        assert [stderr(p, n) for p in ps.tolist()] == [
            math.sqrt(p * (1.0 - p) / n) for p in ps.tolist()]
        assert stderr(ps, n).tolist() == [math.sqrt(p * (1.0 - p) / n) for p in ps.tolist()]
    fdd = estimate_fdd(_codes([("a",), ("a",), ("b",)], ["a", "b"]), ("a", "b"), (0.0,))
    assert fdd.stderrs.tolist() == [stderr(2 / 3, 3), stderr(1 / 3, 3)]


def test_estimate_fdd_total_mass_one_by_default():
    paths = [("a", "a"), ("a", "b"), ("a", "b"), ("b", "b")]
    fdd = estimate_fdd(_codes(paths, ["a", "b"]), ("a", "b"), (0.0, 1.0))
    assert fdd.total_mass() == pytest.approx(1.0)
    assert fdd.events == (("a", "a"), ("a", "b"), ("b", "b"))
    assert fdd.counts == (1, 2, 1)
    assert fdd.n_samples == 4


def test_estimate_fdd_rejects_codes_off_the_grid():
    codes = np.zeros((3, 2), dtype=int)
    for bad_codes, grid in ((codes, (0.0,)), (codes[:0], (0.0, 1.0)), (codes[0], (0.0, 1.0))):
        with pytest.raises(FDDError):
            estimate_fdd(bad_codes, ("a",), grid)
    with pytest.raises(FDDError):
        estimate_fdd(np.zeros((3, 0), dtype=int), ("a",), ())


@pytest.mark.parametrize(
    "codes, message",
    [
        (np.array([[0, -1], [1, 1]]), "codes span -1..1, outside 0..1"),
        (np.array([[0, 2], [1, 1]]), "codes span 0..2, outside 0..1"),
        (np.array([[0.0, 1.0], [1.0, 1.0]]), "codes must be integers, got dtype float64"),
    ],
    ids=["minus one", "past the alphabet", "float"],
)
def test_estimate_fdd_names_codes_that_do_not_index_the_alphabet(codes, message):
    """-1 once counted as the last symbol, and 2 or a float raised IndexError."""
    with pytest.raises(FDDError, match=message):
        estimate_fdd(codes, ("a", "b"), (0, 1))


def _reference_fdd(codes, alphabet):
    """Sorted events and counts of a dict over the symbol tuple of each path."""
    counts = {}
    for row in codes.tolist():
        key = tuple(alphabet[c] for c in row)
        counts[key] = counts.get(key, 0) + 1
    events = sorted(counts)
    return tuple(events), tuple(counts[e] for e in events)


SYMBOL_KINDS = {
    "str": lambda i: f"s{i:02d}",
    "int": lambda i: 3 * i - 20,
    "tuple": lambda i: ("ab"[i % 2], i // 2),
}


@given(
    kind=st.sampled_from(sorted(SYMBOL_KINDS)),
    images=st.lists(st.integers(0, 15), min_size=1, max_size=16),
    g=st.integers(1, 17),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="str", images=list(range(16)), g=17, n=300, seed=1)
@example(kind="tuple", images=[3, 1, 3, 0, 1], g=4, n=200, seed=2)
@settings(max_examples=100, deadline=None)
def test_estimate_fdd_matches_dict_of_symbol_tuples(kind, images, g, n, seed):
    """Alphabets may repeat a symbol, as gamma's images do in weak
    simulation; 16 symbols over 17 grid times have 16^17 > 2^63 events."""
    alphabet = tuple(map(SYMBOL_KINDS[kind], images))
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, len(alphabet), size=(n, g))
    if n > 1:  # paths that differ only at the last grid time
        codes[1, :-1] = codes[0, :-1]
    grid = tuple(0.5 * i for i in range(g))
    fdd = estimate_fdd(codes, alphabet, grid)
    assert (fdd.events, fdd.counts) == _reference_fdd(codes, alphabet)
    assert fdd.grid == grid and fdd.n_samples == n


def _unique_calls(monkeypatch):
    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **kw: calls.append(1) or unique(*a, **kw))
    return calls


def test_one_path_on_a_long_grid_re_ranks_every_column(monkeypatch):
    """n = 1: a code of nonzero rank already exceeds the one row, so every
    column after the first is folded into a re-ranked code."""
    alphabet = ("c", "a", "b")  # "c" and "b" have ranks 2 and 1
    codes = np.random.default_rng(3).choice([0, 2], size=(1, 40))
    calls = _unique_calls(monkeypatch)
    fdd = estimate_fdd(codes, alphabet, tuple(range(40)))
    assert len(calls) == 39
    assert (fdd.events, fdd.counts) == _reference_fdd(codes, alphabet)


def test_two_symbols_on_three_times_are_not_re_ranked(monkeypatch):
    codes = np.random.default_rng(4).integers(0, 2, size=(2000, 3))
    calls = _unique_calls(monkeypatch)
    fdd = estimate_fdd(codes, ("a", "b"), (0.0, 0.7, 1.9))
    assert not calls
    assert (fdd.events, fdd.counts) == _reference_fdd(codes, ("a", "b"))


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_tables_and_a_stationarity_report_are_pinned(fair_semi_markov):
    """Bytes computed by the lexsort counter the mixed-radix code replaced."""
    grid = (0.0, 0.7, 1.9)
    src = ShiftRepresentation(fair_semi_markov)
    simulate = estimate_fdd(src.sample_codes(grid, 4000, 20_260_823), src.alphabet, grid)
    codes = np.random.default_rng(1).integers(0, 16, size=(300, 17))
    codes[1, :-1] = codes[0, :-1]
    wide = estimate_fdd(codes, tuple(f"s{i:02d}" for i in range(16)), np.arange(17) / 2)
    tables = {
        name: _sha256(json.dumps(fdd.to_json_obj()))
        for name, fdd in (("simulate", simulate), ("wide", wide))
    }
    assert tables == {
        "simulate": "83066f0de5f57283e9410aa3b63a50e3c6f603df66801f391e84fd1850f54bcf",
        # 16 symbols over 17 times: the code is re-ranked
        "wide": "c36bb0ab6e3be0d1f5875cd449056769fa8c1c7c0b5c96e9174bcd7820310b14",
    }
    report = check_stationarity(fair_semi_markov, grid, [0.3, 1.0, 1.7], 2000, 103)
    assert _sha256(report.to_json()) == (
        "5031fa7f04be7f58ff756e4b84c19173c2bcab925dda574d315f2da826f74de2"
    )


def test_compare_fdd_identical_tables_pass():
    fdd = estimate_fdd(np.array([[0]] * 30 + [[1]] * 70), ("a", "b"), (0.0,))
    cmp = compare_fdd(fdd, fdd)
    assert cmp.passed
    assert max(it["delta"] for it in cmp.items) == 0.0


def test_compare_fdd_detects_gross_difference():
    grid, events = (0.0,), (("a",), ("b",))
    a = EmpiricalFDD(grid, events, (9000, 1000), 10_000)
    b = EmpiricalFDD(grid, events, (1000, 9000), 10_000)
    cmp = compare_fdd(a, b)
    assert not cmp.passed
    assert cmp.witnesses()


def test_compare_fdd_bonferroni_widens_with_entries():
    grid1, ev1 = (0.0,), (("a",),)
    grid2, ev2 = (0.0,), (("a",), ("b",), ("c",), ("d",))
    c1 = compare_fdd(
        EmpiricalFDD(grid1, ev1, (5,), 10), EmpiricalFDD(grid1, ev1, (5,), 10)
    )
    c4 = compare_fdd(
        EmpiricalFDD(grid2, ev2, (4, 3, 2, 1), 10),
        EmpiricalFDD(grid2, ev2, (4, 3, 2, 1), 10),
    )
    assert c4.tolerances["z"] > c1.tolerances["z"]


@pytest.mark.parametrize(
    "events, counts, message",
    [
        ((("a",), ("a",)), (1, 2), "only one count"),
        ((("a",), ("b",)), (-1, 3), "least count -1 and sum 2"),
        ((("a",), ("b",)), (2, 2), "least count 2 and sum 4"),
    ],
    ids=["duplicate_event", "negative_count", "counts_above_n"],
)
def test_empirical_fdd_refuses_tables_compare_fdd_would_misread(events, counts, message):
    """compare_fdd would keep only the last count of a repeated event, and
    take the square root of a negative variance for a share outside [0, 1]."""
    with pytest.raises(FDDError, match=message):
        EmpiricalFDD((0.0,), events, counts, 3)


def test_compare_fdd_close_sampled_tables_pass():
    rng = np.random.default_rng(7)
    n = 20_000
    xa = rng.random(n) < 0.3
    xb = rng.random(n) < 0.3
    grid, events = (0.0,), (("a",), ("b",))
    a = EmpiricalFDD(grid, events, (int(xa.sum()), int(n - xa.sum())), n)
    b = EmpiricalFDD(grid, events, (int(xb.sum()), int(n - xb.sum())), n)
    assert compare_fdd(a, b).passed


def test_compare_fdd_rejects_mismatched_grids():
    a = EmpiricalFDD((0.0,), (("a",),), (1,), 1)
    b = EmpiricalFDD((1.0,), (("a",),), (1,), 1)
    with pytest.raises(FDDError):
        compare_fdd(a, b)


def test_compare_fdd_zero_fills_the_union_of_observed_events():
    grid = (0.0,)
    a = EmpiricalFDD(grid, (("a",), ("b",)), (6, 4), 10)
    b = EmpiricalFDD(grid, (("b",), ("c",)), (5, 15), 20)
    cmp = compare_fdd(a, b)
    assert [it["event"] for it in cmp.items] == [["a"], ["b"], ["c"]]
    assert [it["estimate_a"] for it in cmp.items] == [0.6, 0.4, 0.0]
    assert [it["estimate_b"] for it in cmp.items] == [0.0, 0.25, 0.75]
    assert cmp.tolerances["z"] == bonferroni_z(3)
    # an entry seen on one side only is judged on that side's error alone
    se_c = math.sqrt(0.75 * 0.25 / 20)
    assert cmp.items[2]["tolerance"] == pytest.approx(bonferroni_z(3) * se_c)
    assert not cmp.passed


def test_compare_fdd_returns_a_check_report_whose_verdict_follows_its_items():
    grid, events = (0.0,), (("a",), ("b",))
    a = EmpiricalFDD(grid, events, (9000, 1000), 10_000)
    b = EmpiricalFDD(grid, events, (1000, 9000), 10_000)
    for other, verdict in ((a, "pass"), (b, "fail")):
        cmp = compare_fdd(a, other, label="t")
        assert isinstance(cmp, CheckReport)
        assert cmp.kind == "fdd_comparison"
        assert cmp.tolerances == {"z": bonferroni_z(2)}
        assert [it["label"] for it in cmp.items] == ["t", "t"]
        assert cmp.witnesses() == [it for it in cmp.items if not it["pass"]]
        assert cmp.verdict == ("fail" if cmp.witnesses() else "pass") == verdict
        assert cmp.passed == (verdict == "pass")


def test_checker_does_not_load_numpy_ma():
    code = (
        "import sys, numpy as np; from obsequiv import MarkovChainSpec, "
        "check_observational_equivalence as check; "
        "spec = MarkovChainSpec(('a', 'b'), np.array([[0.5, 0.5], [0.75, 0.25]])); "
        "assert check(spec, spec, [(0.0, 1.0, 2.0)], 2000, 1).passed; "
        "print('numpy.ma' in sys.modules)"
    )
    src = str(Path(obsequiv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout
    assert out.split() == ["False"]


def test_json_object_round_trip_fields():
    fdd = estimate_fdd(np.array([[0], [1]]), ("a", "b"), (0.0,))
    obj = fdd.to_json_obj()
    assert obj["grid"] == [0.0]
    assert obj["n_samples"] == 2
    assert {e["symbols"][0] for e in obj["entries"]} == {"a", "b"}
