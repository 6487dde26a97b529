"""Empirical finite-dimensional distributions and 3-sigma comparison."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

import obsequiv
from obsequiv.fdd import (
    THREE_SIGMA_ALPHA,
    EmpiricalFDD,
    FDDError,
    ProbEstimate,
    SymbolPath,
    bonferroni_z,
    compare_fdd,
    conditional_estimate,
    estimate_fdd,
)


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
    est = ProbEstimate.from_counts(25, 100)
    assert est.estimate == 0.25
    assert est.halfwidth == pytest.approx(3.0 * math.sqrt(0.25 * 0.75 / 100))
    assert est.strictly_inside_unit()
    assert not ProbEstimate.from_counts(0, 100).strictly_inside_unit()
    assert not ProbEstimate.from_counts(100, 100).strictly_inside_unit()
    with pytest.raises(FDDError):
        ProbEstimate.from_counts(1, 0)


def test_symbol_path_lookup():
    p = SymbolPath((0.0, 0.5, 1.0), ("a", "b", "a"))
    assert p.at(0.5) == "b"
    with pytest.raises(FDDError):
        p.at(0.7)


def test_estimate_fdd_total_mass_one_by_default():
    paths = [("a", "a"), ("a", "b"), ("a", "b"), ("b", "b")]
    fdd = estimate_fdd(paths, (0.0, 1.0))
    assert fdd.total_mass() == pytest.approx(1.0)
    assert fdd.probability(("a", "b")) == pytest.approx(0.5)
    assert fdd.n_samples == 4


def test_estimate_fdd_explicit_events_keep_zeros():
    paths = [("a",), ("a",)]
    fdd = estimate_fdd(paths, (0.0,), events=[("a",), ("b",)])
    assert fdd.counts == (2, 0)


def test_merge_is_associative_and_counts_add():
    grid, events = (0.0,), (("a",), ("b",))
    x = EmpiricalFDD(grid, events, (3, 1), 4)
    y = EmpiricalFDD(grid, events, (1, 2), 3)
    z = EmpiricalFDD(grid, events, (0, 5), 5)
    left = x.merge(y).merge(z)
    right = x.merge(y.merge(z))
    assert left == right
    assert left.counts == (4, 8)
    assert left.n_samples == 12


@given(
    st.lists(st.integers(0, 50), min_size=2, max_size=2),
    st.lists(st.integers(0, 50), min_size=2, max_size=2),
)
@settings(max_examples=50, deadline=None)
def test_merge_commutes_in_counts(ca, cb):
    grid, events = (0.0,), (("a",), ("b",))
    if sum(ca) == 0 or sum(cb) == 0:
        return
    x = EmpiricalFDD(grid, events, tuple(ca), sum(ca))
    y = EmpiricalFDD(grid, events, tuple(cb), sum(cb))
    assert x.merge(y).counts == y.merge(x).counts


def test_compare_fdd_identical_tables_pass():
    paths = [("a",)] * 30 + [("b",)] * 70
    fdd = estimate_fdd(paths, (0.0,))
    cmp = compare_fdd(fdd, fdd)
    assert cmp.passed
    assert cmp.max_delta == 0.0


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
    assert c4.z > c1.z


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


def test_conditional_estimate_counts():
    paths = [
        SymbolPath((0.0, 1.0), ("a", "b")),
        SymbolPath((0.0, 1.0), ("a", "a")),
        SymbolPath((0.0, 1.0), ("b", "b")),
    ]
    est = conditional_estimate(paths, 1.0, "a", "b")
    assert est.numerator == 1 and est.denominator == 2
    with pytest.raises(FDDError):
        conditional_estimate(paths, 1.0, "zzz", "b")


def test_csv_export_shape():
    fdd = estimate_fdd([("a", "b"), ("a", "b")], (0.0, 1.0))
    text = fdd.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "times,symbols,count,estimate,stderr"
    assert "a;b" in lines[1]


def test_json_object_round_trip_fields():
    fdd = estimate_fdd([("a",), ("b",)], (0.0,))
    obj = fdd.to_json_obj()
    assert obj["grid"] == [0.0]
    assert obj["n_samples"] == 2
    assert {e["symbols"][0] for e in obj["entries"]} == {"a", "b"}
