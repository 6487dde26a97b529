"""Output checks: each operation's result against a reference made apart
from the program (reference.py) or a property the method must have.

Every check returns None when the output is right, else a one-line reason.
"""

from __future__ import annotations

import math

from reference import (
    ROTATION_ALPHA,
    SEMI_MARKOV_S2_MARGINAL,
    exact_rotation_block_entropy,
    independent_block_entropy,
    stationary_two_state,
)
from workloads import CHAIN_P

ROTATION_TOL_BITS = 0.02  # criterion 09's exact-formula tolerance
COIN_TOL_BITS = 0.05  # criterion 09's coin tolerance
FINE_CELL_HALF_DIAGONAL = math.sqrt(2.0) / 32.0  # 1/16 x 1/16 cells


def three_sigma(p, n):
    """Half-width of the 3-sigma band of a proportion p estimated from n draws."""
    return 3.0 * math.sqrt(p * (1.0 - p) / n)


def _verdict(op, report):
    if report.get("verdict") != op["verdict"]:
        return f"verdict {report.get('verdict')!r}, expected {op['verdict']!r}"
    return None


def _simulate_marginals(op, report):
    fdd = report["fdd"]
    n = fdd["n_samples"]
    if sum(e["count"] for e in fdd["entries"]) != n:
        return "simulate table does not carry total mass 1"
    band = three_sigma(SEMI_MARKOV_S2_MARGINAL, n)
    for i, t in enumerate(fdd["grid"]):
        p = sum(e["count"] for e in fdd["entries"] if e["symbols"][i] == "s2") / n
        if abs(p - SEMI_MARKOV_S2_MARGINAL) > band:
            return f"P(Z_{t} = s2) = {p}, outside 3 sigma of sqrt2/(1+sqrt2)"
    return None


def _chain_time0(op, report):
    bad = _verdict(op, report)
    if bad:
        return bad
    pi = dict(zip(("a", "b"), stationary_two_state(CHAIN_P)))
    n = report["n_samples"]
    seen = 0
    for item in report["items"]:
        if item["label"] != "grid0":
            continue
        (sym,) = item["event"]
        for side in ("estimate_a", "estimate_b"):
            seen += 1
            if abs(item[side] - pi[sym]) > three_sigma(pi[sym], n):
                return f"time-0 {side} of {sym!r} = {item[side]}, law {pi[sym]}"
    return None if seen == 4 else "time-0 table incomplete"


def _measure_half(op, report):
    bad = _verdict(op, report)
    if bad:
        return bad
    band = three_sigma(0.5, report["n_samples"])
    for item in report["items"]:
        if abs(item["estimate"] - 0.5) > band:
            return f"{item['label']} at t={item['time']}: {item['estimate']} not 0.5"
    return None


def _fine_coding(op, report):
    bad = _verdict(op, report)
    if bad:
        return bad
    worst = report["items"][0]["max_distance_seen"]
    if worst > FINE_CELL_HALF_DIAGONAL + 1e-12:
        return f"max_distance_seen {worst} above the cell half-diagonal"
    return None


def _positive_rate(op, report):
    return None if report.get("positive_rate") is True else "positive rate not flagged"


SCENARIO_CHECKS = {
    "verdict": _verdict,
    "simulate_marginals": _simulate_marginals,
    "chain_time0": _chain_time0,
    "measure_half": _measure_half,
    "fine_coding": _fine_coding,
    "positive_rate": _positive_rate,
}


def _matches_independent_count(result, sequences):
    for L, bits in enumerate(result["block_entropies"], start=1):
        ref = independent_block_entropy(sequences, L)
        if not math.isclose(bits, ref, rel_tol=1e-9, abs_tol=1e-12):
            return f"H_{L} = {bits}, independent count gives {ref}"
    return None


def _coin_rate(result, sequences):
    if abs(result["rate_estimate"] - 1.0) > COIN_TOL_BITS:
        return f"coin rate {result['rate_estimate']} not within 0.05 of 1 bit"
    return _matches_independent_count(result, sequences)


def _rotation_exact(result, sequences):
    for L, bits in enumerate(result["block_entropies"], start=1):
        exact = exact_rotation_block_entropy(ROTATION_ALPHA, L)
        if abs(bits - exact) > ROTATION_TOL_BITS:
            return f"rotation H_{L} = {bits}, exact {exact}"
    if result["positive_rate"]:
        return "zero-entropy rotation flagged positive-rate"
    return _matches_independent_count(result, sequences)


DIRECT_CHECKS = {"coin_rate": _coin_rate, "rotation_exact": _rotation_exact}


def check_scenario_op(op, report):
    if report is None:
        return "no report written"
    return SCENARIO_CHECKS[op["check"]](op, report)


def check_direct_op(call, result):
    if "error" in result:
        return result["error"]
    return DIRECT_CHECKS[call["check"]](result, list(call["array"]))
