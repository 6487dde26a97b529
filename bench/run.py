"""obsequiv benchmark: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload ensemble --seed 1 --seconds 30 --trace 0

Run from the repository root; obsequiv is imported from ./src.  The inputs
(scenario file, coin and rotation arrays) are made from --seed under
.bench_work/.  Set-up is timed in SETUP_REPEATS fresh interpreters, then one
fresh interpreter (worker.py) runs whole rounds of the workload for
--seconds.  Every operation's output is checked (verify.py).  The last line
printed is one JSON object: correct, attempted, failed, and the end-to-end
metrics (--trace 0) or the per-layer metrics (--trace 1).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import reference
import verify
import workloads

SETUP_REPEATS = 7
PROBE_TIMEOUT_S = 30
WORKER_SLACK_S = 60  # worker time allowed beyond --seconds

PER_LAYER = [
    "cli.import_s", "scenario.load_s", "processes.validate_s", "scenario.self_s",
    "scenario.report_bytes", "systems.spawn_rngs_s", "systems.rngs_spawned",
    "processes.sample_semi_markov_s", "processes.sample_chain_s",
    "processes.realizations", "processes.path_value_s", "processes.path_value_calls",
    "representation.flow_sample_path_s", "representation.shift_sample_path_s",
    "fdd.estimate_s", "fdd.compare_s", "fdd.entries", "checks.paths_sampled",
    "checks.observational_equivalence_self_s", "checks.stationarity_self_s",
    "checks.nontriviality_self_s", "checks.invariant_union_self_s",
    "checks.measure_preservation_self_s", "checks.epsilon_congruence_self_s",
    "checks.invariant_union_masks", "systems.billiard_evolve_s",
    "systems.billiard_evolve_calls", "systems.sample_initial_s",
    "systems.trajectory_symbols_s", "partitions.cell_index_s",
    "partitions.cell_index_calls", "entropy.entropy_rate_s",
    "entropy.block_entropy_calls", "entropy.symbols_in", "trace.wall_s",
    "trace.overhead_s",
]


def unit(name):
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("_bytes") else "count"


class BenchError(RuntimeError):
    pass


def _child(cmd, env, timeout):
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"{cmd[1]} timed out after {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{cmd[1]} printed no result")
    return json.loads(lines[-1])


def _write_inputs(work, workload, doc, direct):
    scenario = work / f"{workload}.json"
    scenario.write_text(json.dumps(doc, indent=2) + "\n")
    calls = []
    for d in direct:
        path = work / f"{d['name']}.npy"
        np.save(path, d["array"])
        calls.append({"name": d["name"], "path": str(path), "L_max": d["L_max"]})
    (work / "spec.json").write_text(json.dumps({"scenario": str(scenario), "direct": calls}))
    return scenario


def _round0_failures(work, workload, ops, direct, first):
    """One reason (or None) per operation of the first round."""
    out = work / "out" / "r0"
    expected = workloads.expected_exit(ops)
    reasons = []
    for idx, op in enumerate(ops):
        if first["exit"] != expected:
            reasons.append(f"CLI exit {first['exit']!r}, expected {expected}")
            continue
        path = out / workload / f"{idx}-{op['task']['kind'].replace(':', '_')}.json"
        report = json.loads(path.read_text()) if path.is_file() else None
        reasons.append(verify.check_scenario_op(op, report))
    api = json.loads((out / "api.json").read_text())
    for call in direct:
        reasons.append(verify.check_direct_op(call, api[call["name"]]))
    return reasons


def run(workload, seed, seconds, trace):
    root = Path.cwd()
    src = root / "src"
    if not (src / "obsequiv" / "__init__.py").is_file():
        raise BenchError("no src/obsequiv here: run from the repository root")
    reference.selfcheck()
    doc, ops, direct = workloads.build(workload, seed)
    (root / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=root / ".bench_work"))
    try:
        scenario = _write_inputs(work, workload, doc, direct)
        env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1",
                   OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        worker = [sys.executable, str(Path(__file__).with_name("worker.py")), "--work", str(work)]
        probe = lambda: _child(worker + ["--probe"], env, PROBE_TIMEOUT_S)["setup_s"]
        # half the set-up probes before the rounds, half after, so that one
        # stretch of machine load does not move all of them
        setups = [probe() for _ in range(SETUP_REPEATS // 2)]
        res = _child(worker + ["--seconds", str(seconds), "--trace", str(trace)], env,
                     seconds + WORKER_SLACK_S)
        setups += [probe() for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2)]
        if not Path(res["obsequiv_file"]).resolve().is_relative_to(src.resolve()):
            raise BenchError(f"imported obsequiv from {res['obsequiv_file']}, not ./src")
        rounds = res["rounds"]
        reasons = _round0_failures(work, workload, ops, direct, rounds[0])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any((root / ".bench_work").iterdir()):
            (root / ".bench_work").rmdir()

    names = [op["task"]["kind"] for op in ops] + [d["name"] for d in direct]
    for name, why in zip(names, reasons):
        if why:
            print(f"FAILED {name}: {why}", file=sys.stderr)
    per_round = len(reasons)
    failed_first = sum(why is not None for why in reasons)
    failed = failed_first
    identical = True
    for rec in rounds[1:]:
        same = rec["identical"] and rec["exit"] == rounds[0]["exit"]
        identical = identical and same
        # a round whose outputs differ from the checked first round counts whole
        failed += failed_first if same else per_round
    if not identical:
        print("FAILED: a round's outputs differ from the first round's", file=sys.stderr)

    wall = statistics.median(r["wall_s"] for r in rounds if not r["traced"])
    if trace:
        traced = [r for r in rounds if r["traced"]]
        # times: median over the traced rounds; counts repeat exactly
        metrics = {
            key: statistics.median(r["layers"][key] for r in traced)
            if unit(key) == "s" else value
            for key, value in traced[0]["layers"].items()
        }
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        metrics.update({
            "cli.import_s": res["import_s"],
            "scenario.load_s": res["load_s"],
            "scenario.report_bytes": rounds[0]["report_bytes"],
            "trace.wall_s": traced_wall,
            "trace.overhead_s": traced_wall - wall,
        })
        for span in res["spans"]:
            print(f"span {span['name']:<40} parent {str(span['parent']):<36} "
                  f"n={span['count']:<8} total={span['total_s']:.4f}s "
                  f"self={span['self_s']:.4f}s", file=sys.stderr)
        metrics = {name: {"value": metrics[name], "unit": unit(name)} for name in PER_LAYER}
    else:
        symbols = workloads.symbols_per_round(ops, direct)
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "symbols_per_s": {"value": symbols / wall, "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(f"{workload}: {len(rounds)} rounds, walls "
          + " ".join(f"{r['wall_s']:.3f}{'t' if r['traced'] else ''}" for r in rounds)
          + f", setups {' '.join(f'{s:.3f}' for s in setups)}", file=sys.stderr)
    return {
        "correct": identical,
        "attempted": per_round * len(rounds),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
