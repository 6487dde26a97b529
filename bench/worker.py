"""One workload in a fresh interpreter: set-up, then timed rounds.

Launched by run.py, never imported.  With --probe it only times the set-up
(import obsequiv, load the scenario) and prints it.  Otherwise it runs whole
rounds until --seconds are used up; a round calls the `obsequiv` CLI entry
point on the workload's scenario, then `obsequiv.entropy_rate` on each
direct-call array, and writes every result under <work>/out/r<i>.  Rounds
after the first are compared byte for byte with the first and deleted.
With --trace 1 the first third of the time runs untraced, the rest with the
layer tracer installed.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--work", required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)
    work = Path(args.work)
    spec = json.loads((work / "spec.json").read_text())

    t0 = perf_counter()
    import obsequiv
    import obsequiv.cli
    from obsequiv.scenario import Scenario

    t1 = perf_counter()
    Scenario.load(spec["scenario"])
    t2 = perf_counter()
    if args.probe:
        print(json.dumps({"setup_s": t2 - t0}))
        return 0

    import numpy as np

    arrays = {d["name"]: list(np.load(d["path"])) for d in spec["direct"]}
    out_root = work / "out"
    rounds = []

    def one_round():
        out = out_root / f"r{len(rounds)}"
        start = perf_counter()
        try:
            code = obsequiv.cli.main([spec["scenario"], "--out", str(out)])
        except Exception as exc:  # the operation failed; record and go on
            code = f"{type(exc).__name__}: {exc}"
        api = {}
        for d in spec["direct"]:
            try:
                trend = obsequiv.entropy_rate(arrays[d["name"]], d["L_max"])
                api[d["name"]] = {
                    "block_entropies": [e.bits for e in trend.estimates],
                    "increments": trend.increments,
                    "rate_estimate": trend.rate_estimate,
                    "positive_rate": trend.positive_rate,
                }
            except Exception as exc:
                api[d["name"]] = {"error": f"{type(exc).__name__}: {exc}"}
        out.mkdir(parents=True, exist_ok=True)
        (out / "api.json").write_text(json.dumps(api, sort_keys=True, indent=2) + "\n")
        return perf_counter() - start, code, out

    first = {}

    def run_for(budget, tracer=None):
        start = perf_counter()
        walls = []
        while True:
            if tracer is not None:
                tracer.reset()
            wall, code, out = one_round()
            rec = {"wall_s": wall, "exit": code, "traced": tracer is not None}
            if not rounds:
                first.update(_files(out))
                rec["report_bytes"] = sum(len(b) for b in first.values())
            else:
                rec["identical"] = _files(out) == first
                shutil.rmtree(out)
            if tracer is not None:
                rec["layers"] = tracer.layer_metrics()
            rounds.append(rec)
            walls.append(wall)
            if perf_counter() - start + statistics.median(walls) > budget:
                return

    tracer = None
    if args.trace:
        run_for(args.seconds / 3.0)
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
        run_for(args.seconds * 2.0 / 3.0, tracer)
    else:
        run_for(args.seconds)

    print(
        json.dumps(
            {
                "rounds": rounds,
                "import_s": t1 - t0,
                "load_s": t2 - t1,
                # Linux reports ru_maxrss in KiB
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "spans": tracer.span_table() if tracer is not None else [],
                "obsequiv_file": obsequiv.__file__,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
