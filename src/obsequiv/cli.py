"""Command-line front end: run a scenario file and emit reports."""

from __future__ import annotations

import argparse
import sys

from .scenario import run_scenario


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="obsequiv",
        description="Run a declarative scenario of simulations and equivalence checks.",
    )
    parser.add_argument("scenario", help="path to a JSON scenario file")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    args = parser.parse_args(argv)
    return run_scenario(args.scenario, args.out, args.seed)


if __name__ == "__main__":
    sys.exit(main())
