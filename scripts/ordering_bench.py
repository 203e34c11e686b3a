#!/usr/bin/env python3
"""Compare the variable-ordering strategies on one instance.

By default runs the built-in 61-variable / 581-clause block instance; pass a
DIMACS path to benchmark a file instead.  Reports the load/run split per
strategy; counts must agree across the board.

Usage: python scripts/ordering_bench.py [instance.cnf] [--ratio 0.45]
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

# the checkout's sources, ahead of any installed copy
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from boxsat import SolverConfig, parse_dimacs, run  # noqa: E402
from boxsat.benchgen import hidden_solution_blocks  # noqa: E402
from boxsat.ordering import ORDERING_STRATEGIES  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("instance", nargs="?", help="DIMACS CNF path (optional)")
    parser.add_argument("--ratio", type=float, default=0.45)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    try:
        config = SolverConfig(insertion_ratio=args.ratio)
    except ValueError as exc:
        parser.error(str(exc))

    if args.instance:
        with open(args.instance) as fh:
            cnf = parse_dimacs(fh)
        label = args.instance
    else:
        cnf, _ = hidden_solution_blocks(seed=args.seed)
        label = "built-in block instance"

    print(f"{label}: {cnf.variable_count} variables, {cnf.clause_count} clauses")
    print(f"{'ordering':20}  {'count':>10}  {'load(s)':>8}  {'run(s)':>8}  {'steps':>8}")
    counts = set()
    for name in ORDERING_STRATEGIES:
        try:
            result = run(cnf, replace(config, ordering=name))
        except ValueError as exc:  # grouped-optimal refuses n > 71
            print(f"{name:20}  skipped: {exc}")
            continue
        counts.add(result.count)
        print(
            f"{name:20}  {result.count:10d}  {result.load_seconds:8.3f}  "
            f"{result.run_seconds:8.3f}  {result.iterations:8d}"
        )
    if len(counts) != 1:
        print("COUNT MISMATCH ACROSS ORDERINGS", counts, file=sys.stderr)
        return 1
    print("count invariant across all orderings")
    return 0


if __name__ == "__main__":
    sys.exit(main())
