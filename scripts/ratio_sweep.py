#!/usr/bin/env python3
"""Insertion-ratio sweep on a generated subgraph-counting instance.

Builds a 3-clique query over a random sparse graph (about 10^4 clauses),
then times the solver across a grid of insertion ratios.  The count must be
identical everywhere; the interesting part is the step and runtime curve.
On the default instance (18 variables, 10,767 clauses) ratios 0.0 and 0.1
take the fewest steps, 1,281; 0.25 to 0.55 take 1,283 to 1,306 (the
default 0.45 takes 1,298), and 0.75 to 1.0 take 1,720 to 1,924, all at
about the same runtime.

Usage: python scripts/ratio_sweep.py [--vertices 50] [--edges 100]
"""

import argparse
import random
import sys
from itertools import combinations
from pathlib import Path

# the checkout's sources, ahead of any installed copy
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from boxsat import SolverConfig, run  # noqa: E402
from boxsat.benchgen import GraphQuerySpec, InputGraph, generate_cnf  # noqa: E402

RATIOS = (0.0, 0.1, 0.25, 0.35, 0.45, 0.55, 0.75, 0.9, 1.0)


def build_instance(vertices: int, edges: int, seed: int):
    rng = random.Random(seed)
    pool = list(combinations(range(vertices), 2))
    chosen = frozenset(rng.sample(pool, edges))
    graph = InputGraph(vertices, chosen)
    return generate_cnf(graph, GraphQuerySpec("clique", 3))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--vertices", type=int, default=50)
    parser.add_argument("--edges", type=int, default=100)
    parser.add_argument("--seed", type=int, default=20260810)
    parser.add_argument("--ordering", default="grouped-heuristic")
    args = parser.parse_args()

    cnf = build_instance(args.vertices, args.edges, args.seed)
    print(f"instance: {cnf.variable_count} variables, {cnf.clause_count} clauses")
    print(f"{'ratio':>6}  {'count':>8}  {'load(s)':>8}  {'run(s)':>8}  {'steps':>8}")
    counts = set()
    for ratio in RATIOS:
        result = run(cnf, SolverConfig(insertion_ratio=ratio, ordering=args.ordering))
        counts.add(result.count)
        print(
            f"{ratio:6.2f}  {result.count:8d}  {result.load_seconds:8.2f}  "
            f"{result.run_seconds:8.2f}  {result.iterations:8d}"
        )
    if len(counts) != 1:
        print("COUNT MISMATCH ACROSS RATIOS", counts, file=sys.stderr)
        return 1
    print("count invariant across all ratios")
    return 0


if __name__ == "__main__":
    sys.exit(main())
