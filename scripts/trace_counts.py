#!/usr/bin/env python3
"""Print the count metrics of the benchmark's traced pass, with one digest.

Runs ``boxbench/run.py --trace 1 --seed S --workload W`` for each workload in
its own process, then prints every metric whose unit is ``count``, plus
``clustertrie.visits_per_query``, and one SHA-256 over all of them.  Two
checkouts whose sweeps do the same work print the same digest, so comparing
it before and after a change shows whether any count moved.

Usage: python scripts/trace_counts.py [--seed 21] [--workload blocks ...]
"""

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("triangles", "blocks", "models")


def traced_counts(workload: str, seed: int) -> dict[str, float]:
    """The count metrics and visits per query of one traced run."""
    cmd = [sys.executable, str(ROOT / "boxbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--trace", "1"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if done.returncode or result.get("failed"):
        raise RuntimeError(f"{workload}: exit {done.returncode}\n{done.stderr}")
    return {name: m["value"] for name, m in sorted(result["metrics"].items())
            if m["unit"] == "count" or name == "clustertrie.visits_per_query"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=21)
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeat to pick several (default: all)")
    args = parser.parse_args()
    counts = {}
    for workload in args.workload or WORKLOADS:
        try:
            counts[workload] = traced_counts(workload, args.seed)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for name, value in counts[workload].items():
            print(f"{workload:10} {name:40} {value:g}")
    digest = hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest()
    print(f"sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
