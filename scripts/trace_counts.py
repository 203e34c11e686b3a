#!/usr/bin/env python3
"""Print the count metrics of the benchmark's traced pass, with one digest.

Runs ``boxbench/run.py --trace 1 --seed S --workload W`` for each workload in
its own process, then prints every metric whose unit is ``count``, plus
``clustertrie.visits_per_query``, and one SHA-256 over all of them.  Two
checkouts whose sweeps do the same work print the same digest, so comparing
it before and after a change shows whether any count moved.

With ``--expect SHA256`` it exits 1 when the digest differs and names the
first metric that differs.  Each run keeps its counts in the temporary
directory under their digest, so a digest printed by an earlier run, of
this or any other checkout, finds the counts to compare with; with no such
record the mismatch names no metric.

Usage: python scripts/trace_counts.py [--seed 21] [--workload blocks ...]
                                      [--expect SHA256]
"""

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("triangles", "blocks", "models")
RECORDS = Path(tempfile.gettempdir()) / "boxsat-trace-counts"


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
    parser.add_argument("--expect", metavar="SHA256",
                        help="exit 1 unless the digest equals this one")
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
    RECORDS.mkdir(exist_ok=True)
    (RECORDS / f"{digest}.json").write_text(json.dumps(counts, sort_keys=True))
    if args.expect is None or args.expect == digest:
        return 0
    print(f"error: digest differs from {args.expect}; {first_difference(counts, args.expect)}",
          file=sys.stderr)
    return 1


def first_difference(counts: dict[str, dict[str, float]], expected: str) -> str:
    """The first metric, in printed order, whose value differs from the run
    recorded under the ``expected`` digest."""
    try:
        want = json.loads((RECORDS / f"{expected}.json").read_text())
    except (OSError, ValueError):
        return f"no record of its counts in {RECORDS}"
    got = {(w, name): v for w, metrics in counts.items() for name, v in metrics.items()}
    was = {(w, name): v for w, metrics in want.items() for name, v in metrics.items()}
    for key in [*got, *sorted(was.keys() - got.keys())]:
        if got.get(key) != was.get(key):
            return f"first differing metric {' '.join(key)}: {got.get(key)}, expected {was.get(key)}"
    return "no metric differs"


if __name__ == "__main__":
    sys.exit(main())
