#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

The spread is the distance between the first and third quartiles of the
per-run values, as a share of their median, which is how a metric's
``bound`` in BENCHMARK.json is judged.  Runs are sequential, one process at
a time.

    python3 boxbench/spread.py --workload blocks --seeds 1-10 [--trace 0]
        [--record boxbench/baseline.json]

``--record`` merges the medians, spreads and the runs' metadata into the
given JSON file under the workload's name.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def sizes(instances: dict) -> dict:
    """Instance-set summary: count, distinct n and clause counts, models."""
    return {
        "count": len(instances["n"]),
        "n": sorted(set(instances["n"])),
        "clauses": sorted(set(instances["clauses"])),
        "models_total": sum(instances["models"]),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path)
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("a spread needs at least two seeds")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(ROOT / "boxbench" / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        meta = json.loads(next(l[5:] for l in lines if l.startswith("meta ")))
        runs.append({"seed": seed, "exit": done.returncode, "meta": meta, **result})
        values = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
        print(f"seed {seed}: exit {done.returncode} failed {result['failed']} {values}", flush=True)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        summary[name] = {"median": median, "spread": spread, "bound": bounds.get(name),
                         "unit": runs[0]["metrics"][name]["unit"]}
        print(f"{name:40s} median {median:14.6g}  spread {spread:7.4f}  bound {bounds.get(name)}")

    if args.record:
        recorded = json.loads(args.record.read_text()) if args.record.exists() else {}
        key = args.workload if args.trace == 0 else f"{args.workload}.trace"
        recorded[key] = {
            "seeds": args.seeds,
            "run_seconds": bench["run_seconds"],
            "metrics": summary,
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "meta": {k: v for k, v in runs[0]["meta"].items() if k not in ("seed", "instances")},
            "instances": {r["seed"]: sizes(r["meta"]["instances"]) for r in runs},
        }
        args.record.write_text(json.dumps(recorded, indent=1) + "\n")
    return 0 if all(r["exit"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
