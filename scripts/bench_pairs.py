#!/usr/bin/env python3
"""Alternating A/B runs of boxbench in two checkouts, summed up as a
``BENCH_<label>.json``.

Each pair runs ``boxbench/run.py --trace 0`` once in the parent checkout
and once in the change checkout, one process at a time: odd pairs run the
parent first, even pairs the change first.  For every end-to-end metric of
BENCHMARK.json the file records each side's quartiles
(``statistics.quantiles(n=4)``, as ``boxbench/spread.py`` computes them) and
how many pairs the change won, plus each side's git sha, whether its
checkout had uncommitted changes (``git status --porcelain`` not empty),
its source hash and its attempted and failed solve counts.  The file is
rewritten after every pair, so a cut run keeps the pairs it finished.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --label merged_db --workload triangles --workload blocks \\
        --pairs 10 --seed 21 --claim triangles:solve_s
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its meta line and its last-line summary."""
    cmd = [sys.executable, "boxbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    meta = next((json.loads(line[5:]) for line in lines if line.startswith("meta ")), {})
    try:
        summary = json.loads(lines[-1])
    except (IndexError, ValueError):
        summary = {"attempted": 1, "failed": 1, "metrics": {}}
    if done.returncode:
        print(done.stderr, file=sys.stderr)
    return {"meta": meta, **summary}


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def summarize(runs: list[dict[str, dict]], seed: int, seconds: float, end_to_end: list[dict]) -> dict:
    """One workload's entry from its (parent, change) run pairs."""
    def total(side: str, key: str) -> int:
        return sum(pair[side][key] for pair in runs)

    out = {
        "seed": seed,
        "seconds": seconds,
        "pairs": len(runs),
        "attempted": {side: total(side, "attempted") for side in SIDES},
        "failed": {side: total(side, "failed") for side in SIDES},
        "source_sha256": {side: runs[0][side]["meta"].get("source_sha256") for side in SIDES},
        "metrics": {},
    }
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        values = {side: [pair[side]["metrics"].get(name, {}).get("value") for pair in runs]
                  for side in SIDES}
        if None in values["parent"] + values["change"]:
            continue  # a failed run reports no metrics
        won = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
        out["metrics"][name] = {
            "unit": spec["unit"],
            **{side: quartiles(values[side]) for side in SIDES},
            "change_better_pairs": won,
        }
    return out


def claim_text(workloads: dict, claim: str) -> str:
    workload, _, metric = claim.partition(":")
    entry = workloads[workload]
    m = entry["metrics"][metric]
    p, c = m["parent"]["median"], m["change"]["median"]
    verb = "falls" if c < p else "rises"
    return (f"{workload} {metric} {verb}: {p} -> {c} {m['unit']} ({(c - p) / p:+.1%}), "
            f"change better in {m['change_better_pairs']} of {entry['pairs']} pairs, "
            f"median gap {abs(c - p):.3g} {m['unit']} against a parent IQR of "
            f"{m['parent']['q3'] - m['parent']['q1']:.3g} {m['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--label", required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=21)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds per run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--claim", help="workload:metric the change claims a gain on")
    parser.add_argument("--out", type=Path, help="output file (default: BENCH_<label>.json)")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    end_to_end = bench["end_to_end"]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    out = args.out or ROOT / f"BENCH_{args.label}.json"
    def git(side: str, *words: str) -> str:
        return subprocess.run(["git", *words], cwd=checkouts[side], capture_output=True,
                              text=True).stdout.strip()

    record = {
        "label": args.label,
        "claim": None,
        # a dirty checkout (uncommitted changes) runs code its sha does not name
        "parent_sha": git("parent", "rev-parse", "HEAD"),
        "parent_dirty": bool(git("parent", "status", "--porcelain")),
        "change_sha": git("change", "rev-parse", "HEAD"),
        "change_dirty": bool(git("change", "status", "--porcelain")),
        "command": f"python3 boxbench/run.py --workload <w> --seed {args.seed} "
                   f"--seconds {seconds:g} --trace 0",
        "host": f"{os.cpu_count()}-core {platform.machine()}, "
                f"Python {platform.python_version()}",
        "pairing": "alternating: odd pairs ran the parent first, even pairs the change first",
        "note": "source_sha256 hashes src/boxsat/*.py as boxbench/run.py does; quartiles are "
                "statistics.quantiles(n=4), as boxbench/spread.py computes them.",
        "workloads": {},
    }
    for workload in args.workload:
        runs: list[dict[str, dict]] = []
        for k in range(args.pairs):
            first = SIDES if k % 2 == 0 else SIDES[::-1]
            pair = {side: run_once(checkouts[side], workload, args.seed, seconds) for side in first}
            runs.append(pair)
            print(f"{workload} pair {k + 1}: " + ", ".join(
                f"{side} solve_s {pair[side]['metrics'].get('solve_s', {}).get('value')}"
                for side in SIDES), flush=True)
            record["workloads"][workload] = summarize(runs, args.seed, seconds, end_to_end)
            if args.claim and args.claim.partition(":")[0] in record["workloads"]:
                record["claim"] = claim_text(record["workloads"], args.claim)
            out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}")
    failed = sum(sum(w["failed"].values()) for w in record["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
