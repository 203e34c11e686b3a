#!/usr/bin/env python3
"""Seeded, self-checking benchmark of ``boxsat count`` / ``boxsat enumerate``.

Run from the repository root:

    python3 boxbench/run.py --workload triangles --seed 1 --seconds 30 --trace 0

``--trace 0`` times the workload's instance set and prints the end-to-end
metrics; ``--trace 1`` runs the traced pass and prints the per-layer
metrics.  Every answer is checked against the workload's oracle after
timing.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every solve was correct.  See boxbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".boxbench"
WORKLOAD_NAMES = ("triangles", "blocks", "models")
SETUP_SAMPLES = 3
SOLVE_TIMEOUT_S = 60.0
TRACED_RUN_TIMEOUT_S = 150.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "sweep_s": "s",
    "models_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(workload_name: str, seed: int, probe: "ReferenceProbe"):
    """Import boxsat, build the lookup tables cold, generate the inputs."""
    before = probe.seconds()
    t0 = time.perf_counter()
    import workloads  # imports boxsat; the first import in a process is cold

    t1 = time.perf_counter()
    workloads.build_lookup_tables()
    t2 = time.perf_counter()
    workload = workloads.WORKLOADS[workload_name]
    instances = workloads.generate(workload, seed)
    t3 = time.perf_counter()
    scale = ReferenceProbe.NOMINAL_S / ((before + probe.seconds()) / 2)
    times = {"import_s": t1 - t0, "tables_s": t2 - t1, "generate_s": t3 - t2,
             "setup_unscaled_s": t3 - t0, "setup_s": (t3 - t0) * scale}
    return times, workload, instances


def setup_sample(workload_name: str, seed: int) -> dict[str, float]:
    """Set-up times measured in a fresh interpreter, so the import is cold."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload_name, "--seed", str(seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "boxsat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def metadata(args, workload, instances, answers) -> dict:
    import numpy

    models = [a if isinstance(a, int) else a[0] for a in answers]
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "instances": {
            "seed": [inst.seed for inst in instances],
            "n": [inst.variables for inst in instances],
            "clauses": [inst.clauses for inst in instances],
            "models": models,
        },
    }


def gate(expected: list, answers: list[tuple[int, object]]) -> list[str]:
    """Problems found comparing each (instance index, answer) to the oracle."""
    return [
        f"instance {i}: got {a!r}, oracle says {expected[i]!r}"
        for i, a in answers
        if a != expected[i]
    ]


def run_solve(workloads, workload, inst, problems: list[str]):
    """One solve under the time limit; failures are recorded, not raised."""
    try:
        with workloads.time_limit(SOLVE_TIMEOUT_S):
            return workloads.solve(workload, inst)
    except Exception:  # the benchmark must report the failure and go on
        problems.append(f"instance {inst.index}: {traceback.format_exc()}")
        return None


class ReferenceProbe:
    """Times fixed pure-Python work that shares no code with boxsat.

    A shared host speeds up and slows down by 10-20% over tens of seconds,
    which swamps the differences the benchmark is meant to catch.  The probe
    runs just before and after every timed solve, and each solve's time is
    scaled by NOMINAL / (mean of the two probes): the time the solve would
    have taken at the speed the baseline was recorded at.  The probe mixes
    big-integer and dict work, which tracks compute-bound phases, with a
    random pointer chase over a few MB, which tracks memory-bound ones.
    """

    CHASE_SLOTS = 1 << 16
    NOMINAL_S = 0.008  # about the median probe time where the baseline was recorded

    def __init__(self):
        order = list(range(self.CHASE_SLOTS))
        random.Random(0).shuffle(order)
        self._next = [()] * self.CHASE_SLOTS
        for a, b in zip(order, order[1:] + order[:1]):
            self._next[a] = (b,)  # one cycle through every slot

    def seconds(self) -> float:
        gc.disable()
        try:
            t0 = time.perf_counter()
            acc = 0x9E3779B97F4A7C15
            table = {}
            for i in range(10_000):
                acc = ((acc << 5) ^ (acc >> 3) ^ i) & ((1 << 122) - 1)
                low = acc & -acc
                table[low.bit_length()] = (acc, i)
            slot, nxt = 0, self._next
            for _ in range(20_000):
                slot = nxt[slot][0]
            return time.perf_counter() - t0
        finally:
            gc.enable()


def timed_run(args, setup, workload, instances, probe):
    import workloads

    samples = [setup] + [setup_sample(workload.name, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    problems: list[str] = []
    answers: list[tuple[int, object]] = []
    timed = []  # (instance index, solve s, sweep s, steps, mean probe s around it)

    warm = run_solve(workloads, workload, instances[0], problems)  # untimed
    if warm is not None:
        answers.append((0, warm[0]))
    attempted = 1
    deadline = time.perf_counter() + args.seconds
    ref = probe.seconds()
    while attempted <= len(instances) or time.perf_counter() < deadline:
        inst = instances[(attempted - 1) % len(instances)]
        attempted += 1
        gc.collect()
        outcome = run_solve(workloads, workload, inst, problems)
        ref_after = probe.seconds()
        if outcome is not None:
            answer, result, seconds = outcome
            answers.append((inst.index, answer))
            timed.append((inst.index, seconds, result.run_seconds, result.iterations,
                          (ref + ref_after) / 2))
        ref = ref_after
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    expected = [workloads.expected(workload, inst) for inst in instances]
    problems += gate(expected, answers)
    steps = [{t[3] for t in timed if t[0] == inst.index} for inst in instances]
    problems += [f"instance {i}: steps differ between repeats: {sorted(s)}"
                 for i, s in enumerate(steps) if len(s) > 1]
    failed = min(attempted, len(problems))

    def total(column: int, scaled: bool) -> float:
        """Sum over instances of each instance's median time."""
        per = [[t[column] * (ReferenceProbe.NOMINAL_S / t[4] if scaled else 1.0)
                for t in timed if t[0] == inst.index] for inst in instances]
        return sum(statistics.median(x) for x in per)

    metrics, unscaled = {}, {}
    if all(steps):  # every instance solved at least once
        models = sum(e if isinstance(e, int) else e[0] for e in expected)
        sweep_s = total(2, scaled=True)
        metrics = {
            "setup_s": statistics.median(s["setup_s"] for s in samples),
            "solve_s": total(1, scaled=True),
            "sweep_s": sweep_s,
            "models_per_s": models / sweep_s,
            "peak_rss_mb": peak_rss_mb,
        }
        unscaled = {"solve_s": total(1, scaled=False), "sweep_s": total(2, scaled=False)}
    extra = {
        "unscaled": unscaled,
        "reference_s_median": statistics.median(t[4] for t in timed) if timed else None,
        "timed_solves": timed,
        "setup_samples": samples,
    }
    return metrics, END_TO_END_UNITS, attempted, failed, problems, expected, extra


def traced_run(setup, workload, instances):
    import layers
    import workloads

    subset = instances[: workload.traced]
    problems: list[str] = []
    expected = [workloads.expected(workload, inst) for inst in subset]
    workloads.solve(workload, subset[0])  # warm-up, untimed
    # Each traced solve follows an untraced one of the same instance, so
    # the overhead compares neighbours in time, not two distant passes.
    answers, solve_s, sweep_s, steps = [], 0.0, 0.0, 0
    passes = [(layers.Recorder(), []), (layers.Recorder(), [])]
    for inst in subset:
        got, result, seconds = workloads.solve(workload, inst)
        answers.append(got)
        solve_s += seconds
        sweep_s += result.run_seconds
        steps += result.iterations
        recorder, solves = passes[0]
        solves.append(layers.traced_solve(recorder, workload, inst, f"0:{inst.index}"))
    recorder, solves = passes[1]
    for inst in subset:
        solves.append(layers.traced_solve(recorder, workload, inst, f"1:{inst.index}"))
    recorder, solves = passes[0]
    exact = [layers.exact_counts(r, s) for r, s in passes]
    attempted = 3 * len(subset)
    problems += gate(expected, list(enumerate(answers)))
    for _, traced in passes:
        problems += gate(expected, [(i, s.answer) for i, s in enumerate(traced)])
    if exact[0] != exact[1]:
        problems.append(f"exact counts differ between traced passes: {exact[0]} vs {exact[1]}")
    if exact[0]["solver.steps"] != steps:
        problems.append(f"traced steps {exact[0]['solver.steps']} != untraced {steps}")

    ordering_metrics, tried, wrong = layers.ordering_study(
        workload, subset, dict(enumerate(expected)))
    attempted += tried
    if wrong:
        problems.append(f"{wrong} ordering solves disagree with the oracle")

    e = exact[0]
    traced_solve_s = recorder.span_seconds("solve")
    parse_s = recorder.span_seconds("parse")
    metrics = {
        "benchgen.generate_s": setup["generate_s"],
        "clustertrie.lookup_tables_s": setup["tables_s"],
        "cnf.parse_s": parse_s,
        "cnf.parse_clauses_per_s": sum(i.clauses for i in subset) / parse_s,
        "ordering.build_order_s": recorder.span_seconds("order"),
        **ordering_metrics,
        **layers.replay(solves),
        "clustertrie.visits_per_query":
            e["clustertrie.cache_visits"] / e["clustertrie.find_containing.calls"],
        "clustertrie.db_boxes": e["clustertrie.db_boxes"],
        "clustertrie.cache_boxes": e["clustertrie.cache_boxes"],
    }
    for name in ("find_containing", "all_containing", "insert"):
        key = f"clustertrie.{name}"
        metrics[f"{key}.calls"] = recorder.calls[key]
        metrics[f"{key}.self_s"] = recorder.self_s[key]
    metrics.update({
        "solver.steps": e["solver.steps"],
        "solver.step_us": sweep_s / steps * 1e6,
        "solver.probes_cache": e["solver.probes_cache"],
        "solver.probes_database": e["solver.probes_database"],
        "solver.probes_model": e["solver.probes_model"],
        "solver.cache_hit_ratio": e["solver.probes_cache"] / e["solver.steps"],
        "solver.resolvents": e["solver.resolvents"],
        "solver.resolvents_cached": e["solver.resolvents_cached"],
        "solver.gate_pass_ratio": e["solver.resolvents_cached"] / e["solver.resolvents"],
        "solver.advance.self_s": recorder.self_s["solver.advance"],
        "solver.resolve_cascade.self_s": recorder.self_s["solver.resolve_cascade"],
        "trace.overhead_frac": traced_solve_s / solve_s - 1.0,
    })
    units = {name: unit_of(name) for name in metrics}
    aggregates = {name: {"calls": recorder.calls[name], "total_s": recorder.total_s[name],
                         "self_s": recorder.self_s[name]} for name in recorder.calls}
    extra = {"exact": exact[0], "untraced_solve_s": solve_s, "traced_solve_s": traced_solve_s,
             "aggregates": aggregates, "spans": recorder.spans}
    return metrics, units, attempted, min(attempted, len(problems)), problems, expected, extra


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("visits_per_query"):
        return "visits/query"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "boxsat" / "__init__.py").is_file():
        print(f"error: no boxsat sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    probe = ReferenceProbe()
    setup, workload, instances = set_up(args.workload, args.seed, probe)
    import boxsat

    if Path(boxsat.__file__).resolve().parent != (SRC / "boxsat").resolve():
        print(f"error: imported boxsat from {boxsat.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    import workloads

    try:
        if args.trace:
            with workloads.time_limit(TRACED_RUN_TIMEOUT_S):
                outcome = traced_run(setup, workload, instances)
        else:
            outcome = timed_run(args, setup, workload, instances, probe)
    except Exception:  # report a failed run in the agreed shape
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    metrics, units, attempted, failed, problems, expected, extra = outcome
    for p in problems:
        print(f"FAILED {p}", file=sys.stderr)
    meta = metadata(args, workload, instances[: len(expected)], expected)
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"meta": meta, "metrics": metrics, **extra}, indent=1))
    print("meta " + json.dumps(meta))
    for name, value in metrics.items():
        print(f"{name:40s} {value:>16.6g} {units[name]}")
    print(f"wrote {out_file.relative_to(ROOT)}")
    correct = failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
