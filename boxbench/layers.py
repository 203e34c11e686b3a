"""The traced pass: spans, hot-call aggregates, probe replays, orderings.

Everything here is recorded from outside the package.  A traced solve
rebuilds the steps of ``boxsat.run`` (parse, order, build, sweep) so that it
can wrap hot methods on the ``BoxDatabase`` and ``SolverState`` instances it
creates; hot calls are kept as counts plus total and self time, never as one
span per call.  ``boxsat.solver.advance`` is a module function, so it is
swapped for a wrapped copy while a traced sweep runs and restored after.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

import boxsat.solver as solver_module
from boxsat import BoxDatabase, SolverState, build_order, parse_dimacs
from boxsat.cnf import clause_to_box, point_to_literals
from boxsat.ordering import ORDERING_STRATEGIES
from boxsat.solver import SweepTrace, build_database

from workloads import Instance, Workload, answer

REPLAY_MIN_SECONDS = 0.05


class Recorder:
    """Spans and per-call aggregates, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[dict[str, Any]] = []
        self._open: list[int] = []
        self.calls: Counter[str] = Counter()
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self._child_s: list[float] = []  # callee time of each open wrapped call

    @contextmanager
    def span(self, name: str, request: str):
        record = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "request": request,
            "name": name,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def span_seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def wrap(self, name: str, fn):
        """``fn`` counted and timed; self time excludes wrapped callees."""
        child_s, calls, total_s, self_s = self._child_s, self.calls, self.total_s, self.self_s
        clock = time.perf_counter

        def wrapped(*args):
            child_s.append(0.0)
            t0 = clock()
            try:
                return fn(*args)
            finally:
                elapsed = clock() - t0
                inner = child_s.pop()
                calls[name] += 1
                total_s[name] += elapsed
                self_s[name] += elapsed - inner
                if child_s:
                    child_s[-1] += elapsed

        return wrapped


@dataclass
class TracedSolve:
    answer: Any
    cnf: Any
    order: Any
    database: BoxDatabase
    state: SolverState
    sweep: SweepTrace
    resolvents: int
    resolvents_cached: int


@contextmanager
def instrumented(recorder: Recorder, state: SolverState, gate: Counter):
    """Wrap the sweep's hot calls; the wrappers are removed on exit, so
    later replays run unwrapped and add nothing to the aggregates."""
    targets = [
        (state.cache, "find_containing", "clustertrie.find_containing"),
        (state.cache, "insert", "clustertrie.insert"),
        (state.database, "all_containing", "clustertrie.all_containing"),
        (state, "resolve_cascade", "solver.resolve_cascade"),
    ]
    for obj, attr, name in targets:
        setattr(obj, attr, recorder.wrap(name, getattr(obj, attr)))
    gate_passes = state.gate_passes

    def counted_gate(box):
        passed = gate_passes(box)
        gate[passed] += 1
        return passed

    state.gate_passes = counted_gate
    advance = solver_module.advance
    solver_module.advance = recorder.wrap("solver.advance", advance)
    try:
        yield
    finally:
        solver_module.advance = advance
        del state.gate_passes
        for obj, attr, _ in targets:
            delattr(obj, attr)


def sweep_state(workload: Workload, cnf, order, database, sink, trace=None) -> SolverState:
    emit = None if sink is None else (lambda point: sink(point_to_literals(point, order)))
    return SolverState(cnf.variable_count, database, workload.config(), on_model=emit, trace=trace)


def traced_solve(
    recorder: Recorder, workload: Workload, instance: Instance, request: str
) -> TracedSolve:
    config = workload.config()
    sink = workload.sink()
    gate = Counter()
    with recorder.span("solve", request):
        with recorder.span("parse", request):
            cnf = parse_dimacs(instance.dimacs)
        with recorder.span("order", request):
            order = build_order(cnf, config.ordering)
        with recorder.span("build", request):
            database = build_database(cnf, order, lambda_skip=config.lambda_skip)
        sweep = SweepTrace()
        state = sweep_state(workload, cnf, order, database, sink, sweep)
        with recorder.span("sweep", request), instrumented(recorder, state, gate):
            state.run_loop()
        if state.models is not None:
            # run() converts every retained model after the sweep; so do we
            with recorder.span("finish", request):
                for m in state.models:
                    point_to_literals(m, order)
    return TracedSolve(answer(state.model_count, sink), cnf, order, database, state, sweep,
                       resolvents=gate[True] + gate[False], resolvents_cached=gate[True])


def exact_counts(recorder: Recorder, solves: list[TracedSolve]) -> dict[str, int]:
    """Counts that must repeat bit-for-bit on the same seed."""
    sources = Counter(src for s in solves for _, src, _ in s.sweep.steps)
    return {
        "solver.steps": sum(s.state.iterations for s in solves),
        "solver.probes_cache": sources["cache"],
        "solver.probes_database": sources["database"],
        "solver.probes_model": sources["model"],
        "solver.resolvents": sum(s.resolvents for s in solves),
        "solver.resolvents_cached": sum(s.resolvents_cached for s in solves),
        "clustertrie.db_boxes": sum(len(s.database) for s in solves),
        "clustertrie.cache_boxes": sum(len(s.state.cache) for s in solves),
        "clustertrie.cache_visits": sum(s.state.cache.cluster_visits for s in solves),
        "clustertrie.find_containing.calls": recorder.calls["clustertrie.find_containing"],
        "clustertrie.all_containing.calls": recorder.calls["clustertrie.all_containing"],
        "clustertrie.insert.calls": recorder.calls["clustertrie.insert"],
    }


def _rate(fn, items: list) -> tuple[int, float]:
    """(calls, seconds) of ``fn`` over ``items``, repeated to a minimum time."""
    if not items:
        return 0, 0.0
    done = 0
    t0 = time.perf_counter()
    while True:
        for x in items:
            fn(x)
        done += len(items)
        elapsed = time.perf_counter() - t0
        if elapsed >= REPLAY_MIN_SECONDS:
            return done, elapsed


def replay(solves: list[TracedSolve]) -> dict[str, float]:
    """Isolated trie and conversion rates on the recorded probe sequences.

    Each instance's clause boxes fill a fresh trie (timed as the build);
    its recorded probes then query that trie and the sweep's final cache.
    """
    build_s = boxes = 0.0
    find = [0, 0.0]
    every = [0, 0.0]
    convert = [0, 0.0]
    for s in solves:
        n = s.cnf.variable_count
        clause_boxes = [clause_to_box(cl, n, s.order) for cl in s.cnf.clauses]
        t0 = time.perf_counter()
        fresh = BoxDatabase(n)
        for b in clause_boxes:
            fresh.insert(b)
        build_s += time.perf_counter() - t0
        boxes += len(clause_boxes)
        probes = [p for p, _, _ in s.sweep.steps]
        for trie in (fresh, s.state.cache):
            for acc, fn in ((find, trie.find_containing), (every, trie.all_containing)):
                calls, seconds = _rate(fn, probes)
                acc[0] += calls
                acc[1] += seconds
        models = [p for p, src, _ in s.sweep.steps if src == "model"]
        order = s.order
        calls, seconds = _rate(lambda p: point_to_literals(p, order), models)
        convert[0] += calls
        convert[1] += seconds
    return {
        "clustertrie.build_s": build_s,
        "clustertrie.insert_per_s": boxes / build_s,
        "clustertrie.find_containing_per_s": find[0] / find[1],
        "clustertrie.all_containing_per_s": every[0] / every[1],
        "cnf.point_to_literals_per_s": convert[0] / convert[1],
    }


def ordering_study(
    workload: Workload, instances: list[Instance], expected: dict[int, Any]
) -> tuple[dict[str, float], int, int]:
    """Ordering time and sweep steps of every strategy on the traced set.

    Returns the metrics, the solves attempted and the solves whose answer
    differed from the oracle's.
    """
    metrics: dict[str, float] = {}
    attempted = failed = 0
    for name in ORDERING_STRATEGIES:
        order_s = 0.0
        steps = 0
        for inst in instances:
            cnf = parse_dimacs(inst.dimacs)
            t0 = time.perf_counter()
            order = build_order(cnf, name)
            order_s += time.perf_counter() - t0
            sink = workload.sink()
            database = build_database(cnf, order)
            state = sweep_state(workload, cnf, order, database, sink)
            state.run_loop()
            steps += state.iterations
            attempted += 1
            failed += answer(state.model_count, sink) != expected[inst.index]
        metrics[f"ordering.{name}_s"] = order_s
        metrics[f"ordering.{name}.steps"] = steps
    return metrics, attempted, failed
