"""Seeded workload generators and their independent oracles.

Every workload turns one ``--seed`` into a fixed list of instances.  The
solver only ever sees an instance's DIMACS text; the generator keeps what
the oracle needs (the graph, the block groups, the clause list) on the side.
The oracles share no logic with the solver or the trie.
"""

from __future__ import annotations

import io
import random
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Any, Callable

from boxsat import SolveResult, SolverConfig, build_lookup_tables, parse_dimacs, run, write_dimacs
from boxsat.benchgen import GraphQuerySpec, InputGraph, generate_cnf, hidden_solution_blocks
from boxsat.cnf import Clause, CnfProblem

TRIANGLES_VERTICES = 50
TRIANGLES_EDGES = 100
TRIANGLES_PER_GRAPH = 12
MODELS_VARIABLES = 16
MODELS_CLAUSES = 5
MODELS_PER_INSTANCE = 32_256
BRUTE_LIMIT = 24


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # SolverConfig mode: "count" or "enumerate"
    instances: int  # instance-set size used by timed runs
    traced: int  # leading instances the traced run solves
    make: Callable[[random.Random], tuple[CnfProblem, Any]]
    oracle: Callable[[Any], Any]

    def config(self) -> SolverConfig:
        return SolverConfig(mode=self.mode)

    def sink(self) -> ModelSink | None:
        """A fresh model sink in enumerate mode, else None."""
        return ModelSink() if self.mode == "enumerate" else None


@dataclass(frozen=True)
class Instance:
    index: int
    seed: int
    dimacs: str
    variables: int
    clauses: int
    oracle_input: Any


# -- triangles: clique-3 queries over random sparse graphs -------------------


def make_triangles(rng: random.Random) -> tuple[CnfProblem, Any]:
    """Graphs are redrawn until they hold exactly TRIANGLES_PER_GRAPH
    triangles, so every instance has the same model count."""
    pool = list(combinations(range(TRIANGLES_VERTICES), 2))
    while True:
        edges = rng.sample(pool, TRIANGLES_EDGES)
        adj = [set() for _ in range(TRIANGLES_VERTICES)]
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        if sum(len(adj[u] & adj[v]) for u, v in edges) == 3 * TRIANGLES_PER_GRAPH:
            break
    graph = InputGraph(TRIANGLES_VERTICES, frozenset(edges))
    query = GraphQuerySpec("clique", 3)
    return generate_cnf(graph, query), (graph, query)


def oracle_triangles(data) -> int:
    from boxsat.oracle import count_subgraphs

    graph, query = data
    return count_subgraphs(graph, query)


# -- blocks: criterion-8 style hidden-solution block instances ----------------


def make_blocks(rng: random.Random) -> tuple[CnfProblem, Any]:
    """Instances are redrawn until only the planted solutions survive
    (256 models), which trims the heavy tail of sweep lengths."""
    while True:
        cnf, groups = hidden_solution_blocks(seed=rng.getrandbits(32))
        if _planted_only(cnf.clauses, groups):
            return cnf, (cnf.clauses, groups)


def _planted_only(clauses: list[Clause], groups: list[list[int]]) -> bool:
    """True when every block keeps exactly its planted assignments: two in
    even-numbered blocks, one in odd-numbered ones."""
    block_of = {v: b for b, vs in enumerate(groups) for v in vs}
    inside: list[list[frozenset[int]]] = [[] for _ in groups]
    for c in clauses:
        inside[block_of[abs(next(iter(c.literals)))]].append(c.literals)
    return all(
        _satisfying(inside[b], {v: i for i, v in enumerate(vs)}).bit_count() == 2 - b % 2
        for b, vs in enumerate(groups)
    )


@lru_cache(maxsize=None)
def _truth_columns(k: int) -> tuple[int, ...]:
    """Column i has bit a set when bit i of assignment a is set, over all
    2**k assignments: 2**i zeros then 2**i ones, repeated."""
    everything = (1 << (1 << k)) - 1
    return tuple(
        (((1 << (1 << i)) - 1) << (1 << i)) * (everything // ((1 << (2 << i)) - 1))
        for i in range(k)
    )


def _satisfying(clauses, position: dict[int, int]) -> int:
    """Bit set of the assignments to ``position``'s variables that satisfy
    every clause; bit a stands for the assignment giving variable v the
    value of bit position[v] of a."""
    columns = _truth_columns(len(position))
    true_set = {v: columns[i] for v, i in position.items()}
    alive = (1 << (1 << len(position))) - 1
    for lits in clauses:
        violated = alive
        for lit in lits:
            violated &= ~true_set[lit] if lit > 0 else true_set[-lit]
        alive &= ~violated
    return alive


def oracle_blocks(data) -> int:
    """Product of per-block brute-force counts (blocks share no variable)."""
    from boxsat.oracle import brute_count

    clauses, groups = data
    total = 1
    for vs in groups:
        renumber = {v: i + 1 for i, v in enumerate(vs)}
        inside = set(vs)
        sub = CnfProblem(
            len(vs),
            [
                Clause([(1 if l > 0 else -1) * renumber[abs(l)] for l in c.literals])
                for c in clauses
                if {abs(l) for l in c.literals} <= inside
            ],
        )
        total *= brute_count(sub)
    return total


# -- models: few-clause random 3-CNF, enumerated ------------------------------


def make_models(rng: random.Random) -> tuple[CnfProblem, Any]:
    """Formulas are redrawn until they have exactly MODELS_PER_INSTANCE
    models (the most common count), so every instance does the same work."""
    n = MODELS_VARIABLES
    position = {v: v - 1 for v in range(1, n + 1)}
    while True:
        clauses = []
        for _ in range(MODELS_CLAUSES):
            vs = rng.sample(range(1, n + 1), 3)
            clauses.append(Clause([v if rng.random() < 0.5 else -v for v in vs]))
        if _satisfying([c.literals for c in clauses], position).bit_count() == MODELS_PER_INSTANCE:
            return CnfProblem(n, clauses), (n, [sorted(c.literals) for c in clauses])


class ModelSink:
    """Folds streamed models into an order-independent fingerprint.

    The fingerprint is (count, sum of hashes mod 2**64, xor of hashes) over
    the signed-literal tuples, so a missing, extra or repeated model changes
    it while the emission order does not.
    """

    __slots__ = ("count", "total", "xor")

    def __init__(self):
        self.count = 0
        self.total = 0
        self.xor = 0

    def __call__(self, literals: tuple[int, ...]) -> None:
        h = hash(literals)
        self.count += 1
        self.total += h
        self.xor ^= h

    def fingerprint(self) -> tuple[int, int, int]:
        return (self.count, self.total % 2**64, self.xor)


def answer(count: int, sink: ModelSink | None):
    """A solve's answer in its oracle's shape: the count, or the count and
    the fingerprint of the streamed models."""
    return count if sink is None else (count, sink.fingerprint())


def oracle_models(data) -> tuple[int, tuple[int, int, int]]:
    """Fingerprint of the model set by numpy truth-table enumeration."""
    import numpy as np

    n, clauses = data
    if n > BRUTE_LIMIT:
        raise ValueError(f"brute enumeration capped at {BRUTE_LIMIT} variables")
    assigns = np.arange(1 << n, dtype=np.uint32)
    ok = np.ones(assigns.shape, dtype=bool)
    for lits in clauses:
        sat = np.zeros(assigns.shape, dtype=bool)
        for lit in lits:
            bit = (assigns >> (abs(lit) - 1)) & 1
            sat |= bit == (1 if lit > 0 else 0)
        ok &= sat
    models = assigns[ok]
    variables = np.arange(1, n + 1, dtype=np.int64)
    truth = ((models[:, None] >> (variables - 1).astype(np.uint32)) & 1).astype(bool)
    signed = np.where(truth, variables, -variables)
    sink = ModelSink()
    for row in signed.tolist():
        sink(tuple(row))
    return sink.count, sink.fingerprint()


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("triangles", "count", 10, 3, make_triangles, oracle_triangles),
        Workload("blocks", "count", 120, 6, make_blocks, oracle_blocks),
        Workload("models", "enumerate", 5, 2, make_models, oracle_models),
    )
}


def generate(workload: Workload, seed: int) -> list[Instance]:
    """The workload's instance set for ``seed``: same seed, same instances."""
    master = random.Random(seed)
    out = []
    for index in range(workload.instances):
        sub_seed = master.getrandbits(32)
        cnf, oracle_input = workload.make(random.Random(sub_seed))
        text = io.StringIO()
        write_dimacs(cnf, text)
        out.append(
            Instance(index, sub_seed, text.getvalue(), cnf.variable_count, cnf.clause_count,
                     oracle_input)
        )
    return out


def expected(workload: Workload, instance: Instance):
    """Oracle answer: a count, or a model-set fingerprint in enumerate mode."""
    return workload.oracle(instance.oracle_input)


class SolveTimeout(Exception):
    pass


@contextmanager
def time_limit(seconds: float):
    """Raise SolveTimeout in the main thread once ``seconds`` have passed."""

    def expire(signum, frame):
        raise SolveTimeout(f"solve exceeded {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def solve(workload: Workload, instance: Instance) -> tuple[Any, SolveResult, float]:
    """Solve as ``boxsat count``/``enumerate`` does, from DIMACS text.

    Returns the answer in the oracle's shape, the solver's result and the
    wall time from text to final count.
    """
    sink = workload.sink()
    t0 = time.perf_counter()
    cnf = parse_dimacs(instance.dimacs)
    result = run(cnf, workload.config(), on_model=sink)
    seconds = time.perf_counter() - t0
    return answer(result.count, sink), result, seconds
