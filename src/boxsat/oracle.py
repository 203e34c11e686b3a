"""Brute-force reference implementations.

Everything here recomputes answers the slow, obvious way — truth tables,
linear scans, direct enumeration — sharing no logic with the solver or the
trie.  The test suite checks the fast paths against these, and the CLI's
``--verify`` flag cross-checks counts for small instances.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .benchgen import GraphQuerySpec, InputGraph
from .boxes import Box, Trit
from .cnf import Clause, CnfProblem

BRUTE_LIMIT = 24


class OracleLimitError(ValueError):
    pass


def brute_count(cnf: CnfProblem) -> int:
    """Model count over the full truth table of all 2^n assignments (n <= 24).

    Each variable is one 2^n-bit int column whose bit a is set when the
    variable is true in assignment a (bit v - 1 of a for variable v).  A
    clause's column is the OR of its literals' columns, and the models are
    the set bits of the AND over all clauses.
    """
    n = cnf.variable_count
    if n > BRUTE_LIMIT:
        raise OracleLimitError(f"brute counting capped at {BRUTE_LIMIT} variables")
    size = 1 << n
    every = (1 << size) - 1
    true_in = [0]
    for v in range(1, n + 1):
        half = 1 << (v - 1)
        # one period, half zeros then half ones, doubled until it fills 2^n bits
        column, width = ((1 << half) - 1) << half, 2 * half
        while width < size:
            column |= column << width
            width *= 2
        true_in.append(column)
    models = every
    for cl in cnf.clauses:
        satisfied = 0
        for lit in cl.literals:
            satisfied |= true_in[lit] if lit > 0 else every ^ true_in[-lit]
        models &= satisfied
    return models.bit_count()


def brute_models(cnf: CnfProblem) -> list[tuple[int, ...]]:
    """All satisfying assignments as signed-literal tuples (n <= 16)."""
    n = cnf.variable_count
    if n > 16:
        raise OracleLimitError("brute enumeration capped at 16 variables")
    out = []
    for a in range(1 << n):
        good = True
        for cl in cnf.clauses:
            if not any(((a >> (abs(l) - 1)) & 1) == (1 if l > 0 else 0) for l in cl.literals):
                good = False
                break
        if good:
            out.append(tuple(v if (a >> (v - 1)) & 1 else -v for v in range(1, n + 1)))
    return out


def _contains_trits(b: Sequence[Trit], c: Sequence[Trit]) -> bool:
    return all(x is Trit.LAMBDA or x is y for x, y in zip(b, c))


def linear_containing(boxes: Iterable[Box], q: Box) -> list[Box]:
    """Stored boxes containing ``q``, by direct trit comparison."""
    qt = q.trits
    out = []
    for b in boxes:
        if b.n != q.n:
            raise ValueError("box length mismatch")
        if _contains_trits(b.trits, qt):
            out.append(b)
    return out


def resolve_clauses(c1: Clause, c2: Clause) -> Clause:
    """Textbook clause resolution on the unique pivot variable."""
    pivots = sorted({abs(l) for l in c1.literals if -l in c2.literals})
    if len(pivots) != 1:
        raise ValueError(f"expected exactly one pivot, found {pivots}")
    p = pivots[0]
    return Clause(
        [l for l in c1.literals if abs(l) != p]
        + [l for l in c2.literals if abs(l) != p]
    )


def grouped_optimal_groups(cnf: CnfProblem) -> list[tuple[int, ...]]:
    """The groups the grouped-optimal ordering takes, by exhaustive scan.

    Closeness of two variables is 1/(size of the smallest clause holding
    both - 1), as an exact fraction.  Each round takes, among all 4-subsets
    of the variables not yet grouped, the one with the largest closeness sum
    over its six pairs, then the largest degree sum (clauses per variable),
    then the lexicographically smallest sorted tuple.
    """
    n = cnf.variable_count
    degree = [0] * (n + 1)
    smallest: dict[tuple[int, int], int] = {}
    for cl in cnf.clauses:
        vs = sorted({abs(l) for l in cl.literals})
        for v in vs:
            degree[v] += 1
        for pair in combinations(vs, 2):
            smallest[pair] = min(smallest.get(pair, len(vs)), len(vs))
    closeness = {pair: Fraction(1, size - 1) for pair, size in smallest.items()}

    def key(group: tuple[int, ...]):
        together = sum(closeness.get(pair, 0) for pair in combinations(group, 2))
        return -together, -sum(degree[v] for v in group), group

    # Exact sums over all C(n, 4) subsets take seconds at n = 45, so each
    # round ranks by float sums first.  A float sum of six closeness values
    # is off by under 1e-14, so every subset whose exact sum is the largest
    # lies within 1e-9 of the largest float sum; exact keys decide among those.
    approx = {pair: float(c) for pair, c in closeness.items()}
    scored = [
        (sum(approx.get(pair, 0.0) for pair in combinations(group, 2)), group)
        for group in combinations(range(1, n + 1), 4)
    ]
    groups = []
    while scored:
        top = max(f for f, _ in scored)
        best = min((g for f, g in scored if f >= top - 1e-9), key=key)
        groups.append(best)
        taken = set(best)
        scored = [(f, g) for f, g in scored if taken.isdisjoint(g)]
    return groups


def count_subgraphs(graph: InputGraph, query: GraphQuerySpec) -> int:
    """Direct enumeration of query matches under the generator's conventions.

    Cliques count unordered vertex sets; paths count vertex sequences with
    distinct consecutive vertices and strictly increasing endpoints.
    """
    if graph.vertex_count > 64:
        raise OracleLimitError("subgraph oracle capped at 64 vertices")
    if query.size > 3:
        raise OracleLimitError("subgraph oracle capped at size 3")
    adj = graph.adjacency()
    if query.kind == "clique":
        if query.size == 2:
            return len(graph.edges)
        return sum(
            1
            for a, b, c in combinations(range(graph.vertex_count), 3)
            if b in adj[a] and c in adj[a] and c in adj[b]
        )
    if query.size == 2:
        return len(graph.edges)  # one per edge, endpoints ordered low < high
    total = 0
    for mid in range(graph.vertex_count):
        for a, c in combinations(sorted(adj[mid]), 2):
            total += 1  # a < c by construction; a-mid-c walks a path once
    return total
