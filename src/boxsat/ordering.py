"""Global variable ordering strategies.

The sweep solver fixes one variable order up front, and both the probe
advancement and the trie clustering live or die by it.  Two working
principles drive the heuristics here: put high-degree variables early (fewer
divergent branches deep in the sweep), and pack strongly co-occurring
variables into the same 4-wide cluster (one mask intersection recovers the
whole constraint).

Closeness between two variables is 1/(size of the smallest clause containing
both - 1).  All arithmetic on closeness uses exact scaled integers so that
tie-breaks never depend on float rounding.

Every strategy ends with the variables that occur in no clause, in
increasing order.  Every probe ends in F over that free tail, so the gap
box the sweep widens a model probe to spans at least those positions.

``build_order`` keeps every connected component of the clause variables
contiguous: two variables are connected when some clause holds both.  It
regroups the strategy's order stably, components in the order their first
variable appears and each keeping its variables' relative order, with the
free tail last; an order over one component comes back unchanged.  No clause
box then fixes positions on both sides of a component boundary, and the
count-mode sweep counts the suffix past such a boundary once (see
``solver``'s "Suffix counts").  The components come from the statistics
pass the strategy makes anyway.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .cnf import CnfProblem, VariableOrder


@dataclass
class VariableStats:
    degree: list[int]  # 1-based; degree[0] unused
    pair_min_size: dict[tuple[int, int], int]  # (u, v) u<v -> smallest co-clause size
    # 1-based: a clause variable's component, named by one of its variables;
    # 0 for a variable in no clause
    component: list[int]

    @property
    def component_count(self) -> int:
        """The connected components of the clause variables."""
        return len(set(self.component) - {0})

    def scaled_closeness(self) -> dict[tuple[int, int], int]:
        """Each pair's closeness times the LCM of the occurring denominators,
        which makes every value an exact int."""
        scale = math.lcm(*{s - 1 for s in self.pair_min_size.values()})
        return {pair: scale // (s - 1) for pair, s in self.pair_min_size.items()}


def _variable_sets(cnf: CnfProblem) -> Counter[tuple[int, ...]]:
    """Each distinct clause variable set, sorted, with its multiplicity.

    Generated formulas repeat a few clause shapes many times over (a
    triangle query has thousands of clauses on a handful of variable sets),
    so the statistics loop once per set instead of once per clause.
    """
    sets = Counter(frozenset(map(abs, cl.literals)) for cl in cnf.clauses)
    return Counter({tuple(sorted(vs)): copies for vs, copies in sets.items()})


def compute_stats(cnf: CnfProblem) -> VariableStats:
    n = cnf.variable_count
    degree = [0] * (n + 1)
    pair_min: dict[tuple[int, int], int] = {}
    parent = list(range(n + 1))  # union-find over the variables

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for vs, copies in _variable_sets(cnf).items():
        size = len(vs)
        for v in vs:
            degree[v] += copies
        for pair in combinations(vs, 2):
            old = pair_min.get(pair)
            if old is None or size < old:
                pair_min[pair] = size
        if size > 1:
            r = root(vs[0])
            for v in vs[1:]:
                parent[root(v)] = r
    component = [root(v) if degree[v] else 0 for v in range(n + 1)]
    return VariableStats(degree, pair_min, component)


def _degree_descent(variables: Iterable[int], stats: VariableStats) -> list[int]:
    return sorted(variables, key=lambda v: (-stats.degree[v], v))


def order_naive_degree(cnf: CnfProblem, stats: VariableStats | None = None) -> VariableOrder:
    stats = stats or compute_stats(cnf)
    return VariableOrder(_degree_descent(range(1, cnf.variable_count + 1), stats))


def order_grouped_heuristic(cnf: CnfProblem, stats: VariableStats | None = None) -> VariableOrder:
    """Greedy groups of four: seed by degree, grow by closeness to the group.

    Variables in no clause have degree 0 and closeness 0 to everything, so
    they lose every choice while a clause variable is left.  The loop scans
    the clause variables only; the free ones, in increasing order, fill the
    group in which the clause variables run out and then follow.
    """
    stats = stats or compute_stats(cnf)
    degree = stats.degree
    near: dict[int, dict[int, int]] = {}
    for (u, v), w in stats.scaled_closeness().items():
        near.setdefault(u, {})[v] = w
        near.setdefault(v, {})[u] = w
    variables = range(1, cnf.variable_count + 1)
    free = [v for v in variables if not degree[v]]
    remaining = {v for v in variables if degree[v]}
    out: list[int] = []
    while remaining and len(remaining) + len(free) >= 4:
        seed = min(remaining, key=lambda v: (-degree[v], v))
        group = [seed]
        remaining.discard(seed)
        closeness: dict[int, int] = {}  # scaled closeness to the group so far
        for _ in range(3):
            if not remaining:
                break  # the free variables fill the group's rest
            for u, w in near.get(group[-1], {}).items():
                closeness[u] = closeness.get(u, 0) + w
            best = min(remaining, key=lambda v: (-closeness.get(v, 0), -degree[v], v))
            group.append(best)
            remaining.discard(best)
        out.extend(group)
    out.extend(_degree_descent(remaining, stats))
    out.extend(free)
    return VariableOrder(out)


# grouped-optimal holds every 4-subset of the clause variables at once, with
# its sort key.  The cap admits up to 71 clause variables; there the ordering
# peaks 125-145 MB above the rest of the process.
MAX_GROUP_SUBSETS = 1_000_000


def order_grouped_optimal(cnf: CnfProblem, stats: VariableStats | None = None) -> VariableOrder:
    """Exhaustive grouping: among all 4-subsets of the remaining clause
    variables, repeatedly take the one with maximal interconnectedness
    (ties: larger degree sum, then lexicographically smaller variable tuple).
    The variables in no clause follow, in increasing order.

    A subset's key never changes and subsets only drop out, so each round's
    choice is the first subset of one descending sort whose variables are
    all still ungrouped; the sort is stable over ``combinations``'
    lexicographic order, which breaks the ties.  It holds every 4-subset in
    memory at once, so it raises ``ValueError`` when there are more than
    ``MAX_GROUP_SUBSETS`` of them.  Counting the free variables too would
    change no group: a subset with a free variable has a strictly smaller
    key than one with a clause variable in its place.
    """
    stats = stats or compute_stats(cnf)
    degree = stats.degree
    variables = range(1, cnf.variable_count + 1)
    clause_vars = [v for v in variables if degree[v]]
    m = len(clause_vars)
    subsets = math.comb(m, 4)
    if subsets > MAX_GROUP_SUBSETS:
        raise ValueError(
            f"grouped-optimal needs all C({m}, 4) = {subsets:,} 4-subsets of the "
            f"clause variables, above its cap of {MAX_GROUP_SUBSETS:,}; "
            "choose another ordering"
        )
    # the tables run over the clause variables' indices, which keep their
    # order, so they stay small however many free variables there are
    index = {v: i for i, v in enumerate(clause_vars)}
    theta = [[0] * m for _ in range(m)]
    for (u, v), w in stats.scaled_closeness().items():
        theta[index[u]][index[v]] = theta[index[v]][index[u]] = w
    deg = [degree[v] for v in clause_vars]
    above = 4 * max(degree) + 1  # exceeds every degree sum

    def key(group: tuple[int, ...]) -> int:
        a, b, c, d = group
        ta, tb = theta[a], theta[b]
        together = ta[b] + ta[c] + ta[d] + tb[c] + tb[d] + theta[c][d]
        return together * above + deg[a] + deg[b] + deg[c] + deg[d]

    grouped: set[int] = set()
    out: list[int] = []
    for group in sorted(combinations(range(m), 4), key=key, reverse=True):
        if grouped.isdisjoint(group):
            grouped.update(group)
            out.extend(_degree_descent((clause_vars[i] for i in group), stats))
            if len(grouped) + 4 > m:
                break  # too few ungrouped clause variables left for another group
    out.extend(_degree_descent((v for i, v in enumerate(clause_vars) if i not in grouped), stats))
    out.extend(v for v in variables if not degree[v])
    return VariableOrder(out)


# -- elimination orderings on the primal graph ----------------------------


def _fill_count(adj: dict[int, set[int]], v: int) -> int:
    nbrs = sorted(adj[v])
    return sum(1 for a, b in combinations(nbrs, 2) if b not in adj[a])


def _eliminate_greedily(
    cnf: CnfProblem,
    key: Callable[[dict[int, set[int]], int], tuple],
    stats: VariableStats | None,
) -> VariableOrder:
    """Eliminate the vertex of least ``key(adj, u)`` until the primal graph
    is empty, joining its neighbours pairwise each time; variables in no
    clause follow.  The primal graph's vertices are the clause variables
    and its edges the co-occurring pairs, which the statistics list."""
    stats = stats or compute_stats(cnf)
    variables = range(1, cnf.variable_count + 1)
    adj: dict[int, set[int]] = {v: set() for v in variables if stats.degree[v]}
    for u, v in stats.pair_min_size:
        adj[u].add(v)
        adj[v].add(u)
    free = [v for v in variables if not stats.degree[v]]
    out = []
    while adj:
        v = min(adj, key=lambda u: key(adj, u))
        out.append(v)
        nbrs = adj.pop(v)
        for a in nbrs:
            adj[a].discard(v)
        for a, b in combinations(sorted(nbrs), 2):
            adj[a].add(b)
            adj[b].add(a)
    return VariableOrder(out + free)


def order_minfill(cnf: CnfProblem, stats: VariableStats | None = None) -> VariableOrder:
    """Eliminate the vertex adding the fewest fill edges first; variables in
    no clause follow."""
    return _eliminate_greedily(cnf, lambda adj, u: (_fill_count(adj, u), len(adj[u]), u), stats)


def order_treewidth(cnf: CnfProblem, stats: VariableStats | None = None) -> VariableOrder:
    """Greedy minimum-degree elimination, a standard treewidth surrogate;
    variables in no clause follow."""
    return _eliminate_greedily(cnf, lambda adj, u: (len(adj[u]), _fill_count(adj, u), u), stats)


# each takes the formula and, optionally, its statistics, computed if omitted
ORDERING_STRATEGIES: dict[str, Callable[..., VariableOrder]] = {
    "naive-degree": order_naive_degree,
    "grouped-optimal": order_grouped_optimal,
    "grouped-heuristic": order_grouped_heuristic,
    "treewidth": order_treewidth,
    "minfill": order_minfill,
}


def _components_contiguous(order: Sequence[int], component: list[int]) -> list[int]:
    """``order`` regrouped stably by ``component``: groups in the order of
    their first variable, each keeping its variables' relative order."""
    groups: dict[int, list[int]] = {}
    for v in order:
        groups.setdefault(component[v], []).append(v)
    return [v for group in groups.values() for v in group]


def build_order(
    cnf: CnfProblem, strategy: str, stats: VariableStats | None = None
) -> VariableOrder:
    """The named strategy's order, which already ends with the free tail,
    with every connected component of the clause variables made contiguous.
    The free variables form one group, which stays last.  ``stats``, when
    given, is ``compute_stats(cnf)`` already taken."""
    try:
        fn = ORDERING_STRATEGIES[strategy]
    except KeyError:
        raise ValueError(
            f"unknown ordering {strategy!r}; choose from {sorted(ORDERING_STRATEGIES)}"
        ) from None
    stats = stats or compute_stats(cnf)
    order = fn(cnf, stats).as_sequence()
    return VariableOrder(_components_contiguous(order, stats.component))
