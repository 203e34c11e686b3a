import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from boxsat import Clause, CnfProblem, build_order, compute_stats
from boxsat.ordering import (
    ORDERING_STRATEGIES,
    _variable_sets,
    order_grouped_heuristic,
    order_grouped_optimal,
    order_minfill,
    order_naive_degree,
    order_treewidth,
)
from boxsat.oracle import brute_count, grouped_optimal_groups
from boxsat.solver import SolverConfig, run

from conftest import random_cnf


def cnf(n, *clauses):
    return CnfProblem(n, [Clause(c) for c in clauses])


EXAMPLE1 = cnf(3, [1, 2], [1, -2], [2, 3])


class TestStats:
    def test_example1_degrees(self):
        stats = compute_stats(EXAMPLE1)
        assert stats.degree[1:] == [2, 3, 1]

    def test_closeness_smallest_clause_wins(self):
        stats = compute_stats(cnf(3, [1, 2], [1, 2, 3]))
        assert stats.pair_min_size == {(1, 2): 2, (1, 3): 3, (2, 3): 3}

    def test_single_variable_clause_has_no_pairs(self):
        stats = compute_stats(cnf(1, [1]))
        assert stats.pair_min_size == {}

    def test_absent_pair_is_zero(self):
        stats = compute_stats(cnf(4, [1, 2]))
        assert stats.pair_min_size == {(1, 2): 2}  # (1, 4) share no clause


class TestNaiveDegree:
    def test_example1(self):
        assert order_naive_degree(EXAMPLE1).as_sequence() == (2, 1, 3)

    def test_all_ties_keep_identity(self):
        assert order_naive_degree(cnf(3, [1, 2, 3])).as_sequence() == (1, 2, 3)

    def test_hub_first(self):
        problem = cnf(3, [3, 2], [3, 1], [3])
        assert order_naive_degree(problem).as_sequence()[0] == 3


class TestGroupedOptimal:
    def test_single_group_is_degree_descent(self):
        problem = cnf(4, [1, 2], [3, 4], [4, 1], [4])
        order = order_grouped_optimal(problem).as_sequence()
        assert set(order) == {1, 2, 3, 4}
        assert order[0] == 4  # highest degree leads inside the group

    def test_two_binary_cliques_form_two_groups(self):
        clauses = [list(p) for p in combinations([1, 2, 3, 4], 2)]
        clauses += [list(p) for p in combinations([5, 6, 7, 8], 2)]
        problem = cnf(8, *clauses)
        order = order_grouped_optimal(problem).as_sequence()
        assert set(order[:4]) in ({1, 2, 3, 4}, {5, 6, 7, 8})
        assert set(order[4:]) in ({1, 2, 3, 4}, {5, 6, 7, 8})
        assert set(order[:4]) != set(order[4:])

    def test_example1_degenerates_to_degree_descent(self):
        assert order_grouped_optimal(EXAMPLE1).as_sequence() == (2, 1, 3)

    def test_tables_grow_with_the_clause_variables_only(self):
        # a table over every variable would hold 3001² entries, about 72 MB
        import tracemalloc

        problem = cnf(3000, [1, 2], [-2, 3000])
        tracemalloc.start()
        try:
            order = order_grouped_optimal(problem).as_sequence()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        assert order == (2, 1, 3000, *range(3, 3000))

    def test_scan_and_vectorized_agree(self):
        rng = random.Random(77)
        problems = [random_cnf(rng, rng.randint(5, 12), rng.randint(3, 25)) for _ in range(12)]
        problems += [CnfProblem(n, [Clause([v]) for v in range(1, n + 1)]) for n in range(4)]
        # closeness denominators 1..44: scaled weights overflow int64
        problems.append(CnfProblem(45, [Clause(range(1, s + 1)) for s in range(2, 46)]))
        for problem in problems:
            scan = grouped_optimal_groups(problem)
            seq = order_grouped_optimal(problem).as_sequence()
            vectorized = [tuple(sorted(seq[i : i + 4])) for i in range(0, 4 * len(scan), 4)]
            assert scan == vectorized


class TestGroupedHeuristic:
    def test_example1_seeds_highest_degree(self):
        assert order_grouped_heuristic(EXAMPLE1).as_sequence()[0] == 2

    def test_connectivity_beats_degree(self):
        # x5 co-occurs with the seed group; x6 has higher degree but no
        # closeness to it, so x5 takes the fourth slot
        problem = cnf(6, [1, 2], [1, 3], [2, 3], [1, 5], [6], [6])
        order = order_grouped_heuristic(problem).as_sequence()
        assert order[:4] == (1, 2, 3, 5)

    def test_matches_optimal_group_when_n_is_4(self):
        rng = random.Random(3)
        for _ in range(10):
            problem = random_cnf(rng, 4, rng.randint(1, 10))
            a = set(order_grouped_heuristic(problem).as_sequence()[:4])
            b = set(order_grouped_optimal(problem).as_sequence()[:4])
            assert a == b == {1, 2, 3, 4}


def independent_fill(adj, v):
    nbrs = list(adj[v])
    return sum(
        1
        for i in range(len(nbrs))
        for j in range(i + 1, len(nbrs))
        if nbrs[j] not in adj[nbrs[i]]
    )


class TestMinfill:
    def test_tree_eliminates_leaves_first(self):
        # star with hub 4: every leaf elimination is fill-free
        problem = cnf(4, [4, 1], [4, 2], [4, 3])
        assert order_minfill(problem).as_sequence() == (1, 2, 3, 4)

    def test_four_cycle_first_elimination_fills_one(self):
        problem = cnf(4, [1, 2], [2, 3], [3, 4], [4, 1])
        adj = {
            1: {2, 4},
            2: {1, 3},
            3: {2, 4},
            4: {1, 3},
        }
        assert min(independent_fill(adj, v) for v in adj) == 1
        order = order_minfill(problem).as_sequence()
        assert order[0] == 1  # fill ties broken by id

    def test_example1_starts_at_a_path_end(self):
        assert order_minfill(EXAMPLE1).as_sequence()[0] in (1, 3)


class TestTreewidth:
    def test_star_leaves_before_hub(self):
        problem = cnf(5, [5, 1], [5, 2], [5, 3], [5, 4])
        order = order_treewidth(problem).as_sequence()
        assert order == (1, 2, 3, 4, 5)

    def test_path_endpoints_first(self):
        problem = cnf(4, [1, 2], [2, 3], [3, 4])
        assert order_treewidth(problem).as_sequence()[0] in (1, 4)

    def test_complete_graph_breaks_ties_by_id(self):
        clauses = [list(p) for p in combinations([1, 2, 3, 4], 2)]
        problem = cnf(4, *clauses)
        assert order_treewidth(problem).as_sequence() == (1, 2, 3, 4)


class TestStrategyContracts:
    def test_every_strategy_returns_permutation(self):
        rng = random.Random(11)
        for _ in range(8):
            n = rng.randint(1, 14)
            problem = random_cnf(rng, n, rng.randint(0, 3 * n))
            for name in ORDERING_STRATEGIES:
                order = build_order(problem, name)
                assert sorted(order.as_sequence()) == list(range(1, n + 1))

    def test_naive_degree_nonincreasing(self):
        rng = random.Random(13)
        for _ in range(8):
            n = rng.randint(2, 14)
            problem = random_cnf(rng, n, rng.randint(0, 3 * n))
            stats = compute_stats(problem)
            seq = order_naive_degree(problem).as_sequence()
            degrees = [stats.degree[v] for v in seq]
            assert degrees == sorted(degrees, reverse=True)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            build_order(EXAMPLE1, "alphabetical")

    def test_count_invariant_across_strategies(self):
        rng = random.Random(29)
        for _ in range(6):
            n = rng.randint(2, 10)
            problem = random_cnf(rng, n, rng.randint(0, 3 * n))
            want = brute_count(problem)
            for name in ORDERING_STRATEGIES:
                got = run(problem, SolverConfig(ordering=name)).count
                assert got == want


def reference_stats(problem):
    """Degrees and smallest co-clause sizes, one clause at a time."""
    degree = [0] * (problem.variable_count + 1)
    pair_min = {}
    for cl in problem.clauses:
        vs = sorted({abs(l) for l in cl.literals})
        for v in vs:
            degree[v] += 1
        for pair in combinations(vs, 2):
            pair_min[pair] = min(pair_min.get(pair, len(vs)), len(vs))
    return degree, pair_min


def reference_grouped_heuristic(problem):
    """The greedy grouping with exact Fraction closeness sums."""
    degree, pair_min = reference_stats(problem)

    def theta(u, v):
        size = pair_min.get((min(u, v), max(u, v)))
        return Fraction(0) if size is None else Fraction(1, size - 1)

    remaining = set(range(1, problem.variable_count + 1))
    out = []
    while len(remaining) >= 4:
        group = [min(remaining, key=lambda v: (-degree[v], v))]
        remaining.discard(group[0])
        for _ in range(3):
            best = min(
                remaining,
                key=lambda v: (-sum(theta(v, g) for g in group), -degree[v], v),
            )
            group.append(best)
            remaining.discard(best)
        out.extend(group)
    out.extend(sorted(remaining, key=lambda v: (-degree[v], v)))
    return tuple(out)


class TestAgainstPerClauseReference:
    def test_stats_and_grouped_heuristic(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(1, 20)
            problem = random_cnf(rng, n, rng.randint(0, 4 * n), width_hi=rng.randint(1, 6))
            # repeated clause shapes are what the statistics fold together
            problem.clauses += rng.sample(problem.clauses, len(problem.clauses) // 2)
            degree, pair_min = reference_stats(problem)
            stats = compute_stats(problem)
            assert stats.degree == degree
            assert stats.pair_min_size == pair_min
            got = order_grouped_heuristic(problem).as_sequence()
            assert got == reference_grouped_heuristic(problem)

    def test_variable_sets_in_first_arrival_order(self):
        rng = random.Random(37)
        for _ in range(100):
            n = rng.randint(1, 12)
            problem = random_cnf(rng, n, rng.randint(0, 3 * n), width_hi=rng.randint(1, 6))
            # the same variables under other signs make one variable set
            problem.clauses += [Clause(-l if rng.random() < 0.5 else l for l in cl.literals)
                                for cl in rng.sample(problem.clauses, len(problem.clauses) // 2)]
            want = Counter(tuple(sorted({abs(l) for l in cl.literals})) for cl in problem.clauses)
            got = _variable_sets(problem)
            assert list(got.items()) == list(want.items())


class TestFreeVariablesLast:
    def test_elimination_orders(self):
        # minimum degree and minimum fill would eliminate 4..8 first
        problem = cnf(8, [1, 2], [-2, 3])
        for name in ("minfill", "treewidth"):
            assert build_order(problem, name).as_sequence()[3:] == (4, 5, 6, 7, 8)

    def test_every_strategy_ends_with_free_variables(self):
        rng = random.Random(17)
        for _ in range(10):
            n = rng.randint(1, 24)
            # variables past the random formula's range occur in no clause
            clauses = random_cnf(rng, rng.randint(1, n), rng.randint(0, 2 * n)).clauses
            problem = CnfProblem(n, clauses)
            used = {abs(l) for c in problem.clauses for l in c.literals}
            for name, strategy in ORDERING_STRATEGIES.items():
                seq = build_order(problem, name).as_sequence()
                k = len(used)
                assert set(seq[:k]) == used, name
                # the clause variables keep the strategy's relative order
                assert seq[:k] == tuple(v for v in strategy(problem).as_sequence() if v in used)


def reference_elimination(problem, key):
    """Greedy elimination over the primal graph with every variable a
    vertex, isolated ones included, taking the vertex of least ``key``."""
    adj = {v: set() for v in range(1, problem.variable_count + 1)}
    for cl in problem.clauses:
        for u, v in combinations(sorted({abs(l) for l in cl.literals}), 2):
            adj[u].add(v)
            adj[v].add(u)
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
    return tuple(out)


def padded(rng, k, free):
    """A random formula on k variables, scattered over k + free."""
    core = random_cnf(rng, k, rng.randint(0, 3 * k))
    spread = dict(zip(range(1, k + 1), rng.sample(range(1, k + free + 1), k)))
    return CnfProblem(
        k + free,
        [Clause(spread[abs(l)] * (1 if l > 0 else -1) for l in c.literals) for c in core.clauses],
    )


def reference_components_contiguous(problem, seq):
    """``seq`` with each connected component of the clause variables made
    contiguous: components labelled by a breadth-first search over shared
    clauses, in the order ``seq`` first meets them, each keeping its
    variables' order in ``seq``; the variables in no clause follow, also in
    ``seq``'s order."""
    neighbours = {v: set() for v in range(1, problem.variable_count + 1)}
    for cl in problem.clauses:
        vs = {abs(l) for l in cl.literals}
        for v in vs:
            neighbours[v] |= vs
    label = {}
    for v in seq:
        if v in label or not neighbours[v]:
            continue
        label[v] = v
        frontier = [v]
        while frontier:
            frontier = [w for u in frontier for w in neighbours[u] if w not in label]
            label.update((w, v) for w in frontier)
    firsts = list(dict.fromkeys(label[v] for v in seq if v in label))
    return tuple(
        [v for first in firsts for v in seq if label.get(v) == first]
        + [v for v in seq if v not in label]
    )


class TestStrategiesOwnTheFreeTail:
    def test_raw_order_ends_with_the_free_variables(self):
        # build_order only regroups the strategy's order by component, so
        # each strategy must itself end with the free variables, in order
        rng = random.Random(44)
        residues = set()
        for _ in range(60):
            # n <= 30 keeps grouped-optimal far under its cap
            problem = padded(rng, rng.randint(1, 14), rng.randint(0, 16))
            used = {abs(l) for c in problem.clauses for l in c.literals}
            residues.add(len(used) % 4)
            free = tuple(v for v in range(1, problem.variable_count + 1) if v not in used)
            for name, strategy in ORDERING_STRATEGIES.items():
                seq = strategy(problem).as_sequence()
                assert seq[len(used):] == free, name
                want = reference_components_contiguous(problem, seq)
                assert build_order(problem, name).as_sequence() == want, name
        # the clause variables left over after the last group of four come
        # before the free ones, so every remainder must occur
        assert residues == {0, 1, 2, 3}


class TestFreeVariablesOutOfTheLoops:
    def test_build_order_matches_loops_over_every_variable(self):
        rng = random.Random(43)
        for _ in range(150):
            problem = padded(rng, rng.randint(1, 12), rng.randint(0, 20))
            used = {abs(l) for c in problem.clauses for l in c.literals}
            references = {
                "grouped-heuristic": reference_grouped_heuristic(problem),
                "minfill": reference_elimination(
                    problem, lambda adj, u: (independent_fill(adj, u), len(adj[u]), u)),
                "treewidth": reference_elimination(
                    problem, lambda adj, u: (len(adj[u]), independent_fill(adj, u), u)),
            }
            for name, seq in references.items():
                free_last = [v for v in seq if v in used] + [v for v in seq if v not in used]
                want = reference_components_contiguous(problem, free_last)
                assert build_order(problem, name).as_sequence() == want, name
            # grouped-heuristic still places the free variables where the
            # loop over every variable did
            assert order_grouped_heuristic(problem).as_sequence() == references["grouped-heuristic"]


def planted_components(rng, sizes, free):
    """A random formula whose clause variables fall into groups of the given
    sizes, each group connected by a chain of binary clauses, with ``free``
    variables in no clause; all scattered over the variable range."""
    n = sum(sizes) + free
    variables = rng.sample(range(1, n + 1), n)
    groups, at = [], 0
    for size in sizes:
        groups.append(variables[at:at + size])
        at += size
    clauses = []
    for g in groups:
        clauses += [Clause([u, -w]) for u, w in zip(g, g[1:])]
        clauses += [Clause(rng.sample(g, rng.randint(1, len(g))))
                    for _ in range(rng.randint(0, len(g)))]
        if len(g) == 1:
            clauses.append(Clause([g[0]]))
    rng.shuffle(clauses)
    return CnfProblem(n, clauses), groups


class TestComponentsContiguous:
    def test_stats_find_the_planted_components(self):
        rng = random.Random(0xC0)
        for _ in range(60):
            sizes = [rng.randint(1, 5) for _ in range(rng.randint(0, 5))]
            problem, groups = planted_components(rng, sizes, rng.randint(0, 4))
            stats = compute_stats(problem)
            assert stats.component_count == len(groups)
            for g in groups:
                assert len({stats.component[v] for v in g}) == 1
            assert len({stats.component[g[0]] for g in groups}) == len(groups)
            free = set(range(1, problem.variable_count + 1)).difference(*groups)
            assert all(stats.component[v] == 0 for v in free)

    def test_every_strategy_keeps_components_contiguous(self):
        rng = random.Random(0xC1)
        split = 0
        for _ in range(40):
            sizes = [rng.randint(1, 5) for _ in range(rng.randint(1, 5))]
            problem, groups = planted_components(rng, sizes, rng.randint(0, 4))
            split += len(groups) > 1
            for name, strategy in ORDERING_STRATEGIES.items():
                seq = build_order(problem, name).as_sequence()
                position = {v: i for i, v in enumerate(seq)}
                for g in groups:
                    at = sorted(position[v] for v in g)
                    assert at == list(range(at[0], at[0] + len(g))), name
                assert seq[sum(sizes):] == tuple(sorted(seq[sum(sizes):])), name
                raw = strategy(problem).as_sequence()
                assert seq == reference_components_contiguous(problem, raw), name
        assert split > 20

    def test_one_component_keeps_the_strategy_order(self):
        rng = random.Random(0xC2)
        for _ in range(40):
            problem, _ = planted_components(rng, [rng.randint(1, 12)], rng.randint(0, 6))
            for name, strategy in ORDERING_STRATEGIES.items():
                assert build_order(problem, name) == strategy(problem), name

    def test_one_statistics_pass(self, monkeypatch, tmp_path, capsys):
        # the components come from the pass the strategy reads, not a second
        # pass over the clauses; ``boxsat stats`` hands its own pass on
        import boxsat.ordering as ordering
        from boxsat.cli import EXIT_OK, main
        from boxsat.cnf import write_dimacs

        passes = []
        real = ordering._variable_sets
        monkeypatch.setattr(ordering, "_variable_sets", lambda cnf: passes.append(cnf) or real(cnf))
        problem, _ = planted_components(random.Random(0xC3), [3, 4, 2], 2)
        path = tmp_path / "parts.cnf"
        with open(path, "w") as out:
            write_dimacs(problem, out)
        for name in ORDERING_STRATEGIES:
            passes.clear()
            build_order(problem, name)
            assert len(passes) == 1, name
            passes.clear()
            assert main(["stats", str(path), "--ordering", name]) == EXIT_OK
            assert len(passes) == 1, name
        assert "components 3" in capsys.readouterr().out.splitlines()
