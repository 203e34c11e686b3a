"""brute_count's big-int truth columns against the assignment-by-assignment
scan of brute_models."""

import random

from boxsat import Clause, CnfProblem
from boxsat.oracle import brute_count, brute_models

from conftest import random_cnf


def reference(cnf: CnfProblem) -> int:
    return len(brute_models(cnf))


def test_matches_brute_models_on_random_formulas():
    rng = random.Random(1212)
    for _ in range(150):
        n = rng.randint(1, 14)
        cnf = random_cnf(rng, n, rng.randint(0, 4 * n), rng.randint(1, 6))
        assert brute_count(cnf) == reference(cnf), cnf


def test_edge_cases():
    cases = [
        CnfProblem(0, []),
        CnfProblem(0, [Clause([])]),
        CnfProblem(3, [Clause([])]),
        CnfProblem(3, [Clause([1, -1])]),
        CnfProblem(3, [Clause([2, -2, 3]), Clause([-3])]),
        CnfProblem(3, [Clause([1]), Clause([-2]), Clause([3])]),
        CnfProblem(3, [Clause([1]), Clause([-1])]),
        CnfProblem(4, [Clause([4, 4, -1]), Clause([-4, -4])]),
    ]
    for cnf in cases:
        assert brute_count(cnf) == reference(cnf), cnf
    assert [brute_count(c) for c in cases] == [1, 0, 0, 8, 4, 1, 0, 4]


def test_disjoint_blocks_at_20_and_24_variables():
    rng = random.Random(2424)
    for n, width in ((20, 5), (24, 6)):
        clauses, expected = [], 1
        for first in range(0, n, width):
            block = random_cnf(rng, width, rng.randint(1, 2 * width), 3)
            while not reference(block):
                block = random_cnf(rng, width, rng.randint(1, 2 * width), 3)
            expected *= reference(block)
            clauses += [
                Clause([l + first if l > 0 else l - first for l in cl.literals])
                for cl in block.clauses
            ]
        cnf = CnfProblem(n, clauses)
        assert expected > 1
        assert brute_count(cnf) == expected
