import random

import pytest

from boxsat import Box, Clause, CnfProblem, parse_dimacs

EXAMPLE1_TEXT = "p cnf 3 3\n1 2 0\n1 -2 0\n2 3 0\n"


@pytest.fixture
def example1() -> CnfProblem:
    """(x1 v x2) & (x1 v -x2) & (x2 v x3): the three-model toy instance."""
    return parse_dimacs(EXAMPLE1_TEXT)


def random_clause(rng: random.Random, n: int, width_hi: int = 5) -> Clause:
    width = min(rng.randint(1, width_hi), n)
    variables = rng.sample(range(1, n + 1), width)
    return Clause([v if rng.random() < 0.5 else -v for v in variables])


def random_cnf(rng: random.Random, n: int, m: int, width_hi: int = 5) -> CnfProblem:
    return CnfProblem(n, [random_clause(rng, n, width_hi) for _ in range(m)])


def component_cnf(rng: random.Random, n: int) -> CnfProblem:
    """A random formula over n variables split into one to four groups of
    scattered variables, each clause inside one group; a group may get no
    clause, and about one formula in thirty gets the empty clause."""
    variables = rng.sample(range(1, n + 1), n)
    ends = sorted(rng.sample(range(1, n), min(rng.randint(0, 3), n - 1)))
    clauses = []
    for lo, hi in zip([0] + ends, ends + [n]):
        group = variables[lo:hi]
        if rng.random() < 0.2:
            continue  # free variables
        for _ in range(rng.randint(0, 2 * len(group))):
            width = rng.randint(1, min(len(group), 4))
            clauses.append(Clause([v if rng.random() < 0.5 else -v
                                   for v in rng.sample(group, width)]))
    if rng.random() < 1 / 30:
        clauses.append(Clause([]))
    return CnfProblem(n, clauses)


def chain_cnf(n: int) -> CnfProblem:
    """The connected chain (x_1 v x_2) & (x_2 v x_3) & ... over n variables,
    with Fibonacci(n + 2) models."""
    return CnfProblem(n, [Clause([i, i + 1]) for i in range(1, n)])


# the chain over 22 variables, untimed under the default configuration
CHAIN_22_MODELS = 46368
CHAIN_22_STEPS = 50601


def random_box(rng: random.Random, n: int, lambda_weight: int = 2) -> Box:
    from boxsat.boxes import Trit

    choices = [Trit.LAMBDA] * lambda_weight + [Trit.FALSE, Trit.TRUE]
    return Box.from_trits(rng.choice(choices) for _ in range(n))


def satisfies(assignment_bits: int, clause: Clause) -> bool:
    """Independent truth check: variable v is true iff bit v-1 is set."""
    return any(
        ((assignment_bits >> (abs(l) - 1)) & 1) == (1 if l > 0 else 0)
        for l in clause.literals
    )


def point_of_assignment(bits: int, n: int) -> Box:
    """Full point for an assignment under the identity ordering."""
    from boxsat.boxes import Trit

    return Box.from_trits(
        Trit.TRUE if (bits >> v) & 1 else Trit.FALSE for v in range(n)
    )
