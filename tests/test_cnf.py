import io
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from boxsat import (
    Box,
    Clause,
    CnfProblem,
    DimacsError,
    VariableOrder,
    box_to_clause,
    clause_to_box,
    parse_dimacs,
    write_dimacs,
)
from boxsat.boxes import Trit
from boxsat.cnf import point_to_literals

from conftest import point_of_assignment, satisfies

B = Box.parse


class TestParse:
    def test_example1(self, example1):
        assert example1.variable_count == 3
        assert [sorted(c.literals) for c in example1.clauses] == [
            [1, 2],
            [-2, 1],
            [2, 3],
        ]

    def test_empty_formula(self):
        cnf = parse_dimacs("p cnf 1 0\n")
        assert cnf.variable_count == 1
        assert cnf.clauses == []

    def test_tautology_dropped(self):
        cnf = parse_dimacs("p cnf 2 1\n1 -1 0\n")
        assert cnf.variable_count == 2
        assert cnf.clauses == []
        # the dropped clause excludes nothing: every assignment satisfies it
        taut = Clause([1, -1])
        assert all(satisfies(a, taut) for a in range(4))

    def test_duplicate_literals_dedup(self):
        cnf = parse_dimacs("p cnf 2 1\n1 1 2 0\n")
        assert sorted(cnf.clauses[0].literals) == [1, 2]

    def test_clause_spanning_lines(self):
        cnf = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
        assert sorted(cnf.clauses[0].literals) == [1, 2, 3]

    def test_percent_terminator(self):
        cnf = parse_dimacs("p cnf 2 1\n1 2 0\n%\n0\nnoise here\n")
        assert cnf.clause_count == 1

    def test_comments_preserved(self):
        cnf = parse_dimacs("c hello\nc world\np cnf 1 1\n1 0\n")
        assert cnf.comments == ["hello", "world"]

    def test_empty_clause_kept(self):
        cnf = parse_dimacs("p cnf 2 1\n0\n")
        assert len(cnf.clauses) == 1
        assert len(cnf.clauses[0]) == 0

    def test_missing_header(self):
        with pytest.raises(DimacsError):
            parse_dimacs("1 2 0\n")

    def test_malformed_header(self):
        with pytest.raises(DimacsError, match="line 1"):
            parse_dimacs("p cnf nope 3\n")

    def test_literal_out_of_range(self):
        with pytest.raises(DimacsError, match="line 2"):
            parse_dimacs("p cnf 2 1\n3 0\n")

    def test_clause_count_mismatch(self):
        with pytest.raises(DimacsError, match="declares 2"):
            parse_dimacs("p cnf 2 2\n1 0\n")

    def test_unterminated_clause(self):
        with pytest.raises(DimacsError, match="unterminated"):
            parse_dimacs("p cnf 2 1\n1 2\n")

    def test_duplicate_header(self):
        with pytest.raises(DimacsError):
            parse_dimacs("p cnf 1 0\np cnf 1 0\n")

    def test_non_utf8_bytes_name_their_line(self):
        with pytest.raises(DimacsError, match="line 2: undecodable"):
            parse_dimacs(b"p cnf 1 1\nc \xff\n1 0\n")

    def test_non_utf8_text_stream(self):
        stream = io.TextIOWrapper(io.BytesIO(b"p cnf 1 1\n1 0 \x80\n"), encoding="utf-8")
        with pytest.raises(DimacsError, match="undecodable"):
            parse_dimacs(stream)

    def test_utf8_comment_bytes(self):
        cnf = parse_dimacs("c café\np cnf 1 1\n1 0\n".encode())
        assert cnf.comments == ["café"]

    def test_write_round_trip(self, example1):
        buf = io.StringIO()
        write_dimacs(example1, buf)
        again = parse_dimacs(buf.getvalue())
        assert [c.literals for c in again.clauses] == [
            c.literals for c in example1.clauses
        ]


class TestClauseBox:
    def test_paper_conversions(self):
        ident = VariableOrder.identity(3)
        assert clause_to_box(Clause([1, 2]), 3, ident) == B("FF-")
        assert clause_to_box(Clause([1, -2]), 3, ident) == B("FT-")
        assert clause_to_box(Clause([2, 3]), 3, ident) == B("-FF")

    def test_permuted_conversion(self):
        # (x1 v -x2) under the order swapping variables 1 and 2
        swap = VariableOrder([2, 1, 3])
        box = clause_to_box(Clause([1, -2]), 3, swap)
        assert box == B("TF-")
        assert box_to_clause(box, swap).literals == frozenset([1, -2])

    def test_box_to_clause_inverse(self):
        ident = VariableOrder.identity(3)
        assert box_to_clause(B("FF-"), ident).literals == frozenset([1, 2])

    def test_all_lambda_is_empty_clause(self):
        assert len(box_to_clause(B("---"), VariableOrder.identity(3))) == 0

    @given(st.data())
    def test_round_trip_random(self, data):
        n = data.draw(st.integers(1, 8))
        width = data.draw(st.integers(1, n))
        variables = data.draw(
            st.lists(
                st.integers(1, n), min_size=width, max_size=width, unique=True
            )
        )
        clause = Clause(
            [v if data.draw(st.booleans()) else -v for v in variables]
        )
        perm = data.draw(st.permutations(list(range(1, n + 1))))
        order = VariableOrder(perm)
        assert (
            box_to_clause(clause_to_box(clause, n, order), order).literals
            == clause.literals
        )

    def test_semantic_negation_exhaustive(self):
        # an assignment satisfies a clause iff its point is outside the box
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(1, 10)
            width = rng.randint(1, min(5, n))
            variables = rng.sample(range(1, n + 1), width)
            clause = Clause([v if rng.random() < 0.5 else -v for v in variables])
            box = clause_to_box(clause, n, VariableOrder.identity(n))
            for bits in range(1 << n):
                point = point_of_assignment(bits, n)
                assert satisfies(bits, clause) == (not box.contains(point))


class TestVariableOrder:
    def test_identity(self):
        order = VariableOrder.identity(4)
        assert order.position_of(3) == 3
        assert order.variable_at(2) == 2

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            VariableOrder([1, 1, 2])

    def test_forward_inverse_bijection(self):
        order = VariableOrder([3, 1, 4, 2])
        for v in range(1, 5):
            assert order.variable_at(order.position_of(v)) == v

    def test_point_to_literals_unpermutes(self):
        order = VariableOrder([2, 1])
        point = B("TF")  # position 1 (var 2) true, position 2 (var 1) false
        assert point_to_literals(point, order) == (-1, 2)


def reference_point_to_literals(point, order):
    """Literals read trit by trit through the ordering."""
    return tuple(
        v if point.trit(order.position_of(v) - 1) is Trit.TRUE else -v
        for v in range(1, point.n + 1)
    )


class TestPointToLiterals:
    def test_matches_trit_reference(self):
        rng = random.Random(71)
        for n in range(0, 41):
            order = VariableOrder(rng.sample(range(1, n + 1), n))
            for _ in range(5):
                point = Box.point(n, rng.getrandbits(n) if n else 0)
                assert point_to_literals(point, order) == reference_point_to_literals(
                    point, order
                )

    def test_rejects_non_point(self):
        with pytest.raises(ValueError):
            point_to_literals(B("T-"), VariableOrder.identity(2))


class TestCnfProblem:
    def test_rejects_out_of_range_literal(self):
        with pytest.raises(ValueError):
            CnfProblem(1, [Clause([2])])

    def test_clause_rejects_zero(self):
        with pytest.raises(ValueError):
            Clause([0])
