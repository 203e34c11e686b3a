import io
import random
import re
import sys

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
from boxsat.cnf import _text_lines, clause_boxes, literal_models, point_to_literals

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

    def test_header_variable_limit(self):
        assert parse_dimacs(f"p cnf {sys.maxsize - 1} 0\n").variable_count == sys.maxsize - 1
        for n in (sys.maxsize, 10**20):
            with pytest.raises(DimacsError, match=f"line 1: header declares {n} variables"):
                parse_dimacs(f"p cnf {n} 0\n")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("p cnf 10 1\n1_0 0\n", 2),
            ("p cnf 10 2\n1 0\n1_0 0\n", 3),
            ("p cnf 1 1\n\u0661 0\n", 2),  # an Arabic-Indic digit one
            ("p cnf 3 1\n1 \uff12 0\n", 2),  # a fullwidth digit two
            ("p cnf 3_0 1\n1 0\n", 1),
            ("p cnf 3 1_0\n1 0\n", 1),
            ("p cnf \u0663 1\n1 0\n", 1),
        ],
    )
    def test_tokens_int_takes_but_dimacs_does_not(self, text, line):
        with pytest.raises(DimacsError, match=f"^line {line}: (bad token|malformed header)"):
            parse_dimacs(text)

    def test_signed_zero_ends_a_clause(self):
        cnf = parse_dimacs("p cnf 2 2\n1 2 -0\n+1 -2 +0\n")
        assert [c.literals for c in cnf.clauses] == [frozenset({1, 2}), frozenset({1, -2})]

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

    @pytest.mark.parametrize(
        "comment, lines",
        [
            ("a\nb", ["a", "b"]),
            ("a\r\nb\rc", ["a", "b", "c"]),
            ("", [""]),
            ("tail\n", ["tail", ""]),
        ],
    )
    def test_comment_lines_round_trip(self, tmp_path, comment, lines):
        cnf = CnfProblem(2, [Clause([1]), Clause([-1, 2])], [comment, "last"])
        buf = io.StringIO()
        write_dimacs(cnf, buf)
        path = tmp_path / "out.cnf"
        with open(path, "w") as fh:
            write_dimacs(cnf, fh)
        # a str splits lines at line feeds only; a file read in text mode
        # at carriage returns too
        for text in (buf.getvalue(), path.read_text()):
            again = parse_dimacs(text)
            assert again.comments == lines + ["last"]
            assert [c.literals for c in again.clauses] == [c.literals for c in cnf.clauses]

    def test_comment_whitespace_is_stripped_on_the_way_back(self):
        cnf = CnfProblem(1, [Clause([1])], ["  indented", "tab\there "])
        buf = io.StringIO()
        write_dimacs(cnf, buf)
        assert parse_dimacs(buf.getvalue()).comments == ["indented", "tab\there"]


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
        assert VariableOrder.identity(4).as_sequence() == (1, 2, 3, 4)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            VariableOrder([1, 1, 2])

    def test_point_to_literals_unpermutes(self):
        order = VariableOrder([2, 1])
        point = B("TF")  # position 1 (var 2) true, position 2 (var 1) false
        assert point_to_literals(point, order) == (-1, 2)


def reference_point_to_literals(point, order):
    """Literals read trit by trit through the ordering."""
    position = {v: pos for pos, v in enumerate(order.as_sequence())}
    return tuple(
        v if point.trit(position[v]) is Trit.TRUE else -v for v in range(1, point.n + 1)
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


class TestOrderFit:
    """Every box<->literal conversion refuses an order over another number
    of variables than the box has, and a literal outside 1..n."""

    box = B("TF-T")  # n = 4, and the clause it stands for under identity
    clause = Clause([-1, 2, -4])
    point = B("TFFT")
    model_box = B("TFF-")

    @pytest.mark.parametrize("size", [3, 5])
    def test_order_one_shorter_or_longer(self, size):
        order = VariableOrder.identity(size)
        for convert in (
            lambda: clause_to_box(self.clause, 4, order),
            lambda: list(clause_boxes([self.clause.literals], 4, order)),
            lambda: box_to_clause(self.box, order),
            lambda: point_to_literals(self.point, order),
            lambda: literal_models(order)(self.model_box),
        ):
            with pytest.raises(ValueError, match=f"order of {size} variables does not fit"):
                convert()

    def test_the_fitting_order_converts(self):
        order = VariableOrder([4, 2, 3, 1])
        box = clause_to_box(self.clause, 4, order)
        assert box == B("TF-T")
        assert list(clause_boxes([self.clause.literals], 4, order)) == [(box.mask, box.val)]
        assert box_to_clause(box, order) == self.clause
        assert point_to_literals(self.point, order) == (1, -2, -3, 4)
        assert list(literal_models(order)(self.model_box)) == [(-1, -2, -3, 4), (1, -2, -3, 4)]

    @pytest.mark.parametrize("lit", [5, -5, 0])
    def test_literal_outside_1_to_n(self, lit):
        order = VariableOrder.identity(4)
        with pytest.raises(ValueError, match=rf"^literal {lit} out of range 1\.\.4$"):
            list(clause_boxes([frozenset([1, lit])], 4, order))
        if lit:
            with pytest.raises(ValueError, match=rf"^literal {lit} out of range 1\.\.4$"):
                clause_to_box(Clause([lit]), 4, order)

    def test_model_box_with_a_lambda_before_its_index(self):
        with pytest.raises(ValueError, match="not a model box"):
            literal_models(VariableOrder.identity(4))(B("T-FT"))


class TestCnfProblem:
    def test_rejects_negative_variable_count(self):
        with pytest.raises(ValueError, match="^negative variable count -1$"):
            CnfProblem(-1, [])

    def test_rejects_out_of_range_literal(self):
        with pytest.raises(ValueError):
            CnfProblem(1, [Clause([2])])

    def test_clause_rejects_zero(self):
        with pytest.raises(ValueError):
            Clause([0])

    @pytest.mark.parametrize("lit", [4, -4])
    def test_one_past_n_is_out_of_range(self, lit):
        with pytest.raises(ValueError, match=r"out of range 1\.\.3"):
            CnfProblem(3, [Clause([1]), Clause([lit, 2])])

    def test_plus_and_minus_n_accepted(self):
        cnf = CnfProblem(3, [Clause([3, -2]), Clause([-3, 1])])
        assert cnf.clause_count == 2

    def test_empty_clause_and_no_clauses_accepted(self):
        assert CnfProblem(0, [Clause([])]).clause_count == 1
        assert CnfProblem(3, []).clause_count == 0

    def test_bad_literals_in_two_clauses_one_named(self):
        with pytest.raises(ValueError, match=r"^literal (-5|7) out of range 1\.\.3$"):
            CnfProblem(3, [Clause([1, -5]), Clause([2]), Clause([7, 3])])


def dimacs_int(token: str) -> int:
    """``int`` of a DIMACS integer: an optional sign, then ASCII digits."""
    if not re.fullmatch(r"[+-]?[0-9]+", token):
        raise ValueError(token)
    return int(token)


def reference_parse_dimacs(source):
    """A parser with no token table and no memory of lines, which
    ``parse_dimacs`` must agree with."""
    n = -1
    declared = -1
    seen = 0
    clauses = []
    comments = []
    pending = []
    ended = False

    def finish_clause():
        nonlocal seen
        seen += 1
        lits = set(pending)
        pending.clear()
        if any(-l in lits for l in lits):
            return
        clauses.append(Clause(lits))

    line_no = 0
    for line_no, raw in enumerate(_text_lines(source), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("c"):
            comments.append(line[1:].lstrip())
            continue
        if line.startswith("%"):
            ended = True
            break
        if line.startswith("p"):
            if n >= 0:
                raise DimacsError("duplicate problem header", line_no)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"malformed header {line!r}", line_no)
            try:
                n, declared = dimacs_int(parts[2]), dimacs_int(parts[3])
            except ValueError:
                raise DimacsError(f"malformed header {line!r}", line_no) from None
            if n < 0 or declared < 0:
                raise DimacsError("negative counts in header", line_no)
            continue
        if n < 0:
            raise DimacsError("clause before 'p cnf' header", line_no)
        for token in line.split():
            try:
                lit = dimacs_int(token)
            except ValueError:
                raise DimacsError(f"bad token {token!r}", line_no) from None
            if lit == 0:
                finish_clause()
                continue
            if not 1 <= abs(lit) <= n:
                raise DimacsError(f"literal {lit} out of range 1..{n}", line_no)
            pending.append(lit)

    if n < 0:
        raise DimacsError("missing 'p cnf' header", line_no or 1)
    if pending and not ended:
        raise DimacsError("unterminated clause at end of input", line_no)
    if seen != declared:
        raise DimacsError(f"header declares {declared} clauses, found {seen}", line_no)
    return CnfProblem(n, clauses, comments)


def random_dimacs(rng: random.Random) -> str:
    """DIMACS text mixing every layout the parser accepts."""
    n = rng.randint(0, 9)
    out = [f"c {rng.choice(['hello', 'seed', ''])}" for _ in range(rng.randint(0, 2))]
    m = rng.randint(0, 8)
    declared = m + (rng.choice([-1, 1]) if rng.random() < 0.1 else 0)
    out.append(f"p cnf {n} {declared}")
    tokens_of = []
    for _ in range(m):
        width = rng.randint(0, 5) if n else 0
        lits = [rng.choice([-1, 1]) * rng.randint(1, n) for _ in range(width)]
        if lits and rng.random() < 0.15:
            lits.append(-rng.choice(lits))  # tautology
        if lits and rng.random() < 0.15:
            lits.append(rng.choice(lits))  # duplicate literal
        tokens = [f"+{l}" if l > 0 and rng.random() < 0.05 else str(l) for l in lits]
        tokens_of.append(tokens + ["0"])
    line: list[str] = []
    for tokens in tokens_of:
        if rng.random() < 0.2 and len(tokens) > 2:  # split over lines
            cut = rng.randint(1, len(tokens) - 1)
            out.append(" ".join(line + tokens[:cut]))
            line = tokens[cut:]
        else:
            line += tokens
        if rng.random() < 0.75:  # else the next clause shares the line
            out.append(" ".join(line))
            line = []
        if rng.random() < 0.15:
            out.append(rng.choice(["", "c between", "   ", "\t"]))
    if line:
        out.append(" ".join(line))
    if rng.random() < 0.1:
        out.append(rng.choice(["%", "%\n0", "%\n0\nnoise"]))
    text = "\n".join(out)
    return text if rng.random() < 0.2 else text + "\n"


EDITS = ["x", "0", "00", "-0", "+1", "1.5", "10", "-10", "99", "p cnf 3 1", "c c", "%", "\n", " ", "-",
         "1_0", "\u0661"]


def mutate(rng: random.Random, text: str) -> str:
    """One edit: a character deleted, or a fragment inserted or swapped in."""
    i = rng.randrange(len(text) + 1)
    kind = rng.randrange(3)
    if kind == 0 and i < len(text):
        return text[:i] + text[i + 1:]
    piece = rng.choice(EDITS)
    if kind == 1:
        return text[:i] + piece + text[i:]
    tokens = text.split(" ")
    j = rng.randrange(len(tokens))
    tokens[j] = piece
    return " ".join(tokens)


def outcome(parse, source):
    try:
        cnf = parse(source)
    except DimacsError as exc:
        return "error", str(exc)
    return "ok", cnf.variable_count, [c.literals for c in cnf.clauses], cnf.comments


class TestParseDifferential:
    def test_matches_token_loop_on_random_and_mutated_text(self):
        rng = random.Random(0xD1FF)
        outcomes = []
        for _ in range(600):
            text = random_dimacs(rng)
            for source in (text, mutate(rng, text), mutate(rng, mutate(rng, text))):
                want = outcome(reference_parse_dimacs, source)
                for form in (source, source.encode(), io.BytesIO(source.encode())):
                    assert outcome(parse_dimacs, form) == want, source
                outcomes.append(want)
        # the inputs reach every outcome the parser has
        errors = {o[1].split(": ", 1)[1].split(" ")[0] for o in outcomes if o[0] == "error"}
        assert {"bad", "literal", "unterminated", "header", "duplicate",
                "malformed", "clause"} <= errors
        assert sum(o[0] == "ok" and len(o[2]) > 2 for o in outcomes) > 200


def repeat_lines(rng: random.Random, text: str) -> str:
    """``text`` with copies of some of its lines other than the header put
    back at random places past it, sometimes after a '%' line; the header's
    clause total is left as it is."""
    lines = text.split("\n")
    header = next(i for i, line in enumerate(lines) if line.startswith("p"))
    pool = lines[:header] + lines[header + 1:] or [""]
    out = list(lines)
    for _ in range(rng.randint(1, 8)):
        out.insert(rng.randint(header + 1, len(out)), rng.choice(pool))
    if rng.random() < 0.2:
        out += ["%"] + rng.choices(pool, k=2)
    return "\n".join(out)


def with_total(text: str, total: int) -> str:
    """``text`` with its first header's clause total set to ``total``."""
    return re.sub(r"^(p cnf \S+) \S+$", rf"\g<1> {total}", text, count=1, flags=re.M)


class TestRepeatedLines:
    def test_matches_token_loop_with_repeated_lines(self):
        rng = random.Random(0x2E9)
        ok = shared = 0
        for _ in range(600):
            source = repeat_lines(rng, random_dimacs(rng))
            want = outcome(reference_parse_dimacs, source)
            if want[0] == "error" and (found := re.search(r"found (\d+)$", want[1])):
                source = with_total(source, int(found[1]))
                want = outcome(reference_parse_dimacs, source)
            forms = (source, source.encode(), io.BytesIO(source.encode()), io.StringIO(source))
            for form in forms:
                assert outcome(parse_dimacs, form) == want, source
            if want[0] == "ok":
                ok += 1
                clauses = parse_dimacs(source).clauses
                shared += len(set(map(id, clauses))) < len(clauses)
        assert ok > 400 and shared > 50

    def test_repeat_continues_a_pending_clause(self):
        # the second line repeats the first, and the fourth continues "1 2"
        cnf = parse_dimacs("p cnf 4 4\n3 4 0\n3 4 0\n1 2\n3 4 0\n3 4 0\n")
        _, whole, joined, again = cnf.clauses
        assert sorted(whole.literals) == [3, 4]
        assert sorted(joined.literals) == [1, 2, 3, 4]
        assert again is whole

    def test_a_line_read_token_by_token_is_remembered(self):
        cnf = parse_dimacs("p cnf 2 2\n1 2 0\n1 2 0\n")
        assert cnf.clauses[0] is cnf.clauses[1]

    def test_a_line_of_two_clauses_is_not_remembered(self):
        cnf = parse_dimacs("p cnf 2 4\n1 0 2 0\n1 0 2 0\n")
        assert [sorted(c.literals) for c in cnf.clauses] == [[1], [2], [1], [2]]
        assert len(set(map(id, cnf.clauses))) == 4
        with pytest.raises(DimacsError, match="declares 2 clauses, found 4"):
            parse_dimacs("p cnf 2 2\n1 0 2 0\n1 0 2 0\n")

    @pytest.mark.parametrize("text, want", [
        # "2 0 3" ends the pending "1" and starts "3"; its repeat ends nothing pending
        ("p cnf 3 4\n1\n2 0 3\n0\n2 0 3\n0\n", [[1, 2], [3], [2], [3]]),
        # "1 0 2" finishes one clause but leaves "2" pending
        ("p cnf 2 4\n1 0 2\n0\n1 0 2\n0\n", [[1], [2], [1], [2]]),
    ])
    def test_a_line_leaving_or_ending_a_pending_clause_is_not_remembered(self, text, want):
        cnf = parse_dimacs(text)
        assert [sorted(c.literals) for c in cnf.clauses] == want
        assert len(set(map(id, cnf.clauses))) == 4

    def test_repeated_tautology_counts_each_time(self):
        cnf = parse_dimacs("p cnf 2 3\n1 -1 0\n1 -1 0\n1 -1 0\n")
        assert cnf.clauses == []
        with pytest.raises(DimacsError, match="declares 2 clauses, found 3"):
            parse_dimacs("p cnf 2 2\n1 -1 0\n1 -1 0\n1 -1 0\n")
