"""DIMACS CNF input, clause/box conversion, and variable order permutations.

A clause converts to a box by negation: the assignments a clause *rejects*
are exactly the points falling inside its box.  A positive literal therefore
maps to F at its (order-permuted) position, a negative literal to T, and an
absent variable to λ.
"""

from __future__ import annotations

import io
import re
import sys
from dataclasses import dataclass, field
from itertools import product
from operator import itemgetter, neg
from typing import IO, Callable, Collection, Iterable, Iterator

from .boxes import Box


_LINE_END = re.compile(r"\r\n?|\n")


class DimacsError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Clause:
    """Disjunction of signed literals (var ids are 1-based, sign = polarity).

    A ``frozenset`` of ints is kept as it is; any other iterable is
    converted literal by literal.
    """

    literals: frozenset[int]

    def __init__(self, literals: Iterable[int]):
        if type(literals) is frozenset:
            lits = literals
        else:
            lits = frozenset(map(int, literals))
        if 0 in lits:
            raise ValueError("literal 0 is reserved as the clause terminator")
        object.__setattr__(self, "literals", lits)

    def __len__(self) -> int:
        return len(self.literals)

    def __iter__(self):
        return iter(sorted(self.literals, key=abs))


@dataclass
class CnfProblem:
    variable_count: int
    clauses: list[Clause] = field(default_factory=list)
    comments: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.variable_count < 0:
            raise ValueError(f"negative variable count {self.variable_count}")
        # Clause already rejects 0, so the extremes bound every |literal|
        if lits := frozenset().union(*[cl.literals for cl in self.clauses]):
            n, low, high = self.variable_count, min(lits), max(lits)
            if low < -n or high > n:
                raise ValueError(f"literal {low if low < -n else high} out of range 1..{n}")

    @property
    def clause_count(self) -> int:
        return len(self.clauses)


class VariableOrder:
    """Bijection between original variable ids and sweep positions (1-based)."""

    __slots__ = ("n", "_position", "_variable")

    def __init__(self, variables_in_position_order: Iterable[int]):
        seq = list(variables_in_position_order)
        n = len(seq)
        if sorted(seq) != list(range(1, n + 1)):
            raise ValueError("ordering must be a permutation of 1..n")
        self.n = n
        self._variable = seq
        self._position = [0] * (n + 1)
        for pos0, v in enumerate(seq):
            self._position[v] = pos0 + 1

    @classmethod
    def identity(cls, n: int) -> "VariableOrder":
        return cls(range(1, n + 1))

    def as_sequence(self) -> tuple[int, ...]:
        return tuple(self._variable)

    def __eq__(self, other) -> bool:
        return isinstance(other, VariableOrder) and self._variable == other._variable

    def __repr__(self) -> str:
        return f"VariableOrder({self._variable})"


def _text_lines(source: str | bytes | IO | Iterable[str], error: type[ValueError] = DimacsError):
    """Lines of a text or binary source; undecodable input raises the
    caller's ``error`` class.  Binary lines decode as UTF-8 one at a time,
    so the error names its line; a text stream decodes ahead in chunks, so
    its error cannot."""
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    elif isinstance(source, str):
        source = io.StringIO(source)
    line = None  # the binary line being decoded
    try:
        for line_no, raw in enumerate(source, 1):
            if isinstance(raw, bytes):
                line = line_no
                raw = raw.decode("utf-8")
            yield raw
    except UnicodeDecodeError as exc:
        raise error(f"undecodable input ({exc.encoding}: {exc.reason})", line) from None


def _int_token(token: str) -> int:
    """The int that ``token``, a piece of ``str.split`` output, spells if it
    is an optional sign followed by ASCII digits; ValueError otherwise.
    ``int`` alone also takes underscores and non-ASCII digits."""
    if "_" in token or not token.isascii():
        raise ValueError(f"not a decimal integer: {token!r}")
    return int(token)


def parse_dimacs(source: str | bytes | IO) -> CnfProblem:
    """Parse DIMACS CNF text.

    Comment lines are kept, each as its text after the ``c`` with the
    whitespace around it stripped.  Clauses may span lines, and a '%' line
    ends the clause section (SATLIB convention).  Header fields and literals
    must be an optional sign followed by ASCII digits; ``-0`` and ``+0`` end
    a clause as ``0`` does.  Duplicate literals inside a clause are dropped;
    tautological clauses (x and -x together) are discarded entirely since
    they reject no assignment, though they still count toward the declared
    clause total.  A header declaring more than ``sys.maxsize - 1``
    variables is refused: no per-variable table that long can be indexed.

    Every clause line is read by one token loop.  A token is checked the
    first time it occurs and its literal kept in a table for the call, so
    an error names the first line holding a bad token.  A line that starts
    with no clause pending and finishes exactly one clause, leaving none
    pending, is remembered; a repeat of it with no clause pending counts and
    appends what the first reading made, without being split again, so
    repeated lines share one ``Clause`` object (``Clause`` is frozen).  This
    is sound because a token's literal depends only on the token and the
    header's variable count, which cannot change after the first clause
    line: the repeat would read as the same literal set.
    """
    n = declared = -1
    found: list[Clause | None] = []  # every clause read, None for a tautology
    comments: list[str] = []
    pending: list[int] = []
    literal_of: dict[str, int] = {}  # token -> its checked literal, 0 for a clause end
    whole: dict[str, Clause | None] = {}  # raw line -> the one clause it makes
    ended = False

    line_no = 0
    for line_no, raw in enumerate(_text_lines(source), 1):
        if not pending and raw in whole:
            found.append(whole[raw])
            continue
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
                n, declared = _int_token(parts[2]), _int_token(parts[3])
            except ValueError:
                raise DimacsError(f"malformed header {line!r}", line_no) from None
            if n < 0 or declared < 0:
                raise DimacsError("negative counts in header", line_no)
            if n > sys.maxsize - 1:
                raise DimacsError(
                    f"header declares {n} variables; at most {sys.maxsize - 1} fit an index",
                    line_no)
            continue
        if n < 0:
            raise DimacsError("clause before 'p cnf' header", line_no)
        fresh, first = not pending, len(found)
        for token in line.split():
            lit = literal_of.get(token)
            if lit is None:
                try:
                    lit = _int_token(token)
                except ValueError:
                    raise DimacsError(f"bad token {token!r}", line_no) from None
                if lit and not 1 <= abs(lit) <= n:
                    raise DimacsError(f"literal {lit} out of range 1..{n}", line_no)
                literal_of[token] = lit
            if lit:
                pending.append(lit)
                continue
            lits = frozenset(pending)
            pending.clear()
            # a tautology is dropped: its box would need both T and F at one spot
            found.append(Clause(lits) if lits.isdisjoint(map(neg, lits)) else None)
        if fresh and not pending and len(found) == first + 1:
            whole[raw] = found[-1]

    if n < 0:
        raise DimacsError("missing 'p cnf' header", line_no or 1)
    if pending and not ended:
        raise DimacsError("unterminated clause at end of input", line_no)
    if len(found) != declared:
        raise DimacsError(f"header declares {declared} clauses, found {len(found)}", line_no)
    return CnfProblem(n, [clause for clause in found if clause is not None], comments)


def write_dimacs(cnf: CnfProblem, out: IO) -> None:
    """Write ``cnf`` as DIMACS text, each line of each comment as one ``c``
    line: a line end inside a comment would otherwise start a line that is
    no comment.  A carriage return, alone or before a line feed, ends a line
    too, as a file read in text mode takes it.  ``parse_dimacs`` reads each
    such line back with its leading and trailing whitespace stripped."""
    for comment in cnf.comments:
        for line in _LINE_END.split(comment):
            out.write(f"c {line}\n")
    out.write(f"p cnf {cnf.variable_count} {cnf.clause_count}\n")
    for cl in cnf.clauses:
        out.write(" ".join(map(str, cl)) + " 0\n")


def _positions(order: VariableOrder, n: int) -> list[int]:
    """``order``'s 1-based position of each variable (index 0 unused):
    variable v sits at bit n - position[v] of a length-``n`` box.

    Raises ValueError unless the order has exactly ``n`` variables.
    """
    if order.n != n:
        raise ValueError(f"an order of {order.n} variables does not fit a box of {n}")
    return order._position


def clause_boxes(
    literal_sets: Collection[frozenset[int]], n: int, order: VariableOrder
) -> Iterator[Box]:
    """The box of each literal set in turn, tautologies skipped: they
    reject no assignment, so no box stands for them.  A literal outside
    1..n raises ValueError.

    One table, built once from the literals that occur, gives each literal's
    bit in a box's mask and in its val; a box is then two sums over it.  A
    variable appearing twice (a tautology) adds its mask bit twice, which
    carries, so the sum holds fewer set bits than the set has literals.
    """
    position = _positions(order, n)
    mask_bit: dict[int, int] = {}
    val_bit: dict[int, int] = {}
    for lit in frozenset().union(*literal_sets):
        if not 0 < abs(lit) <= n:
            raise ValueError(f"literal {lit} out of range 1..{n}")
        bit = 1 << (n - position[abs(lit)])
        mask_bit[lit] = bit
        val_bit[lit] = bit if lit < 0 else 0
    mask_of, val_of = mask_bit.__getitem__, val_bit.__getitem__
    for lits in literal_sets:
        mask = sum(map(mask_of, lits))
        if mask.bit_count() == len(lits):
            yield Box(n, mask, sum(map(val_of, lits)))


def clause_to_box(clause: Clause, n: int, order: VariableOrder) -> Box:
    """Box rejecting exactly the assignments that violate ``clause``."""
    for box in clause_boxes([clause.literals], n, order):
        return box
    raise ValueError(f"tautology {sorted(clause.literals)} rejects no assignment, so has no box")


def box_to_clause(box: Box, order: VariableOrder) -> Clause:
    """Inverse of :func:`clause_to_box` (round-trips every clause)."""
    n, mask, val, position = box.n, box.mask, box.val, _positions(order, box.n)
    shifts = ((v, n - position[v]) for v in range(1, n + 1))
    return Clause([-v if val >> s & 1 else v for v, s in shifts if mask >> s & 1])


def point_to_literals(point: Box, order: VariableOrder) -> tuple[int, ...]:
    """Signed literals of a full point, in original variable numbering."""
    if not point.is_point:
        raise ValueError("not a full point")
    n, val, position = point.n, point.val, _positions(order, point.n)
    return tuple([v if (val >> (n - position[v])) & 1 else -v for v in range(1, n + 1)])


def literal_models(order: VariableOrder) -> Callable[[Box], Iterator[tuple[int, ...]]]:
    """Expansion of a model box into its models, as signed-literal tuples
    in original variable numbering and in sweep order.

    A model box fixes every position up to its index and is λ after it.
    Each box's prefix literals are read from its own bits once; its tail's
    literal combinations follow in sweep order (F before T, last position
    fastest), and each tuple is mapped from position order back to variable
    order.  A box of another length than the order, or with a λ before its
    index, raises ValueError.
    """
    seq = order.as_sequence()
    n = len(seq)
    tails = [(-v, v) for v in seq]
    # position order back to variable order; with n < 2 they coincide, and
    # itemgetter would need at least two indices to return a tuple
    get = itemgetter(*[p - 1 for p in _positions(order, n)[1:]]) if n > 1 else tuple

    def expand(m: Box) -> Iterator[tuple[int, ...]]:
        _positions(order, m.n)  # refuses a box of another length
        k = m.index
        if m.mask.bit_count() != k:
            raise ValueError(f"not a model box: a λ before its index {k}")
        # the prefix's k bits as binary digits; the leading 1 keeps its zeros
        bits = bin(m.val >> (n - k) | 1 << k)[3:]
        head = tuple([v if b == "1" else -v for v, b in zip(seq, bits)])
        return map(get, map(head.__add__, product(*tails[k:])))

    return expand
