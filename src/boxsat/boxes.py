"""Box algebra: the three-valued geometry underneath the solver.

A *box* assigns one of three values to every variable position: T (the
coordinate is true), F (false), or the wildcard λ, which spans both values
of that coordinate.  A box therefore denotes an axis-aligned subset of the
assignment hypercube {0,1}^n.  Negated CNF clauses, learned constraints and
probe points are all boxes; a probe point is simply a box with no λ at all.

Internally a box is a pair of bit masks over n positions: ``mask`` marks the
non-λ positions, ``val`` the polarity of the fixed ones.  Position 0 (the
first variable in the active ordering) sits at the *most significant* bit so
that the integer value of a full point equals its rank in the depth-first
sweep order (F = left = 0, T = right = 1).

The int functions ``last_fixed`` (a box's index), ``contains``,
``tail_resolvent`` and ``carry`` (the advance past a box) are the one copy of
that arithmetic.  ``Box`` is the boundary type: its methods and the solver's
hot loop call them on a box's ints.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Iterable, Sequence


class BoxError(ValueError):
    """Misuse of the box algebra (length mismatch, undefined resolution)."""


class Trit(IntEnum):
    """One coordinate of a box.  Values double as ternary ranking digits."""

    LAMBDA = 1
    FALSE = 2
    TRUE = 3


_TRIT_CHARS = {Trit.LAMBDA: "-", Trit.FALSE: "F", Trit.TRUE: "T"}
_CHAR_TRITS = {"-": Trit.LAMBDA, "F": Trit.FALSE, "T": Trit.TRUE}


class Box:
    """Immutable trit vector over ``n`` variable positions."""

    __slots__ = ("n", "mask", "val")

    def __init__(self, n: int, mask: int, val: int):
        if n < 0:
            raise BoxError("negative box length")
        # a negative mask keeps its sign bits past n, a negative val past mask
        if mask >> n or val & ~mask:
            raise BoxError("mask/val bits out of range")
        self.n = n
        self.mask = mask
        self.val = val

    @classmethod
    def from_trits(cls, trits: Iterable[Trit]) -> "Box":
        mask = val = n = 0
        for t in trits:
            mask <<= 1
            val <<= 1
            if t is not Trit.LAMBDA:
                mask |= 1
                if t is Trit.TRUE:
                    val |= 1
            n += 1
        return cls(n, mask, val)

    @classmethod
    def parse(cls, text: str) -> "Box":
        """Build a box from a string like ``"TF-"`` ('-' is the wildcard)."""
        try:
            return cls.from_trits(_CHAR_TRITS[ch] for ch in text)
        except KeyError as exc:
            raise BoxError(f"bad trit character {exc.args[0]!r}") from None

    @classmethod
    def all_lambda(cls, n: int) -> "Box":
        return cls(n, 0, 0)

    @classmethod
    def point(cls, n: int, bits: int) -> "Box":
        """Full point whose sweep rank is ``bits`` (position 0 = high bit)."""
        return cls(n, (1 << n) - 1, bits)

    # -- coordinate access ----------------------------------------------

    def trit(self, i: int) -> Trit:
        """Trit at 0-based position ``i``."""
        if not 0 <= i < self.n:
            raise BoxError(f"position {i} out of range for length {self.n}")
        bit = self.n - 1 - i
        if not (self.mask >> bit) & 1:
            return Trit.LAMBDA
        return Trit.TRUE if (self.val >> bit) & 1 else Trit.FALSE

    @property
    def trits(self) -> tuple[Trit, ...]:
        return tuple(self.trit(i) for i in range(self.n))

    @property
    def index(self) -> int:
        """1-based position of the last non-λ trit; 0 for the all-λ box."""
        return last_fixed(self.n, self.mask)

    @property
    def lambda_count(self) -> int:
        return self.n - self.mask.bit_count()

    @property
    def is_point(self) -> bool:
        return self.mask == (1 << self.n) - 1

    # -- relations -------------------------------------------------------

    def contains(self, other: "Box") -> bool:
        """True iff every position of self equals other's or is λ."""
        if self.n != other.n:
            raise BoxError("containment needs equal lengths")
        return contains(self.mask, self.val, other.mask, other.val)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Box)
            and self.n == other.n
            and self.mask == other.mask
            and self.val == other.val
        )

    def __hash__(self) -> int:
        return hash((self.n, self.mask, self.val))

    def __repr__(self) -> str:
        return f"Box({''.join(_TRIT_CHARS[t] for t in self.trits)!r})"


# -- the int layer: (mask, val) pairs, whose lengths the caller has checked


def last_fixed(n: int, mask: int) -> int:
    """1-based position of the last non-λ of a length-``n`` box; 0 if none."""
    return n + 1 - (mask & -mask).bit_length() if mask else 0


def contains(m: int, v: int, qm: int, qv: int) -> bool:
    """True iff every position box (m, v) fixes, (qm, qv) fixes the same."""
    return not (m & ~qm or (v ^ qv) & m)


def tail_resolvent(m: int, v: int, pm: int, pv: int) -> tuple[int, int] | None:
    """(mask, val) of the resolvent of boxes (m, v) and (pm, pv) if they
    oppose at one position only and it is the last non-λ of both, else None.

    The pivot becomes λ: it leaves the mask, and its one T the values.
    This is the restricted resolution the sweep performs: it peels only the
    shared trailing position, so the result's index is shorter than both.
    """
    low = m & -m
    if not low or m & pm & (v ^ pv) != low or pm & -pm != low:
        return None
    return (m | pm) ^ low, (v | pv) ^ low


def carry(n: int, mask: int, point: int) -> int:
    """Rank of the first point after ``point`` that the length-``n`` box
    with ``mask``, which contains ``point``, leaves out; ``1 << n`` if none.

    Every point sharing ``point``'s first ``last_fixed`` positions lies in
    the box, so one carry at that position reaches the first after them all.
    """
    # n - last_fixed(n, mask), inlined: this runs once per sweep step
    shift = (mask & -mask).bit_length() - 1 if mask else n
    return ((point >> shift) + 1) << shift


def resolve(b: Box, c: Box) -> Box:
    """Resolve two boxes on their unique opposing position.

    The pivot (the one position where one box is T and the other F) becomes
    λ; every other position combines componentwise, a fixed value winning
    over λ.  Undefined unless exactly one opposing position exists.
    """
    if b.n != c.n:
        raise BoxError("resolution needs equal lengths")
    opposing = b.mask & c.mask & (b.val ^ c.val)
    if opposing == 0:
        raise BoxError("resolution undefined: no opposing position")
    if opposing & (opposing - 1):
        raise BoxError("resolution undefined: multiple opposing positions")
    return Box(b.n, (b.mask | c.mask) ^ opposing, (b.val | c.val) ^ opposing)


# -- sub-box ranking -----------------------------------------------------
#
# Sub-boxes of length <= 4 enumerate bijectively onto 0..120 via their trit
# digits (λ=1, F=2, T=3) read as a bijective base-3 numeral.  The ranks are
# the bit positions used by the cluster trie masks: 0 is the empty sub-box,
# 1..3 length one, 4..12 length two, 13..39 length three, 40..120 length
# four.

SUBBOX_RANKS = 121


def subbox_rank(trits: Sequence[Trit]) -> int:
    """Rank of a sub-box of length 0..4 in the 121-slot enumeration."""
    if len(trits) > 4:
        raise BoxError(f"sub-box too long for ranking: {len(trits)}")
    rank = 0
    for t in trits:
        rank = rank * 3 + int(t)
    return rank


def rank_to_trits(rank: int) -> tuple[Trit, ...]:
    """Inverse of :func:`subbox_rank`."""
    if not 0 <= rank < SUBBOX_RANKS:
        raise BoxError(f"rank out of range: {rank}")
    digits: list[Trit] = []
    while rank:
        d = rank % 3 or 3
        digits.append(Trit(d))
        rank = (rank - d) // 3
    return tuple(reversed(digits))
