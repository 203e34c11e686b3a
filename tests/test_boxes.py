import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxsat.boxes import (
    SUBBOX_RANKS,
    Box,
    BoxError,
    Trit,
    carry,
    contains,
    last_fixed,
    rank_to_trits,
    resolve,
    subbox_rank,
    tail_resolvent,
)

from conftest import random_box

B = Box.parse

trits_st = st.sampled_from([Trit.LAMBDA, Trit.FALSE, Trit.TRUE])


def boxes_st(n: int):
    return st.lists(trits_st, min_size=n, max_size=n).map(Box.from_trits)


def points_in(box: Box) -> list[int]:
    """All full-point ranks contained in a box (brute enumeration)."""
    out = []
    for bits in range(1 << box.n):
        p = Box.point(box.n, bits)
        if box.contains(p):
            out.append(bits)
    return out


class TestTrit:
    def test_exactly_three_values(self):
        assert len(list(Trit)) == 3

    def test_digit_assignment(self):
        assert (Trit.LAMBDA, Trit.FALSE, Trit.TRUE) == (1, 2, 3)


class TestContains:
    def test_walkthrough_first_probe(self):
        assert B("F--").contains(B("FFF"))

    def test_all_lambda_contains_everything(self):
        top = B("---")
        for bits in range(8):
            assert top.contains(Box.point(3, bits))

    def test_walkthrough_miss(self):
        assert not B("-FF").contains(B("TFT"))

    def test_length_mismatch(self):
        with pytest.raises(BoxError):
            B("F-").contains(B("F--"))

    @given(boxes_st(5))
    def test_reflexive(self, b):
        assert b.contains(b)

    @given(boxes_st(4), boxes_st(4), boxes_st(4))
    def test_transitive(self, a, b, c):
        if a.contains(b) and b.contains(c):
            assert a.contains(c)

    @given(boxes_st(5), boxes_st(5))
    def test_matches_pointwise_definition(self, b, c):
        expected = all(
            x is Trit.LAMBDA or x is y for x, y in zip(b.trits, c.trits)
        )
        assert b.contains(c) == expected


class TestResolve:
    def test_coplanar_edges_make_square(self):
        assert resolve(B("FF-"), B("FT-")) == B("F--")

    def test_askew_edges_make_edge(self):
        assert resolve(B("FT-"), B("-FF")) == B("F-F")

    def test_point_with_edge(self):
        assert resolve(B("TFT"), B("-FF")) == B("TF-")

    def test_no_pivot_is_error(self):
        with pytest.raises(BoxError):
            resolve(B("FF-"), B("F--"))

    def test_multiple_pivots_is_error(self):
        with pytest.raises(BoxError):
            resolve(B("TT-"), B("FF-"))

    def test_length_mismatch(self):
        with pytest.raises(BoxError):
            resolve(B("TF"), B("TFF"))

    @given(boxes_st(6), boxes_st(6))
    def test_commutative(self, b, c):
        try:
            left = resolve(b, c)
        except BoxError:
            with pytest.raises(BoxError):
                resolve(c, b)
            return
        assert left == resolve(c, b)

    @given(boxes_st(7), boxes_st(7))
    @settings(max_examples=300)
    def test_semantic_soundness(self, b, c):
        # points of the resolvent never escape the union of the operands
        try:
            r = resolve(b, c)
        except BoxError:
            return
        union = set(points_in(b)) | set(points_in(c))
        assert set(points_in(r)) <= union

    def test_semantic_soundness_large(self):
        rng = random.Random(12)
        checked = 0
        while checked < 40:
            n = 12
            b = Box.from_trits(rng.choice(list(Trit)) for _ in range(n))
            c = Box.from_trits(rng.choice(list(Trit)) for _ in range(n))
            try:
                r = resolve(b, c)
            except BoxError:
                continue
            union = set(points_in(b)) | set(points_in(c))
            assert set(points_in(r)) <= union
            checked += 1


def mv(text: str) -> tuple[int, int]:
    """(mask, val) of the box spelled ``text``."""
    b = B(text)
    return b.mask, b.val


class TestTailResolvable:
    def test_shared_tail_pivot(self):
        assert tail_resolvent(*mv("FF-"), *mv("FT-")) == mv("F--")

    def test_pivot_not_at_tail(self):
        assert tail_resolvent(*mv("FT-"), *mv("-FF")) is None

    def test_full_points(self):
        assert tail_resolvent(*mv("TTT"), *mv("TTF")) == mv("TT-")

    @given(boxes_st(6), boxes_st(6))
    def test_implies_resolvable_and_shorter(self, b, c):
        r = tail_resolvent(b.mask, b.val, c.mask, c.val)
        if r is not None:
            full = resolve(b, c)  # must not raise
            assert (full.mask, full.val) == r
            assert last_fixed(b.n, r[0]) < b.index
            assert last_fixed(c.n, r[0]) < c.index


class TestTailResolve:
    @staticmethod
    def by_trits(b: Box, c: Box) -> Box | None:
        """The definition position by position: one opposing position, the
        last non-λ of both, becomes λ; elsewhere a fixed trit wins."""
        opposing = [
            i
            for i, (s, t) in enumerate(zip(b.trits, c.trits))
            if Trit.LAMBDA not in (s, t) and s != t
        ]
        if opposing != [b.index - 1] or c.index != b.index:
            return None
        return Box.from_trits(
            Trit.LAMBDA if i == opposing[0] else (s if s is not Trit.LAMBDA else t)
            for i, (s, t) in enumerate(zip(b.trits, c.trits))
        )

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_every_pair_matches_the_definition(self, n):
        every = [Box.from_trits(ts) for ts in itertools.product(list(Trit), repeat=n)]
        for b in every:
            for c in every:
                expected = self.by_trits(b, c)
                got = tail_resolvent(b.mask, b.val, c.mask, c.val)
                if expected is None:
                    assert got is None
                else:
                    assert got == (expected.mask, expected.val)
                    assert expected == resolve(b, c)


class TestSubboxRank:
    def test_empty(self):
        assert subbox_rank(()) == 0

    def test_single_false(self):
        assert subbox_rank((Trit.FALSE,)) == 2

    def test_false_true(self):
        # 3*digit(F) + digit(T) by the positional formula
        assert 3 * 2 + 3 == 9
        assert subbox_rank((Trit.FALSE, Trit.TRUE)) == 9

    def test_bijective_onto_121(self):
        seen = {}
        import itertools

        for length in range(5):
            for combo in itertools.product(list(Trit), repeat=length):
                r = subbox_rank(combo)
                assert r not in seen
                seen[r] = combo
        assert sorted(seen) == list(range(SUBBOX_RANKS))

    def test_length_bands(self):
        import itertools

        bands = {0: (0, 0), 1: (1, 3), 2: (4, 12), 3: (13, 39), 4: (40, 120)}
        for length, (lo, hi) in bands.items():
            ranks = [
                subbox_rank(c) for c in itertools.product(list(Trit), repeat=length)
            ]
            assert min(ranks) == lo and max(ranks) == hi

    def test_too_long(self):
        with pytest.raises(BoxError):
            subbox_rank((Trit.LAMBDA,) * 5)

    def test_rank_round_trip(self):
        for r in range(SUBBOX_RANKS):
            assert subbox_rank(rank_to_trits(r)) == r


class TestIndex:
    def test_example_from_definition(self):
        assert B("FT-F-").index == 4

    def test_all_lambda(self):
        assert B("---").index == 0

    def test_leading_fixed(self):
        assert B("F--").index == 1

    @given(boxes_st(6))
    def test_matches_scan(self, b):
        last = 0
        for i, t in enumerate(b.trits, start=1):
            if t is not Trit.LAMBDA:
                last = i
        assert b.index == last


class TestBoxBasics:
    def test_parse_repr_round_trip(self):
        for text in ("TF-", "---", "TTTT", "F"):
            assert repr(B(text)) == f"Box({text!r})"

    def test_parse_rejects_junk(self):
        with pytest.raises(BoxError):
            B("TFX")

    def test_point_rank_order_matches_sweep(self):
        # F before T, first position most significant
        assert Box.point(2, 0) == B("FF")
        assert Box.point(2, 1) == B("FT")
        assert Box.point(2, 2) == B("TF")
        assert Box.point(2, 3) == B("TT")

    def test_lambda_count(self):
        assert B("T-F--").lambda_count == 3


class TestBoxChecks:
    """The constructor's range checks, which ``Box.point`` relies on."""

    @pytest.mark.parametrize(
        "n, mask, val",
        [
            (-1, 0, 0),  # negative length
            (3, 0b1000, 0),  # a mask bit at n
            (3, 1 << 70, 0),  # a mask bit past n
            (64, 1 << 64, 0),
            (0, 1, 0),
            (3, -1, 0),  # negative mask
            (3, -8, 0),  # negative mask with no bit below n
            (3, 0b101, 0b010),  # a val bit outside the mask
            (3, 0b111, -1),  # negative val
        ],
    )
    def test_refused(self, n, mask, val):
        with pytest.raises(BoxError):
            Box(n, mask, val)

    @pytest.mark.parametrize("n", [0, 1, 61, 64, 200])
    def test_accepted_lengths(self, n):
        full = (1 << n) - 1
        for mask, val in ((0, 0), (full, 0), (full, full), (full, full // 3), (full // 5, 0)):
            b = Box(n, mask, val)
            assert (b.n, b.mask, b.val) == (n, mask, val)

    def test_point_refuses_bits_out_of_range(self):
        assert Box.point(3, 7) == B("TTT")
        for bits in (8, 9, 1 << 40, -1, -8):
            with pytest.raises(BoxError):
                Box.point(3, bits)


def index_by_trits(b: Box) -> int:
    return max((i for i, t in enumerate(b.trits, 1) if t is not Trit.LAMBDA), default=0)


def carry_by_trits(b: Box, p: Box) -> int:
    """Add one to ``p``'s first index(b) trits read as a binary numeral
    (F = 0, T = 1), then set every later trit to F; ``1 << n`` on overflow."""
    trits = list(p.trits)
    k = index_by_trits(b)
    i = k - 1
    while i >= 0 and trits[i] is Trit.TRUE:
        trits[i] = Trit.FALSE
        i -= 1
    if i < 0:
        return 1 << p.n
    trits[i] = Trit.TRUE
    trits[k:] = [Trit.FALSE] * (p.n - k)
    return Box.from_trits(trits).val


def pair(b: Box | None) -> tuple[int, int] | None:
    return None if b is None else (b.mask, b.val)


class TestIntLayer:
    """The int functions against the trit-by-trit definitions."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_every_box_and_pair(self, n):
        every = [Box.from_trits(ts) for ts in itertools.product(list(Trit), repeat=n)]
        for b in every:
            assert last_fixed(n, b.mask) == index_by_trits(b)
            for c in every:
                assert contains(b.mask, b.val, c.mask, c.val) == all(
                    s is Trit.LAMBDA or s is t for s, t in zip(b.trits, c.trits)
                )
                assert tail_resolvent(b.mask, b.val, c.mask, c.val) == pair(
                    TestTailResolve.by_trits(b, c)
                )
            inside = points_in(b)
            for bits in inside:
                # the first point after ``bits`` that b leaves out
                beyond = next((x for x in range(bits + 1, 1 << n) if x not in inside), 1 << n)
                assert carry(n, b.mask, bits) == beyond
                assert carry_by_trits(b, Box.point(n, bits)) == beyond

    def test_random_boxes_up_to_130_positions(self):
        rng = random.Random(18)
        options = [Trit.LAMBDA, Trit.FALSE, Trit.TRUE]
        resolvable = 0
        for _ in range(400):
            n = rng.randint(0, 130)
            b = random_box(rng, n, rng.randint(0, 6))
            assert last_fixed(n, b.mask) == index_by_trits(b)
            # a point of b, and a partner that mostly agrees with b
            p = Box.from_trits(
                t if t is not Trit.LAMBDA else rng.choice(options[1:]) for t in b.trits
            )
            assert contains(b.mask, b.val, p.mask, p.val)
            assert carry(n, b.mask, p.val) == carry_by_trits(b, p)
            flip = {Trit.FALSE: Trit.TRUE, Trit.TRUE: Trit.FALSE, Trit.LAMBDA: Trit.LAMBDA}
            k = index_by_trits(b)
            c = Box.from_trits(
                flip[t] if i == k - 1 else t if rng.random() < 0.97 else rng.choice(options)
                for i, t in enumerate(b.trits)
            )
            for x, y in ((b, c), (c, b), (b, p), (p, b)):
                assert contains(x.mask, x.val, y.mask, y.val) == all(
                    s is Trit.LAMBDA or s is t for s, t in zip(x.trits, y.trits)
                )
                expected = TestTailResolve.by_trits(x, y)
                resolvable += expected is not None
                assert tail_resolvent(x.mask, x.val, y.mask, y.val) == pair(expected)
        assert resolvable > 200  # the pairs reach the resolvent branch
