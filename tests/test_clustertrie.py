import random

import pytest

from boxsat import Box, BoxDatabase, build_lookup_tables
from boxsat.boxes import SUBBOX_RANKS, BoxError, Trit, rank_to_trits
from boxsat.clustertrie import _FIELD_RANKS, _SLOT_LENGTH, CHILD_SLOT_LOW, CLUSTER_SPAN
from boxsat.oracle import linear_containing

from conftest import random_box

B = Box.parse


def reference_tables():
    """Independent reconstruction of both tables from raw trit tuples."""
    subs = [rank_to_trits(r) for r in range(SUBBOX_RANKS)]
    box_rows, child_rows = [], []
    for v in range(SUBBOX_RANKS):
        brow = crow = 0
        for j in range(SUBBOX_RANKS):
            a, b = subs[j], subs[v]
            if len(a) <= len(b) and all(
                x == Trit.LAMBDA or x == y for x, y in zip(a, b)
            ):
                brow |= 1 << j
            if j >= 40:
                padded = b + (Trit.LAMBDA,) * (4 - len(b))
                if all(x == Trit.LAMBDA or x == y for x, y in zip(a, padded)):
                    crow |= 1 << j
        box_rows.append(brow)
        child_rows.append(crow)
    return box_rows, child_rows


class TestLookupTables:
    def test_empty_subbox_contains_itself(self):
        tables = build_lookup_tables()
        assert tables.box_containers[0] & 1

    def test_false_true_row_exact(self):
        # containers of the length-2 sub-box (F, T)
        tables = build_lookup_tables()
        row = tables.box_containers[9]
        slots = {i for i in range(SUBBOX_RANKS) if (row >> i) & 1}
        assert slots == {0, 1, 2, 4, 6, 7, 9}

    def test_all_lambda_child_covers_everything(self):
        tables = build_lookup_tables()
        for v in range(CHILD_SLOT_LOW, SUBBOX_RANKS):
            assert (tables.child_containers[v] >> CHILD_SLOT_LOW) & 1

    def test_all_lambda_child_row_is_exactly_itself(self):
        tables = build_lookup_tables()
        assert tables.child_containers[CHILD_SLOT_LOW] == 1 << CHILD_SLOT_LOW

    def test_matches_independent_reconstruction(self):
        tables = build_lookup_tables()
        box_rows, child_rows = reference_tables()
        assert list(tables.box_containers) == box_rows
        assert list(tables.child_containers) == child_rows


class TestInsert:
    def test_single_short_box(self):
        db = BoxDatabase(3)
        db.insert(B("F--"))
        assert db.dump() == "0:2"  # slot of the trimmed sub-box (F)

    def test_all_lambda_swallows_everything(self):
        db = BoxDatabase(3)
        db.insert(B("---"))
        before = db.dump()
        assert before == "0:0"
        for box in (B("FTF"), B("T--"), B("-F-")):
            db.insert(box)
        assert db.dump() == before
        assert len(db) == 1

    def test_subsumed_box_kept_when_inserted_first(self):
        # containment is only checked against already-stored boxes
        db = BoxDatabase(3)
        db.insert(B("FF-"))
        db.insert(B("F--"))
        assert sorted(map(repr, db.boxes())) == ["Box('F--')", "Box('FF-')"]
        # queries still agree with a linear scan over both
        for bits in range(8):
            q = Box.point(3, bits)
            hit = db.find_containing(q)
            lin = linear_containing([B("FF-"), B("F--")], q)
            assert (hit is None) == (not lin)

    def test_covered_insert_is_noop(self):
        db = BoxDatabase(3)
        db.insert(B("F--"))
        before = db.dump()
        db.insert(B("FF-"))  # contained by the stored box
        assert db.dump() == before
        assert len(db) == 1

    def test_insert_idempotent(self):
        rng = random.Random(3)
        db1 = BoxDatabase(9)
        db2 = BoxDatabase(9)
        boxes = [random_box(rng, 9) for _ in range(25)]
        for b in boxes:
            db1.insert(b)
            db2.insert(b)
            db2.insert(b)
        assert db1.dump() == db2.dump()

    def test_length_mismatch(self):
        with pytest.raises(BoxError):
            BoxDatabase(3).insert(B("F-"))
        with pytest.raises(BoxError):
            BoxDatabase(3).add_uncovered(B("F-"))

    def test_add_uncovered_matches_insert(self):
        # on a box no stored box contains, the unchecked store builds the
        # same structure as insert
        rng = random.Random(21)
        for n in (1, 4, 9, 17):
            checked, unchecked = BoxDatabase(n), BoxDatabase(n)
            for _ in range(40):
                b = random_box(rng, n)
                if unchecked.find_containing(b) is None:
                    unchecked.add_uncovered(b)
                checked.insert(b)
                assert checked.dump() == unchecked.dump()

    def test_add_uncovered_stores_an_equal_box_once(self):
        # the second store of a box finds its slot bit set and changes nothing
        rng = random.Random(25)
        for n in (1, 4, 9, 17):
            db = BoxDatabase(n)
            for _ in range(30):
                b = random_box(rng, n)
                db.add_uncovered(b)
                once = (len(db), db.dump())
                db.add_uncovered(b)
                assert (len(db), db.dump()) == once
                assert len(db) == len(list(db.boxes()))

    def test_add_uncovered_keeps_a_box_inside_another(self):
        db = BoxDatabase(3)
        db.add_uncovered(B("F--"))
        db.add_uncovered(B("FF-"))  # inside F--, stored all the same
        assert sorted(map(repr, db.boxes())) == ["Box('F--')", "Box('FF-')"]
        assert len(db) == 2
        for bits in range(8):
            q = Box.point(3, bits)
            assert (db.find_containing(q) is None) == (not linear_containing([B("F--")], q))

    def test_deep_box_creates_path(self):
        db = BoxDatabase(8)
        db.insert(B("FTFT" "TF--"))
        # one child at depth 0 (the exact 4-prefix), one box at depth 1
        lines = db.dump().splitlines()
        assert len(lines) == 2
        assert lines[0].endswith(">") and lines[0].startswith("0:")
        assert lines[1].startswith("1:")


class TestQueries:
    def setup_method(self):
        self.db = BoxDatabase(3)
        self.db.insert(B("F--"))
        self.db.insert(B("-FF"))

    def test_walkthrough_first_probe_prefers_shorter_index(self):
        assert self.db.find_containing(B("FFF")) == B("F--")

    def test_walkthrough_all_containing(self):
        assert self.db.all_containing(B("FFF")) == [B("F--"), B("-FF")]

    def test_walkthrough_miss(self):
        assert self.db.find_containing(B("TFT")) is None
        assert self.db.all_containing(B("TFT")) == []

    def test_empty_database(self):
        db = BoxDatabase(4)
        assert db.find_containing(B("TTTT")) is None

    def test_all_lambda_hit(self):
        db = BoxDatabase(3)
        db.insert(B("---"))
        assert db.all_containing(B("TTT")) == [B("---")]

    def test_derived_all_containing(self):
        db = BoxDatabase(3)
        stored = [B("FT-"), B("-FF")]
        for b in stored:
            db.insert(b)
        q = B("TFF")
        assert db.all_containing(q) == linear_containing(stored, q)

    def test_shadowed_boxes_skipped_by_default(self):
        # a hit at the root shadows the deeper containing box
        db = BoxDatabase(8, lambda_skip=False)
        shallow = B("F-------")
        deep = B("FFFFF---")
        db.insert(deep)
        db.insert(shallow)
        q = Box.point(8, 0)
        assert db.all_containing(q) == [shallow]
        assert sorted(map(repr, db.all_containing(q, include_shadowed=True))) == [
            repr(shallow),
            repr(deep),
        ]


class TestLambdaSkip:
    def test_skips_empty_all_lambda_chain(self):
        # one box living at depth 5; everything above is a skippable chain
        trits = [Trit.LAMBDA] * 24
        trits[20] = Trit.FALSE  # position 21, cluster 5
        box = Box.from_trits(trits)
        probe = Box.point(24, 0)

        fast = BoxDatabase(24, lambda_skip=True)
        slow = BoxDatabase(24, lambda_skip=False)
        fast.insert(box)
        slow.insert(box)

        fast.cluster_visits = slow.cluster_visits = 0
        hit_fast = fast.find_containing(probe)
        hit_slow = slow.find_containing(probe)
        assert hit_fast == hit_slow == box
        assert fast.cluster_visits == 1
        assert slow.cluster_visits == 6

    def test_no_effect_on_empty_database(self):
        for skip in (True, False):
            db = BoxDatabase(6, lambda_skip=skip)
            assert db.find_containing(Box.point(6, 11)) is None

    def test_no_effect_on_single_cluster(self):
        results = []
        for skip in (True, False):
            db = BoxDatabase(3, lambda_skip=skip)
            db.insert(B("F--"))
            db.insert(B("-FF"))
            db.cluster_visits = 0
            hit = db.find_containing(B("FFF"))
            results.append((hit, db.cluster_visits))
        assert results[0] == results[1]

    def test_results_identical_randomized(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(5, 20)
            boxes = [random_box(rng, n, lambda_weight=6) for _ in range(12)]
            on = BoxDatabase(n, lambda_skip=True)
            off = BoxDatabase(n, lambda_skip=False)
            for b in boxes:
                on.insert(b)
                off.insert(b)
            for _ in range(15):
                q = random_box(rng, n)
                assert on.find_containing(q) == off.find_containing(q)
                assert on.all_containing(q) == off.all_containing(q)


class TestStructureInvariants:
    def walk_clusters(self, db):
        stack = [db.root]
        while stack:
            c = stack.pop()
            yield c
            stack.extend(c.children.values())

    def test_mask_discipline(self):
        rng = random.Random(17)
        db = BoxDatabase(14)
        for _ in range(120):
            db.insert(random_box(rng, 14))
        for c in self.walk_clusters(db):
            assert c.boxes_mask >> 121 == 0
            assert c.children_mask >> 121 == 0
            assert c.children_mask & ((1 << CHILD_SLOT_LOW) - 1) == 0
            assert set(c.children) == {
                i for i in range(SUBBOX_RANKS) if (c.children_mask >> i) & 1
            }

    def test_no_descendant_under_stored_box(self):
        # a set boxes bit shields its own subtree from later covered inserts
        rng = random.Random(23)
        db = BoxDatabase(12)
        inserted = []
        for _ in range(80):
            b = random_box(rng, 12, lambda_weight=4)
            db.insert(b)
            inserted.append(b)
        stored = list(db.boxes())
        for i, a in enumerate(stored):
            for j, b in enumerate(stored):
                if i != j:
                    assert not a.contains(b) or not b.contains(a)


class TestOracleEquivalence:
    def test_randomized_small(self):
        rng = random.Random(41)
        for trial in range(60):
            n = rng.randint(1, 16)
            raw = [random_box(rng, n) for _ in range(rng.randint(0, 30))]
            db = BoxDatabase(n, lambda_skip=bool(trial % 2))
            stored = []
            for b in raw:
                if not any(s.contains(b) for s in stored):
                    stored.append(b)
                db.insert(b)
            for _ in range(10):
                q = random_box(rng, n)
                lin = linear_containing(stored, q)
                hit = db.find_containing(q)
                assert (hit is None) == (not lin)
                if hit is not None:
                    assert hit.contains(q)
                full = db.all_containing(q, include_shadowed=True)
                assert sorted(map(repr, full)) == sorted(map(repr, lin))
                assert set(map(repr, db.all_containing(q))) <= set(map(repr, lin))


def index_classes() -> list[int]:
    """Per index class k, the slots whose sub-box ends at its k-th trit
    (trailing λs do not count)."""
    classes = [0] * 5
    for slot in range(SUBBOX_RANKS):
        trits = rank_to_trits(slot)
        while trits and trits[-1] is Trit.LAMBDA:
            trits = trits[:-1]
        classes[len(trits)] |= 1 << slot
    return classes


INDEX_CLASSES = index_classes()


def first_by_index(hits: int) -> int:
    """The hit slot with the smallest index class, then rank."""
    for members in INDEX_CLASSES:
        h = hits & members
        if h:
            return (h & -h).bit_length() - 1
    raise AssertionError("no hit")


class TestSlotOrder:
    """A cluster's lowest hit slot is its smallest-index hit, and a walk may
    read the last depth's field padded with λ to 4 bits."""

    def tries(self):
        rng = random.Random(0x5107)
        for n in range(22):
            for skip in (True, False):
                db = BoxDatabase(n, lambda_skip=skip)
                for _ in range(rng.randint(5, 60)):
                    b = random_box(rng, n, lambda_weight=rng.randint(0, 6))
                    if rng.random() < 0.5:
                        db.insert(b)
                    elif db.find_containing(b) is None:
                        db.add_uncovered(b)
                yield db

    def test_slot_length_never_falls(self):
        assert all(a <= b for a, b in zip(_SLOT_LENGTH, _SLOT_LENGTH[1:]))

    def test_stored_slots_end_in_a_fixed_trit(self):
        for db in self.tries():
            for c in db._clusters():
                m = c.boxes_mask
                while m:
                    slot = (m & -m).bit_length() - 1
                    m &= m - 1
                    assert slot == 0 or rank_to_trits(slot)[-1] is not Trit.LAMBDA

    def test_lowest_hit_is_the_smallest_index(self):
        rows = build_lookup_tables().box_containers
        for db in self.tries():
            for c in db._clusters():
                for row in rows:
                    hits = c.boxes_mask & row
                    if hits:
                        assert (hits & -hits).bit_length() - 1 == first_by_index(hits)

    def test_padded_last_field_has_the_same_box_containers(self):
        rows = build_lookup_tables().box_containers
        for n in range(14):
            length = n - 4 * max(0, (n - 1) // 4)
            pad = 4 - length
            short = sum(1 << j for j in range(SUBBOX_RANKS) if _SLOT_LENGTH[j] <= length)
            for mask in range(1 << length):
                for val in range(1 << length):
                    if val & ~mask:
                        continue
                    padded = _FIELD_RANKS[4][(mask << pad) << 4 | val << pad]
                    exact = _FIELD_RANKS[length][mask << 4 | val]
                    assert rows[padded] & short == rows[exact] & short


def specialise(rng: random.Random, box: Box, point: bool) -> Box:
    """A box inside ``box``: some (or, for a point, all) λs fixed at random."""
    free = ((1 << box.n) - 1) & ~box.mask
    extra = free if point else free & rng.getrandbits(box.n)
    return Box(box.n, box.mask | extra, box.val | (extra & rng.getrandbits(box.n)))


class TestDifferential:
    """Every query against ``oracle.linear_containing`` on random tries."""

    def build(self, rng, n, lambda_skip):
        db = BoxDatabase(n, lambda_skip=lambda_skip)
        stored = []
        for _ in range(rng.randint(0, 40)):
            b = random_box(rng, n, lambda_weight=rng.choice((1, 2, 4, 8)))
            if not any(s.contains(b) for s in stored):
                stored.append(b)
            db.insert(b)
        return db, stored

    def queries(self, rng, n, stored):
        for _ in range(12):
            point = rng.random() < 0.5
            if stored and rng.random() < 0.7:
                yield specialise(rng, rng.choice(stored), point)
            elif point:
                yield Box.point(n, rng.getrandbits(n))
            else:
                yield random_box(rng, n)

    def test_against_linear_scan(self):
        rng = random.Random(97)
        for trial in range(240):
            n = 1 + trial % 40
            db, stored = self.build(rng, n, lambda_skip=bool(trial % 3))
            assert sorted(map(repr, db.boxes())) == sorted(map(repr, stored))
            for q in self.queries(rng, n, stored):
                lin = linear_containing(stored, q)
                hit = db.find_containing(q)
                shown = db.all_containing(q)
                if lin:
                    assert hit in lin
                    assert hit == min(shown, key=lambda b: b.index)
                    assert hit.index == min(b.index for b in lin)
                else:
                    assert hit is None and shown == []
                full = db.all_containing(q, include_shadowed=True)
                assert sorted(map(repr, full)) == sorted(map(repr, lin))

    def test_all_lambda_box_sits_in_root_slot_0(self):
        for n in range(10):
            db = BoxDatabase(n)
            db.add_uncovered(Box.all_lambda(n))
            assert db.dump() == "0:0"
            assert len(db) == 1

    def test_smallest_ties_go_to_walk_order(self):
        # both boxes have index 5 and contain the probe; the walk reaches
        # the child slot of "-F--" (49) before that of "F---" (67)
        first, second = B("-F--F---"), B("F---F---")
        for inserted in ([first, second], [second, first]):
            db = BoxDatabase(8)
            for b in inserted:
                db.insert(b)
            q = Box.point(8, 0)
            assert db.all_containing(q) == [first, second]
            assert db.find_containing(q) == first

    def test_smallest_prefers_shallower_cluster(self):
        db = BoxDatabase(9, lambda_skip=False)
        deep = B("FFFFF----")
        shallow = B("---F-----")
        db.insert(deep)
        db.insert(shallow)
        assert db.find_containing(Box.point(9, 0)) == shallow
        assert db.find_containing(B("FFFFFTTTT")) == shallow

    def test_smallest_all_lambda(self):
        for n in (0, 1, 5):
            db = BoxDatabase(n)
            assert db.find_containing(Box.point(n, 0)) is None
            db.insert(Box.all_lambda(n))
            assert db.find_containing(Box.point(n, 0)) == Box.all_lambda(n)


def forgetful_find(db: BoxDatabase, q: Box):
    """``db``'s answer and cluster visits for ``q`` walked from the root, and
    the per-depth cluster lists that walk builds; ``db``'s own memo is left
    as it was."""
    memo = list(db._levels), db._last_mask, db._last_val, db._last_hit, db._resume
    db._resume = 0
    before = db.cluster_visits
    got = db.find_containing(q)
    visits = db.cluster_visits - before
    walked = list(db._levels)
    db._levels, db._last_mask, db._last_val, db._last_hit, db._resume = memo
    return got, visits, walked


class TestWalkMemo:
    """``find_containing`` resumes through its memo of the last walk, which
    stores cut back to the depth they change; every answer is the walk's
    from the root, and the kept lists are the ones that walk builds."""

    def near_point(self, rng, p: Box) -> Box:
        """A point sharing a prefix of random length with ``p``, as a
        sweep's next probe does."""
        n = p.n
        rest = n - rng.randint(0, n)
        return Box.point(n, p.val >> rest << rest | rng.getrandbits(rest))

    def around(self, rng, p: Box) -> Box:
        """A box holding ``p``, as a resolvent does; often with a λ prefix."""
        mask = p.mask & rng.getrandbits(p.n)
        if rng.random() < 0.5:
            mask &= (1 << rng.randint(0, p.n)) - 1
        return Box(p.n, mask, p.val & mask)

    def chain_box(self, rng, p: Box) -> Box:
        """A box fixing positions of one cluster only, so it is stored on the
        all-λ chain, where λ-skip passes clusters through; it holds ``p``
        unless one value is flipped."""
        n = p.n
        first = CLUSTER_SPAN * rng.randrange((n + CLUSTER_SPAN - 1) // CLUSTER_SPAN)
        field = min(CLUSTER_SPAN, n - first)
        mask = rng.randrange(1, 1 << field) << (n - first - field)
        val = p.val & mask
        if rng.random() < 0.3:
            val ^= mask & -mask
        return Box(n, mask, val)

    def new_box(self, rng, p: Box) -> Box:
        pick = rng.random()
        if pick < 0.4:
            return self.chain_box(rng, p)
        if pick < 0.7:
            return self.around(rng, p)
        if pick < 0.8:
            return self.near_point(rng, p)
        return random_box(rng, p.n, lambda_weight=rng.choice((1, 2, 4, 8)))

    def query(self, db, stored, q: Box) -> tuple[int, int]:
        """Check one query against the walk from the root and the linear
        scan; returns (visits, visits from the root)."""
        want, full_visits, walked = forgetful_find(db, q)
        before = db.cluster_visits
        got = db.find_containing(q)
        visits = db.cluster_visits - before
        assert got == want, q
        lin = linear_containing(stored, q)
        if lin:
            assert got in lin
            assert got.index == min(b.index for b in lin)
        else:
            assert got is None
        assert visits <= full_visits
        assert db._levels == walked
        return visits, full_visits

    def store(self, db, b: Box, check: bool) -> tuple[bool, bool]:
        """Store ``b`` through ``insert``, or ``add_uncovered`` when ``check``
        is off.  The kept lists must be a prefix of the lists a walk from
        the root builds for the last query, all of them unless the store cut
        the memo, and a cut resumes the next walk at its last kept depth.
        Returns (stored, cut)."""
        size = len(db)
        if check:
            db.insert(b)
        else:
            db.add_uncovered(b)
        kept = list(db._levels)
        cut = db._resume < len(kept)
        last = Box(db.n, db._last_mask >> db._pad, db._last_val >> db._pad)
        walked = forgetful_find(db, last)[2]
        assert kept == walked[:len(kept)]
        if cut:
            assert db._resume == len(kept) - 1
        else:
            assert kept == walked
        return len(db) > size, cut

    def test_interleaved_queries_and_stores(self):
        rng = random.Random(23)
        resumed = cuts = whole = 0
        cases = [(rng.randint(1, 200), 60) for _ in range(150)] + [(1999, 25)]
        for trial, (n, steps) in enumerate(cases):
            db = BoxDatabase(n, lambda_skip=bool(trial % 3))
            stored: list[Box] = []
            p = last = Box.point(n, 0)
            for _ in range(steps):
                op = rng.random()
                if op < 0.35:  # a point query
                    pick = rng.random()
                    if pick < 0.5:
                        q = self.near_point(rng, p)
                    elif pick < 0.65:  # the last box query's values, F elsewhere
                        q = Box.point(n, last.val)
                    elif stored and pick < 0.85:
                        q = specialise(rng, rng.choice(stored), point=True)
                    else:
                        q = Box.point(n, rng.getrandbits(n))
                    p = q
                    visits, full_visits = self.query(db, stored, q)
                    resumed += visits < full_visits
                elif op < 0.55:  # a box query
                    if rng.random() < 0.5:
                        q = self.around(rng, p)
                    elif stored and rng.random() < 0.5:
                        q = specialise(rng, rng.choice(stored), point=False)
                    else:
                        q = random_box(rng, n)
                    last = q
                    self.query(db, stored, q)
                else:  # a store
                    b = self.new_box(rng, p)
                    covered = any(s.contains(b) for s in stored)
                    added, cut = self.store(db, b, check=op < 0.8 or covered)
                    assert added == (not covered)
                    if added:
                        stored.append(b)
                        cuts += cut
                        whole += not cut
        assert resumed > 600 and cuts > 1200 and whole > 100, (resumed, cuts, whole)

    def test_a_store_above_the_stop_depth_is_found_at_once(self):
        # with λ-skip the root and its all-λ child pass the walk through to
        # the box at depth 2; a store into either changes the lists below
        # it, which the next walk of the same point must rebuild
        for skip in (True, False):
            db = BoxDatabase(12, lambda_skip=skip)
            deep = B("--------F---")
            db.add_uncovered(deep)
            p = Box.point(12, 0)
            assert db.find_containing(p) == deep
            db.add_uncovered(B("F---F-------"))  # a second child of the root
            assert db.find_containing(p) == B("F---F-------")
            db.add_uncovered(B("----F-------"))  # into the root's all-λ child
            # an index tie at depth 1: the all-λ child's slot comes first
            assert db.find_containing(p) == B("----F-------")
            assert db.find_containing(p) == forgetful_find(db, p)[0]

    def test_a_store_above_the_last_miss_is_found_at_once(self):
        # the miss stopped at the root, so a box stored there has to cut the
        # memo for the same query to see it
        db = BoxDatabase(8)
        p = B("FFFFFFFF")
        assert db.find_containing(p) is None
        db.add_uncovered(B("F-------"))
        assert db.find_containing(p) == B("F-------")
        db.insert(B("----FF--"))
        assert db.find_containing(p) == B("F-------")
        assert db.find_containing(B("TFFFFFFF")) == B("----FF--")


class TestLevelWalk:
    """``find_containing`` resumes its last walk at the first depth the
    query changes, or a store changed since; it must answer exactly as a
    walk from the root does."""

    def compare(self, rng, n, lambda_skip, queries):
        """Sweep-shaped queries against two equal tries, the second walked
        from the root every time, with stores interleaved; returns the
        clusters each visited in ``find_containing``."""
        db = BoxDatabase(n, lambda_skip=lambda_skip)
        fresh = BoxDatabase(n, lambda_skip=lambda_skip)
        stored = []

        def store(b):
            if not any(s.contains(b) for s in stored):
                stored.append(b)
                if rng.random() < 0.5:
                    db.add_uncovered(b)
                    fresh.add_uncovered(b)
                    return
            db.insert(b)
            fresh.insert(b)

        for _ in range(rng.randint(1, 30)):
            store(random_box(rng, n, lambda_weight=rng.choice((1, 2, 4, 8))))
        resumed = walked = 0
        q = Box.point(n, rng.getrandbits(n))
        for _ in range(queries):
            roll = rng.random()
            if roll < 0.05:
                store(random_box(rng, n, lambda_weight=rng.choice((2, 4, 8))))
            elif roll < 0.2:
                pass  # the same query again
            else:
                # keep a prefix of random length; take the rest from a
                # random point, or from a point inside a stored box
                keep = ((1 << n) - 1) & ~((1 << rng.randint(0, n)) - 1)
                if stored and rng.random() < 0.5:
                    target = specialise(rng, rng.choice(stored), point=True)
                else:
                    target = Box.point(n, rng.getrandbits(n))
                q = Box.point(n, (q.val & keep) | (target.val & ~keep))
            full = db.all_containing(q, include_shadowed=True)
            want = min(full, key=lambda b: b.index) if full else None
            before = db.cluster_visits
            got = db.find_containing(q)
            resumed += db.cluster_visits - before
            fresh._resume = 0  # walk from the root
            before = fresh.cluster_visits
            assert fresh.find_containing(q) == want, q
            walked += fresh.cluster_visits - before
            assert got == want, q
        return resumed, walked

    def test_resumed_walks_match_fresh_ones(self):
        rng = random.Random(0x1E7E)
        resumed = walked = 0
        for trial in range(160):
            n = rng.randint(1, 200)
            r, w = self.compare(rng, n, lambda_skip=bool(trial % 2), queries=40)
            resumed += r
            walked += w
        assert resumed < walked

    def test_wide_trie(self):
        rng = random.Random(2000)
        for skip in (True, False):
            resumed, walked = self.compare(rng, 1999, lambda_skip=skip, queries=60)
            assert resumed < walked


def brute_miss_depth(db: BoxDatabase, p: Box) -> int | None:
    """The largest first position, over the stored boxes, at which a box
    fixes the other value than the point ``p``, read trit by trit."""
    firsts = [next(i for i in range(p.n) if b.trit(i) is not Trit.LAMBDA and b.trit(i) is not p.trit(i))
              for b in db.boxes()]
    return max(firsts, default=None)


class TestMissDepth:
    """After a ``find_containing`` miss, ``miss_depth`` reads the deepest
    first disagreement off the walk's memo; it must equal the maximum over
    ``boxes()``, whether the walk started at the root, resumed at a changed
    depth, resumed where a store cut the memo or was answered by the memo
    outright."""

    def random_store(self, rng, db: BoxDatabase) -> None:
        n = db.n
        b = random_box(rng, n, lambda_weight=rng.choice((1, 2, 4, 8)))
        if rng.random() < 0.3:  # a λ-led box: all-λ chain clusters above it
            lead = min(n, CLUSTER_SPAN * rng.randint(1, 4))
            b = Box(n, b.mask & ((1 << (n - lead)) - 1), b.val & ((1 << (n - lead)) - 1))
        if rng.random() < 0.5:
            db.insert(b)
        else:
            db.add_uncovered(b)

    def test_matches_brute_force(self):
        rng = random.Random(0xD3E9)
        paths = {"fresh": 0, "resumed": 0, "resumed after a store": 0, "answered": 0}
        for trial in range(200):
            n = rng.choice((rng.randint(1, 12), rng.randint(13, 40), 150))
            db = BoxDatabase(n, lambda_skip=bool(trial % 2))
            for _ in range(rng.randint(1, 12)):
                self.random_store(rng, db)
            p = Box.point(n, rng.getrandbits(n))
            for _ in range(40):
                if rng.random() < 0.25:
                    self.random_store(rng, db)
                # keep a prefix of random length, often a long one
                rest = rng.choice((rng.randint(0, n), rng.randint(0, min(n, 4))))
                p = Box.point(n, (p.val >> rest << rest) | rng.getrandbits(rest))
                levels = db._levels
                changed = (p.val << db._pad) ^ db._last_val
                first = (n + db._pad - changed.bit_length()) // CLUSTER_SPAN
                start = min(first, db._resume)
                if start >= len(levels):
                    path = "answered"
                elif start == 0:
                    path = "fresh"
                elif db._resume == start:
                    path = "resumed after a store"
                else:
                    path = "resumed"
                if db.find_containing(p) is None:
                    assert db.miss_depth() == brute_miss_depth(db, p), (p, path)
                    paths[path] += 1
                else:
                    with pytest.raises(BoxError):
                        db.miss_depth()
        assert min(paths.values()) > 200, paths

    def test_empty_trie_has_none(self):
        for n in (0, 1, 4, 5, 9):
            for skip in (True, False):
                db = BoxDatabase(n, lambda_skip=skip)
                assert db.find_containing(Box.point(n, 0)) is None
                assert db.miss_depth() is None

    def test_needs_a_miss_since_the_last_store(self):
        db = BoxDatabase(4)
        with pytest.raises(BoxError):
            db.miss_depth()  # no walk yet
        db.add_uncovered(B("FF--"))
        assert db.find_containing(B("FTFF")) is None
        assert db.miss_depth() == 1
        db.add_uncovered(B("FT--"))
        with pytest.raises(BoxError):
            db.miss_depth()  # the store changed the depth the walk stopped at
        assert db.find_containing(B("FTFF")) == B("FT--")
        with pytest.raises(BoxError):
            db.miss_depth()  # a hit

    def test_a_store_below_the_stop_depth_keeps_the_answer(self):
        db = BoxDatabase(8)
        db.add_uncovered(B("FF------"))
        db.add_uncovered(B("TTTTF---"))
        p = B("FTFFFFFF")
        assert db.find_containing(p) is None  # every slot of the root misses
        assert db.miss_depth() == 1
        db.add_uncovered(B("TTTTT---"))  # into the depth-1 cluster, which exists
        assert db.miss_depth() == 1
        assert db.find_containing(p) is None
        db.add_uncovered(B("FTF-----"))  # into the root: the walk's stop depth
        with pytest.raises(BoxError):
            db.miss_depth()
        assert db.find_containing(p) == B("FTF-----")


class TestWideFormulas:
    def test_n_5000_without_recursion_error(self):
        n = 5000
        rng = random.Random(5000)
        db = BoxDatabase(n)
        stored = [random_box(rng, n) for _ in range(3)]
        for b in stored:
            db.insert(b)
        for b in stored:
            q = specialise(rng, b, point=True)
            assert db.find_containing(q) == b
            assert db.all_containing(q) == [b]
        assert db.find_containing(Box.point(n, 0)) is None
        assert sorted(map(repr, db.boxes())) == sorted(map(repr, stored))


class TestClusterPaths:
    def test_stored_depth_and_path_match_the_slots_down(self):
        """Every cluster's depth and path bits equal those recomputed from
        the child slots on the way down from the root."""
        rng = random.Random(0xBA7)
        for trial in range(80):
            n = rng.choice([1, 4, 5, 9, 16, 23, 40])
            db = BoxDatabase(n, lambda_skip=trial % 2 == 0)
            for _ in range(rng.randint(0, 40)):
                db.insert(random_box(rng, n, lambda_weight=rng.randint(0, 6)))
            want = {}
            stack = [(db.root, 0, 0, 0)]
            while stack:
                c, depth, mask, val = stack.pop()
                want[id(c)] = (depth, mask, val)
                for slot, child in c.children.items():
                    m = v = 0
                    for t in rank_to_trits(slot):
                        m = m << 1 | (t is not Trit.LAMBDA)
                        v = v << 1 | (t is Trit.TRUE)
                    stack.append((child, depth + 1, mask << 4 | m, val << 4 | v))
            got = {id(c): (c.depth, c.mask, c.val) for c in db._clusters()}
            assert got == want
            for c in db._clusters():
                assert c.mask.bit_length() <= 4 * c.depth

    def test_paths_on_a_wide_trie_grow_with_depth_only(self):
        n = 5000
        db = BoxDatabase(n)
        db.insert(Box(n, 0b1011 << 12, 0b0010 << 12))
        deep = max(db._clusters(), key=lambda c: c.depth)
        assert deep.depth == (n - 13) // 4
        assert deep.mask.bit_length() <= 4 * deep.depth
        assert list(db.boxes()) == [Box(n, 0b1011 << 12, 0b0010 << 12)]


def reference_cuts(boxes: list[Box], n: int) -> list[int]:
    """Positions a, 0 < a < n, where some box fixes a position at or after
    a but none fixes both one before a and one at or after it, read trit by
    trit."""
    fixed = [[i for i, t in enumerate(b.trits) if t is not Trit.LAMBDA] for b in boxes]
    return [a for a in range(1, n)
            if any(f and f[-1] >= a for f in fixed)
            and not any(f and f[0] < a <= f[-1] for f in fixed)]


class TestCuts:
    def test_match_a_trit_by_trit_reference(self):
        rng = random.Random(0xC7)
        found = 0
        for _ in range(300):
            n = rng.randint(0, 14)
            db = BoxDatabase(n, lambda_skip=rng.random() < 0.5)
            for _ in range(rng.randint(0, 12)):
                # boxes over a random window, so some positions stay cuts
                lo = rng.randint(0, n)
                hi = rng.randint(lo, n)
                inner = random_box(rng, hi - lo) if hi > lo else Box(0, 0, 0)
                db.add_uncovered(Box(n, inner.mask << (n - hi), inner.val << (n - hi)))
            want = reference_cuts(list(db.boxes()), n)
            assert db.cuts() == want
            found += len(want)
        assert found > 500

    def test_edge_cases(self):
        assert BoxDatabase(0).cuts() == BoxDatabase(1).cuts() == BoxDatabase(3).cuts() == []
        db = BoxDatabase(6)
        db.add_uncovered(Box.parse("------"))  # fixes nothing
        assert db.cuts() == []
        db.add_uncovered(Box.parse("-T--F-"))
        assert db.cuts() == [1]  # positions 5 and on are in no box
        db.add_uncovered(Box.parse("-----T"))
        assert db.cuts() == [1, 5]
        db.add_uncovered(Box.parse("F----T"))
        assert db.cuts() == []
