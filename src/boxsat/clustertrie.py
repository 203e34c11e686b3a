"""Cluster trie: a set-of-boxes index queried by wide bitmask intersection.

Four trit positions collapse into one trie node (a *cluster*).  A cluster
holds two 128-bit masks: ``boxes_mask`` marks sub-boxes that terminate here
(one bit per slot of the 121-way enumeration), ``children_mask`` marks the
length-4 prefixes (slots 40..120) under which deeper boxes live.  Stored
sub-boxes are trimmed at the box's last non-λ position, so a slot's trit
string never ends in λ; everything after it is implicitly λ.  A box stored
at depth d therefore has index 4d + 1 .. 4d + 4 (the all-λ box, index 0,
sits in the root's slot 0).  Slots rank by sub-box length, so slot order
inside a cluster is index order: a stored slot's length is its box's
index less 4d, and the lowest hit slot is the hit with the smallest index.

A containment query intersects each visited cluster's masks with a
precomputed per-input row listing every slot that could contain the input's
sub-box.  One intersection therefore replaces up to 16 individual trie-edge
probes.  The rows are derived from the same 4-bit (mask, val) slot fields
the walks read, plus each slot's sub-box length.  Chains of clusters
holding no boxes and only the all-λ child are hopped over without touching
the masks (the λ-skip).

Every walk loops over an explicit stack or per-depth lists of clusters, so
formula width is bounded by memory, not by Python's recursion limit.  A
walk shifts the query's (mask, val) bits up by the λ padding that fills the
last cluster, so every depth's field is one 4-bit read at a fixed shift,
ranked through one table.  Only the last depth's field gains λs, at its end, and every box
stored there is no longer than the unpadded field, so it contains the
padded field exactly when it contains the unpadded one.  Each cluster
knows its depth and the (mask, val) bits of the slots on its path, set
once when it is created, so a walk pushes bare clusters and the witness
box is the path plus the hit slot's 4-bit field, shifted into place.
Besides "some containing box" (``find_containing``) and "every containing
box" (``all_containing``), both depth-first, the trie answers "the
containing box with the smallest index" (``smallest_containing``) by a walk
that reads one depth at a time and stops at the first depth with a hit.  It
keeps its last walk's per-depth cluster lists and resumes at the first depth
where the next query differs, so a query sharing a long prefix with the
last one reads only the depths below that prefix.  After a miss, the same
memo gives the deepest position at which a stored box first fails to
contain the query (``miss_depth``), through a table of each slot's first
such offset per query field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .boxes import (
    SUBBOX_RANKS,
    Box,
    BoxError,
    Trit,
    rank_to_trits,
    subbox_rank,
)

CLUSTER_SPAN = 4
CHILD_SLOT_LOW = subbox_rank((Trit.LAMBDA,) * 4)  # 40, the all-λ prefix
_ALL_LAMBDA_CHILD_BIT = 1 << CHILD_SLOT_LOW


def _slot_tables():
    """Per slot, its sub-box as a left-aligned 4-bit (mask, val) field and
    the sub-box's length.  Per field length, the slot of a right-aligned
    field, indexed by ``mask << 4 | val``."""
    lam, true = Trit.LAMBDA, Trit.TRUE
    masks, vals, lengths = [], [], []
    ranks = tuple([0] * 256 for _ in range(CLUSTER_SPAN + 1))
    for slot in range(SUBBOX_RANKS):
        trits = rank_to_trits(slot)
        m = v = 0
        for t in trits:
            m = m << 1 | (t is not lam)
            v = v << 1 | (t is true)
        length = len(trits)
        masks.append(m << (CLUSTER_SPAN - length))
        vals.append(v << (CLUSTER_SPAN - length))
        lengths.append(length)
        ranks[length][m << 4 | v] = slot
    return tuple(masks), tuple(vals), tuple(lengths), ranks


_SLOT_MASK, _SLOT_VAL, _SLOT_LENGTH, _FIELD_RANKS = _slot_tables()


def _miss_offsets():
    """Per query slot, four masks of slots: the ``o``-th holds every slot
    whose first failing position is offset ``o`` of the field, a failing
    position being one the slot fixes and the query leaves λ or fixes to
    the other value.  A slot that contains the query is in none."""
    # per offset, the slots λ there, fixed to F there and fixed to T there
    by_trit = []
    for o in range(CLUSTER_SPAN):
        bit = 1 << (CLUSTER_SPAN - 1 - o)
        lam = false = true = 0
        for j, (m, v) in enumerate(zip(_SLOT_MASK, _SLOT_VAL)):
            if not m & bit:
                lam |= 1 << j
            elif v & bit:
                true |= 1 << j
            else:
                false |= 1 << j
        by_trit.append((bit, lam, false, true))
    rows = []
    for mv, vv in zip(_SLOT_MASK, _SLOT_VAL):
        row = []
        alive = (1 << SUBBOX_RANKS) - 1  # slots passing every earlier offset
        for bit, lam, false, true in by_trit:
            passing = lam | (0 if not mv & bit else true if vv & bit else false)
            row.append(alive & ~passing)
            alive &= passing
        rows.append(tuple(row))
    return tuple(rows)


_MISS_OFFSETS = _miss_offsets()


@dataclass(frozen=True)
class LookupTables:
    """Per-input-slot rows of containing box slots and coverable child slots."""

    box_containers: tuple[int, ...]
    child_containers: tuple[int, ...]


@lru_cache(maxsize=1)
def build_lookup_tables() -> LookupTables:
    """Generate both 121-row tables from the slots' (mask, val) fields.

    Slot j covers input slot v when every position j fixes is fixed in v to
    the same value.  A box row also needs j's sub-box to be no longer than
    v's: a stored box ends where its slot does, and its implicit λ tail
    contains whatever follows.  A child row takes the length-4 prefixes
    (slots from ``CHILD_SLOT_LOW``) and matches them against v padded with
    λ, which the field's unused low bits already are.
    """
    box_rows = []
    child_rows = []
    for mv, vv, lv in zip(_SLOT_MASK, _SLOT_VAL, _SLOT_LENGTH):
        brow = crow = 0
        for j, (mj, vj, lj) in enumerate(zip(_SLOT_MASK, _SLOT_VAL, _SLOT_LENGTH)):
            if mj & ~mv or (vj ^ vv) & mj:
                continue
            if lj <= lv:
                brow |= 1 << j
            if j >= CHILD_SLOT_LOW:
                crow |= 1 << j
        box_rows.append(brow)
        child_rows.append(crow)
    return LookupTables(tuple(box_rows), tuple(child_rows))


class Cluster:
    """A trie node.  ``mask``/``val`` hold the 4-bit fields of the child
    slots leading to it from the root, first slot highest, so they have
    4 × ``depth`` bits."""

    __slots__ = ("boxes_mask", "children_mask", "children", "depth", "mask", "val")

    def __init__(self, depth: int = 0, mask: int = 0, val: int = 0):
        self.boxes_mask = 0
        self.children_mask = 0
        self.children: dict[int, Cluster] = {}
        self.depth = depth
        self.mask = mask
        self.val = val


class BoxDatabase:
    """Stores length-``n`` boxes; answers containment queries over them.

    ``insert`` is a no-op when some stored box already contains the new one
    (the containment short-circuit); the reverse direction is *not* checked,
    so a newly inserted box may coexist with boxes it subsumes.
    ``add_uncovered`` skips that check's walk, so a box it stores may lie
    inside another stored box as well.  Either way a box equal to a stored
    one is stored once, and ``len`` counts the boxes ``boxes()`` yields.

    Each cluster carries its own depth and path bits, so nothing is
    computed per push.  ``find_containing`` and ``all_containing`` pop
    clusters off an explicit stack; children are pushed highest slot first,
    so clusters pop depth-first in increasing slot order.  Such a query
    first hops the popped cluster's λ-skip chain (clusters on the last
    depth have no children, so a hop never runs past it), then reads the
    query's rank at that depth and intersects.  ``smallest_containing``
    walks the same order one depth at a time, reading the query's rank once
    per depth.  The queries inline their walks instead of calling shared
    helpers per cluster: this is the sweep's innermost loop, and those calls
    made the ``blocks`` sweep about a third slower.

    The trie keeps its all-λ chain (the root, its slot-40 child, that
    child's slot-40 child, ...) as a list, extended when such a cluster is
    made, so ``find_containing`` can index it to start below the chain
    clusters that its memo of the last point query says miss.
    """

    def __init__(self, n: int, lambda_skip: bool = True):
        if n < 0:
            raise BoxError("negative variable count")
        self.n = n
        self.lambda_skip = lambda_skip
        self.root = Cluster()
        self._chain = [self.root]  # the all-λ chain, by depth
        self.box_count = 0
        self.cluster_visits = 0  # clusters whose masks were intersected
        # ``smallest_containing``'s last walk: its padded query, each depth's
        # cluster list down to where it stopped, and its answer; None until
        # the first walk and after every change to the trie
        self._levels: list[list[Cluster]] | None = None
        self._last_mask = self._last_val = 0
        self._last_hit: Box | None = None
        self._tables = build_lookup_tables()
        last = max(0, (n - 1) // CLUSTER_SPAN)
        # positions the path space carries past n, all λ
        self._pad = CLUSTER_SPAN * (last + 1) - n
        # per depth, the shift of its 4-bit field in the padded bits
        self._shifts = tuple(range(CLUSTER_SPAN * last, -1, -CLUSTER_SPAN))
        self._full = ((1 << n) - 1) << self._pad  # a point's padded mask
        # ``find_containing``'s memo: its last point query (padded bits) and
        # how many leading chain clusters hold no box containing it
        self._point = 0
        self._clear = 0

    def __len__(self) -> int:
        return self.box_count

    # -- helpers ---------------------------------------------------------

    def _check_length(self, b: Box):
        if b.n != self.n:
            raise BoxError(f"box length {b.n} != database length {self.n}")

    def _witness(self, cluster: Cluster, slot: int) -> Box:
        """The box stored in ``slot`` of ``cluster``."""
        # the path plus the slot's field fills 4 × (depth + 1) positions;
        # place them first and drop the λ padding past n
        up = self._shifts[cluster.depth]
        pad = self._pad
        return Box(
            self.n,
            ((cluster.mask << CLUSTER_SPAN | _SLOT_MASK[slot]) << up) >> pad,
            ((cluster.val << CLUSTER_SPAN | _SLOT_VAL[slot]) << up) >> pad,
        )

    def _clusters(self):
        """Every cluster in walk order, without λ-skip."""
        stack = [self.root]
        while stack:
            cluster = stack.pop()
            yield cluster
            children, kids = cluster.children, cluster.children_mask
            while kids:
                slot = kids.bit_length() - 1
                kids ^= 1 << slot
                stack.append(children[slot])

    # -- operations ------------------------------------------------------

    def insert(self, b: Box) -> None:
        # the containment check is not a probe: it leaves the memo as it was
        memo = self._point, self._clear
        found = self.find_containing(b)
        self._point, self._clear = memo
        if found is None:  # otherwise already covered; leave the structure untouched
            self.add_uncovered(b)

    def add_uncovered(self, b: Box) -> None:
        """Store ``b`` without the containment check ``insert`` makes first.

        ``b`` may lie inside a stored box: the trie then holds a box it does
        not need, and every query still answers with a stored box.  A box
        equal to a stored one finds its slot bit set and changes nothing.
        """
        self._check_length(b)
        k = b.index
        # the all-λ box (k = 0) has an empty field, which ranks to root slot 0
        terminal = max(0, k - 1) // CLUSTER_SPAN
        pad, shifts, ranks = self._pad, self._shifts, _FIELD_RANKS[CLUSTER_SPAN]
        mask, val = b.mask << pad, b.val << pad
        cluster = self.root
        for d in range(terminal):
            shift = shifts[d]
            slot = ranks[((mask >> shift) & 15) << 4 | ((val >> shift) & 15)]
            child = cluster.children.get(slot)
            if child is None:
                child = Cluster(d + 1, cluster.mask << CLUSTER_SPAN | _SLOT_MASK[slot],
                                cluster.val << CLUSTER_SPAN | _SLOT_VAL[slot])
                cluster.children[slot] = child
                cluster.children_mask |= 1 << slot
                if not child.mask:  # only slot 40 is all λ: cluster ends the chain
                    self._chain.append(child)
            cluster = child
        # the trimmed field: up to and including the box's last non-λ
        length = k - CLUSTER_SPAN * terminal
        shift = self.n + pad - k
        width = (1 << length) - 1
        bit = 1 << _FIELD_RANKS[length][((mask >> shift) & width) << 4 | ((val >> shift) & width)]
        if cluster.boxes_mask & bit:  # stored before, which lowered ``_clear`` then
            return
        self._levels = None  # the trie changes: drop the level walk's memo
        cluster.boxes_mask |= bit
        if not cluster.mask and cluster.depth < self._clear:  # a chain cluster
            self._clear = cluster.depth
        self.box_count += 1

    def find_containing(self, q: Box) -> Box | None:
        """Some stored box containing ``q``, or None.

        Greedy per cluster: the lowest hit slot, which is the hit with the
        smallest index, wins outright; otherwise matching children are
        scanned in increasing slot order and the first hit found below is
        returned.

        The trie remembers its last point query p and how many leading
        clusters of the all-λ chain (root, its slot-40 child, that child's
        slot-40 child, ...) hold no box containing p: the hit's depth after
        a hit on the chain, and every one, including chain clusters not yet
        made, after a miss or a hit off the chain.  ``add_uncovered`` lowers
        that count to the depth of any chain cluster it stores into.  A
        chain cluster's boxes fix only its own four positions, so one that
        misses p misses every query that fixes no position there to a value
        p does not.  The walk hops the chain clusters before both the count
        and the first position where ``q`` fixes a value p does not, without
        reading their masks, and starts at the chain cluster below them;
        only if nothing is found there does it go back up, deepest first,
        for their other children.  The all-λ child has the lowest child
        slot, so that is the order the unhinted walk takes: the answer is
        the same, with fewer clusters visited.  A box query is not
        remembered, since a box its walk misses may still contain a point
        inside it; ``insert``'s containment check leaves the memo as it was.
        """
        if q.n != self.n:  # ``_check_length``, inline on the sweep's hottest call
            raise BoxError(f"box length {q.n} != database length {self.n}")
        pad, shifts, ranks = self._pad, self._shifts, _FIELD_RANKS[CLUSTER_SPAN]
        qm, qv, skip = q.mask << pad, q.val << pad, self.lambda_skip
        box_tab, child_tab = self._tables.box_containers, self._tables.child_containers
        chain = self._chain
        visits = 0
        # chain clusters hopped: those wholly before the first position where
        # q fixes a value p does not, capped by the memo's count and the chain
        d = (self.n + pad - (qm & (qv ^ self._point)).bit_length()) // CLUSTER_SPAN
        if d > self._clear:
            d = self._clear
        if d > len(chain):
            d = len(chain)
        point = qm == self._full
        stack = chain[d:d + 1]
        while True:
            while stack:
                cluster = stack.pop()
                if skip:
                    while not cluster.boxes_mask and cluster.children_mask == _ALL_LAMBDA_CHILD_BIT:
                        cluster = cluster.children[CHILD_SLOT_LOW]
                visits += 1
                shift = shifts[cluster.depth]
                rank = ranks[((qm >> shift) & 15) << 4 | ((qv >> shift) & 15)]
                hits = cluster.boxes_mask & box_tab[rank]
                if hits:
                    self.cluster_visits += visits
                    if point:  # the chain clusters above a chain hit missed q; off it, all did
                        self._point = qv
                        self._clear = len(shifts) if cluster.mask else cluster.depth
                    return self._witness(cluster, (hits & -hits).bit_length() - 1)
                kids = cluster.children_mask & child_tab[rank]
                children = cluster.children
                while kids:
                    slot = kids.bit_length() - 1
                    kids ^= 1 << slot
                    stack.append(children[slot])
            if not d:
                break
            # a hopped cluster: its boxes miss q and its all-λ child is
            # searched, so only its other children are left
            d -= 1
            cluster = chain[d]
            kids = cluster.children_mask & ~_ALL_LAMBDA_CHILD_BIT
            if kids:
                visits += 1
                shift = shifts[cluster.depth]
                kids &= child_tab[ranks[((qm >> shift) & 15) << 4 | ((qv >> shift) & 15)]]
                children = cluster.children
                while kids:
                    slot = kids.bit_length() - 1
                    kids ^= 1 << slot
                    stack.append(children[slot])
        self.cluster_visits += visits
        if point:
            self._point, self._clear = qv, len(shifts)
        return None

    def smallest_containing(self, q: Box) -> Box | None:
        """The stored box with the smallest index containing ``q``, or None.

        Equals ``min(self.all_containing(q), key=lambda b: b.index)``, ties
        going to the box met first in that walk.  The walk reads one depth
        at a time: each depth's list holds its clusters in that walk's
        order, children appended in increasing slot order and a λ-skip
        pass-through cluster handing its all-λ child to the next depth in
        its own place.  A box at depth d has index 4d + 1 .. 4d + 4, so the
        walk stops at the first depth with a hit and takes the lowest slot
        length there, the first cluster among equals.

        The walk keeps its last query, each depth's list, and the box it
        returned.  A depth's list depends only on the query's positions at
        earlier depths, and the walk read a depth's field only if every
        earlier depth missed.  So if the next query first changes at depth
        c, every list down to c is still its list and every depth above c
        still misses: past the stop depth the last box is again the answer,
        and otherwise the walk resumes at c.  ``add_uncovered``, the one
        path that changes the trie, drops the memo, so this holds for any
        sequence of queries.
        """
        self._check_length(q)
        pad = self._pad
        qm, qv = q.mask << pad, q.val << pad
        changed = (qm ^ self._last_mask) | (qv ^ self._last_val)
        self._last_mask, self._last_val = qm, qv
        levels = self._levels
        if levels is None:
            levels = self._levels = [[self.root]]
            d = 0
        else:
            # the depth of the first changed position; past every depth when none is
            d = (self.n + pad - changed.bit_length()) // CLUSTER_SPAN
            if d >= len(levels):
                return self._last_hit
            del levels[d + 1:]
        shifts, ranks, skip = self._shifts, _FIELD_RANKS[CLUSTER_SPAN], self.lambda_skip
        box_tab, child_tab = self._tables.box_containers, self._tables.child_containers
        visits = 0
        while True:
            shift = shifts[d]
            rank = ranks[((qm >> shift) & 15) << 4 | ((qv >> shift) & 15)]
            box_row, child_row = box_tab[rank], child_tab[rank]
            below: list[Cluster] = []
            best = None
            best_length = CLUSTER_SPAN + 1
            for cluster in levels[d]:
                if skip and not cluster.boxes_mask and cluster.children_mask == _ALL_LAMBDA_CHILD_BIT:
                    below.append(cluster.children[CHILD_SLOT_LOW])
                    continue
                visits += 1
                hits = cluster.boxes_mask & box_row
                if hits:
                    slot = (hits & -hits).bit_length() - 1
                    if _SLOT_LENGTH[slot] < best_length:
                        best_length = _SLOT_LENGTH[slot]
                        best = (cluster, slot)
                elif best is None:
                    kids = cluster.children_mask & child_row
                    children = cluster.children
                    while kids:
                        low = kids & -kids
                        kids ^= low
                        below.append(children[low.bit_length() - 1])
            if best is not None or not below:
                break
            levels.append(below)
            d += 1
        self.cluster_visits += visits
        hit = self._last_hit = None if best is None else self._witness(*best)
        return hit

    def miss_depth(self) -> int | None:
        """After a ``smallest_containing`` miss, the deepest position at
        which a stored box first fails to contain that query (for a point,
        the first position where the box fixes the other value); None when
        the trie holds no box.

        Read off the missed walk's memo, with no walk of its own.  The walk
        stopped at its last depth D because every box slot and child slot
        of D's clusters misses the query inside D's field, while their paths
        contain its first 4D positions.  A box anywhere else missed at an
        earlier depth, so it fails before position 4D.  So the answer is 4D
        plus the largest offset, over D's set slots, of a slot's first
        position not containing the query's field.  A later query that
        ``smallest_containing`` answers from the memo shares D's field, so
        the answer stands for it too.
        """
        levels = self._levels
        if levels is None or self._last_hit is not None:
            raise BoxError("miss_depth needs a smallest_containing miss since the last store")
        d = len(levels) - 1
        seen = 0
        for cluster in levels[d]:
            seen |= cluster.boxes_mask | cluster.children_mask
        shift = self._shifts[d]
        qm, qv = self._last_mask, self._last_val
        row = _MISS_OFFSETS[_FIELD_RANKS[CLUSTER_SPAN][((qm >> shift) & 15) << 4 | ((qv >> shift) & 15)]]
        for offset in range(CLUSTER_SPAN - 1, -1, -1):
            if seen & row[offset]:
                return CLUSTER_SPAN * d + offset
        return None  # only an empty trie's root has no slot set

    def all_containing(self, q: Box, include_shadowed: bool = False) -> list[Box]:
        """All stored boxes containing ``q`` reachable by the mask walk.

        By default a cluster with box hits does not descend further, so
        deeper containing boxes shadowed by a hit are omitted.  Pass
        ``include_shadowed=True`` to descend regardless and return the full
        containing set.
        """
        self._check_length(q)
        pad, shifts, ranks = self._pad, self._shifts, _FIELD_RANKS[CLUSTER_SPAN]
        qm, qv, skip = q.mask << pad, q.val << pad, self.lambda_skip
        box_tab, child_tab = self._tables.box_containers, self._tables.child_containers
        out: list[Box] = []
        stack = [self.root]
        while stack:
            cluster = stack.pop()
            if skip:
                while not cluster.boxes_mask and cluster.children_mask == _ALL_LAMBDA_CHILD_BIT:
                    cluster = cluster.children[CHILD_SLOT_LOW]
            self.cluster_visits += 1
            shift = shifts[cluster.depth]
            rank = ranks[((qm >> shift) & 15) << 4 | ((qv >> shift) & 15)]
            hits = h = cluster.boxes_mask & box_tab[rank]
            while h:
                low = h & -h
                h ^= low
                out.append(self._witness(cluster, low.bit_length() - 1))
            if hits and not include_shadowed:
                continue
            kids = cluster.children_mask & child_tab[rank]
            children = cluster.children
            while kids:
                slot = kids.bit_length() - 1
                kids ^= 1 << slot
                stack.append(children[slot])
        return out

    def cuts(self) -> list[int]:
        """Every position a, 0 < a < n, such that a stored box fixes a
        position at or after a but none fixes both one before a and one at
        or after it, in increasing order.

        A box whose fixed positions run from f to l rules out the cuts
        f + 1 .. l, and positions past every box's last fixed one are no
        cuts either: no box constrains them.  Every box in the subtree of a
        cluster off the all-λ chain has its path's first fixed position f,
        so the cluster's longest slot gives its boxes' span, and the walk
        skips the subtree once no cut past f is left; a chain cluster's
        boxes are read slot by slot.  The walk builds no box and stops once
        no cut is left.

        The sweep's suffix counts rely on every reported cut being
        constrained: some stored box fixes only positions at or after it,
        so no gap box spans its regions (see "Suffix counts" in
        ``boxsat.solver``).
        """
        left = ((1 << self.n) - 1) & ~1  # bit a: a may still be a cut
        end = 0  # past the last fixed position of every box read
        stack = [self.root]
        while stack and left:
            cluster = stack.pop()
            base = CLUSTER_SPAN * cluster.depth
            boxes = cluster.boxes_mask
            if cluster.mask:
                first = base - cluster.mask.bit_length()
                if not left >> (first + 1):
                    continue
                if boxes:
                    stop = base + _SLOT_LENGTH[boxes.bit_length() - 1]
                    end = max(end, stop)
                    left &= ~((1 << stop) - (1 << (first + 1)))
            else:
                while boxes:
                    low = boxes & -boxes
                    boxes ^= low
                    slot = low.bit_length() - 1
                    first = base + CLUSTER_SPAN - _SLOT_MASK[slot].bit_length()
                    stop = base + _SLOT_LENGTH[slot]
                    end = max(end, stop)
                    if first + 1 < stop:
                        left &= ~((1 << stop) - (1 << (first + 1)))
            children, kids = cluster.children, cluster.children_mask
            while kids:
                slot = kids.bit_length() - 1
                kids ^= 1 << slot
                stack.append(children[slot])
        return [a for a in range(1, end) if left >> a & 1]

    # -- introspection ---------------------------------------------------

    def boxes(self):
        """Yield every stored box (depth-first, increasing slot order)."""
        for cluster in self._clusters():
            m = cluster.boxes_mask
            while m:
                low = m & -m
                m ^= low
                yield self._witness(cluster, low.bit_length() - 1)

    def dump(self) -> str:
        """Textual listing, one ``depth:slot`` line per set bit.

        Box bits print bare; child bits carry a ``>`` suffix.  Depth-first,
        increasing slot order, so equal structures dump identically.
        """
        lines: list[str] = []
        ranks = _FIELD_RANKS[CLUSTER_SPAN]
        for cluster in self._clusters():
            depth = cluster.depth
            if depth:
                # the slot leading here: a length-4 prefix, the path's last field
                slot = ranks[(cluster.mask & 15) << 4 | (cluster.val & 15)]
                lines.append(f"{depth - 1}:{slot}>")
            m = cluster.boxes_mask
            while m:
                low = m & -m
                m ^= low
                lines.append(f"{depth}:{low.bit_length() - 1}")
        return "\n".join(lines)
