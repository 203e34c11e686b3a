"""The probe-sweep solver: exact model counting over a box database.

The sweep walks candidate points in depth-first order (F before T, first
position most significant).  Each point is checked against the learned-box
cache first, then the clause database; a double miss means the point is a
model.  The box a step finds (or the model) feeds a resolution cascade: a
box ending in F waits in the slot array ``left`` until its T-ending sibling
shows up, the pair resolves to a box one index shorter, and the chain
cascades.  The step then advances the probe once, past everything the
cascade's last box covers.  The run ends on one condition: the probe walks
off the end of the space.  Only the all-λ box carries it there, since any
other last box ends in F, as the probe does at that position.

The cache and the clause database answer the same question through the
same walk: ``BoxDatabase.find_containing`` gives the stored box with the
smallest index containing the probe, and resumes through its own memo of
its last walk, which a store cuts back only to the depth it changes.

The step's box arithmetic runs on ints through the ``boxes`` functions,
but the calls a traced run wraps by name, and whose counts it divides by,
take and give ``Box``es: the cache's ``find_containing``,
``gate_passes`` once per resolvent, ``resolve_cascade`` and the
module-level ``advance``.  It wraps the cache's ``insert`` and the
database's ``all_containing`` too, which the sweep never calls.  ``left``,
``probe`` and ``SweepTrace`` hold ``Box``es too.

Resolved boxes enter the cache only when their λ fraction reaches the
configured insertion ratio; caching everything bloats the trie faster than
it saves probe work.  Every box the sweep caches is stored by
``add_uncovered``, with no containment walk first, and none lies inside a
cache box already.  The step's box b (from the database, a region or a
model) holds the probe p, and so does every resolvent R of its cascade,
with index(R) < index(b).  A cache box C containing b or R fixes a subset
of its positions, so C contains p and index(C) <= index(b); C was cached
before this step, since the step's earlier boxes all have larger indices.
So C is a cache hit for p, and the cache did not miss.  Nor did the λ
test below turn the smallest hit down: b then fixes no λ position, so
index(C) <= index(b) <= n - |λ| and C fixes none either.  And a cache box
containing a resolvent of a cache hit b has index(C) < index(b), so b was
not the smallest hit.

Gap boxes: a probe p that misses both the cache and the clause database
widens to the model box G, p with its last j positions set to λ.  Here j
is the smaller of p's trailing F count and n - 1 - d, where d is the
deepest position at which p first disagrees with some clause box, read off
the database's missed walk (``BoxDatabase.miss_depth``); with no clause box,
j is the trailing F count.  Every clause box disagrees with p at or before
d, a position G keeps, so no clause box meets G: its 2^j points, p and the
points right after it in sweep order, are all models.  No cache box meets
G either: each is a union of parts of clause boxes and of model boxes
already counted, all before p.  The step counts G as 2^j models,
streams its points in sweep order, and caches, cascades and advances past
G in place of p.  G contains p and ends at or after p's last T, so the
cascade pairs it as it would p.  The orderings put variables that occur
in no clause last, and every probe ends in F over those, so j is at least
their number; one clause over n variables is counted in n + 1 steps.

Suffix counts: in pure counting (no model sink) the sweep counts each
independent suffix once.  A *cut* is a position a, 0 < a < n, such that
some stored clause box fixes a position at or after a but none fixes both
one before a and one at or after it (``BoxDatabase.cuts``; the positions
past every clause box are left out, since every gap box spans them).
``build_order`` keeps each connected component of the clause variables
contiguous, so every boundary between components is one.  Each clause box
then constrains either the prefix x (the first a positions) or the suffix,
so the region x·{F,T}^(n-a) holds 0 models, when x falsifies a prefix box,
or exactly c_a, the suffix's own count.  The sweep enters the region at
x·F^(n-a) and leaves it at the next probe with at least n - a trailing F
positions, so a probe's trailing F count says which regions it closes and
opens; one mark per such probe records the count they open at.  The first
region of a cut to close with models counted since it opened records them
as c_a.  Two facts make this sound.

No gap box reaches a region's width.  Every cut a that ``cuts`` reports
has a stored box B that fixes only positions at or after a.  At a double
miss, B first disagrees with p at or after a, so d >= a and the gap box
keeps position a.  For the same reason, no region is all models.

Shorter cuts are recorded first.  The first region with models of a longer
cut holds a region with models of each shorter cut, and that region closes
first.  So only a region box of a recorded longer cut can reach past a
region's opening, and by then every shorter cut is recorded.  The models
counted since a region of an unrecorded cut opened are all its own, and
the recorded lengths are always the shortest ones.

Each step sets λ: the positions of the widest recorded region the probe p
enters, or none.  It takes the first of these that applies: the smallest
cache hit, if it fixes no λ position; the database's smallest-index box
that fixes none, which means x falsifies a prefix box and which the step
prefers to a deeper cache hit; the region box x·λ^(n-a) adding c_a, if λ
is set; the gap box.  With no λ this is the plain step.  The λ test is
exact: λ covers p's last positions, so a box fixes one of them exactly
when its index passes n - |λ|, and if the smallest hit does, every hit
does.  The region box is cached as ``"component"`` and cascades and
advances like any box containing p: its points are all settled, and it
starts at p, after every point counted before.  So a timed-out count is
still exact for the points before the probe.

``run`` streams each model box as signed-literal tuples through
``cnf.literal_models``, whose template is each box's own prefix: the
literals it fixes up to its index, read once, plus each of its λ tail's
literal combinations in sweep order, mapped back to variable order.  So
``step`` alone decides how wide a model box is.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from collections import defaultdict, deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterable, Iterator

from .boxes import Box, BoxError, carry, contains, last_fixed, tail_resolvent
from .clustertrie import BoxDatabase
from .cnf import CnfProblem, VariableOrder, clause_boxes, literal_models
from .ordering import build_order


class SolverError(RuntimeError):
    """Internal invariant violation; indicates a bug, not a bad input."""


@dataclass
class SolverConfig:
    insertion_ratio: float = 0.45
    ordering: str = "grouped-heuristic"
    mode: str = "count"  # "count" | "enumerate"
    lambda_skip: bool = True
    timeout: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.insertion_ratio <= 1.0:
            raise ValueError("insertion_ratio must lie in [0, 1]")
        if self.mode not in ("count", "enumerate"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.timeout is not None and not self.timeout >= 0:  # NaN fails too
            raise ValueError(f"timeout must be a number of seconds >= 0, not {self.timeout}")


@dataclass
class SolveResult:
    """Outcome of :func:`run`.

    ``models`` holds every model as a signed-literal tuple in enumerate mode
    without an ``on_model`` callback; it is None in count mode and whenever
    models were streamed, so streaming keeps memory independent of the count.
    """

    count: int
    models: list[tuple[int, ...]] | None
    load_seconds: float
    run_seconds: float
    iterations: int
    order: VariableOrder
    timed_out: bool = False


@dataclass
class SweepTrace:
    """Optional per-step recording for debugging and soundness checks."""

    steps: list[tuple[Box, str, Box]] = field(default_factory=list)
    cache_inserts: list[tuple[Box, str]] = field(default_factory=list)


def advance(b: Box, p: Box) -> Box | None:
    """Next probe point past ``b``: the smallest full point after ``p`` in
    sweep order that ``b`` does not contain, or None when none is left;
    it depends only on ``index(b)`` (see ``boxes.carry``).
    """
    n, pv = p.n, p.val
    full = (1 << n) - 1
    if p.mask != full:
        raise BoxError("probe point must be a full point")
    if b.n != n:
        raise BoxError("containment needs equal lengths")
    if not contains(b.mask, b.val, full, pv):
        raise BoxError("advance requires the box to contain the probe point")
    nxt = carry(n, b.mask, pv)
    if nxt >> n:
        return None
    return Box(n, full, nxt)


class SolverState:
    """Mutable sweep state over a prepared box database (permuted space)."""

    def __init__(
        self,
        n: int,
        database: BoxDatabase,
        config: SolverConfig | None = None,
        # receives points, or signed-literal tuples once ``run`` installs ``_expand``
        on_model: Callable[[Box], None] | Callable[[tuple[int, ...]], None] | None = None,
        trace: SweepTrace | None = None,
    ):
        self.config = config or SolverConfig()
        self.n = n
        self.database = database
        self.cache = BoxDatabase(n, lambda_skip=self.config.lambda_skip)
        self.left: list[Box | None] = [None] * (n + 1)
        self.probe = Box.point(n, 0)
        self.model_count = 0
        # with no sink given, enumerate mode streams models into ``models``:
        # points, or signed-literal tuples once ``run`` installs ``_expand``
        retain = self.config.mode == "enumerate" and on_model is None
        self.models: list[Box] | list[tuple[int, ...]] | None = [] if retain else None
        self.on_model = self.models.append if retain else on_model
        # what a model box streams as: its points, unless ``run`` installs
        # the literal-tuple expansion
        self._expand: Callable[[Box], Iterator] = self._points
        self.trace = trace
        # Suffix counts (module docstring), in pure counting only:
        # ``_lengths`` holds each cut's suffix length n - a, ascending, and
        # ``suffix_counts`` c_a for the first ``_known`` of them, keyed by
        # length.  ``_marks`` holds (z, count) per probe that opened regions,
        # z falling to the top: a cut of length s opened its current region
        # at the topmost mark with z >= s, at that count.  A probe enters
        # some cut's region when its value has no bit under ``_entry``.
        self.suffix_counts: dict[int, int] = {}
        cuts = database.cuts() if self.on_model is None else []
        self._lengths = [n - a for a in reversed(cuts)]
        self._known = 0
        self._marks: list[tuple[int, int]] = []
        self._entry = (1 << self._lengths[0]) - 1 if self._lengths else 0
        self.covered = False
        self.timed_out = False
        self.deadline: float | None = None  # set by run_loop
        self.iterations = 0

    @property
    def done(self) -> bool:
        return self.covered or self.timed_out

    def gate_passes(self, r: Box) -> bool:
        """Selective insertion: enough of the box must be wildcards."""
        return r.lambda_count >= self.config.insertion_ratio * self.n

    def _cache_insert(self, box: Box, source: str) -> None:
        if self.trace is not None:
            self.trace.cache_inserts.append((box, source))
        self.cache.add_uncovered(box)

    def resolve_cascade(self, b: Box) -> Box:
        """Feed the just-processed box through the pending-resolution slots.

        Returns the cascade's last box: ``b`` itself, or its last resolvent.
        """
        n, left = self.n, self.left
        cur = b
        while True:
            m, v = cur.mask, cur.val
            k = last_fixed(n, m)
            if k == 0:
                # already cached: by ``step``, or as a resolvent, which every
                # insertion ratio admits when all of it is λ
                return cur
            if not v >> (n - k) & 1:  # ends in F
                left[k] = cur  # most recent left-branching box wins
                return cur
            partner = left[k]
            if partner is None:
                raise SolverError(f"no pending left box at index {k} for {cur!r}")
            resolvent = tail_resolvent(m, v, partner.mask, partner.val)
            if resolvent is None:
                raise SolverError(
                    f"cascade pair not tail-resolvable: {cur!r} vs {partner!r}"
                )
            cur = Box(n, *resolvent)
            if self.gate_passes(cur):
                self._cache_insert(cur, "resolution")

    def _points(self, m: Box) -> Iterator[Box]:
        """The points of the model box ``m`` in sweep order."""
        n, full = self.n, (1 << self.n) - 1
        return (Box(n, full, m.val | t) for t in range(1 << m.lambda_count))

    def _count_models(self, m: Box) -> bool:
        """Add the model box ``m``'s points to the count and stream them in
        sweep order.  Returns False, counting only the points already
        streamed, if the deadline passes part-way."""
        size = 1 << m.lambda_count
        sink, deadline = self.on_model, self.deadline
        if sink is None:
            self.model_count += size
            return True
        expanded = self._expand(m)
        # the deadline is checked before every 256 models but the first
        for streamed in range(0, size, 256):
            if streamed and deadline is not None and time.perf_counter() > deadline:
                self.model_count += streamed
                self.timed_out = True
                return False
            deque(map(sink, islice(expanded, 256)), 0)
        self.model_count += size
        return True

    def _gap_box(self, p: Box) -> Box:
        """The model probe ``p`` widened to its gap box: λ over its trailing
        F positions that lie past d, the deepest first disagreement of p
        with a clause box, so every clause box still misses the box."""
        n, pv = self.n, p.val
        tail = (pv & -pv) - 1 if pv else (1 << n) - 1
        if tail:
            d = self.database.miss_depth()
            if d is not None:
                tail &= (1 << (n - 1 - d)) - 1
        return Box(n, p.mask & ~tail, pv)

    def step(self) -> bool:
        """One sweep iteration; returns False once the run is finished."""
        if self.done:
            return False
        p = self.probe
        pv, lam = p.val, 0
        if self._entry and not pv & self._entry:
            # p enters the region of at least one cut.  Close the region of
            # every cut of length s <= z: read from the top, if models were
            # counted since a mark's count, each cut not yet recorded up to
            # its z records them as its c_a.  Then one mark opens p's regions.
            count, marks = self.model_count, self._marks
            lengths, known = self._lengths, self._known
            z = (pv & -pv).bit_length() - 1 if pv else self.n  # trailing F count
            while marks:
                top, start = marks[-1]
                if start < count:
                    j = bisect_right(lengths, min(top, z))
                    for t in lengths[known:j]:
                        self.suffix_counts[t] = count - start
                    known = max(known, j)
                if top > z:
                    break
                marks.pop()
            self._known = known
            marks.append((z, count))
            # the widest recorded region p enters; lam is its box's λ positions
            i = bisect_right(lengths, z, 0, known)
            if i:
                lam = (1 << lengths[i - 1]) - 1
        source = "cache"
        b = self.cache.find_containing(p)
        if b is None or b.mask & lam:
            # the smallest-index hit advances the probe furthest; it is the
            # one worth caching
            b = self.database.find_containing(p)
            if b is not None and not b.mask & lam:
                source = "database"
            elif lam:
                source, b = "component", Box(self.n, p.mask ^ lam, pv)
                self.model_count += self.suffix_counts[lam.bit_length()]
            else:
                source, b = "model", self._gap_box(p)
                if not self._count_models(b):
                    return False
            self._cache_insert(b, source)
        # Every cascade box contains p: each partner waiting in ``left``
        # agrees with p wherever it is fixed but at the pivot, which the
        # resolvent sets to λ.  So advancing past one depends only on its
        # index, and the indices fall strictly: the last box skips furthest,
        # and every earlier one ends in T, so none contains the point it
        # skips to.
        nxt = advance(self.resolve_cascade(b), p)
        if nxt is None:
            self.covered = True
        else:
            self.probe = nxt
        self.iterations += 1
        if self.trace is not None:
            self.trace.steps.append((p, source, b))
        return not self.done

    def run_loop(self, deadline: float | None = None) -> bool:
        """Run to completion; returns True if the deadline cut it short.

        The deadline is checked before the first step and every 256 steps,
        so one already past stops the run with no step taken.
        """
        self.deadline = deadline
        while not self.done:
            if (
                deadline is not None
                and self.iterations % 256 == 0
                and time.perf_counter() > deadline
            ):
                self.timed_out = True
                break
            self.step()
        return self.timed_out


def _merge_siblings(boxes: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """One pairing pass over the (mask, val) boxes ``boxes``, pivot positions
    last to first: at each pivot, every two boxes with the same mask that fix
    the pivot and differ only there become one box with the pivot λ.  A
    merged box joins its new mask group, so it may merge again at an earlier
    pivot.  Returns the distinct boxes left, sorted by fixed count, then
    mask, then val.

    Each pivot visits only the masks that fix it: an input mask is listed
    at each of its bits, a mask first made at pivot p only at its bits
    above p, since the pass is done with the others.
    """
    groups: dict[int, set[int]] = {}  # mask -> its vals
    for m, v in boxes:
        groups.setdefault(m, set()).add(v)
    at: dict[int, list[int]] = defaultdict(list)  # pivot bit -> the masks fixing it

    def add_at(m: int, bits: int) -> None:
        while bits:
            at[bits & -bits].append(m)
            bits &= bits - 1

    for m in groups:
        add_at(m, m)
    for pivot in [1 << i for i in range(max(groups, default=0).bit_length())]:
        for m in at.pop(pivot, ()):
            vals = groups[m]
            pairs = [v for v in vals if not v & pivot and v | pivot in vals]
            if not pairs:
                continue
            vals.difference_update(pairs, [v | pivot for v in pairs])
            target = m ^ pivot
            if target not in groups:
                groups[target] = set()
                add_at(target, target & -(pivot << 1))  # its pivots after this one
            groups[target].update(pairs)
    masks = sorted(groups, key=lambda m: (m.bit_count(), m))
    return [(m, v) for m in masks for v in sorted(groups[m])]


def build_database(
    cnf: CnfProblem, order: VariableOrder, lambda_skip: bool = True
) -> BoxDatabase:
    """The clause database, merged before it is stored.

    The distinct clause boxes, as the (mask, val) pairs ``clause_boxes``
    yields, go through one sibling-merge pass (see ``_merge_siblings``, the
    pairing step of Quine–McCluskey): pivot by pivot, two boxes with the
    same mask that differ only at the pivot become one box with the pivot
    λ.  Only the merged boxes become ``Box``es, as they are stored in
    increasing fixed-count order.  Those fixing the fewest positions are
    stored by ``add_uncovered``: a box containing a different box fixes a
    strict subset of its positions, so none of them lies inside another.
    Every other box goes through ``insert``, which skips a box that a
    stored box contains.  So the stored set is the merged boxes that no
    other merged box contains.

    The union of the boxes is the clauses' union, so every count is the
    same as one box per clause.  The stored set depends only on the set of
    distinct clauses, not on their order or repeats.
    """
    n = cnf.variable_count
    db = BoxDatabase(n, lambda_skip=lambda_skip)
    merged = _merge_siblings(clause_boxes({cl.literals for cl in cnf.clauses}, n, order))
    fewest = merged[0][0].bit_count() if merged else 0
    for m, v in merged:
        if m.bit_count() == fewest:
            db.add_uncovered(Box(n, m, v))
        else:
            db.insert(Box(n, m, v))
    return db


def run(
    cnf: CnfProblem,
    config: SolverConfig | None = None,
    on_model: Callable[[tuple[int, ...]], None] | None = None,
) -> SolveResult:
    """Count (or enumerate) the models of ``cnf``.

    Load time covers ordering and database construction; run time covers the
    sweep itself.  ``config.timeout`` bounds all three: the sweep stops at
    its next deadline check once that long has passed since the call.
    Models stream through ``on_model`` as signed-literal tuples in the
    original variable numbering.
    """
    config = config or SolverConfig()
    t0 = time.perf_counter()
    deadline = None if config.timeout is None else t0 + config.timeout
    order = build_order(cnf, config.ordering)
    database = build_database(cnf, order, lambda_skip=config.lambda_skip)
    load_seconds = time.perf_counter() - t0

    t1 = time.perf_counter()
    state = SolverState(cnf.variable_count, database, config, on_model=on_model)
    if state.on_model is not None:
        state._expand = literal_models(order)
    timed_out = state.run_loop(deadline)
    run_seconds = time.perf_counter() - t1

    return SolveResult(
        count=state.model_count,
        models=state.models,
        load_seconds=load_seconds,
        run_seconds=run_seconds,
        iterations=state.iterations,
        order=order,
        timed_out=timed_out,
    )
