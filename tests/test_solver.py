import random
import time
from collections import Counter
from itertools import combinations, islice

import pytest

from boxsat import (
    ORDERING_STRATEGIES,
    Box,
    BoxDatabase,
    Clause,
    CnfProblem,
    SolverConfig,
    VariableOrder,
    build_order,
    clause_to_box,
    parse_dimacs,
    run,
)
from boxsat.benchgen import GraphQuerySpec, InputGraph, generate_cnf, hidden_solution_blocks
from boxsat.boxes import BoxError, Trit
from boxsat.solver import SolverError, SolverState, SweepTrace, advance, build_database
from boxsat.oracle import brute_count, brute_models

from conftest import (
    CHAIN_22_MODELS,
    CHAIN_22_STEPS,
    chain_cnf,
    component_cnf,
    random_clause,
    random_cnf,
)

B = Box.parse


def walkthrough_state(**config_kwargs) -> SolverState:
    """The worked three-variable run: database already holds the resolved
    clause boxes (F--) and (-FF)."""
    db = BoxDatabase(3)
    db.insert(B("F--"))
    db.insert(B("-FF"))
    defaults = dict(insertion_ratio=0.0, mode="enumerate")
    defaults.update(config_kwargs)
    return SolverState(3, db, SolverConfig(**defaults))


class TestAdvance:
    def test_escape_left_subtree(self):
        assert advance(B("F--"), B("FFF")) == B("TFF")

    def test_escape_tail_edge(self):
        assert advance(B("-FF"), B("TFF")) == B("TFT")

    def test_last_point_exhausts(self):
        assert advance(B("TTT"), B("TTT")) is None

    def test_all_lambda_exhausts(self):
        assert advance(B("---"), B("FTF")) is None

    def test_requires_containment(self):
        with pytest.raises(BoxError):
            advance(B("T--"), B("FFF"))

    def test_requires_full_point(self):
        with pytest.raises(BoxError):
            advance(B("F--"), B("F-F"))

    def test_requires_equal_lengths(self):
        with pytest.raises(BoxError):
            advance(B("F--"), B("FFFF"))
        with pytest.raises(BoxError):
            advance(B("F---"), B("FFF"))

    def test_matches_stepwise_oracle(self):
        # successor-by-successor reference: smallest point after p outside b
        rng = random.Random(8)
        for _ in range(300):
            n = rng.randint(1, 8)
            box = Box.from_trits(
                rng.choice([Trit.LAMBDA, Trit.FALSE, Trit.TRUE]) for _ in range(n)
            )
            inside = [bits for bits in range(1 << n) if box.contains(Box.point(n, bits))]
            if not inside:
                continue
            bits = rng.choice(inside)
            expected = None
            for nxt in range(bits + 1, 1 << n):
                if not box.contains(Box.point(n, nxt)):
                    expected = Box.point(n, nxt)
                    break
            assert advance(box, Box.point(n, bits)) == expected


class TestSelectiveInsertion:
    def test_ratio_zero_admits_everything(self):
        state = walkthrough_state(insertion_ratio=0.0)
        assert state.gate_passes(B("TFT"))
        assert state.gate_passes(B("TF-"))

    def test_ratio_one_admits_only_all_lambda(self):
        state = walkthrough_state(insertion_ratio=1.0)
        assert state.gate_passes(B("---"))
        assert not state.gate_passes(B("T--"))

    def test_default_threshold_arithmetic(self):
        state = walkthrough_state(insertion_ratio=0.45)
        assert not state.gate_passes(B("TF-"))  # 1/3 wildcard
        assert state.gate_passes(B("T--"))  # 2/3 wildcard


def first_disagreement(box: Box, p: Box) -> int:
    """The first position at which ``box`` fixes the other value than the
    point ``p``, read trit by trit."""
    return next(i for i in range(p.n)
                if box.trit(i) is not Trit.LAMBDA and box.trit(i) is not p.trit(i))


def reference_gap_box(p: Box, clause_boxes: list[Box]) -> Box:
    """The model probe ``p`` with its last j positions λ: j is p's trailing
    F count, capped at n - 1 - d for d the deepest first disagreement of p
    with a clause box."""
    n = p.n
    j = 0
    while j < n and p.trit(n - 1 - j) is Trit.FALSE:
        j += 1
    if clause_boxes:
        j = min(j, n - 1 - max(first_disagreement(c, p) for c in clause_boxes))
    return Box.from_trits(p.trits[:n - j] + (Trit.LAMBDA,) * j)


def meets(a: Box, b: Box) -> bool:
    """True iff the boxes share a point: no position fixed to opposite
    values in both."""
    return not any(Trit.LAMBDA not in (x, y) and x is not y for x, y in zip(a.trits, b.trits))


class TestWalkthrough:
    def test_cache_states_track_the_figures(self):
        state = walkthrough_state()
        cache = lambda: sorted(map(repr, state.cache.boxes()))

        assert state.probe == B("FFF")
        state.step()  # probe 1: database returns both; F-- advances furthest
        assert cache() == ["Box('F--')"]
        assert state.probe == B("TFF")
        assert state.left[1] == B("F--")

        state.step()  # probe 2 finds (-FF) in the database
        assert cache() == sorted(["Box('F--')", "Box('-FF')"])
        assert state.probe == B("TFT")
        assert state.left[3] == B("-FF")

        state.step()  # probe 3 is the first model; resolution yields (TF-)
        assert state.model_count == 1
        assert cache() == sorted(
            ["Box('F--')", "Box('-FF')", "Box('TFT')", "Box('TF-')"]
        )
        assert state.probe == B("TTF")
        assert state.left[2] == B("TF-")

        state.step()  # probe 4 (TTF) widens to the gap box TT-: two models
        # -FF first disagrees with TTF at position 1, so TTF's last position,
        # and only it, turns λ; TT- resolves through T-- to the all-λ box
        assert state.model_count == 3
        assert {"Box('TT-')", "Box('T--')", "Box('---')"} <= set(cache())
        assert state.covered
        assert state.iterations == 4
        assert not state.step()

    def test_walkthrough_multibox_probe_picks_smaller_index(self):
        # first probe: both (F--) and (-FF) contain it; both are cached but
        # the probe advances past the index-1 box
        state = walkthrough_state()
        trace = SweepTrace()
        state.trace = trace
        state.step()
        _, source, chosen = trace.steps[0]
        assert source == "database"
        assert chosen == B("F--")

    def test_full_run_counts_and_models(self):
        state = walkthrough_state()
        while state.step():
            pass
        assert state.model_count == 3
        assert state.models == [B("TFT"), B("TTF"), B("TTT")]

    def test_all_lambda_box_cached_once(self):
        state = walkthrough_state()
        state.trace = trace = SweepTrace()
        while state.step():
            pass
        inserted = [box for box, _ in trace.cache_inserts]
        assert inserted.count(B("---")) == 1


class TestCascadeChecks:
    """A hand-driven cascade refuses a T-ending box it cannot pair."""

    def test_no_partner_waiting(self):
        state = walkthrough_state()
        with pytest.raises(SolverError, match="no pending left box at index 2"):
            state.resolve_cascade(B("TT-"))

    @pytest.mark.parametrize("partner", ["FF-", "TFT", "F--"])
    def test_partner_not_tail_resolvable(self, partner):
        # two opposing positions; the pivot not the partner's last non-λ;
        # the partner not fixing the pivot at all
        state = walkthrough_state()
        state.left[2] = B(partner)
        with pytest.raises(SolverError, match="not tail-resolvable"):
            state.resolve_cascade(B("TT-"))


class TestRun:
    def test_example1(self, example1):
        result = run(example1, SolverConfig(mode="enumerate"))
        assert result.count == 3
        assert sorted(result.models) == [(1, -2, 3), (1, 2, -3), (1, 2, 3)]

    def test_no_clauses(self):
        result = run(CnfProblem(3, []))
        assert result.count == 8

    def test_contradiction(self):
        cnf = parse_dimacs("p cnf 1 2\n1 0\n-1 0\n")
        # the two unit boxes cover the whole line
        assert brute_count(cnf) == 0
        assert run(cnf).count == 0

    def test_empty_clause_unsat(self):
        assert run(parse_dimacs("p cnf 2 1\n0\n")).count == 0

    def test_zero_variables(self):
        assert run(CnfProblem(0, [])).count == 1
        assert run(CnfProblem(0, [Clause([])])).count == 0

    def test_timing_split_reported(self, example1):
        result = run(example1)
        assert result.load_seconds >= 0.0
        assert result.run_seconds >= 0.0
        assert result.iterations > 0

    def test_on_model_streams_original_numbering(self, example1):
        seen = []
        run(example1, SolverConfig(mode="count"), on_model=seen.append)
        assert sorted(seen) == [(1, -2, 3), (1, 2, -3), (1, 2, 3)]

    def test_streamed_models_are_not_retained(self):
        # one 16-literal clause rejects only the all-false assignment
        cnf = CnfProblem(16, [Clause(range(1, 17))])
        seen = set()
        result = run(cnf, SolverConfig(mode="enumerate"), on_model=seen.add)
        assert result.models is None
        assert result.count == len(seen) == (1 << 16) - 1
        assert tuple(range(-1, -17, -1)) not in seen

    def test_timeout_flag(self):
        # the chain's sweep takes tens of thousands of steps, so the
        # deadline stops the sweep however fast loading is
        chain = chain_cnf(22)
        untimed = run(chain)
        assert (untimed.count, untimed.iterations) == (CHAIN_22_MODELS, CHAIN_22_STEPS)
        result = run(chain, SolverConfig(timeout=1e-4))
        assert result.timed_out
        assert result.count < CHAIN_22_MODELS

    def test_one_unit_clause_over_20000_variables(self):
        # the default ordering scans only the one clause variable
        result = run(CnfProblem(20000, [Clause([1])]))
        assert result.count == 1 << 19999
        assert result.iterations <= 2
        assert result.order.as_sequence()[0] == 1

    def test_timeout_must_be_a_duration(self, example1):
        # NaN compares false with every deadline, so it would never fire
        for bad in (float("nan"), -1.0, float("-inf")):
            with pytest.raises(ValueError, match="timeout"):
                SolverConfig(timeout=bad)
        for ok in (None, 0, 0.0, float("inf")):
            assert SolverConfig(timeout=ok).timeout == ok
        assert run(example1, SolverConfig(timeout=float("inf"))).count == 3

    def test_timeout_counts_the_ordering(self, example1, monkeypatch):
        import boxsat.solver as solver

        real = solver.build_order

        def slow_build_order(cnf, strategy):
            time.sleep(0.1)
            return real(cnf, strategy)

        monkeypatch.setattr(solver, "build_order", slow_build_order)
        result = run(example1, SolverConfig(timeout=0.05))
        assert result.timed_out
        assert result.iterations == 0 and result.count == 0


class TestSweepInvariants:
    def drive(self, cnf, config):
        from boxsat.ordering import build_order
        from boxsat.solver import build_database

        order = build_order(cnf, config.ordering)
        db = build_database(cnf, order, lambda_skip=config.lambda_skip)
        trace = SweepTrace()
        state = SolverState(cnf.variable_count, db, config, trace=trace)
        return state, trace, order, db

    def test_probe_strictly_increases(self):
        rng = random.Random(61)
        for _ in range(15):
            cnf = random_cnf(rng, rng.randint(2, 10), rng.randint(1, 20))
            state, trace, _, _ = self.drive(cnf, SolverConfig())
            while state.step():
                pass
            ranks = [p.val for p, _, _ in trace.steps]
            assert ranks == sorted(set(ranks))

    def test_no_model_emitted_twice(self):
        rng = random.Random(62)
        for _ in range(15):
            cnf = random_cnf(rng, rng.randint(2, 12), rng.randint(0, 12))
            result = run(cnf, SolverConfig(mode="enumerate"))
            assert len(result.models) == len(set(result.models)) == result.count

    def test_enumerated_models_match_brute_force(self):
        rng = random.Random(63)
        for _ in range(15):
            cnf = random_cnf(rng, rng.randint(1, 10), rng.randint(0, 25))
            result = run(cnf, SolverConfig(mode="enumerate"))
            assert sorted(result.models) == sorted(brute_models(cnf))

    def test_cache_soundness_and_provenance(self):
        # every cached box must avoid all not-yet-counted models, and carry a
        # legal provenance tag: enumerate-mode sweeps, then count-mode sweeps
        # of formulas with several components, which cache region boxes
        rng = random.Random(64)
        for _ in range(10):
            cnf = random_cnf(rng, rng.randint(2, 10), rng.randint(1, 18))
            self.check_cache_inserts(cnf, SolverConfig(insertion_ratio=0.45, mode="enumerate"))
        regions = 0
        for _ in range(30):
            cnf = component_cnf(rng, rng.randint(2, 10))
            regions += self.check_cache_inserts(cnf, SolverConfig(insertion_ratio=0.45))
        assert regions > 20

    def check_cache_inserts(self, cnf, config) -> int:
        """Steps the sweep to its end, checking each cache insert; returns
        how many region boxes it cached.  A count-mode sweep streams no
        model, so its counted models are those before the probe."""
        state, trace, order, db = self.drive(cnf, config)
        n = cnf.variable_count
        clause_boxes = list(db.boxes())
        stored_in_db = set(map(repr, clause_boxes))
        position = {v: pos for pos, v in enumerate(order.as_sequence())}

        def sat(point):
            return all(
                any((point.trit(position[abs(l)]) is Trit.TRUE) == (l > 0) for l in c.literals)
                for c in cnf.clauses
            )

        models = [bits for bits in range(1 << n) if sat(Box.point(n, bits))]
        seen_inserts = regions = 0
        counted: set[str] = set()
        while True:
            before = state.model_count
            alive = state.step()
            if config.mode == "enumerate":
                counted = {repr(m) for m in (state.models or [])}
            else:
                settled = 1 << n if state.covered else state.probe.val
                counted = {repr(Box.point(n, bits)) for bits in models if bits < settled}
                assert state.model_count == len(counted)
            for box, source in trace.cache_inserts[seen_inserts:]:
                assert source in ("database", "model", "resolution", "component")
                if source == "database":
                    assert repr(box) in stored_in_db
                if source == "model":
                    # the probe widened to its gap box, which no clause
                    # box meets
                    p = trace.steps[-1][0]
                    assert box == reference_gap_box(p, clause_boxes)
                    assert not any(meets(c, box) for c in clause_boxes)
                if source == "component":
                    # the step's own box: every point of it is settled, and
                    # the step counted exactly the models inside it
                    assert config.mode == "count" and trace.steps[-1][2] == box
                    inside = [bits for bits in range(1 << n) if box.contains(Box.point(n, bits))]
                    assert state.covered or max(inside) < state.probe.val
                    assert state.model_count - before == sum(bits in models for bits in inside)
                    regions += 1
                # soundness: no uncounted model point may be covered
                for bits in models:
                    point = Box.point(n, bits)
                    if box.contains(point):
                        assert repr(point) in counted
            seen_inserts = len(trace.cache_inserts)
            if not alive:
                break
        return regions

    def test_resolvents_hold_the_probe_and_never_strand_it(self):
        # a step advances once, past its cascade's last box; every box of
        # the cascade, cached or not, must then lie behind the next probe
        rng = random.Random(65)
        for _ in range(8):
            cnf = random_cnf(rng, rng.randint(1, 9), rng.randint(0, 20))
            for name in ORDERING_STRATEGIES:
                for ratio in (0.0, 0.45, 1.0):
                    for skip in (True, False):
                        config = SolverConfig(
                            insertion_ratio=ratio, ordering=name, lambda_skip=skip
                        )
                        self.check_cascades(cnf, config)

    def check_cascades(self, cnf, config):
        state, trace, _, _ = self.drive(cnf, config)
        resolvents: list[Box] = []
        gate = state.gate_passes

        def recording_gate(r: Box) -> bool:
            resolvents.append(r)
            return gate(r)

        state.gate_passes = recording_gate
        while not state.done:
            resolvents.clear()
            state.step()
            p, _, b = trace.steps[-1]
            assert all(r.contains(p) for r in resolvents)
            if not state.done:
                assert not any(box.contains(state.probe) for box in [b, *resolvents])

    def test_run_ends_on_the_step_that_caches_the_all_lambda_box(self):
        # ``covered`` stays False until the probe walks off the end, and the
        # all-λ box is then the last cache insert, made exactly once
        rng = random.Random(66)
        for i in range(26):
            n = i % 13
            # with n = 0 every random clause is the empty clause
            cnf = random_cnf(rng, n, rng.randint(0, 2 * n + 1))
            if i % 4 == 3:
                cnf.clauses.append(Clause([]))
            whole = Box.all_lambda(n)
            for name in ORDERING_STRATEGIES:
                for ratio in (0.0, 0.45, 1.0):
                    for skip in (True, False):
                        config = SolverConfig(
                            insertion_ratio=ratio, ordering=name, lambda_skip=skip
                        )
                        state, trace, _, _ = self.drive(cnf, config)
                        while state.step():
                            assert not state.covered
                        assert state.covered and not state.timed_out
                        inserts = [box for box, _ in trace.cache_inserts]
                        assert inserts.count(whole) == 1 and inserts[-1] == whole
                        assert state.model_count == brute_count(cnf)

    def test_termination_signals(self):
        # the run ends when the probe walks off the end, which only the
        # all-λ box does; ratio 1 caches no other resolvent, yet admits it
        state = walkthrough_state()
        while state.step():
            pass
        assert state.covered

        db = BoxDatabase(2)
        db.insert(B("TT"))
        silent = SolverState(2, db, SolverConfig(insertion_ratio=1.0))
        while silent.step():
            pass
        assert silent.model_count == 3
        assert silent.done


class ForgetfulCache(BoxDatabase):
    """Walks every ``find_containing`` query from the root."""

    def find_containing(self, q: Box) -> Box | None:
        self._clear = 0
        return super().find_containing(q)


def memo_and_forgetful_sweeps(
    cnf: CnfProblem, config: SolverConfig, build=build_database
) -> tuple[SolverState, SolverState]:
    """The same sweep over the database ``build`` makes, with the cache's
    chain memo and with a cache that forgets before every query; both must
    take the same steps."""
    order = build_order(cnf, config.ordering)
    n = cnf.variable_count
    states = []
    for forget in (False, True):
        db = build(cnf, order, lambda_skip=config.lambda_skip)
        state = SolverState(n, db, config, trace=SweepTrace())
        if forget:
            state.cache = ForgetfulCache(n, lambda_skip=config.lambda_skip)
        state.run_loop()
        states.append(state)
    got, want = states
    assert got.trace.steps == want.trace.steps
    assert got.trace.cache_inserts == want.trace.cache_inserts
    assert got.cache.dump() == want.cache.dump()
    assert got.model_count == want.model_count
    assert got.iterations == want.iterations
    assert got.cache.cluster_visits <= want.cache.cluster_visits
    return got, want


class WalklessCache(BoxDatabase):
    """A sweep cache that fails on ``insert``.  For each box it stores, it
    notes whether a stored box already contained it and how many models
    the sweep had counted by then."""

    def __init__(self, n: int, lambda_skip: bool, counted: list[Box]):
        super().__init__(n, lambda_skip=lambda_skip)
        self.counted = counted  # the sweep's retained model points, in order
        self.stored: list[tuple[Box, bool, int]] = []

    def insert(self, b: Box) -> None:
        raise AssertionError("the sweep stores every cached box through add_uncovered")

    def add_uncovered(self, b: Box) -> None:
        inside = any(s.contains(b) for s, _, _ in self.stored)
        self.stored.append((b, inside, len(self.counted)))
        super().add_uncovered(b)


def clause_mix_cnf(rng: random.Random, n: int) -> CnfProblem:
    """Acceptance criterion 2's clause mix: 1.2n to 3.5n clauses, mostly
    of width 2 and 3."""
    low = int(n * 1.2)
    clauses = []
    for _ in range(rng.randint(low, max(low + 1, int(n * 3.5)))):
        width = min(rng.choice((1, 2, 2, 3, 3, 3, 4, 5)), n)
        clauses.append(Clause(v if rng.random() < 0.5 else -v
                              for v in rng.sample(range(1, n + 1), width)))
    return CnfProblem(n, clauses)


class TestCacheStore:
    def test_covered_resolvents_change_no_count(self):
        # the sweep stores a resolvent that a cache box already contains
        rng = random.Random(25)
        covered = 0
        for _ in range(16):
            cnf = clause_mix_cnf(rng, rng.randint(4, 12))
            want = brute_count(cnf)
            n = cnf.variable_count
            for name in ORDERING_STRATEGIES:
                order = build_order(cnf, name)
                for skip in (True, False):
                    db = build_database(cnf, order, lambda_skip=skip)
                    for ratio in (0.0, 0.45, 1.0):
                        config = SolverConfig(insertion_ratio=ratio, ordering=name,
                                              lambda_skip=skip, mode="enumerate")
                        state = SolverState(n, db, config, trace=SweepTrace())
                        cache = state.cache = WalklessCache(n, skip, state.models)
                        state.run_loop()
                        assert state.model_count == want, (name, ratio, skip)
                        assert len(cache) == len(list(cache.boxes()))
                        models = [p.val for p in state.models]
                        sources = [source for _, source in state.trace.cache_inserts]
                        assert len(sources) == len(cache.stored)
                        for (box, inside, k), source in zip(cache.stored, sources):
                            # only a resolvent can lie inside a cache box, and
                            # every model in a cached box is counted first
                            assert not inside or source == "resolution"
                            covered += inside
                            assert all((v & box.mask) != box.val for v in models[k:])
        assert covered > 0


def block_count(cnf: CnfProblem, groups: list[list[int]]) -> int:
    """The product of each variable block's brute-force count."""
    count = 1
    for vs in groups:
        renumber = {v: i + 1 for i, v in enumerate(vs)}
        count *= brute_count(CnfProblem(len(vs), [
            Clause((1 if l > 0 else -1) * renumber[abs(l)] for l in c.literals)
            for c in cnf.clauses if all(abs(l) in renumber for l in c.literals)
        ]))
    return count


class TestChainHop:
    def test_random_formulas(self):
        """The hop is a property of the cache walk, so its coverage is
        counted over sweeps of the unmerged per-clause database, where more
        of these formulas need it; the merged database's sweeps must agree
        with the forgetful cache too."""
        rng = random.Random(83)
        fewer = 0
        for _ in range(12):
            cnf = random_cnf(rng, rng.randint(1, 14), rng.randint(0, 30), width_hi=4)
            want = brute_count(cnf)
            for name in ORDERING_STRATEGIES:
                for ratio in (0.0, 0.45, 1.0):
                    for skip in (True, False):
                        config = SolverConfig(insertion_ratio=ratio, ordering=name, lambda_skip=skip)
                        got, forgot = memo_and_forgetful_sweeps(cnf, config, per_clause_database)
                        assert got.model_count == want, (name, ratio, skip)
                        fewer += got.cache.cluster_visits < forgot.cache.cluster_visits
                        got, _ = memo_and_forgetful_sweeps(cnf, config)
                        assert got.model_count == want, (name, ratio, skip)
        assert fewer > 100

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_hidden_solution_blocks(self, seed):
        cnf, groups = hidden_solution_blocks(seed=seed)
        want = block_count(cnf, groups)
        for skip in (True, False):
            got, forgot = memo_and_forgetful_sweeps(cnf, SolverConfig(lambda_skip=skip))
            assert got.model_count == want
            # hops over the 16-level all-λ chain more than halve the cache visits
            assert 2 * got.cache.cluster_visits < forgot.cache.cluster_visits


class TestMergedDatabaseDifferential:
    def test_counts_and_models_match_the_oracle(self):
        """Random formulas with clause widths 1 to 8 under every ordering,
        λ-skip setting and three insertion ratios: counts equal
        ``brute_count`` and enumerated points, streamed in increasing sweep
        order, are ``brute_models``."""
        from boxsat.cnf import point_to_literals

        rng = random.Random(0xD1FF)
        runs = 0
        for _ in range(200):
            n = rng.randint(1, 12)
            cnf = random_cnf(rng, n, rng.randint(0, 4 * n), width_hi=rng.randint(1, 8))
            want_count, want_models = brute_count(cnf), sorted(brute_models(cnf))
            for name in ORDERING_STRATEGIES:
                order = build_order(cnf, name)
                for skip in (True, False):
                    db = build_database(cnf, order, lambda_skip=skip)
                    for ratio in (0.0, 0.45, 1.0):
                        config = SolverConfig(insertion_ratio=ratio, ordering=name, lambda_skip=skip)
                        counted = SolverState(n, db, config)
                        counted.run_loop()
                        assert counted.model_count == want_count, (name, skip, ratio)
                        points = []
                        enumerate_config = SolverConfig(insertion_ratio=ratio, ordering=name,
                                                        lambda_skip=skip, mode="enumerate")
                        SolverState(n, db, enumerate_config, on_model=points.append).run_loop()
                        ranks = [p.val for p in points]
                        assert ranks == sorted(set(ranks)), (name, skip, ratio)
                        got = sorted(point_to_literals(p, order) for p in points)
                        assert got == want_models, (name, skip, ratio)
                        runs += 1
        assert runs == 200 * len(ORDERING_STRATEGIES) * 2 * 3


class ForgetfulDatabase(BoxDatabase):
    """Walks every ``smallest_containing`` query from the root."""

    def smallest_containing(self, q: Box) -> Box | None:
        self._levels = None
        return super().smallest_containing(q)


class TestDatabaseMemo:
    def sweep(self, n: int, db: BoxDatabase, config: SolverConfig) -> SolverState:
        state = SolverState(n, db, config, trace=SweepTrace())
        state.run_loop()
        return state

    def test_resumed_database_walks_change_no_step(self):
        rng = random.Random(19)
        resumed = walked = 0
        for _ in range(10):
            cnf = random_cnf(rng, rng.randint(1, 14), rng.randint(0, 40), width_hi=4)
            n = cnf.variable_count
            for name in ORDERING_STRATEGIES:
                for skip in (True, False):
                    for mode in ("count", "enumerate"):
                        config = SolverConfig(ordering=name, lambda_skip=skip, mode=mode)
                        db = build_database(cnf, build_order(cnf, name), lambda_skip=skip)
                        forgetful = ForgetfulDatabase(n, lambda_skip=skip)
                        for b in db.boxes():
                            forgetful.add_uncovered(b)
                        assert forgetful.dump() == db.dump()
                        built = db.cluster_visits, forgetful.cluster_visits
                        got, want = self.sweep(n, db, config), self.sweep(n, forgetful, config)
                        assert got.trace.steps == want.trace.steps
                        assert got.trace.cache_inserts == want.trace.cache_inserts
                        assert got.model_count == want.model_count
                        assert got.iterations == want.iterations
                        assert got.models == want.models
                        resumed += db.cluster_visits - built[0]
                        walked += forgetful.cluster_visits - built[1]
        assert resumed < walked


def padded_cnf(rng: random.Random, k: int, free: int) -> tuple[CnfProblem, CnfProblem]:
    """A random CNF on k variables, and the same formula with ``free``
    clause-free variables added, its clause variables scattered over the
    wider range."""
    core = random_cnf(rng, k, rng.randint(1, 3 * k))
    spread = dict(zip(range(1, k + 1), rng.sample(range(1, k + free + 1), k)))
    wide = CnfProblem(
        k + free,
        [Clause(spread[abs(l)] * (1 if l > 0 else -1) for l in c.literals) for c in core.clauses],
    )
    return core, wide


class TestFreeTailWidening:
    def test_counts_match_brute_force_times_free_factor(self):
        rng = random.Random(71)
        for _ in range(8):
            core, wide = padded_cnf(rng, rng.randint(1, 10), rng.randint(0, 50))
            want = brute_count(core) << (wide.variable_count - core.variable_count)
            for name in ORDERING_STRATEGIES:
                assert run(wide, SolverConfig(ordering=name)).count == want, name

    def test_enumeration_matches_brute_force_in_sweep_order(self):
        from boxsat.ordering import build_order
        from boxsat.solver import build_database

        rng = random.Random(72)
        for _ in range(12):
            k = rng.randint(1, 10)
            _, wide = padded_cnf(rng, k, rng.randint(0, 14 - k))
            for name in ORDERING_STRATEGIES:
                result = run(wide, SolverConfig(ordering=name, mode="enumerate"))
                assert len(set(result.models)) == len(result.models) == result.count
                assert sorted(result.models) == sorted(brute_models(wide))

                order = build_order(wide, name)
                streamed = []
                db = build_database(wide, order)
                state = SolverState(wide.variable_count, db, SolverConfig(ordering=name),
                                    on_model=streamed.append)
                state.run_loop()
                ranks = [m.val for m in streamed]
                assert all(m.is_point for m in streamed)
                assert ranks == sorted(set(ranks))
                assert len(ranks) == state.model_count == result.count

    def test_large_count_in_few_iterations(self):
        result = run(CnfProblem(60, [Clause([1, 2])]))
        assert result.count == 3 << 58
        assert result.iterations <= 4

    def test_no_clauses_is_one_step(self):
        result = run(CnfProblem(30, []))
        assert result.count == 1 << 30
        assert result.iterations == 1

    def test_enumeration_timeout_inside_one_step(self):
        # one unit clause leaves 39 free variables: the first model step
        # alone would stream 2^39 models
        seen = []
        result = run(
            CnfProblem(40, [Clause([1])]),
            SolverConfig(mode="enumerate", timeout=0.2),
            on_model=seen.append,
        )
        assert result.timed_out
        assert 0 < result.count == len(seen) < 1 << 39


def sweep_rank(model: tuple[int, ...], order: VariableOrder) -> int:
    """The sweep rank of a signed-literal model under ``order``."""
    n = order.n
    return sum(1 << (n - 1 - pos) for pos, v in enumerate(order.as_sequence()) if model[v - 1] > 0)


class TestGapBoxes:
    """Every model probe widens to its gap box.  Hand-driven sweeps, under
    every ordering, λ-skip on and off, in count and enumerate mode, must
    count ``brute_count`` and stream ``brute_models`` in sweep order."""

    def test_counts_and_models_match_the_oracle(self):
        from boxsat.cnf import point_to_literals

        rng = random.Random(0x6A9)
        widened = runs = 0
        for _ in range(120):
            n = rng.randint(1, 12)
            # few and wide clauses, where most probes are models, or a mix
            if rng.random() < 0.5:
                cnf = random_cnf(rng, n, rng.randint(0, 3), width_hi=n)
            else:
                cnf = random_cnf(rng, n, rng.randint(0, 3 * n), width_hi=rng.randint(1, 6))
            want_count, want_models = brute_count(cnf), brute_models(cnf)
            ratio = rng.choice((0.0, 0.45, 1.0))
            for name in ORDERING_STRATEGIES:
                order = build_order(cnf, name)
                in_sweep_order = sorted(want_models, key=lambda m: sweep_rank(m, order))
                for skip in (True, False):
                    db = build_database(cnf, order, lambda_skip=skip)
                    clause_boxes = list(db.boxes())
                    free = n - max((b.index for b in clause_boxes), default=0)
                    config = SolverConfig(insertion_ratio=ratio, ordering=name, lambda_skip=skip)
                    counted = SolverState(n, db, config, trace=SweepTrace())
                    counted.run_loop()
                    assert counted.model_count == want_count, (name, skip)
                    for p, source, box in counted.trace.steps:
                        if source == "model":
                            assert box == reference_gap_box(p, clause_boxes)
                            widened += box.lambda_count > free

                    points = []
                    enumerate_config = SolverConfig(insertion_ratio=ratio, ordering=name,
                                                    lambda_skip=skip, mode="enumerate")
                    streamed = SolverState(n, db, enumerate_config, on_model=points.append)
                    streamed.run_loop()
                    assert streamed.model_count == want_count
                    assert [p.val for p in points] == [sweep_rank(m, order) for m in in_sweep_order]
                    assert [point_to_literals(p, order) for p in points] == in_sweep_order
                    assert run(cnf, enumerate_config).models == in_sweep_order
                    runs += 1
        assert runs == 120 * len(ORDERING_STRATEGIES) * 2
        assert widened > 1000

    @pytest.mark.parametrize("n", [12, 16, 18, 60])
    def test_one_wide_clause_takes_n_plus_one_steps(self, n):
        # the all-F clause box, then one gap box per position, each twice
        # as wide as the one before
        result = run(CnfProblem(n, [Clause(range(1, n + 1))]))
        assert result.count == (1 << n) - 1
        assert result.iterations == n + 1


def streamed_points(cnf: CnfProblem, ordering: str) -> list[tuple[int, ...]]:
    """The points a plain ``SolverState`` streams, as literal tuples."""
    from boxsat.cnf import point_to_literals
    from boxsat.ordering import build_order
    from boxsat.solver import build_database

    order = build_order(cnf, ordering)
    points = []
    state = SolverState(cnf.variable_count, build_database(cnf, order),
                        SolverConfig(ordering=ordering), on_model=points.append)
    state.run_loop()
    assert all(p.is_point for p in points)
    return [point_to_literals(p, order) for p in points]


class TestLiteralStreaming:
    """``run`` expands each model box straight into literal tuples; they
    must be the tuples of the points ``SolverState`` streams, in order."""

    def check(self, cnf: CnfProblem, ordering: str) -> None:
        want = streamed_points(cnf, ordering)
        seen = []
        streamed = run(cnf, SolverConfig(ordering=ordering), on_model=seen.append)
        assert seen == want
        assert streamed.count == len(want) and streamed.models is None
        retained = run(cnf, SolverConfig(ordering=ordering, mode="enumerate"))
        assert retained.models == want
        assert retained.count == len(want)

    def test_random_padded_formulas(self):
        rng = random.Random(73)
        for _ in range(25):
            # up to 14 free variables, at most 2^16 models
            k = rng.randint(1, 10)
            _, wide = padded_cnf(rng, k, rng.randint(0, min(14, 16 - k)))
            for name in ORDERING_STRATEGIES:
                self.check(wide, name)

    def test_edge_cases(self):
        from boxsat.ordering import build_order
        from boxsat.solver import build_database

        no_tail = CnfProblem(3, [Clause([1, -2, 3]), Clause([-1, 2])])
        order = build_order(no_tail, "grouped-heuristic")
        assert max(b.index for b in build_database(no_tail, order).boxes()) == 3  # f = 0
        cases = [
            CnfProblem(0, []),  # n = 0: one empty model
            CnfProblem(1, []),  # n = 1, all free
            CnfProblem(1, [Clause([-1])]),  # n = 1, f = 0
            no_tail,
            CnfProblem(5, []),  # clause-free
            CnfProblem(4, [Clause([2]), Clause([-2])]),  # no model
        ]
        for cnf in cases:
            for name in ORDERING_STRATEGIES:
                self.check(cnf, name)
        assert run(CnfProblem(0, []), SolverConfig(mode="enumerate")).models == [()]
        assert run(CnfProblem(1, []), SolverConfig(mode="enumerate")).models == [(-1,), (1,)]

    def test_retained_models_stop_at_the_deadline(self):
        result = run(CnfProblem(30, [Clause([1])]), SolverConfig(mode="enumerate", timeout=0.05))
        assert result.timed_out
        assert 0 < result.count == len(result.models) < 1 << 29
        assert len(set(result.models)) == result.count


class TestLiteralModels:
    """``cnf.literal_models(order)`` reads each model box's width from the
    box itself: one expansion serves every width."""

    @staticmethod
    def check_every_width(order: VariableOrder, rng: random.Random) -> None:
        from boxsat.cnf import literal_models, point_to_literals

        n = order.n
        expand = literal_models(order)
        state = SolverState(n, BoxDatabase(n))
        for k in rng.sample(range(n + 1), n + 1):  # widths in random order
            m = Box(n, ((1 << k) - 1) << (n - k), rng.getrandbits(k) << (n - k))
            # the whole expansion when it is small, else its first 512 models
            size = min(1 << (n - k), 512)
            got = list(islice(expand(m), size + 1))
            want = [point_to_literals(p, order) for p in islice(state._points(m), size)]
            assert got[:size] == want
            assert len(got) == (size + 1 if n - k > 9 else size)

    def test_random_orders(self):
        rng = random.Random(24)
        for n in [*range(0, 21), *rng.choices(range(0, 21), k=20)]:
            self.check_every_width(VariableOrder(rng.sample(range(1, n + 1), n)), rng)

    def test_wide_order(self):
        rng = random.Random(64)
        for n in (64, 65, 97):
            self.check_every_width(VariableOrder(rng.sample(range(1, n + 1), n)), rng)

    def test_building_the_expansion_stays_small(self):
        import tracemalloc

        from boxsat.cnf import literal_models

        order = VariableOrder.identity(20000)
        tracemalloc.start()
        try:
            expand = literal_models(order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        assert next(expand(Box.point(20000, 1))) == (*range(-1, -20000, -1), 20000)


def reference_clause_box(clause: Clause, n: int, order: VariableOrder) -> Box:
    """A clause's box built literal by literal."""
    position = {v: pos for pos, v in enumerate(order.as_sequence(), 1)}
    mask = val = 0
    for lit in clause.literals:
        bit = 1 << (n - position[abs(lit)])
        mask |= bit
        if lit < 0:
            val |= bit
    return Box(n, mask, val)


def mixed_width_clauses(rng: random.Random, n: int, m: int) -> list[Clause]:
    """Short, long and very wide clauses, with subsets and supersets of
    earlier ones, repeats and tautologies."""
    clauses: list[Clause] = []
    for _ in range(m):
        roll = rng.random()
        if clauses and roll < 0.3:  # a subset or superset of an earlier clause
            lits = set(rng.choice(clauses).literals)
            if rng.random() < 0.5 and len(lits) > 1:
                lits = set(rng.sample(sorted(lits), rng.randint(1, len(lits) - 1)))
            else:
                free = [v for v in range(1, n + 1) if v not in map(abs, lits)]
                lits |= {rng.choice((v, -v)) for v in rng.sample(free, min(len(free), 3))}
            clause = Clause(lits)
        elif clauses and roll < 0.4:
            clause = rng.choice(clauses)  # repeated
        else:
            width = rng.choice((1, 2, 3, 12, 12, n))
            clause = random_clause(rng, n, width)
            if roll > 0.93:  # tautology
                v = abs(rng.choice(sorted(clause.literals)))
                clause = Clause(clause.literals | {v, -v})
        clauses.append(clause)
    return clauses


def reference_merge(boxes: set[Box], n: int) -> set[Box]:
    """The sibling-merge pass by plain sets: at each pivot, last position
    first, every two boxes with the same mask that fix the pivot and differ
    only there become one box with the pivot λ, joining the set before the
    next pivot."""
    boxes = set(boxes)
    for bit in (1 << i for i in range(n)):
        pairs = [b for b in boxes if b.mask & bit and not b.val & bit
                 and Box(n, b.mask, b.val | bit) in boxes]
        for b in pairs:
            boxes -= {b, Box(n, b.mask, b.val | bit)}
        boxes |= {Box(n, b.mask & ~bit, b.val) for b in pairs}
    return boxes


def reference_database(cnf: CnfProblem, order: VariableOrder, skip: bool) -> tuple[BoxDatabase, int]:
    """The merged clause boxes inserted one by one in increasing fixed-count
    order, ties by mask then val, and the number of merged boxes."""
    n = cnf.variable_count
    distinct = {reference_clause_box(cl, n, order) for cl in cnf.clauses
                if not any(-lit in cl.literals for lit in cl.literals)}
    merged = sorted(reference_merge(distinct, n), key=lambda b: (b.mask.bit_count(), b.mask, b.val))
    db = BoxDatabase(n, lambda_skip=skip)
    for box in merged:
        db.insert(box)
    return db, len(merged)


def per_clause_database(cnf: CnfProblem, order: VariableOrder, lambda_skip: bool = True) -> BoxDatabase:
    """The unmerged build: one ``insert`` per clause box, in clause order."""
    n = cnf.variable_count
    db = BoxDatabase(n, lambda_skip=lambda_skip)
    for cl in cnf.clauses:
        if not any(-lit in cl.literals for lit in cl.literals):
            db.insert(reference_clause_box(cl, n, order))
    return db


def build_and_reference(
    cnf: CnfProblem, order: VariableOrder, skip: bool
) -> tuple[BoxDatabase, BoxDatabase, int]:
    """``build_database``'s trie and the reference merge's, checked equal,
    and the number of merged boxes."""
    want, merged = reference_database(cnf, order, skip)
    got = build_database(cnf, order, lambda_skip=skip)
    assert got.dump() == want.dump()
    assert list(got.boxes()) == list(want.boxes())
    assert len(got) == len(want)
    assert [c.depth for c in got._chain] == [c.depth for c in want._chain]
    assert got.cluster_visits <= want.cluster_visits
    return got, want, merged


def falsified_points(cnf: CnfProblem, order: VariableOrder) -> list[bool]:
    """Per sweep rank, whether the point falsifies some clause."""
    n = cnf.variable_count
    shift = {v: n - pos for pos, v in enumerate(order.as_sequence(), 1)}
    return [
        any(all((p >> shift[abs(lit)] & 1) != (lit > 0) for lit in cl.literals)
            for cl in cnf.clauses)
        for p in range(1 << n)
    ]


class TestBuildDatabase:
    def test_repeated_and_subsumed_clauses_equal_the_reference_merge(self):
        """Repeated and subsumed clauses, in both arrival orders, build the
        trie of the reference merge, and both orders build the same one."""
        rng = random.Random(0xB1D)
        for _ in range(150):
            n = rng.randint(1, 14)
            base = random_cnf(rng, n, rng.randint(1, 12)).clauses
            clauses = list(base)
            for cl in rng.choices(base, k=rng.randint(0, 8)):
                if rng.random() < 0.5:
                    clauses.append(cl)  # repeated
                else:  # subsumed: a superset of cl's literals
                    extra = [v if rng.random() < 0.5 else -v
                             for v in range(1, n + 1) if v not in map(abs, cl.literals)]
                    clauses.append(Clause(cl.literals | set(rng.sample(extra, min(2, len(extra))))))
            rng.shuffle(clauses)
            order = VariableOrder(rng.sample(range(1, n + 1), n))
            for skip in (True, False):
                dumps = set()
                for arrival in (clauses, clauses[::-1]):
                    got, _, _ = build_and_reference(CnfProblem(n, arrival), order, skip)
                    dumps.add(got.dump())
                assert len(dumps) == 1

    def test_mixed_width_clauses_equal_the_reference_merge(self):
        """Short, long and n-wide clauses, in every arrival order, build the
        trie of the reference merge; the inputs reach boxes that merge and
        merged boxes that a stored box contains, and every build stores
        its fewest-fixed boxes without a walk."""
        rng = random.Random(0xF3E)
        covered = fewer_visits = merging = 0
        cases = [(rng.randint(1, 200), rng.randint(1, 40)) for _ in range(120)]
        for n, m in cases + [(1999, 30)]:
            clauses = mixed_width_clauses(rng, n, m)
            arrangement = rng.randrange(3)
            if arrangement == 1:  # short clauses after long ones, as the triangles
                clauses.sort(key=len, reverse=True)
            elif arrangement == 2:  # short clauses first
                clauses.sort(key=len)
            cnf = CnfProblem(n, clauses)
            order = VariableOrder(rng.sample(range(1, n + 1), n))
            distinct = len({cl.literals for cl in clauses
                            if not any(-lit in cl.literals for lit in cl.literals)})
            for skip in (True, False):
                got, want, merged = build_and_reference(cnf, order, skip)
                covered += len(want) < merged
                merging += merged < distinct
                fewer_visits += got.cluster_visits < want.cluster_visits
        assert covered > 100 and merging > 0 and fewer_visits == 2 * len(cases) + 2

    def test_benchmark_generators_equal_the_reference_merge(self):
        rng = random.Random(0x7A1)
        edges = frozenset((a, b) for a, b in combinations(range(40), 2) if rng.random() < 0.1)
        triangles = generate_cnf(InputGraph(40, edges), GraphQuerySpec("clique", 3))
        blocks, _ = hidden_solution_blocks(seed=21)
        for cnf in (triangles, blocks):
            order = build_order(cnf, SolverConfig().ordering)
            for skip in (True, False):
                got, _, merged = build_and_reference(cnf, order, skip)
                # siblings merge: far fewer boxes than distinct clauses
                assert 2 * merged < len({cl.literals for cl in cnf.clauses})

    def test_stored_boxes_cover_exactly_the_falsifying_points(self):
        rng = random.Random(0xC0)
        for _ in range(60):
            n = rng.randint(1, 12)
            cnf = random_cnf(rng, n, rng.randint(0, 4 * n), width_hi=rng.randint(1, 8))
            order = VariableOrder(rng.sample(range(1, n + 1), n))
            stored = list(build_database(cnf, order).boxes())
            full = (1 << n) - 1
            covered = [any(b.contains(Box(n, full, p)) for b in stored) for p in range(1 << n)]
            assert covered == falsified_points(cnf, order)

    def test_four_boxes_over_one_position_pair_merge_to_all_lambda(self):
        # FF FT TF TT
        cnf = CnfProblem(2, [Clause([1, 2]), Clause([1, -2]), Clause([-1, 2]), Clause([-1, -2])])
        for order in (VariableOrder([1, 2]), VariableOrder([2, 1])):
            db = build_database(cnf, order)
            assert list(db.boxes()) == [Box.all_lambda(2)]
            assert len(db) == 1
        # the same pair inside wider boxes: positions 2 and 4 of four
        wide = CnfProblem(4, [Clause([2 * s, 4 * t]) for s in (1, -1) for t in (1, -1)])
        assert list(build_database(wide, VariableOrder.identity(4)).boxes()) == [Box.all_lambda(4)]
        assert run(wide).count == brute_count(wide) == 0

    def test_stored_set_does_not_depend_on_clause_order(self):
        pair = [Clause([1, 2, 6]), Clause([1, 2])]
        config = SolverConfig(ordering="naive-degree")
        for clauses in (pair, pair[::-1]):
            result = run(CnfProblem(6, clauses), config)
            assert result.count == 48
            assert result.iterations == 3
        rng = random.Random(0x5EED)
        for _ in range(100):
            n = rng.randint(1, 14)
            clauses = random_cnf(rng, n, rng.randint(0, 30), width_hi=6).clauses
            clauses += rng.choices(clauses, k=rng.randint(0, 5)) if clauses else []
            shuffled = rng.sample(clauses, len(clauses))
            order = VariableOrder(rng.sample(range(1, n + 1), n))
            for skip in (True, False):
                dumps = {build_database(CnfProblem(n, arrival), order, lambda_skip=skip).dump()
                         for arrival in (clauses, clauses[::-1], shuffled)}
                assert len(dumps) == 1

    def test_tautology_has_no_box_and_is_skipped(self):
        order = VariableOrder.identity(3)
        with pytest.raises(ValueError, match="tautology"):
            clause_to_box(Clause([1, -1, 2]), 3, order)
        cnf = CnfProblem(3, [Clause([1, -1, 2]), Clause([2, -3]), Clause([3, -3])])
        assert len(build_database(cnf, order)) == 1
        assert run(cnf).count == brute_count(cnf) == 6


def region_counts(cnf: CnfProblem, order: VariableOrder, s: int) -> set[int]:
    """The model counts of the regions x·{F,T}^s that hold a model, x
    ranging over the prefixes before the last ``s`` positions of ``order``:
    one count, c, when the position before those s is a cut."""
    ranks = (sweep_rank(m, order) for m in brute_models(cnf))
    return set(Counter(r >> s for r in ranks).values())


def count_sweep(cnf: CnfProblem, config: SolverConfig, **kwargs) -> SolverState:
    """A count-mode ``SolverState`` over ``cnf``'s merged database, traced."""
    order = build_order(cnf, config.ordering)
    db = build_database(cnf, order, lambda_skip=config.lambda_skip)
    return SolverState(cnf.variable_count, db, config, trace=SweepTrace(), **kwargs)


class TestSuffixCounts:
    """Pure counting counts each suffix past a cut once and then takes each
    of its regions as one step; see "Suffix counts" in ``boxsat.solver``."""

    def test_counts_match_the_oracle(self):
        rng = random.Random(0x5CC)
        regions = runs = 0
        for _ in range(200):
            cnf = component_cnf(rng, rng.randint(1, 12))
            want = brute_count(cnf)
            for name in ORDERING_STRATEGIES:
                order = build_order(cnf, name)
                for skip in (True, False):
                    for ratio in (0.0, 0.45, 1.0):
                        config = SolverConfig(insertion_ratio=ratio, ordering=name, lambda_skip=skip)
                        assert run(cnf, config).count == want
                        state = count_sweep(cnf, config)
                        cuts = state.database.cuts()
                        lengths = sorted(cnf.variable_count - a for a in cuts)
                        while not state.done:
                            state.step()
                            # shorter cuts are recorded first, and no gap box
                            # is as wide as the smallest region
                            recorded = lengths[:len(state.suffix_counts)]
                            assert set(state.suffix_counts) == set(recorded)
                            _, src, b = state.trace.steps[-1]
                            assert src != "model" or not cuts or b.lambda_count < lengths[0]
                        assert state.model_count == want, (name, skip, ratio)
                        for s, c in state.suffix_counts.items():
                            assert region_counts(cnf, order, s) == {c}
                        regions += sum(src == "component" for _, src, _ in state.trace.steps)
                        runs += 1
        assert runs == 200 * len(ORDERING_STRATEGIES) * 6
        assert regions > 4000

    def test_count_mode_with_a_sink_streams_every_model(self):
        from boxsat.cnf import point_to_literals

        rng = random.Random(0x5CD)
        for _ in range(40):
            cnf = component_cnf(rng, rng.randint(1, 10))
            for name in ORDERING_STRATEGIES:
                order = build_order(cnf, name)
                points = []
                state = count_sweep(cnf, SolverConfig(ordering=name), on_model=points.append)
                state.run_loop()
                want = sorted(brute_models(cnf), key=lambda m: sweep_rank(m, order))
                assert [point_to_literals(p, order) for p in points] == want
                assert state.model_count == len(want)
                assert not state.suffix_counts
                assert all(src != "component" for _, src, _ in state.trace.steps)

    def test_count_is_exact_for_the_points_before_the_probe(self, monkeypatch):
        rng = random.Random(0x5CE)
        for _ in range(40):
            cnf = component_cnf(rng, rng.randint(1, 10))
            for name in ORDERING_STRATEGIES:
                order = build_order(cnf, name)
                ranks = sorted(sweep_rank(m, order) for m in brute_models(cnf))
                state = count_sweep(cnf, SolverConfig(ordering=name))
                while state.step():
                    assert state.model_count == sum(r < state.probe.val for r in ranks)
                assert state.model_count == len(ranks)
        # a timed-out run: the clock passes the deadline between the checks
        # before step 0 and step 256, inside a sweep of 650 steps
        cnf = CnfProblem(15, chain_cnf(12).clauses + [Clause([13, -14]), Clause([14, 15])])
        order = build_order(cnf, "grouped-heuristic")
        ranks = [sweep_rank(m, order) for m in brute_models(cnf)]
        state = count_sweep(cnf, SolverConfig())
        clock = iter([0.0, 2.0])
        monkeypatch.setattr("boxsat.solver.time.perf_counter", lambda: next(clock))
        assert state.run_loop(deadline=1.0)
        assert state.iterations == 256 and state.timed_out
        assert any(src == "component" for _, src, _ in state.trace.steps)
        assert 0 < state.model_count == sum(r < state.probe.val for r in ranks) < len(ranks)

    def test_recorded_counts_are_suffix_counts(self):
        # (x1 v x2) over six variables: the positions 2..5 are in no clause
        # box, so ``cuts`` leaves them out and the sweep records nothing
        state = count_sweep(CnfProblem(6, [Clause([1, 2])]), SolverConfig(ordering="naive-degree"))
        assert state.database.cuts() == []
        state.run_loop()
        assert state.model_count == 48 and not state.suffix_counts
        # (x1 v x2)(x3 v x4): position 2 is a cut, and the region FT--
        # records c_2 = 3, the models of (x3 v x4); the regions TF-- and
        # TT-- then take one step each
        state = count_sweep(CnfProblem(4, [Clause([1, 2]), Clause([3, 4])]),
                            SolverConfig(ordering="naive-degree"))
        assert state.database.cuts() == [2]
        state.run_loop()
        assert state.model_count == 9
        assert state.suffix_counts == {2: 3}
        assert [(src, b) for _, src, b in state.trace.steps[-2:]] == [
            ("component", B("TF--")), ("component", B("TT--"))]

    def test_double_miss_takes_the_wider_gap_box(self):
        # the probe TFFFFF misses both tries, and its gap box T----- takes
        # the rest of the space in one step
        state = count_sweep(CnfProblem(6, [Clause([1, 2, 6]), Clause([1, 2])]),
                            SolverConfig(ordering="naive-degree"))
        state.run_loop()
        assert state.model_count == 48
        assert state.suffix_counts == {}
        assert [(src, b) for _, src, b in state.trace.steps] == [
            ("database", B("FF----")), ("model", B("FT----")), ("model", B("T-----"))]

    @pytest.mark.parametrize("seed", range(4))
    def test_entry_prefers_the_database_box(self, seed):
        # a cache hit past the cut at an entry whose prefix falsifies a
        # clause would re-walk the suffix: these instances take 70-74 steps,
        # against 8,345-15,458 when the cache hit wins
        cnf, groups = hidden_solution_blocks(seed=seed)
        result = run(cnf)
        assert result.count == block_count(cnf, groups)
        assert result.iterations < 100

    def test_cuts_come_from_the_stored_set(self):
        # FFF- lies inside FF-- and is not stored, so it rules out no cut
        cnf = CnfProblem(4, [Clause([1, 2]), Clause([1, 2, 3]), Clause([3, 4])])
        db = build_database(cnf, VariableOrder.identity(4))
        assert sorted(repr(b) for b in db.boxes()) == ["Box('--FF')", "Box('FF--')"]
        assert db.cuts() == [2]

    def test_no_cut_takes_the_plain_steps(self):
        # a sweep with no cut takes the same steps with and without a sink
        rng = random.Random(0x5CF)
        plain = 0
        for _ in range(60):
            cnf = random_cnf(rng, rng.randint(1, 10), rng.randint(0, 30), width_hi=6)
            counted = count_sweep(cnf, SolverConfig())
            if counted.database.cuts():
                continue
            streamed = count_sweep(cnf, SolverConfig(), on_model=lambda p: None)
            counted.run_loop()
            streamed.run_loop()
            assert counted.trace.steps == streamed.trace.steps
            assert counted.trace.cache_inserts == streamed.trace.cache_inserts
            plain += 1
        assert plain > 20
