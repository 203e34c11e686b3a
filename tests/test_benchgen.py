import io
import random
from itertools import combinations

import pytest

from boxsat import Clause, CnfProblem, SolverConfig, parse_dimacs, run, write_dimacs
from boxsat.benchgen import (
    EdgeListError,
    GenerationError,
    GraphQuerySpec,
    InputGraph,
    bits_per_vertex,
    decode_model,
    generate_cnf,
    hidden_solution_blocks,
    read_edge_list,
)
from boxsat.oracle import brute_count, count_subgraphs

FIG10_EDGES = "0 1\n1 2\n2 3\n3 0\n0 2\n"


def fig10() -> InputGraph:
    """Square 0-1-2-3 with the 0-2 diagonal."""
    return read_edge_list(FIG10_EDGES)


def random_graph(rng: random.Random, v: int, p: float) -> InputGraph:
    edges = frozenset(
        (a, b) for a, b in combinations(range(v), 2) if rng.random() < p
    )
    return InputGraph(v, edges)


class TestReadEdgeList:
    def test_duplicate_and_reversed_edges_merge(self):
        g = read_edge_list("# c\n0 1\n1 0\n")
        assert (g.vertex_count, len(g.edges)) == (2, 1)

    def test_fig10(self):
        g = fig10()
        assert (g.vertex_count, len(g.edges)) == (4, 5)

    def test_densification(self):
        g = read_edge_list("5 9\n")
        assert (g.vertex_count, len(g.edges)) == (2, 1)
        assert g.has_edge(0, 1)

    def test_self_loop_dropped_but_vertex_kept(self):
        g = read_edge_list("3 3\n3 4\n")
        assert g.vertex_count == 2
        assert len(g.edges) == 1

    def test_non_integer_token(self):
        with pytest.raises(EdgeListError, match="line 2"):
            read_edge_list("0 1\n0 x\n")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("\u0661 2\n1_0 3\n", 1),  # an Arabic-Indic digit one
            ("0 1\n1_0 3\n", 2),
            ("0 \uff13\n", 1),  # a fullwidth digit three
        ],
    )
    def test_tokens_int_takes_but_an_id_may_not_be(self, text, line):
        with pytest.raises(EdgeListError, match=f"^line {line}: non-integer token"):
            read_edge_list(text)

    def test_signed_ids(self):
        g = read_edge_list("-1 +2\n2 -1\n")
        assert (g.vertex_count, len(g.edges)) == (2, 1)

    def test_wrong_token_count(self):
        with pytest.raises(EdgeListError, match="line 1"):
            read_edge_list("0 1 2\n")


def random_edge_text(rng: random.Random) -> str:
    """Edge-list text with comments, blank lines, CRLF endings and, now
    and then, a malformed line."""
    lines = []
    for _ in range(rng.randint(0, 12)):
        roll = rng.random()
        if roll < 0.1:
            lines.append(rng.choice(["# note", "", "   "]))
        elif roll < 0.15:
            lines.append(rng.choice(["0 x", "1 2 3", "7"]))
        else:
            lines.append(f"{rng.randint(0, 9)} {rng.randint(0, 9)}")
    return "".join(line + rng.choice(["\n", "\r\n"]) for line in lines)


def edge_outcome(source):
    try:
        return "ok", read_edge_list(source)
    except EdgeListError as exc:
        return "error", str(exc)


class TestEdgeListSources:
    def test_every_source_form_reads_the_same(self):
        rng = random.Random(0xED6E)
        outcomes = []
        for _ in range(300):
            text = random_edge_text(rng)
            want = edge_outcome(text)
            for form in (text.encode(), io.BytesIO(text.encode()), io.StringIO(text)):
                assert edge_outcome(form) == want, text
            outcomes.append(want)
        assert sum(o[0] == "ok" and len(o[1].edges) > 2 for o in outcomes) > 100
        assert sum(o[0] == "error" for o in outcomes) > 30

    @pytest.mark.parametrize("form", [str, str.encode, lambda t: io.BytesIO(t.encode()), io.StringIO],
                             ids=["str", "bytes", "binary-stream", "text-stream"])
    def test_lone_cr_ends_no_line(self, form):
        with pytest.raises(EdgeListError, match="^line 1: expected two vertex ids"):
            read_edge_list(form("0 1\r1 2\r"))

    def test_lf_and_crlf_read_alike(self):
        text = "# square\n0 1\n1 2\n\n2 3\n3 0\n"
        want = read_edge_list(text)
        assert len(want.edges) == 4
        crlf = text.replace("\n", "\r\n")
        for form in (crlf, crlf.encode(), io.BytesIO(crlf.encode()), io.StringIO(crlf)):
            assert read_edge_list(form) == want

    @pytest.mark.parametrize("binary", [False, True], ids=["bytes", "binary-stream"])
    def test_non_utf8_names_its_line(self, binary):
        data = b"0 1\n\xff\xfe 2\n"
        with pytest.raises(EdgeListError, match="^line 2: undecodable"):
            read_edge_list(io.BytesIO(data) if binary else data)

    def test_non_utf8_text_stream_names_no_line(self):
        stream = io.TextIOWrapper(io.BytesIO(b"0 1\n\xff\xfe 2\n"), encoding="utf-8")
        with pytest.raises(EdgeListError, match="^undecodable"):
            read_edge_list(stream)


def reference_generate(graph: InputGraph, query: GraphQuerySpec) -> list[list[int]]:
    """The query's clauses built literal by literal, one slot codeword at a
    time, in the generator's clause order."""
    v_count, k = graph.vertex_count, query.size
    bits = bits_per_vertex(v_count)

    def slot_literals(slot: int, vertex: int) -> list[int]:
        lits = []
        for t in range(bits):
            var = slot * bits + t + 1
            lits.append(-var if (vertex >> (bits - 1 - t)) & 1 else var)
        return lits

    clauses = []
    if query.kind == "clique":
        pairs = list(combinations(range(k), 2))
    else:
        pairs = [(i, i + 1) for i in range(k - 1)]
    for i, j in pairs:
        for u in range(v_count):
            for v in range(v_count):
                if not graph.has_edge(u, v):
                    clauses.append(slot_literals(i, u) + slot_literals(j, v))
    if query.kind == "clique":
        for i, j in pairs:
            for u in range(v_count):
                for v in range(u + 1):
                    clauses.append(slot_literals(i, u) + slot_literals(j, v))
    else:
        for u in range(v_count):
            for v in range(u + 1):
                clauses.append(slot_literals(0, u) + slot_literals(k - 1, v))
    for slot in range(k):
        for w in range(v_count, 1 << bits):
            clauses.append(slot_literals(slot, w))
    return clauses


def dimacs_text(cnf) -> str:
    buf = io.StringIO()
    write_dimacs(cnf, buf)
    return buf.getvalue()


class TestGeneratorDifferential:
    def test_matches_literal_by_literal_encoder(self):
        rng = random.Random(0x6E4)
        # path 2 on one edge: (0, k - 1) is the only slot pair
        cases = [(read_edge_list("0 1\n"), GraphQuerySpec("path", 2))]
        for kind in ("clique", "path"):
            for size in range(2, 6):
                # vertex counts off a power of two bring domain clauses
                for v in (2, 3, 4, 5, 8, rng.randint(6, 7), rng.randint(9, 12)):
                    g = random_graph(rng, v, rng.uniform(0.1, 0.9))
                    cases.append((g, GraphQuerySpec(kind, size)))
        for g, query in cases:
            cnf = generate_cnf(g, query)
            ref = reference_generate(g, query)
            assert [c.literals for c in cnf.clauses] == [frozenset(l) for l in ref]
            expected = CnfProblem(cnf.variable_count, [Clause(l) for l in ref], cnf.comments)
            assert dimacs_text(cnf) == dimacs_text(expected)


class TestGenerateCnf:
    def test_paper_non_edge_clause_present(self):
        # non-edge (1, 3) in slots (0, 1): reject slot0=1, slot1=3
        cnf = generate_cnf(fig10(), GraphQuerySpec("clique", 3))
        assert cnf.variable_count == 6
        wanted = frozenset([1, -2, -3, -4])
        assert any(c.literals == wanted for c in cnf.clauses)

    def test_fig10_triangles(self):
        cnf = generate_cnf(fig10(), GraphQuerySpec("clique", 3))
        assert run(cnf).count == 2
        assert brute_count(cnf) == 2

    def test_single_edge_path(self):
        g = read_edge_list("0 1\n")
        cnf = generate_cnf(g, GraphQuerySpec("path", 2))
        assert run(cnf).count == 1

    def test_more_than_64_variables(self):
        # one bit per slot: a 66-vertex path over one edge alternates 0 and 1
        cnf = generate_cnf(read_edge_list("0 1\n"), GraphQuerySpec("path", 66))
        assert cnf.variable_count == 66
        model = [v if v % 2 == 0 else -v for v in range(1, 67)]  # slot 0 holds 0
        assert all(any(l in model for l in c.literals) for c in cnf.clauses)

    def test_tiny_graph_rejected(self):
        with pytest.raises(GenerationError):
            generate_cnf(InputGraph(1, frozenset()), GraphQuerySpec("path", 2))

    def test_models_decode_to_valid_matches(self):
        g = fig10()
        query = GraphQuerySpec("clique", 3)
        cnf = generate_cnf(g, query)
        result = run(cnf, SolverConfig(mode="enumerate"))
        tuples = {decode_model(m, query, g.vertex_count) for m in result.models}
        for verts in tuples:
            assert len(set(verts)) == 3
            assert list(verts) == sorted(verts)
            for a, b in combinations(verts, 2):
                assert g.has_edge(a, b)
        assert tuples == {(0, 1, 2), (0, 2, 3)}

    def test_path_models_decode_with_ordered_endpoints(self):
        g = fig10()
        query = GraphQuerySpec("path", 3)
        cnf = generate_cnf(g, query)
        result = run(cnf, SolverConfig(mode="enumerate"))
        tuples = {decode_model(m, query, g.vertex_count) for m in result.models}
        assert result.count == count_subgraphs(g, query)
        for a, b, c in tuples:
            assert g.has_edge(a, b) and g.has_edge(b, c)
            assert a < c and len({a, b, c}) == 3

    def test_comments_record_conventions(self):
        cnf = generate_cnf(fig10(), GraphQuerySpec("clique", 3))
        text = "\n".join(cnf.comments)
        assert "clique" in text and "bits" in text

    def test_dimacs_round_trip(self):
        cnf = generate_cnf(fig10(), GraphQuerySpec("clique", 3))
        buf = io.StringIO()
        write_dimacs(cnf, buf)
        again = parse_dimacs(buf.getvalue())
        assert again.clause_count == cnf.clause_count
        assert run(again).count == 2

    def test_bits_per_vertex(self):
        assert [bits_per_vertex(v) for v in (2, 3, 4, 5, 16, 17)] == [
            1,
            2,
            2,
            3,
            4,
            5,
        ]

    def test_domain_clauses_reject_spare_codewords(self):
        # 3 vertices need 2 bits; codeword 3 must be unusable in every slot
        g = read_edge_list("0 1\n1 2\n0 2\n")
        cnf = generate_cnf(g, GraphQuerySpec("clique", 3))
        assert run(cnf).count == 1  # the single triangle


class TestCountOracleAgreement:
    def test_random_graphs_triangles_and_paths(self):
        rng = random.Random(2026)
        for _ in range(12):
            g = random_graph(rng, rng.randint(4, 16), rng.uniform(0.2, 0.6))
            for query in (GraphQuerySpec("clique", 3), GraphQuerySpec("path", 2)):
                cnf = generate_cnf(g, query)
                assert run(cnf).count == count_subgraphs(g, query)


class TestHiddenSolutionBlocks:
    def test_default_shape(self):
        cnf, groups = hidden_solution_blocks(seed=1)
        assert cnf.variable_count == 61
        assert cnf.clause_count == 581
        assert sorted(v for g in groups for v in g) == list(range(1, 62))

    @pytest.mark.parametrize("blocks", [0, -1])
    def test_no_blocks_is_refused(self, blocks):
        with pytest.raises(ValueError, match="blocks must be at least 1"):
            hidden_solution_blocks(seed=1, blocks=blocks)

    @pytest.mark.parametrize("total", [-1, -16])
    def test_negative_clause_total_is_refused(self, total):
        with pytest.raises(ValueError, match="total_clauses must be at least 0"):
            hidden_solution_blocks(seed=1, total_clauses=total)

    def test_count_is_positive_and_blockwise(self):
        cnf, groups = hidden_solution_blocks(seed=2, blocks=4, total_clauses=80)
        expected = 1
        for vs in groups:
            renum = {v: i + 1 for i, v in enumerate(vs)}
            from boxsat import Clause, CnfProblem

            sub = CnfProblem(
                len(vs),
                [
                    Clause([(-1 if l < 0 else 1) * renum[abs(l)] for l in c.literals])
                    for c in cnf.clauses
                    if set(map(abs, c.literals)) <= set(vs)
                ],
            )
            expected *= brute_count(sub)
        assert expected >= 1
        assert run(cnf).count == expected
