"""Benchmark generation: subgraph-counting queries over edge lists as CNF.

Each of the query's k slots holds one vertex id in binary (most significant
bit first).  A clause is emitted for every assignment pattern that must be
rejected, so the generated formula's models correspond one-to-one with the
query's matches:

* non-edge rejection: for every ordered vertex pair without an edge between
  them (self-pairs included) and every constrained slot pair, reject the
  assignment placing that pair in those slots;
* symmetry breaking: cliques reject any non-increasing vertex pair in any
  slot pair, so each clique surfaces exactly once (slots strictly
  ascending); paths order their two endpoints (first < last), counting each
  path once per direction;
* domain clauses: codewords beyond the vertex count are rejected per slot.

Every clause comes from one codeword table, built once per formula: entry
``[slot][w]`` holds the literals that are all false exactly when ``slot``
holds codeword ``w`` (bit t's literal is positive exactly when w's bit t
is 0).  A rejection clause is the union of two slots' entries, a domain
clause is one entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import IO, Iterable

from .cnf import Clause, CnfProblem, _int_token, _text_lines


class EdgeListError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class GenerationError(ValueError):
    pass


@dataclass(frozen=True)
class InputGraph:
    vertex_count: int
    edges: frozenset[tuple[int, int]]  # stored with u < v

    def __post_init__(self):
        for u, v in self.edges:
            if not (0 <= u < v < self.vertex_count):
                raise ValueError(f"bad edge ({u}, {v})")

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        return ((u, v) if u < v else (v, u)) in self.edges

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.vertex_count)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


@dataclass(frozen=True)
class GraphQuerySpec:
    kind: str  # "clique" | "path"
    size: int  # number of vertex slots, k >= 2

    def __post_init__(self):
        if self.kind not in ("clique", "path"):
            raise ValueError(f"unknown query kind {self.kind!r}")
        if self.size < 2:
            raise ValueError("query size must be at least 2")

    def slot_pairs(self) -> list[tuple[int, int]]:
        """Slot pairs carrying an edge constraint (0-based, i < j)."""
        if self.kind == "clique":
            return list(combinations(range(self.size), 2))
        return [(i, i + 1) for i in range(self.size - 1)]


def read_edge_list(source: str | bytes | Iterable[str] | IO) -> InputGraph:
    """Parse whitespace-separated "u v" lines; '#' lines are comments.
    Lines are read as DIMACS lines are, from a ``str`` too: only ``\n``
    ends a line, and undecodable input raises :class:`EdgeListError`,
    naming its line where the source is binary.

    A vertex id is an optional sign followed by ASCII digits.  Ids are
    densified to 0..V-1 in first-appearance order; duplicate and reversed
    edges merge, self-loops are dropped (their endpoints still count as
    vertices).
    """
    ids: dict[int, int] = {}
    edges: set[tuple[int, int]] = set()

    def dense(raw: int) -> int:
        if raw not in ids:
            ids[raw] = len(ids)
        return ids[raw]

    for line_no, raw in enumerate(_text_lines(source, EdgeListError), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListError(f"expected two vertex ids, got {line!r}", line_no)
        try:
            u, v = _int_token(parts[0]), _int_token(parts[1])
        except ValueError:
            raise EdgeListError(f"non-integer token in {line!r}", line_no) from None
        du, dv = dense(u), dense(v)
        if du == dv:
            continue
        edges.add((min(du, dv), max(du, dv)))
    return InputGraph(len(ids), frozenset(edges))


def bits_per_vertex(vertex_count: int) -> int:
    return max(1, (vertex_count - 1).bit_length())


def generate_cnf(graph: InputGraph, query: GraphQuerySpec) -> CnfProblem:
    """Encode the query over ``graph`` as CNF whose model count equals the
    number of matches."""
    v_count = graph.vertex_count
    if v_count < 2:
        raise GenerationError("graph needs at least 2 vertices")
    bits = bits_per_vertex(v_count)
    k = query.size
    n = k * bits

    codes = [
        [
            frozenset(
                -var if (w >> (bits - 1 - t)) & 1 else var
                for t, var in enumerate(range(slot * bits + 1, (slot + 1) * bits + 1))
            )
            for w in range(1 << bits)
        ]
        for slot in range(k)
    ]
    clauses: list[Clause] = []
    pairs = query.slot_pairs()
    for i, j in pairs:
        for u in range(v_count):
            for v in range(v_count):
                if not graph.has_edge(u, v):
                    clauses.append(Clause(codes[i][u] | codes[j][v]))

    # symmetry breaking: every clique slot pair ascends, a path's endpoints do
    for i, j in pairs if query.kind == "clique" else [(0, k - 1)]:
        for u in range(v_count):
            for v in range(u + 1):
                clauses.append(Clause(codes[i][u] | codes[j][v]))

    for slot in range(k):
        for w in range(v_count, 1 << bits):
            clauses.append(Clause(codes[slot][w]))

    comments = [
        f"query {query.kind} size={k}",
        f"graph vertices={v_count} edges={len(graph.edges)}",
        f"encoding {bits} bits per slot, most significant bit first",
        "slot i occupies variables i*bits+1 .. (i+1)*bits",
        "convention: clique slots strictly increasing; path endpoints first<last,"
        " consecutive slots distinct",
    ]
    return CnfProblem(n, clauses, comments)


def hidden_solution_blocks(
    seed: int = 0, blocks: int = 15, total_clauses: int = 581
) -> tuple[CnfProblem, list[list[int]]]:
    """Synthetic instance built from independent variable blocks.

    Each block receives its share of random width-2/3 clauses, filtered so a
    hidden assignment per block survives (every other block protects a second
    one), keeping the model count positive and exactly computable as the
    product of per-block counts.  Each block has four variables, and the
    last one more.  Defaults give 61 variables / 581 clauses.
    Returns the problem and the block variable groups.
    """
    import random

    if blocks < 1:
        raise ValueError("blocks must be at least 1")
    if total_clauses < 0:
        raise ValueError("total_clauses must be at least 0")
    rng = random.Random(seed)
    n = 4 * blocks + 1
    groups = [list(range(4 * b + 1, 4 * b + 5)) for b in range(blocks)]
    groups[-1].append(n)
    per = total_clauses // blocks
    clauses: list[Clause] = []
    for b, vs in enumerate(groups):
        secret = {v: rng.random() < 0.5 for v in vs}
        protected = [secret]
        if b % 2 == 0:
            other = dict(secret)
            other[vs[0]] = not other[vs[0]]
            protected.append(other)
        want = per + (total_clauses - per * blocks if b == blocks - 1 else 0)
        made = 0
        while made < want:
            width = rng.choice((2, 2, 3, 3, 3))
            sub = rng.sample(vs, min(width, len(vs)))
            lits = [v if rng.random() < 0.5 else -v for v in sub]
            if all(
                any((l > 0) == keep[abs(l)] for l in lits) for keep in protected
            ):
                clauses.append(Clause(lits))
                made += 1
    return CnfProblem(n, clauses), groups


def decode_model(
    literals: tuple[int, ...], query: GraphQuerySpec, vertex_count: int
) -> tuple[int, ...]:
    """Vertex tuple a satisfying assignment encodes (one vertex per slot)."""
    bits = bits_per_vertex(vertex_count)
    truth = {abs(l): l > 0 for l in literals}
    out = []
    for slot in range(query.size):
        vertex = 0
        for t in range(bits):
            vertex = (vertex << 1) | (1 if truth[slot * bits + t + 1] else 0)
        out.append(vertex)
    return tuple(out)

