"""boxsat: exact #SAT counting by geometric box resolution.

CNF clauses become boxes excluding regions of the assignment hypercube; the
solver sweeps probe points through the space, learns covering boxes by
restricted resolution, and stores everything in a cluster-compressed ternary
trie answering containment queries with wide bitmask intersections.
"""

from .boxes import Box, BoxError, Trit, resolve, subbox_rank
from .clustertrie import BoxDatabase, LookupTables, build_lookup_tables
from .cnf import (
    Clause,
    CnfProblem,
    DimacsError,
    VariableOrder,
    box_to_clause,
    clause_to_box,
    parse_dimacs,
    write_dimacs,
)
from .ordering import ORDERING_STRATEGIES, build_order, compute_stats
from .solver import SolveResult, SolverConfig, SolverState, advance, run

__version__ = "0.1.0"

__all__ = [
    "Box",
    "BoxDatabase",
    "BoxError",
    "Clause",
    "CnfProblem",
    "DimacsError",
    "LookupTables",
    "ORDERING_STRATEGIES",
    "SolveResult",
    "SolverConfig",
    "SolverState",
    "Trit",
    "VariableOrder",
    "advance",
    "box_to_clause",
    "build_lookup_tables",
    "build_order",
    "clause_to_box",
    "compute_stats",
    "parse_dimacs",
    "resolve",
    "run",
    "subbox_rank",
    "write_dimacs",
]
