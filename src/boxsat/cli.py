"""Command-line interface.

Machine-readable output follows model-counting competition conventions:
``s MODELS <count>`` for the answer, ``v <literals> 0`` per enumerated
model, and ``c ...`` for everything informational.

Exit codes: 0 success, 1 usage error (or a closed output pipe, with
nothing on stderr), 2 parse error, 3 timeout, 4 verification mismatch.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import AbstractContextManager, nullcontext
from decimal import Decimal
from typing import IO

from .benchgen import (
    EdgeListError,
    GraphQuerySpec,
    generate_cnf,
    read_edge_list,
)
from .cnf import DimacsError, parse_dimacs, write_dimacs
from .oracle import BRUTE_LIMIT, brute_count
from .ordering import ORDERING_STRATEGIES, build_order, compute_stats
from .solver import SolverConfig, run

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_TIMEOUT = 3
EXIT_VERIFY = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map to 1
        raise ValueError(message)


def _open_input(path: str) -> AbstractContextManager[IO]:
    """The file at ``path``, or standard input for ``-``, left open on exit."""
    return nullcontext(sys.stdin) if path == "-" else open(path, "r")


def build_parser() -> _Parser:
    parser = _Parser(prog="boxsat", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cnf_command(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="DIMACS CNF file, or - for stdin")
        p.add_argument(
            "--ordering",
            default=SolverConfig.ordering,
            choices=sorted(ORDERING_STRATEGIES),
        )
        return p

    def add_solve(name: str, help_text: str):
        p = add_cnf_command(name, help_text)
        p.add_argument("--insertion-ratio", type=float, default=SolverConfig.insertion_ratio)
        p.add_argument("--no-lambda-skip", action="store_true")
        p.add_argument("--timeout", type=float, default=None, metavar="SECONDS")
        p.add_argument(
            "--verify",
            action="store_true",
            help=f"cross-check the count against brute force (n <= {BRUTE_LIMIT})",
        )
        return p

    add_solve("count", "count satisfying assignments")
    add_solve("enumerate", "count and stream every satisfying assignment")

    gen = sub.add_parser("gen", help="generate CNF from an edge list")
    gen.add_argument("input", help="edge list file, or - for stdin")
    gen.add_argument("--query", required=True, choices=["clique", "path"])
    gen.add_argument("--size", required=True, type=int, metavar="K")
    gen.add_argument("--out", default="-", help="output CNF path (default stdout)")

    add_cnf_command("stats", "print instance statistics")
    return parser


def _cmd_solve(args, enumerate_models: bool) -> int:
    with _open_input(args.input) as fh:
        cnf = parse_dimacs(fh)
    config = SolverConfig(
        insertion_ratio=args.insertion_ratio,
        ordering=args.ordering,
        mode="enumerate" if enumerate_models else "count",
        lambda_skip=not args.no_lambda_skip,
        timeout=args.timeout,
    )
    out = sys.stdout
    emit = None
    if enumerate_models:
        line = "v" + " %d" * cnf.variable_count + " 0\n"

        def emit(literals):
            out.write(line % literals)
            out.flush()

    result = run(cnf, config, on_model=emit)
    if result.timed_out:
        out.write("c timeout\n")
        return EXIT_TIMEOUT
    out.write(f"c loadtime {result.load_seconds:.3f}\n")
    out.write(f"c runtime {result.run_seconds:.3f}\n")
    # Decimal prints an int of any size; str() refuses past 4,300 digits
    out.write(f"s MODELS {Decimal(result.count)}\n")
    if args.verify:
        if cnf.variable_count > BRUTE_LIMIT:
            out.write(f"c verify skipped (n > {BRUTE_LIMIT})\n")
        else:
            expected = brute_count(cnf)
            if expected != result.count:
                out.write(f"c verify MISMATCH expected {expected}\n")
                return EXIT_VERIFY
            out.write("c verify ok\n")
    return EXIT_OK


def _cmd_gen(args) -> int:
    with _open_input(args.input) as fh:
        graph = read_edge_list(fh)
    query = GraphQuerySpec(args.query, args.size)
    cnf = generate_cnf(graph, query)
    if args.out == "-":
        write_dimacs(cnf, sys.stdout)
    else:
        with open(args.out, "w") as fh:
            write_dimacs(cnf, fh)
    return EXIT_OK


def _cmd_stats(args) -> int:
    with _open_input(args.input) as fh:
        cnf = parse_dimacs(fh)
    stats = compute_stats(cnf)
    order = build_order(cnf, args.ordering, stats)
    histogram: dict[int, int] = {}
    for v in range(1, cnf.variable_count + 1):
        histogram[stats.degree[v]] = histogram.get(stats.degree[v], 0) + 1
    out = sys.stdout
    out.write(f"n {cnf.variable_count}\n")
    out.write(f"m {cnf.clause_count}\n")
    # variables in no clause (degree 0): the tail every ordering ends with;
    # each gap box the sweep widens a model probe to spans at least these
    out.write(f"free {histogram.get(0, 0)}\n")
    # connected components of the clause variables, free ones left out: the
    # ordering keeps each contiguous, and a count-mode sweep counts each
    # suffix of whole components once
    out.write(f"components {stats.component_count}\n")
    for deg in sorted(histogram):
        out.write(f"degree {deg} {histogram[deg]}\n")
    out.write(f"ordering {args.ordering} " + " ".join(map(str, order.as_sequence())) + "\n")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "count":
            return _cmd_solve(args, enumerate_models=False)
        if args.command == "enumerate":
            return _cmd_solve(args, enumerate_models=True)
        if args.command == "gen":
            return _cmd_gen(args)
        return _cmd_stats(args)  # subparsers are required, with fixed choices
    except (DimacsError, EdgeListError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BrokenPipeError:
        # the reader closed the pipe (``boxsat enumerate f.cnf | head -1``):
        # stdout now writes to the null device, so the flush at exit cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        # a header may declare more variables than per-variable tables fit
        print("error: out of memory (the formula is too large to solve here)", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        sys.stdout.flush()
        return 130


if __name__ == "__main__":
    sys.exit(main())
