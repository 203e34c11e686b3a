import contextlib
import io
import os
import random
import subprocess
import sys
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxsat
from boxsat import Clause, CnfProblem, SolverConfig, parse_dimacs, run, write_dimacs
from boxsat.cli import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_TIMEOUT,
    EXIT_USAGE,
    EXIT_VERIFY,
    build_parser,
    main,
)

from conftest import CHAIN_22_MODELS, CHAIN_22_STEPS, EXAMPLE1_TEXT, chain_cnf

FIG10_EDGES = "0 1\n1 2\n2 3\n3 0\n0 2\n"


@pytest.fixture
def example1_path(tmp_path):
    p = tmp_path / "example1.cnf"
    p.write_text(EXAMPLE1_TEXT)
    return str(p)


@pytest.fixture
def fig10_path(tmp_path):
    p = tmp_path / "fig10.edges"
    p.write_text(FIG10_EDGES)
    return str(p)


class TestCount:
    def test_example1(self, example1_path, capsys):
        assert main(["count", example1_path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "s MODELS 3" in out
        assert "c loadtime" in out and "c runtime" in out

    def test_ordering_and_ratio_flags(self, example1_path, capsys):
        code = main(
            [
                "count",
                example1_path,
                "--ordering",
                "minfill",
                "--insertion-ratio",
                "0.0",
                "--no-lambda-skip",
            ]
        )
        assert code == EXIT_OK
        assert "s MODELS 3" in capsys.readouterr().out

    def test_verify_ok(self, example1_path, capsys):
        assert main(["count", example1_path, "--verify"]) == EXIT_OK
        assert "c verify ok" in capsys.readouterr().out

    def test_verify_mismatch_exit_code(self, example1_path, capsys, monkeypatch):
        import boxsat.cli as cli

        monkeypatch.setattr(cli, "brute_count", lambda cnf: 99)
        assert main(["count", example1_path, "--verify"]) == EXIT_VERIFY
        out = capsys.readouterr().out
        assert "s MODELS 3" in out  # reported count is unchanged
        assert "MISMATCH" in out

    def test_stdin_input(self, capsys, monkeypatch):
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(EXAMPLE1_TEXT))
        assert main(["count", "-"]) == EXIT_OK
        assert "s MODELS 3" in capsys.readouterr().out

    def test_stdin_stays_open(self, capsys, monkeypatch):
        # each command reads "-" without closing it, so a later call in the
        # same process can still use standard input
        monkeypatch.setattr(sys, "stdin", io.StringIO(EXAMPLE1_TEXT))
        assert main(["count", "-"]) == EXIT_OK
        assert not sys.stdin.closed
        monkeypatch.setattr(sys, "stdin", io.StringIO(EXAMPLE1_TEXT))
        assert main(["stats", "-"]) == EXIT_OK
        assert not sys.stdin.closed
        monkeypatch.setattr(sys, "stdin", io.StringIO(FIG10_EDGES))
        assert main(["gen", "-", "--query", "path", "--size", "2"]) == EXIT_OK
        assert not sys.stdin.closed
        out = capsys.readouterr().out
        assert "s MODELS 3" in out and "p cnf" in out

    def test_timeout(self, tmp_path, capsys):
        # the chain's sweep takes tens of thousands of steps, so the
        # deadline stops the sweep however fast loading is
        big = tmp_path / "chain.cnf"
        with open(big, "w") as fh:
            write_dimacs(chain_cnf(22), fh)
        untimed = run(parse_dimacs(big.read_text()))
        assert (untimed.count, untimed.iterations) == (CHAIN_22_MODELS, CHAIN_22_STEPS)
        code = main(["count", str(big), "--timeout", "0.0001"])
        assert code == EXIT_TIMEOUT
        assert "s MODELS" not in capsys.readouterr().out

    def test_count_of_any_size_is_printed_exactly(self, tmp_path, capsys):
        # one unit clause over 15,000 variables: 2^14999 models, 4,516 digits
        path = tmp_path / "wide.cnf"
        path.write_text("p cnf 15000 1\n1 0\n")
        assert main(["count", str(path), "--ordering", "naive-degree"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        digits = next(l for l in lines if l.startswith("s MODELS ")).split()[2]
        assert len(digits) == 4516 and digits.isdigit()
        assert Decimal(digits) == Decimal(1 << 14999)

    def test_determinism(self, example1_path, capsys):
        main(["enumerate", example1_path])
        first = [
            l
            for l in capsys.readouterr().out.splitlines()
            if l.startswith(("s ", "v "))
        ]
        main(["enumerate", example1_path])
        second = [
            l
            for l in capsys.readouterr().out.splitlines()
            if l.startswith(("s ", "v "))
        ]
        assert first == second


class TestEnumerate:
    def test_streams_models(self, example1_path, capsys):
        assert main(["enumerate", example1_path]) == EXIT_OK
        out = capsys.readouterr().out
        v_lines = [l for l in out.splitlines() if l.startswith("v ")]
        assert sorted(v_lines) == [
            "v 1 -2 3 0",
            "v 1 2 -3 0",
            "v 1 2 3 0",
        ]
        assert "s MODELS 3" in out

    def test_no_variables_prints_one_empty_model(self, tmp_path, capsys):
        path = tmp_path / "empty.cnf"
        path.write_text("p cnf 0 0\n")
        assert main(["enumerate", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert [l for l in out.splitlines() if l.startswith("v")] == ["v 0"]
        assert "s MODELS 1" in out

    def test_models_in_variable_numbering(self, tmp_path, capsys):
        # x2 is free, and every ordering puts it last
        path = tmp_path / "free.cnf"
        path.write_text("p cnf 3 2\n-1 3 0\n1 -3 0\n")
        assert main(["enumerate", str(path)]) == EXIT_OK
        v_lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("v")]
        assert v_lines == ["v -1 -2 -3 0", "v -1 2 -3 0", "v 1 -2 3 0", "v 1 2 3 0"]

    def test_closed_pipe_ends_quietly(self, tmp_path):
        # 2^16 models are far more than a pipe buffers, so the run is still
        # writing when the reader goes away, as under ``| head -1``
        path = tmp_path / "free.cnf"
        path.write_text("p cnf 16 0\n")
        src = os.path.dirname(os.path.dirname(boxsat.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "boxsat.cli", "enumerate", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.stdout.readline().startswith(b"v ")
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == EXIT_USAGE
        assert stderr == b""


class TestDefaults:
    def test_defaults_are_the_solver_config_defaults(self):
        defaults = SolverConfig()
        parser = build_parser()
        for command in ("count", "stats"):
            args = parser.parse_args([command, "in.cnf"])
            assert args.ordering == defaults.ordering
        args = parser.parse_args(["count", "in.cnf"])
        assert args.insertion_ratio == defaults.insertion_ratio


class TestUsageErrors:
    def test_ratio_out_of_range(self, example1_path):
        assert main(["count", example1_path, "--insertion-ratio", "1.5"]) == EXIT_USAGE

    def test_unknown_ordering(self, example1_path):
        assert main(["count", example1_path, "--ordering", "random"]) == EXIT_USAGE

    def test_missing_subcommand(self):
        assert main([]) == EXIT_USAGE

    def test_missing_file(self):
        assert main(["count", "/nonexistent/file.cnf"]) == EXIT_USAGE

    def test_gen_size_too_small(self, fig10_path):
        assert main(["gen", fig10_path, "--query", "path", "--size", "1"]) == EXIT_USAGE

    def test_grouped_optimal_over_the_cap(self, tmp_path, capsys):
        # 72 clause variables is the first size over the cap
        path = tmp_path / "wide.cnf"
        path.write_text("p cnf 72 1\n" + " ".join(map(str, range(1, 73))) + " 0\n")
        assert main(["count", str(path), "--ordering", "grouped-optimal"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: grouped-optimal needs all C(72, 4) = 1,028,790 "
                              "4-subsets of the clause variables")
        assert "cap of 1,000,000" in err
        assert "Traceback" not in err

    def test_grouped_optimal_counts_free_variables_past_the_cap(self, tmp_path, capsys):
        # C(100, 4) is over the cap, but only the two clause variables are grouped
        path = tmp_path / "padded.cnf"
        path.write_text("p cnf 100 1\n1 2 0\n")
        assert main(["count", str(path), "--ordering", "grouped-optimal"]) == EXIT_OK
        assert f"s MODELS {3 * 2**98}\n" in capsys.readouterr().out

    @pytest.mark.parametrize("seconds", ["nan", "-1"])
    def test_timeout_not_a_duration(self, example1_path, capsys, seconds):
        # NaN never passes a deadline check; -1 would time out at once
        assert main(["count", example1_path, "--timeout", seconds]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("error: timeout must be a number of seconds >= 0")
        assert "Traceback" not in captured.err
        assert "s MODELS" not in captured.out

    def test_out_of_memory(self, example1_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("boxsat.cli.run", exhausted)
        assert main(["count", example1_path]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory (")
        assert "Traceback" not in err


class TestParseErrors:
    def test_bad_cnf(self, tmp_path):
        bad = tmp_path / "bad.cnf"
        bad.write_text("p cnf 2 1\n7 0\n")
        assert main(["count", str(bad)]) == EXIT_PARSE

    def test_bad_edge_list(self, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_text("0 zebra\n")
        assert main(["gen", str(bad), "--query", "clique", "--size", "3"]) == EXIT_PARSE

    @pytest.mark.parametrize("n", [99999999999999999999, sys.maxsize])
    def test_header_past_index_range(self, tmp_path, capsys, n):
        """Refused by the parser, before any per-variable table is made."""
        bad = tmp_path / "wide.cnf"
        bad.write_text(f"p cnf {n} 0\n")
        assert main(["count", str(bad)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: line 1: header declares {n} variables")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, text, message",
        [
            (["count"], "p cnf 10 1\n1_0 0\n", "line 2: bad token '1_0'"),
            (["count"], "p cnf 3_0 1\n1 0\n", "line 1: malformed header"),
            (["gen", "--query", "clique", "--size", "3"], "0 1\n1_0 3\n",
             "line 2: non-integer token"),
        ],
    )
    def test_tokens_int_takes_but_dimacs_does_not(self, tmp_path, capsys, command, text,
                                                  message):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert main([command[0], str(bad), *command[1:]]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: {message}")
        assert err.count("\n") == 1

    def test_non_utf8_edge_list(self, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_bytes(b"0 1\n\xff\xfe 2\n")
        assert main(["gen", str(bad), "--query", "clique", "--size", "3"]) == EXIT_PARSE

    def test_non_utf8_comment(self, tmp_path):
        bad = tmp_path / "bad.cnf"
        bad.write_bytes(b"c \xff\xfe\np cnf 2 1\n1 2 0\n")
        assert main(["count", str(bad)]) == EXIT_PARSE

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            st.binary(max_size=64),
            st.binary(max_size=64).map(lambda tail: b"p cnf 3 2\n1 -2 0\n" + tail),
        )
    )
    def test_arbitrary_bytes_on_stdin(self, data):
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            original, sys.stdin = sys.stdin, stdin
            try:
                code = main(["count", "-"])
            finally:
                sys.stdin = original
        assert code in (EXIT_OK, EXIT_PARSE), err.getvalue()
        assert "Traceback" not in err.getvalue()


class TestWideFormula:
    def test_n_5000_exits_cleanly(self, tmp_path, capsys):
        rng = random.Random(5000)
        n = 5000
        clauses = [
            Clause(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3))
            for _ in range(100)
        ]
        path = tmp_path / "wide.cnf"
        with open(path, "w") as fh:
            write_dimacs(CnfProblem(n, clauses), fh)
        code = main(["count", str(path), "--ordering", "naive-degree", "--timeout", "2"])
        assert code in (EXIT_OK, EXIT_TIMEOUT)
        assert "Traceback" not in capsys.readouterr().err


class TestGen:
    def test_gen_then_count(self, fig10_path, tmp_path, capsys):
        out_path = tmp_path / "fig10.cnf"
        code = main(
            ["gen", fig10_path, "--query", "clique", "--size", "3", "--out", str(out_path)]
        )
        assert code == EXIT_OK
        assert main(["count", str(out_path), "--verify"]) == EXIT_OK
        assert "s MODELS 2" in capsys.readouterr().out

    def test_gen_to_stdout(self, fig10_path, capsys):
        assert main(["gen", fig10_path, "--query", "path", "--size", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("c query path size=2\n") or "p cnf" in out

    def test_gen_refuses_a_one_vertex_graph(self, tmp_path, capsys):
        # a self-loop names one vertex and adds no edge
        path = tmp_path / "loop.txt"
        path.write_text("0 0\n")
        assert main(["gen", str(path), "--query", "path", "--size", "2"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "error: graph needs at least 2 vertices\n"


class TestStats:
    def test_shape(self, example1_path, capsys):
        assert main(["stats", example1_path, "--ordering", "naive-degree"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n 3"
        assert lines[1] == "m 3"
        assert any(l.startswith("degree ") for l in lines)
        assert lines[-1] == "ordering naive-degree 2 1 3"

    def test_example1_has_no_free_variables(self, example1_path, capsys):
        # ``free`` is the degree-0 entry of the histogram
        assert main(["stats", example1_path]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[2] == "free 0"

    def test_components(self, tmp_path, capsys, example1_path):
        # the clause variables {1, 2}, {3, 5} and {6}; 4, 7 and 8 are free
        path = tmp_path / "parts.cnf"
        path.write_text("p cnf 8 4\n1 2 0\n-2 0\n3 -5 0\n6 0\n")
        assert main(["stats", str(path)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[2:4] == ["free 3", "components 3"]
        assert main(["stats", example1_path]) == EXIT_OK
        assert "components 1" in capsys.readouterr().out.splitlines()

    def test_free_variables(self, tmp_path, capsys):
        path = tmp_path / "free.cnf"
        path.write_text("p cnf 8 2\n1 2 0\n-2 3 0\n")
        assert main(["stats", str(path), "--ordering", "minfill"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert "free 5" in lines
        assert lines[-1].endswith(" 4 5 6 7 8")
