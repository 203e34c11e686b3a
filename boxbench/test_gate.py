"""The correctness gate: a wrong count, a raised error or a timeout must fail
the run.

Run from the repository root:  python3 -m pytest boxbench/test_gate.py
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("fault", ["none", "wrong-count", "raises", "timeout"])
def test_faults_fail_the_run(monkeypatch, capsys, fault):
    small = dataclasses.replace(workloads.WORKLOADS["blocks"], instances=2)
    monkeypatch.setitem(workloads.WORKLOADS, "blocks", small)
    oracle, solve = workloads.expected, workloads.solve

    def expected(workload, instance):
        answer = oracle(workload, instance)
        return answer + 1 if fault == "wrong-count" and instance.index == 1 else answer

    def failing_solve(workload, instance):
        if instance.index == 1:
            raise RuntimeError("deliberate failure")
        return solve(workload, instance)

    monkeypatch.setattr(workloads, "expected", expected)
    if fault == "raises":
        monkeypatch.setattr(workloads, "solve", failing_solve)
    if fault == "timeout":
        monkeypatch.setattr(run, "SOLVE_TIMEOUT_S", 1e-4)

    code = run.main(["--workload", "blocks", "--seed", "3", "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] == 3  # warm-up plus one pass over two instances
    if fault == "none":
        assert code == 0
        assert result["correct"] is True
        assert result["failed"] == 0
        assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
        return
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == (3 if fault == "timeout" else 1)


def test_gate_reports_only_mismatches():
    assert run.gate([10, 256], [(0, 10), (1, 256), (0, 10)]) == []
    problems = run.gate([10, 256], [(0, 10), (1, 257)])
    assert len(problems) == 1 and "instance 1" in problems[0]
