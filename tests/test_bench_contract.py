"""The package API that ``boxbench`` uses still works.

``boxbench/layers.py`` rebuilds ``boxsat.run`` step by step and wraps the
sweep's hot calls, so it imports names no other code path runs.  This runs
the timed solve and the traced pass on one instance of each workload, as
``boxbench/run.py --trace 1`` does, without the timing.
"""

import io
import random
import sys
from pathlib import Path

import pytest

from boxsat import write_dimacs

BOXBENCH = Path(__file__).resolve().parents[1] / "boxbench"
sys.path.insert(0, str(BOXBENCH))

import layers  # noqa: E402
import workloads  # noqa: E402

SEED = 21


def first_instance(workload: workloads.Workload) -> workloads.Instance:
    """Instance 0 of the workload's set for ``SEED``, made on its own."""
    sub_seed = random.Random(SEED).getrandbits(32)
    cnf, oracle_input = workload.make(random.Random(sub_seed))
    buf = io.StringIO()
    write_dimacs(cnf, buf)
    return workloads.Instance(0, sub_seed, buf.getvalue(), cnf.variable_count,
                              cnf.clause_count, oracle_input)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_timed_and_traced_solves_agree_with_the_oracle(name):
    if name == "models":
        pytest.importorskip("numpy")
    workload = workloads.WORKLOADS[name]
    instance = first_instance(workload)
    want = workloads.expected(workload, instance)

    got, result, _ = workloads.solve(workload, instance)
    recorder = layers.Recorder()
    traced = layers.traced_solve(recorder, workload, instance, "0:0")
    assert got == want
    assert traced.answer == want

    exact = layers.exact_counts(recorder, [traced])
    # run.py refuses a traced pass whose steps differ from the timed solve's
    assert exact["solver.steps"] == result.iterations
    # one cache walk per step; the sweep stores every cached box without a
    # containment walk, so the wrapped ``insert`` is never called and adds 0
    assert exact["clustertrie.find_containing.calls"] == (
        result.iterations + exact["clustertrie.insert.calls"])
    rates = layers.replay([traced])
    assert all(rate > 0 for rate in rates.values())
