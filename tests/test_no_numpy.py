"""boxsat runs with numpy unimportable.

numpy is a benchmark extra, not a runtime dependency.  The check runs in a
fresh interpreter where ``sys.modules["numpy"] = None`` makes every
``import numpy`` raise ImportError.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import boxsat

SRC = Path(boxsat.__file__).resolve().parents[1]

SCRIPT = textwrap.dedent(
    """
    import sys
    sys.modules["numpy"] = None

    import boxsat, boxsat.oracle
    from boxsat.cli import main

    path = sys.argv[1]
    assert main(["count", path, "--verify"]) == 0
    assert main(["count", path, "--ordering", "grouped-optimal"]) == 0
    assert main(["enumerate", path]) == 0
    assert sys.modules["numpy"] is None
    """
)


def test_cli_runs_without_numpy(tmp_path):
    path = tmp_path / "example.cnf"
    path.write_text("p cnf 5 3\n1 2 0\n1 -2 0\n2 3 -5 0\n")
    paths = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines.count("s MODELS 14") == 3
    assert "c verify ok" in lines
    assert sum(line.startswith("v ") for line in lines) == 14
