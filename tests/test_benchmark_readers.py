"""The benchmark's own readers accept what the writer writes.

Each invocation of perfbench/run.py's WORKLOADS (seed 0, the benchmark's
sizes) runs in-process, and perfbench/checks.py::check_run must find no
error in its run directory.  Both files are imported, not changed.
"""

import sys
from pathlib import Path

import pytest

from clockwalk.experiments_cli import EXIT_OK, main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from checks import check_run  # noqa: E402
from run import WORKLOADS  # noqa: E402

OPS = [pytest.param(op, id=f"{name}-{op.scenario}") for name, ops in WORKLOADS.items() for op in ops(0)]


@pytest.mark.parametrize("op", OPS)
def test_check_run_accepts_the_run(tmp_path, op):
    out = tmp_path / "run"
    assert main(op.argv(out)) == EXIT_OK
    errors, digest, nbytes = check_run(out, op.scenario, dict(op.sets), op.fmt)
    assert errors == []
    assert digest and nbytes > 0
