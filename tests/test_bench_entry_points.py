"""The benchmark's entry points still run on this program.

perfbench/run.py exits 0 even when every worker of a workload fails: it then
prints empty or NaN metrics. So a change that breaks anything
perfbench/worker.py or the tracer's bindings reach would first show as a
malformed benchmark line. Each test here runs one short traced worker, as the
benchmark does, and reads its outputs; nothing under perfbench/ is edited.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("halfspace_iid", "halfspace_boundary_csv", "bandit_monotone")


def _spans():
    """perfbench/spans.py, loaded under its own name without touching sys.path."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_worker_runs_every_layer(workload, tmp_path):
    argv = [
        sys.executable, str(PERFBENCH / "worker.py"), "--workload", workload, "--seeds", "0",
        "--trace", "1", "--t-horizon", "50", "--out", str(tmp_path),
    ]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["exit_code"] == 0
    assert result["first_round_seen"] is True
    dump = tmp_path / "spans.npz"
    _, absent = _spans().layer_totals(dump)
    with np.load(dump) as data:
        missing = [str(x) for x in data["missing"]]
    assert absent == set()
    assert missing == []
