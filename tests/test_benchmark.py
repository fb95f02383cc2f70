"""A smoke run of the benchmark command that BENCHMARK.json declares.

Each workload runs for zero seconds, one round, untraced, so it writes
no file.  A change that breaks the benchmark's run or its verdict check
fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_benchmark_command_runs(workload):
    command = [sys.executable if a == "python3" else a for a in BENCHMARK["command"]]
    out = subprocess.run(
        [*command, "--workload", workload, "--seed", "1", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    verdict = json.loads(out.stdout.splitlines()[-1])
    assert verdict["correct"] is True
    assert verdict["failed"] == 0
    assert verdict["attempted"] > 0
    missing = {m["name"] for m in BENCHMARK["end_to_end"]} - set(verdict["metrics"])
    assert not missing
