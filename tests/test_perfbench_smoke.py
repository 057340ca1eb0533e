"""Smoke test of the benchmark harness: one short run must succeed and be correct.

``perfbench/run.py`` drives the program from outside, through the CLI
module and configs; this keeps a change to either from breaking it unseen.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tc_sweep_run_is_correct():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "tc-sweep",
         "--seed", "1", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout.splitlines()[-2]
    assert result["metrics"]["ok_rate"]["value"] == 1.0
