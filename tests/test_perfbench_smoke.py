"""Smoke test of the benchmark harness: one short run must succeed and be correct.

``perfbench/run.py`` drives the program from outside, through the CLI
module and configs; this keeps a change to either from breaking it unseen.
``exponents-sweep`` also takes vacuum, number, equilibrium and fixed-beta
thermal states and mixtures through the root search against the references
in ``perfbench/refs.py``; ``oracle-exact`` drives the series oracle, the
3-sector solve, the thermal resummation and ``verify``; ``cli-cold`` runs
every subcommand, ``verify --inject-fault`` included, in fresh CLI processes
and checks ``scan``'s ``m_th`` rows against the reference thermal mass.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["tc-sweep", "exponents-sweep", "oracle-exact", "cli-cold"])
def test_workload_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout.splitlines()[-2]
    assert result["metrics"]["ok_rate"]["value"] == 1.0
