"""numpy and scipy stay out of commands that never call them.

Importing numpy costs about as much as the rest of a ``tc``, ``vertex`` or
``scan`` run, and ``scipy.integrate`` several times that, so
``cavitypairing`` imports scipy only where it is called, and numpy only
through it: ``scipy.special`` inside the closed-form correlations
(``exponents``, ``xi``, ``verify``), ``scipy.integrate`` for the quadrature
checks (``verify``).  ``tc``, ``vertex`` and ``scan`` run on Python floats alone.
The check runs in a fresh interpreter, because any earlier test in this
process may already have loaded numpy or scipy.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import json, sys
from pathlib import Path
from cavitypairing import cli

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))

cfg = cli.RunConfig.parse(Path(sys.argv[1]).read_text(encoding="utf-8"))
cli.cmd_tc(cfg)
cli.cmd_vertex(cfg)
cli.cmd_scan(cfg)
before = loaded()
cli.cmd_xi(cfg)
print(json.dumps({"before_xi": before, "after_xi": loaded()}))
"""


def test_tc_vertex_scan_load_no_scipy_and_xi_loads_only_special():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT / "configs" / "reference.cfg")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    mods = json.loads(proc.stdout.splitlines()[-1])
    assert mods["before_xi"] == []
    assert "numpy" in mods["after_xi"]
    assert "scipy.special" in mods["after_xi"]
    assert "scipy.integrate" not in mods["after_xi"]


def test_package_imports_no_numpy():
    # the correlations take only K from scipy.special.kve and compute the rest
    # on Python floats, so no result runs through numpy's CPU-dependent kernels
    for path in sorted((ROOT / "src" / "cavitypairing").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
        modules += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.module]
        assert not [m for m in modules if m.split(".")[0] == "numpy"], path.name
