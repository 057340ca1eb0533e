"""No command loads numpy or scipy.

Importing numpy costs about as much as the rest of a ``tc``, ``vertex`` or
``scan`` run, and ``scipy.integrate`` several times that.  ``cavitypairing``
computes its Bessel K and its quadrature itself, on Python floats, so every
command runs with neither loaded.  The check runs in a fresh interpreter,
because any earlier test in this process may already have loaded numpy or scipy.
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
after = {}
for name in ("tc", "vertex", "scan", "xi", "exponents"):
    getattr(cli, "cmd_" + name)(cfg)
    after[name] = loaded()
cli.run_verify(cfg)
after["verify"] = loaded()
print(json.dumps(after))
"""


def test_no_command_loads_numpy_or_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT / "configs" / "reference.cfg")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    after = json.loads(proc.stdout.splitlines()[-1])
    assert after == {name: [] for name in ("tc", "vertex", "scan", "xi", "exponents", "verify")}


def test_package_imports_no_numpy_or_scipy():
    # K and the quadrature are the package's own, so no result runs through
    # numpy's CPU-dependent kernels or scipy's compiled routines
    for path in sorted((ROOT / "src" / "cavitypairing").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
        modules += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.module]
        assert not [m for m in modules if m.split(".")[0] in ("numpy", "scipy")], path.name
