"""No command loads numpy or scipy, and the float commands load no check code.

Importing numpy costs about as much as the rest of a ``tc``, ``vertex`` or
``scan`` run, and ``scipy.integrate`` several times that.  ``cavitypairing``
computes its Bessel K and its quadrature itself, on Python floats, so every
command runs with neither loaded.  The checks of ``verify`` live in
``verify`` and ``sectors``, which only ``verify`` loads, and the package's
modules import each other in one direction only; the package root imports
none of them.  The load checks run in a fresh interpreter, because any earlier
test in this process may already have loaded numpy, scipy or the check
modules.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _python(*args):
    """Run a fresh interpreter with ``src`` on its path, from the repository root."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)

PROBE = """
import json, sys
from pathlib import Path
from cavitypairing import cli

CHECK_MODULES = ("cavitypairing.sectors", "cavitypairing.verify")

def loaded():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] in ("numpy", "scipy") or m in CHECK_MODULES)

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
    proc = _python("-c", PROBE, str(ROOT / "configs" / "reference.cfg"))
    assert proc.returncode == 0, proc.stderr
    after = json.loads(proc.stdout.splitlines()[-1])
    assert after == {
        **{name: [] for name in ("tc", "vertex", "scan", "xi", "exponents")},
        "verify": ["cavitypairing.sectors", "cavitypairing.verify"],
    }


def test_verify_under_python_m_runs_one_copy_of_cli(tmp_path):
    # ``verify`` imports ``cli``; under ``python -m cavitypairing.cli`` that must
    # find the running module, which -X importtime does not list, not import a second
    proc = _python("-X", "importtime", "-m", "cavitypairing.cli", "--out", str(tmp_path), "verify")
    assert proc.returncode == 0, proc.stderr
    imported = [ln.rsplit("|", 1)[-1].strip() for ln in proc.stderr.splitlines()
                if ln.startswith("import time:")]
    assert "cavitypairing.verify" in imported and "cavitypairing.cli" not in imported


def test_package_imports_no_numpy_or_scipy():
    # K and the quadrature are the package's own, so no result runs through
    # numpy's CPU-dependent kernels or scipy's compiled routines
    for path in sorted((ROOT / "src" / "cavitypairing").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
        modules += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.module]
        assert not [m for m in modules if m.split(".")[0] in ("numpy", "scipy")], path.name


# the package modules each module may import at its top level; ``verify`` may import any
ALLOWED_IMPORTS = {
    "__init__": set(),
    "model": set(),
    "useries": set(),
    "ladder": {"model", "useries"},
    "critical": {"model", "ladder"},
    "sectors": {"model", "useries", "ladder", "critical"},
    "cli": {"model", "ladder", "critical"},
}


def _top_level_package_imports(tree: ast.Module) -> set[str]:
    """Package modules named by the module's top-level ``from . import x`` and ``from .x import y``."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out |= {a.name for a in node.names} if node.module is None else {node.module}
    return out


def test_modules_import_each_other_in_one_direction():
    # the float pipeline model -> ladder -> critical -> cli, and the package's
    # ``__init__``, import no check code; an import inside a function body, as
    # in ``cli.run_verify``, does not count
    paths = sorted((ROOT / "src" / "cavitypairing").glob("*.py"))
    assert {path.stem for path in paths} == {*ALLOWED_IMPORTS, "verify"}
    for path in paths:
        name = path.stem
        if name == "verify":
            continue
        imports = _top_level_package_imports(ast.parse(path.read_text(encoding="utf-8")))
        assert imports <= ALLOWED_IMPORTS[name], (name, sorted(imports - ALLOWED_IMPORTS[name]))


def test_package_root_loads_no_module_of_the_package():
    # every public name lives in the module that defines it
    proc = _python("-c", "import sys, cavitypairing; "
                         "print(sorted(m for m in sys.modules if m.startswith('cavitypairing.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


def test_readme_library_sketch_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"),
                        re.DOTALL)
    assert len(blocks) == 1
    proc = _python("-c", blocks[0])
    assert proc.returncode == 0, proc.stderr
