"""Outputs do not depend on which SIMD kernels numpy picks for the CPU.

numpy picks its kernels for ``geomspace``, ``log`` and ``power`` at run
time, and its AVX-512 kernels round differently from libm.  The commands
compute on Python floats and hand numpy only the Bessel-K transform, so the
CSVs of ``tc``, ``vertex``, ``scan``, ``exponents`` and ``xi`` on every
preset, in both Fock forms, come out byte-identical with numpy's AVX-512
kernels on and off.  (The power form's (r'/2 sqrt(m))**(q-1) in the
transform is still numpy's ``power``; for q >= 4 it can differ in the last
bit between kernels, which the presets' logs happen to absorb.)  The check
needs a CPU that numpy runs AVX-512 kernels on, and skips elsewhere.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

ROOT = Path(__file__).resolve().parents[1]

# dispatch targets that select AVX-512 kernels, where this CPU has them
AVX512 = [
    t for t in __cpu_dispatch__
    if (t.startswith("AVX512") or t == "X86_V4") and __cpu_features__.get(t)
]

CHILD = """
import hashlib, json, sys
from pathlib import Path
from cavitypairing import cli
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

digests = {}
for preset in sorted(Path(sys.argv[1]).glob("*.cfg")):
    text = preset.read_text(encoding="utf-8")
    for form, names in (("reduced", ("tc", "vertex", "scan", "exponents", "xi")),
                        ("power", ("exponents", "xi"))):
        cfg = cli.RunConfig.parse(text + "\\nfit.fock_form = " + form + "\\n")
        for name in names:
            csv = getattr(cli, "cmd_" + name)(cfg).to_csv()
            digests[f"{preset.stem}/{form}/{name}"] = hashlib.sha256(csv.encode()).hexdigest()
on = sorted(k for k, v in __cpu_features__.items() if v)
print(json.dumps({"features": on, "digests": digests}))
"""


def _run(disable: str | None) -> dict:
    env = dict(os.environ)
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disable:
        env["NPY_DISABLE_CPU_FEATURES"] = disable
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "configs")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.skipif(not AVX512, reason="numpy runs no AVX-512 kernel on this CPU")
def test_outputs_identical_with_avx512_kernels_on_and_off():
    default = _run(None)
    off = _run(" ".join(AVX512))
    assert set(AVX512) <= set(default["features"])
    assert not set(AVX512) & set(off["features"])
    assert len(default["digests"]) == 3 * 7
    assert off["digests"] == default["digests"]
