"""Outputs do not depend on the process or on which SIMD kernels numpy picks for the CPU.

Every output is a digest of its bytes: the CSVs of ``tc``, ``vertex``,
``scan``, ``exponents`` and ``xi`` on every preset, in both Fock forms, and
each preset's ``verify`` report, plain and with ``--inject-fault``.  Two
fresh processes with different ``PYTHONHASHSEED`` give the same digests, so
no output follows the order of a set or of a hashed key; this runs on every
host.

numpy picks its kernels for ``geomspace``, ``log`` and ``power`` at run
time, and its AVX-512 kernels round differently from libm.  The commands
compute on Python floats and call no numpy function: the Bessel-K transform
takes its logs, powers and factorials with ``math`` and K from its own
tables and recurrence.  So the digests come out the same with numpy's
AVX-512 kernels on and off.  That includes the power form's high pole orders
(``fock:1`` to ``fock:20``, ``fock:40``, ``fock:59`` and two mixtures), where
(r'/2 sqrt(m))**(q-1) taken by numpy's ``power`` differs in the last bit
between kernels.  That check needs a CPU that numpy runs AVX-512 kernels on,
and skips elsewhere.
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
from dataclasses import replace
from pathlib import Path
from cavitypairing import cli
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

# power-form pole orders from 2 to 60, alone and mixed
HIGH = tuple(f"fock:{n}" for n in range(1, 21)) + (
    "fock:40", "fock:59", "mix:{0:0.5,6:0.5}", "mix:{3:0.25,10:0.75}")

def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()

digests = {}
for preset in sorted(Path(sys.argv[1]).glob("*.cfg")):
    text = preset.read_text(encoding="utf-8")
    for form, names in (("reduced", ("tc", "vertex", "scan", "exponents", "xi")),
                        ("power", ("exponents", "xi"))):
        cfg = cli.RunConfig.parse(text + "\\nfit.fock_form = " + form + "\\n")
        for name in names:
            digests[f"{preset.stem}/{form}/{name}"] = digest(getattr(cli, "cmd_" + name)(cfg).to_csv())
    high = replace(cli.RunConfig.parse(text + "\\nfit.fock_form = power\\n"), states=HIGH)
    for name in ("exponents", "xi"):
        digests[f"{preset.stem}/power-high/{name}"] = digest(getattr(cli, "cmd_" + name)(high).to_csv())
    # the report as ``verify`` writes it
    for name, fault in (("verify", False), ("verify-fault", True)):
        _, report = cli.run_verify(cli.RunConfig.parse(text), inject_fault=fault)
        digests[f"{preset.stem}/{name}"] = digest(json.dumps(report, indent=2, sort_keys=True) + "\\n")
on = sorted(k for k, v in __cpu_features__.items() if v)
print(json.dumps({"features": on, "digests": digests}))
"""


def _run(disable: str | None = None, hash_seed: str = "0") -> dict:
    env = dict(os.environ)
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disable:
        env["NPY_DISABLE_CPU_FEATURES"] = disable
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "configs")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def default():
    return _run()


def test_outputs_identical_across_hash_seeds(default):
    assert len(default["digests"]) == 3 * 11
    assert _run(hash_seed="20261020")["digests"] == default["digests"]


@pytest.mark.skipif(not AVX512, reason="numpy runs no AVX-512 kernel on this CPU")
def test_outputs_identical_with_avx512_kernels_on_and_off(default):
    off = _run(" ".join(AVX512))
    assert set(AVX512) <= set(default["features"])
    assert not set(AVX512) & set(off["features"])
    assert off["digests"] == default["digests"]
