"""Smoke test of the benchmark's span tracer against the current program.

``perfbench/tracer.py`` binds program names (``critical.find_tc``,
``KernelScalars.from_model``, the ``cli`` subcommands, ...) from outside; a
rename would break ``perfbench/run.py --trace 1`` without failing any other
test.  One exponents-sweep operation body also pins that each photon state's
root and mass slope are computed once.
"""

from dataclasses import replace
from pathlib import Path

from cavitypairing import cli

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_binds_and_counts_one_root_search_per_pole_mass(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracer

    text = (ROOT / "configs" / "reference.cfg").read_text(encoding="utf-8")
    cfg = replace(cli.RunConfig.parse(text), states=("fock:3",))
    tr = tracer.Tracer()
    tr.install()
    try:
        cli.cmd_exponents(cfg, jobs=1)
        cli.cmd_xi(cfg)
    finally:
        tr.uninstall()
    spans = tr.stats()["spans"]
    # one root search for exponents, one that xi's vacuum base shares with fock:3
    assert spans["critical.find_tc"]["calls"] == 2
    assert spans["critical.mass_slope"]["calls"] == 2
    assert spans["cli.cmd_exponents"]["calls"] == spans["cli.cmd_xi"]["calls"] == 1
