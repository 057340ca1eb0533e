import contextlib
import csv
import inspect
import io
import json
import math
import random
import re
import tempfile
import textwrap
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavitypairing import cli, critical, ladder, model, sectors, verify
from cavitypairing.cli import ConfigError, RunConfig, parse_state, state_label
from cavitypairing.model import DiagonalMixture, Fock, Thermal, Vacuum


# -- config round trips --------------------------------------------------------

def test_config_text_round_trip():
    cfg = RunConfig()
    assert RunConfig.parse(cfg.emit()) == cfg


def test_config_round_trip_with_overrides():
    cfg = replace(
        RunConfig(),
        lifetime="fermi-liquid",
        states=("vacuum", "fock:5", "mix:{0:0.5,2:0.5}"),
        gamma_window=(1e-7, 1e-4),
        physical_units=True,
        out_format="json",
    )
    assert RunConfig.parse(cfg.emit()) == cfg


def test_config_json_input():
    # the config has one syntax; JSON is not it
    payload = {"model": {"delta_c": 2.0}, "states": {"list": "vacuum, fock:2"}}
    with pytest.raises(ConfigError, match="line 1: expected key = value"):
        RunConfig.parse(json.dumps(payload))
    with pytest.raises(ConfigError, match="line 1: expected key = value"):
        RunConfig.parse(json.dumps(payload, indent=2))


def test_config_unknown_key_named():
    with pytest.raises(ConfigError, match="model.bogus"):
        RunConfig.parse("model.bogus = 3\n")


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        RunConfig.parse("fit.gamma_window = 1e-3,1e-6\n")
    with pytest.raises(ConfigError):
        RunConfig.parse("model.convention = nonsense\n")
    with pytest.raises(ConfigError):
        RunConfig.parse("model.g0 = not-a-number\n")


def test_readme_synopsis_matches_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    synopsis = re.search(r"```sh\n(cavitypairing \[.*?)```", readme, re.S).group(1)
    options = {s for a in cli._build_parser()._actions for s in a.option_strings
               if s.startswith("--")}
    assert set(re.findall(r"--[a-z][a-z-]*", synopsis)) == options - {"--help"}


# -- state tokens ----------------------------------------------------------------

def test_state_tokens():
    assert parse_state("vacuum") == Vacuum()
    assert parse_state("fock:3") == Fock(3)
    assert parse_state("thermal") == Thermal()
    assert parse_state("thermal:beta=2.0") == Thermal(2.0)
    assert parse_state("mix:{0:0.5,2:0.5}") == DiagonalMixture({0: 0.5, 2: 0.5})
    for bad in ("squeezed", "thermal:beta=nan", "mix:{0:nan}", "mix:{0:0.5,1:nan}",
                "mix:{0:0.5,1:0.5,1:0.5}", "mix:{0:0.5;2:0.5}"):
        with pytest.raises(ConfigError, match="cannot parse state token"):
            parse_state(bad)


def test_state_list_split_respects_braces():
    cfg = RunConfig.parse("states.list = vacuum, mix:{0:0.5,2:0.5}, fock:1\n")
    assert cfg.states == ("vacuum", "mix:{0:0.5,2:0.5}", "fock:1")


def test_state_label_round_trip():
    for tok in ("vacuum", "fock:4", "thermal", "mix:{0:0.5,2:0.5}"):
        assert parse_state(state_label(parse_state(tok))) == parse_state(tok)


# -- tables and emitters -----------------------------------------------------------

def _small_table():
    t = cli.ResultTable()
    t.add(state="vacuum", quantity="t_c", value=0.04, provenance="x")
    t.add(state='we,"ird', quantity="t_c", value=1.0 / 3.0, provenance="x", note="a,b")
    return t


def test_csv_round_trip_exact():
    table = _small_table()
    text = table.to_csv()
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows[0]["value"] == "0.040000000000000001"
    assert float(rows[1]["value"]) == 1.0 / 3.0  # 17 digits round-trip floats
    assert rows[1]["state"] == 'we,"ird'
    assert rows[1]["note"] == "a,b"


def _reference_to_csv(table) -> str:
    """The cell-by-cell emitter: ``.17g`` for a float, quoting by generator for the rest."""
    def quote(cell):
        if any(c in cell for c in ',"\n\r'):
            return '"' + cell.replace('"', '""') + '"'
        return cell

    out = [",".join(cli.Row._fields)]
    for r in table.rows:
        cells = []
        for col in cli.Row._fields:
            v = getattr(r, col)
            cells.append(format(v, ".17g") if isinstance(v, float) else quote(str(v)))
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


def test_csv_rows_match_cell_by_cell_emitter():
    table = _small_table()
    for value in (math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072014e-308, 7,
                  -12, 1.0 / 3.0, 1e300):
        table.add(state="vacuum", quantity="t_c", value=value, uncertainty=-value,
                  r_squared=value, provenance="p", note="")
    for text in ("a,b", 'say "hi"', "two\nlines", "cr\rhere", "", "plain", '",\r\n'):
        table.add(state=text, quantity=text, value=0.5, window_lo=-0.0, window_hi=math.inf,
                  provenance=text, note=text)
    assert table.to_csv().encode() == _reference_to_csv(table).encode()
    cfg = RunConfig.parse((Path(__file__).resolve().parents[1] / "configs"
                           / "reference.cfg").read_text())
    for cmd in (cli.cmd_tc, cli.cmd_vertex, cli.cmd_scan):
        table = cmd(cfg)
        assert table.to_csv() == _reference_to_csv(table)


def test_json_has_schema_version(tmp_path):
    table = _small_table()
    payload = json.loads(table.to_json())
    assert payload["schema_version"] == cli.SCHEMA_VERSION
    assert len(payload["rows"]) == 2


def test_emit_determinism(tmp_path):
    for preset in ("reference", "fermi-liquid", "convention-heavy"):
        text = (Path(__file__).resolve().parents[1] / "configs" / f"{preset}.cfg").read_text()
        cfg = RunConfig.parse(text)
        for cmd in (cli.cmd_tc, cli.cmd_exponents, cli.cmd_xi, cli.cmd_vertex, cli.cmd_scan):
            first, second = cmd(cfg), cmd(cfg)
            assert first.to_csv() == second.to_csv(), (preset, cmd.__name__)
            assert first.to_json() == second.to_json(), (preset, cmd.__name__)


# -- subcommands through main ------------------------------------------------------

def test_main_tc_table(tmp_path, capsys):
    rc = cli.main(["--out", str(tmp_path), "tc"])
    assert rc == cli.EXIT_OK
    text = (tmp_path / "tc.csv").read_text()
    rows = list(csv.DictReader(io.StringIO(text)))
    by_state = {r["state"]: float(r["value"]) for r in rows}
    # vacuum and number states share the root by construction
    assert by_state["vacuum"] == by_state["fock:1"] == by_state["fock:3"]
    # far-detuned thermal root is within 1e-4 relative of the vacuum one
    assert abs(by_state["thermal"] / by_state["vacuum"] - 1.0) < 1e-4


def test_main_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("model.not_a_key = 1\n")
    assert cli.main(["--config", str(bad), "--out", str(tmp_path), "tc"]) == cli.EXIT_CONFIG


def test_main_rejects_non_positive_anisotropy(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("fit.anisotropy = 0\n")
    for command in ("xi", "vertex"):
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path), command])
        assert rc == cli.EXIT_CONFIG
        assert "config error: anisotropy: need > 0" in capsys.readouterr().err
    for bad in ("-1", "nan"):
        with pytest.raises(ConfigError, match="anisotropy"):
            RunConfig.parse(f"fit.anisotropy = {bad}\n")


def test_main_rejects_removed_quad_rel_tol_key(tmp_path, capsys):
    # removed keys, including the former verify quadrature point, are unknown keys
    cfg = tmp_path / "c.cfg"
    for key, val, command in (
        ("quad.rel_tol", "1e-15", "xi"),
        ("verify.dctau", "3e8", "verify"),
        ("verify.t_over_delta", "963", "verify"),
    ):
        cfg.write_text(f"{key} = {val}\n")
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path), command])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: unknown config key {key!r}")
        assert "Traceback" not in err


@pytest.mark.parametrize("line, command", [
    ("fit.gamma_points = 5", "exponents"),
    ("fit.nu_points = 3", "exponents"),
    ("fit.nu_window = 1e-4,1e-3", "exponents"),
    ("fit.xi_reduced_t = -1", "vertex"),
    ("fit.xi_reduced_t = nan", "xi"),
    ("model.g0 = nan", "tc"),
    ("model.e_f = nan", "tc"),
    ("model.delta_c = inf", "tc"),
    ("model.lifetime = constant:nan", "tc"),
    ("out.format = plot-script", "tc"),
    # keys that no longer exist: rejected as unknown, still exit 2
    ("verify.dctau = -1", "verify"),
    ("verify.dctau = 1e-320", "verify"),
    ("verify.t_over_delta = 0", "verify"),
])
def test_main_rejects_out_of_range_config(tmp_path, capsys, line, command):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(line + "\n")
    rc = cli.main(["--config", str(cfg), "--out", str(tmp_path), command])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_CONFIG
    assert err.startswith("config error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("line, command, named", [
    ("model.lifetime = constant:1e-300", "tc", "c2 = (gtilde * delta_c * tau)**2 overflows: "
                                               "delta_c * tau = 1e+300"),
    ("states.list = thermal:beta=1e-300", "tc", "statistical factor s = coth(beta * delta_c / 2) "
                                                "= 2e+300"),
], ids=["lifetime", "thermal-beta"])
def test_overflow_names_quantity_and_input(tmp_path, capsys, line, command, named):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(line + "\n")
    rc = cli.main(["--config", str(cfg), "--out", str(tmp_path), command])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_NUMERIC
    assert err.startswith("numerical failure:")
    assert named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("line, named", [
    ("fit.gamma_points = 100000000000", "gamma_points: need 20 to 10000"),
    ("fit.nu_points = 100000000000", "nu_points: need 8 to 1000"),
])
def test_config_caps_fit_points(line, named):
    # parsed only: a run with these counts would allocate or compute for hours
    with pytest.raises(ConfigError, match=named):
        RunConfig.parse(line + "\n")


@pytest.mark.parametrize("line, named", [
    ("fit.gamma_points = 1e11", "gamma_points: need 20 to 10000 (an integer), got '1e11'"),
    ("fit.gamma_points = 2.5", "gamma_points: need 20 to 10000 (an integer), got '2.5'"),
    ("fit.nu_points = ten", "nu_points: need 8 to 1000 (an integer), got 'ten'"),
    ("fit.gamma_window = 1e-6", "gamma_window: need lo,hi with 0 < lo < hi < inf, got '1e-6'"),
    ("fit.gamma_window = 1e-6,1e-4,1e-3",
     "gamma_window: need lo,hi with 0 < lo < hi < inf, got '1e-6,1e-4,1e-3'"),
    ("fit.nu_window = a,b", "nu_window: need lo,hi with 0 < lo < hi < inf, got 'a,b'"),
])
def test_config_names_fit_key_and_form(tmp_path, capsys, line, named):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(line + "\n")
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path), "tc"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {named}\n"


@pytest.mark.parametrize("line, named", [
    ("model.delta_c = 1e300", "delta_c = 1e+300"),
    ("model.g0 = 1e200", "g0 = 1e+200"),
])
def test_gtilde_past_the_float_range_is_a_config_error(tmp_path, capsys, line, named):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(line + "\n")
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path), "tc"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err and "gtilde" in err


def test_main_missing_config_file(tmp_path):
    assert cli.main(
        ["--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path), "tc"]
    ) == cli.EXIT_CONFIG


def test_main_nan_state_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("states.list = mix:{0:nan}\n")
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path), "tc"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: cannot parse state token")
    assert not (tmp_path / "tc.csv").exists()


@pytest.mark.parametrize("line", ["states.list =", "states.list = ,", "states.list = , ,"])
@pytest.mark.parametrize("command", ["tc", "exponents", "xi", "vertex"])
def test_main_empty_states_is_a_config_error(tmp_path, capsys, line, command):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(line + "\n")
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path), command]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: states: need at least one photon state")
    assert not (tmp_path / f"{command}.csv").exists()


@pytest.mark.parametrize("command", ["tc", "verify"])
def test_main_out_naming_a_file_is_a_config_error(tmp_path, capsys, command):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert cli.main(["--out", str(out), command]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert out.read_text() == "not a directory\n"


def test_main_numerical_failure_exit_code(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("model.g0 = 1e-9\n")  # no pairing instability in range
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path), "tc"]) == cli.EXIT_NUMERIC


def test_verify_passes_and_reports(tmp_path, capsys):
    rc = cli.main(["--out", str(tmp_path), "verify"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["all_passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert {"oracle_equivalence", "thermal_resummation", "sector_chain",
            "bcs_quadrature", "offshell_cancellation", "gaussian_collapse",
            "correlation_bessel", "thermal_dressing", "vertex_closed_form",
            "tc_closed_form", "momentum_vertex", "line_fit", "fermi_liquid_root",
            "thermal_root"} <= names
    bessel = next(c for c in report["checks"] if c["name"] == "correlation_bessel")
    assert "vs contour quadrature" in bessel["detail"]
    assert "power anisotropic, q=1 and q=3" in bessel["detail"]
    assert out.count("PASS") == len(report["checks"])


def test_verify_fault_injection_fails_loudly(tmp_path, capsys):
    rc = cli.main(["--out", str(tmp_path), "verify", "--inject-fault"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_VERIFY
    assert "FAIL oracle_equivalence" in out
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["fault_injected"] is True
    assert report["all_passed"] is False
    # the fault reaches the recursion the oracle checks and nothing else
    assert [c["name"] for c in report["checks"] if not c["passed"]] == ["oracle_equivalence"]


def test_oracle_equivalence_reports_the_largest_discrepancy():
    # under the fault all 5 kernels miss, by 8.9e6 to 4.6e12; the detail names
    # the largest, kernel 2's, not the last one's
    rng = random.Random(20240917)
    worst = max(ladder.oracle_check(12, verify._random_rational_kernel(rng), mutate_f=True)
                .max_abs_discrepancy for _ in range(5))
    assert worst == Fraction(357140182469570129259, 78125000)
    assert verify.oracle_equivalence(RunConfig(), True) == (
        False, f"n<=12, 5 kernels, max discrepancy {worst}")


def _mutant(func, old, new):
    """``func`` rebuilt from its own source with ``old`` replaced by ``new``, once."""
    src = textwrap.dedent(inspect.getsource(func))
    assert src.count(old) == 1, old
    namespace = dict(func.__globals__)
    exec(compile(src.replace(old, new), inspect.getsourcefile(func), "exec"), namespace)
    return namespace[func.__name__]


@pytest.mark.parametrize("module, name, old, new, checks", [
    pytest.param(model, "statistical_factor", "1.0 / math.tanh(x)", "math.tanh(x)",
                 ("thermal_dressing", "thermal_root", "fermi_liquid_root"), id="tanh-for-coth"),
    pytest.param(ladder, "kernel_curves", "c2 = c2 * s**2", "c2 = c2 * s",
                 ("thermal_dressing", "thermal_root", "fermi_liquid_root"),
                 id="s-for-s-squared"),
    pytest.param(ladder, "log_vertex", "u ** (2 * n + 1)", "u ** (2 * n)",
                 ("vertex_closed_form",), id="even-power"),
    pytest.param(ladder, "log_vertex", "u = gap / (one_m_a * (1 + math.sqrt(2 * c2 / one_m_a)) ** 2)",
                 "u = (1 - math.sqrt(2 * c2 / one_m_a)) / (1 + math.sqrt(2 * c2 / one_m_a))",
                 ("vertex_closed_form",), id="cancelling-root"),
    pytest.param(critical, "find_tc", "tc = a / (1.0 - b)", "tc = 1.01 * a / (1.0 - b)",
                 ("tc_closed_form", "thermal_root"), id="t_c-times-1.01"),
    pytest.param(critical, "find_tc", "slope = curves.slope(tc)", "slope = curves.slope(1.01 * tc)",
                 ("tc_closed_form", "fermi_liquid_root"), id="slope-off-the-root"),
    pytest.param(critical, "_newton", "    last = before = hi - lo", "    return t, mass(t) - 1.0",
                 ("fermi_liquid_root",), id="newton-start-unrefined"),
    pytest.param(ladder, "kernel_curves", "return a / (temperature * temperature)",
                 "return 2 * a / (temperature * temperature)",
                 ("tc_closed_form", "fermi_liquid_root"), id="slope-times-2"),
    pytest.param(ladder, "kernel_curves", "dlog += (2.0 - ", "dlog += 2 * (2.0 - ",
                 ("fermi_liquid_root",), id="rate-log-derivative-times-2"),
    pytest.param(ladder, "kernel_curves", "dlog -= z / temperature", "dlog -= 2 * z / temperature",
                 ("fermi_liquid_root",), id="thermal-log-derivative-times-2"),
    pytest.param(cli, "_root_state", "return state if isinstance(state, Thermal) else Vacuum()",
                 "return Vacuum()", ("thermal_root",), id="vacuum-root-for-every-state"),
    pytest.param(critical, "_vertex_terms", "mass_gap / (n + 1)", "mass_gap",
                 ("momentum_vertex",), id="reduced-mass-not-divided"),
    pytest.param(critical, "_vertex_terms", " - math.log(n + 1)", "",
                 ("momentum_vertex",), id="reduced-amplitude-not-divided"),
    pytest.param(critical, "_vertex_terms", "c_perp = anisotropy", "c_perp = c_par",
                 ("momentum_vertex",), id="anisotropy-lost"),
    pytest.param(critical, "_line_fit", "slope = _sum(", "slope = 1.01 * _sum(",
                 ("line_fit",), id="line-slope-times-1.01"),
    pytest.param(model, "_fermi_liquid_rate", "(math.pi * temperature**2",
                 "(2 * math.pi * temperature**2", ("fermi_liquid_root",),
                 id="fermi-liquid-rate-times-2"),
    pytest.param(critical, "_log_bessel_transform", "2.0 * j / x", "2.0 * (j + 1) / x",
                 ("correlation_bessel",), id="bessel-recurrence-order-plus-1"),
    pytest.param(sectors, "bcs_kernel_quadrature", "psi(dc + s) - psi(dc - s)",
                 "psi(dc + s) + psi(dc - s)", ("bcs_quadrature",), id="cauchy-fold-sum"),
    pytest.param(sectors, "build_sector_system", "c_off = k.c2 / k.gtilde",
                 "c_off = 2 * k.c2 / k.gtilde", ("sector_chain",), id="off-shell-coupling-times-2"),
    pytest.param(sectors, "build_sector_system", "if zero_dk:", "if False:",
                 ("gaussian_collapse",), id="keldysh-kept-at-zero-dk"),
    pytest.param(sectors, "offshell_bcs_cancellation", "total = piece_a + piece_b",
                 "total = piece_a - piece_b", ("offshell_cancellation",),
                 id="offshell-pieces-subtracted"),
])
def test_verify_check_catches_its_mutant(monkeypatch, module, name, old, new, checks):
    # negative control: a corrupted source function fails exactly the checks that guard it
    original = getattr(module, name)
    mutant = _mutant(original, old, new)
    for mod in (model, ladder, sectors, critical, cli):
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, mutant)
    passed, report = cli.run_verify(RunConfig())
    assert not passed
    assert [c["name"] for c in report["checks"] if not c["passed"]] == list(checks)


def test_main_xi_ratios(tmp_path):
    cfgf = tmp_path / "c.cfg"
    cfgf.write_text("states.list = vacuum, fock:3\nout.format = json\n")
    rc = cli.main(["--config", str(cfgf), "--out", str(tmp_path), "xi"])
    assert rc == cli.EXIT_OK
    payload = json.loads((tmp_path / "xi.json").read_text())
    ratios = {
        r["state"]: r["value"] for r in payload["rows"] if r["quantity"] == "xi_ratio"
    }
    assert ratios["vacuum"] == pytest.approx(1.0, abs=1e-12)
    assert ratios["fock:3"] == pytest.approx(2.0, rel=0.02)


# vacuum, number states and mixtures share the vacuum root; each thermal state has its own
ROOT_STATES = ("vacuum", "fock:1", "fock:3", "mix:{0:0.5,3:0.5}", "thermal", "thermal:beta=2.0")


def _reference_cfg(states) -> RunConfig:
    text = (Path(__file__).resolve().parents[1] / "configs" / "reference.cfg").read_text()
    return replace(RunConfig.parse(text), states=states)


def test_mixture_whose_fit_grid_reaches_below_x_2_writes_xi(tmp_path):
    # a mixture's grid is set by its summed profile, and here it takes the
    # slowest term's Bessel argument down to x = 1.05, below the K tables; the
    # reference values were written when the transform ran on scipy.special.kve
    cfg = replace(_reference_cfg(("mix:{0:0.5,23:0.5}", "mix:{0:0.5,53:0.5}")), xi_reduced_t=5.0)
    path = tmp_path / "c.cfg"
    path.write_text(cfg.emit())
    assert cli.main(["--config", str(path), "--out", str(tmp_path), "xi"]) == cli.EXIT_OK
    with open(tmp_path / "xi.csv", newline="", encoding="utf-8") as fh:
        xi = [float(row["value"]) for row in csv.DictReader(fh) if row["quantity"] == "xi"]
    assert len(xi) == 2
    for got, want in zip(xi, (0.85281865756710762, 0.83464689230774247)):
        assert abs(got - want) <= 1e-13


def test_each_command_solves_each_pole_mass_once(monkeypatch):
    calls = []
    find_tc = critical.find_tc
    monkeypatch.setattr(critical, "find_tc", lambda *a, **kw: calls.append(a) or find_tc(*a, **kw))
    cfg = _reference_cfg(ROOT_STATES)
    cli.cmd_tc(cfg)
    assert len(calls) == 3
    cli.cmd_tc(cfg)  # no cache outlives a command call
    assert len(calls) == 6
    calls.clear()
    cli.cmd_vertex(cfg)
    assert len(calls) == 3
    calls.clear()
    cli.cmd_xi(replace(cfg, states=("vacuum", "fock:3")))  # the vacuum base shares the root
    assert len(calls) == 1
    calls.clear()
    exp_cfg = replace(cfg, states=("vacuum", "fock:3", "thermal"))
    cli.cmd_exponents(exp_cfg)
    assert len(calls) == 2
    cli.cmd_exponents(exp_cfg)
    assert len(calls) == 4


@pytest.mark.parametrize("command", ["tc", "vertex", "exponents", "xi", "scan"])
def test_each_command_builds_the_kernel_curves_once_per_pole_mass(monkeypatch, command):
    # reference.cfg's states order at two pole masses, the vacuum and the
    # equilibrium thermal one: each command builds each one's curves once, and
    # the root, the slope, the fits and the on-shell vertex all read those
    calls = []
    kernel_curves = ladder.kernel_curves
    monkeypatch.setattr(ladder, "kernel_curves",
                        lambda *a, **kw: calls.append(a) or kernel_curves(*a, **kw))
    text = (Path(__file__).resolve().parents[1] / "configs" / "reference.cfg").read_text()
    getattr(cli, "cmd_" + command)(RunConfig.parse(text))
    assert len(calls) == 2


def test_vertex_builds_each_states_terms_once(monkeypatch):
    calls = []
    vertex_terms = critical._vertex_terms
    monkeypatch.setattr(critical, "_vertex_terms",
                        lambda *a, **kw: calls.append(a) or vertex_terms(*a, **kw))
    cfg = _reference_cfg(ROOT_STATES)
    rows = cli.cmd_vertex(cfg).rows
    assert len(calls) == len(ROOT_STATES)
    # the shared terms give momentum_vertex's values bit for bit
    unit = cli._scale(cfg)
    crits = {state_label(c.state): c for c in cli._criticalities(cfg, cfg.state_objects())}
    checked = 0
    for row in rows:
        if row.quantity.startswith("vertex_P["):
            P, theta = (float(x) for x in row.quantity[len("vertex_P["):-1].split(","))
            crit = crits[row.state]
            T = crit.t_c * (1.0 + cfg.xi_reduced_t)
            vertex = critical.momentum_vertex(crit, T, cfg.anisotropy, cfg.fock_form)
            assert row.value == vertex(P, theta) * unit
            checked += 1
    assert checked == 9 * len(ROOT_STATES)


def test_commands_label_states_alike(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(_reference_cfg(ROOT_STATES).emit())
    labels = {}
    for command in ("tc", "exponents", "xi", "vertex"):
        out = tmp_path / command
        assert cli.main(["--config", str(cfg), "--out", str(out), command]) == cli.EXIT_OK
        rows = csv.DictReader(io.StringIO((out / f"{command}.csv").read_text()))
        labels[command] = {r["state"] for r in rows}
    assert "thermal:beta=2" in labels["tc"]
    assert labels["tc"] == labels["exponents"] == labels["xi"] == labels["vertex"]


def test_main_exponents(tmp_path):
    cfgf = tmp_path / "c.cfg"
    cfgf.write_text("states.list = fock:2, thermal\nfit.nu_points = 8\n")
    rc = cli.main(["--config", str(cfgf), "--out", str(tmp_path), "exponents"])
    assert rc == cli.EXIT_OK
    rows = list(csv.DictReader(io.StringIO((tmp_path / "exponents.csv").read_text())))
    vals = {(r["state"], r["quantity"]): float(r["value"]) for r in rows}
    assert vals[("fock:2", "gamma")] == pytest.approx(3.0, abs=0.05)
    assert vals[("thermal", "gamma")] == pytest.approx(1.0, abs=0.02)
    assert vals[("fock:2", "nu")] == pytest.approx(0.5, abs=0.02)
    assert vals[("thermal", "nu")] == pytest.approx(0.5, abs=0.02)


def test_main_vertex_and_scan(tmp_path):
    cfgf = tmp_path / "c.cfg"
    cfgf.write_text("states.list = vacuum\n")
    assert cli.main(["--config", str(cfgf), "--out", str(tmp_path), "vertex"]) == cli.EXIT_OK
    assert cli.main(["--config", str(cfgf), "--out", str(tmp_path), "scan"]) == cli.EXIT_OK
    assert (tmp_path / "vertex.csv").exists()
    assert (tmp_path / "scan.csv").exists()


@pytest.mark.parametrize("state", ["fock:60", "mix:{0:0.5,60:0.5}"])
def test_power_form_fits_a_pole_of_order_61(tmp_path, state):
    # the power-form transform of the order-61 pole passes 1e308 on the fit
    # grid; it is carried as a log, so nu = 1/2 and xi is finite
    cfgf = tmp_path / "c.cfg"
    cfgf.write_text(f"states.list = {state}\nfit.fock_form = power\n")
    args = ["--config", str(cfgf), "--out", str(tmp_path), "--strict"]
    assert cli.main(args + ["exponents"]) == cli.EXIT_OK
    rows = list(csv.DictReader(io.StringIO((tmp_path / "exponents.csv").read_text())))
    assert [r["quantity"] for r in rows] == ["gamma", "nu"]
    assert float(rows[0]["value"]) == pytest.approx(61.0, abs=0.05)
    assert float(rows[1]["value"]) == pytest.approx(0.5, abs=1e-9)
    assert cli.main(args + ["xi"]) == cli.EXIT_OK
    rows = {r["quantity"]: float(r["value"]) for r in
            csv.DictReader(io.StringIO((tmp_path / "xi.csv").read_text()))}
    assert math.isfinite(rows["xi"]) and rows["xi_ratio"] > 1.0


@pytest.mark.parametrize("state, gamma", [
    ("fock:45", 45.993), ("fock:46", 46.993), ("fock:60", 60.991), ("fock:200", 200.971),
])
def test_exponents_past_the_float_range_of_the_vertex(tmp_path, state, gamma):
    # the vertex of these states passes 1e308 on the fit window; gamma = n + 1
    # less the (n+1) t drift at the top of the window, with the window and the
    # r^2 gate unchanged
    cfg = tmp_path / "c.cfg"
    cfg.write_text(_reference_cfg((state,)).emit())
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path), "exponents"]) == cli.EXIT_OK
    rows = {r["quantity"]: r for r in
            csv.DictReader(io.StringIO((tmp_path / "exponents.csv").read_text()))}
    assert float(rows["gamma"]["value"]) == pytest.approx(gamma, abs=5e-4)
    assert float(rows["gamma"]["r_squared"]) > 0.99999998
    assert float(rows["nu"]["value"]) == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("state, code", [("thermal", cli.EXIT_NUMERIC),
                                         ("vacuum", cli.EXIT_NUMERIC)])
def test_window_rounding_to_t_c_gives_no_unflagged_gamma(tmp_path, capsys, state, code):
    # every temperature of this window rounds to T_c, where the kernel sits on
    # its root, which the vertex refuses: the vacuum root T_c = A / (1 - B) read
    # in closed form and the thermal root refined by Newton to 2 ulp, where
    # 1 - M rounds to exactly 0 on this preset
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"states.list = {state}\nfit.gamma_window = 1e-300,1e-299\n")
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path), "exponents"]) == code
    assert "|1 - pole_mass| = 0.000e+00 < 1e-14" in capsys.readouterr().err
    assert not (tmp_path / "exponents.csv").exists()


# gtilde = 1e-12 with a rate of 1e-10: the equilibrium thermal mass crosses 1 upward only
UPWARD_ONLY_ROOT = ("model.g0 = 1.2566370614359172e-05\nmodel.lifetime = constant:1e-10\n"
                    "states.list = thermal\n")


@pytest.mark.parametrize("command", ["tc", "exponents", "vertex"])
def test_upward_only_root_is_a_numerical_failure(tmp_path, capsys, command):
    cfgf = tmp_path / "c.cfg"
    cfgf.write_text(UPWARD_ONLY_ROOT)
    assert cli.main(["--config", str(cfgf), "--out", str(tmp_path), command]) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err == ("numerical failure: mass slope -0.056564770906732155 is not positive at "
                   "T_c=35.35298191100189\n")
    assert not (tmp_path / f"{command}.csv").exists()


def test_unconverged_root_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    # a root refine that reaches its cap raises instead of returning an unconverged T_c
    monkeypatch.setattr(critical, "MAX_REFINE", 2)
    cfg = Path(__file__).resolve().parents[1] / "configs" / "fermi-liquid.cfg"
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path), "tc"]) == cli.EXIT_NUMERIC
    assert "did not converge in 2 steps" in capsys.readouterr().err
    assert not (tmp_path / "tc.csv").exists()


@pytest.mark.parametrize("command, state, row, fock_form", [
    pytest.param("vertex", "fock:200", "gamma_on_shell = -inf", "reduced",
                 id="vertex-gamma_on_shell = -inf"),
    pytest.param("vertex", "fock:200", "gamma_on_shell = -inf", "power",
                 id="vertex-gamma_on_shell = -inf-power"),
])
def test_unflagged_non_finite_value_is_a_numerical_failure(tmp_path, capsys, command, state,
                                                           row, fock_form):
    cfgf = tmp_path / "c.cfg"
    cfgf.write_text(f"states.list = {state}\nfit.fock_form = {fock_form}\n")
    rc = cli.main(["--config", str(cfgf), "--out", str(tmp_path), command])
    assert rc == cli.EXIT_NUMERIC
    assert f"numerical failure: {row} for state {state}" in capsys.readouterr().err
    assert not (tmp_path / f"{command}.csv").exists()


def test_xi_of_a_pole_past_the_float_range(tmp_path):
    # the reduced amplitude of fock:200 leaves the float range near T_c; xi
    # never sees it, and grows as sqrt(n + 1)
    cfgf = tmp_path / "c.cfg"
    cfgf.write_text("states.list = fock:200\n")
    assert cli.main(["--config", str(cfgf), "--out", str(tmp_path), "xi"]) == cli.EXIT_OK
    rows = {r["quantity"]: float(r["value"]) for r in
            csv.DictReader(io.StringIO((tmp_path / "xi.csv").read_text()))}
    assert rows["xi_ratio"] == pytest.approx(math.sqrt(201), rel=0.02)


@pytest.mark.parametrize("command", ["xi", "exponents"])
def test_power_form_past_float_factorials_fits(tmp_path, command):
    # 186! and e^x sqrt(x) K_186(x) at x = 3, the first point of the fit grid in
    # units of the decay length, are far past the largest float; pole orders 187
    # and 301 fit as 186 does, and xi moves smoothly across order 187
    values = {}
    for n in (185, 186, 300):
        cfgf = tmp_path / f"fock{n}.cfg"
        cfgf.write_text(f"states.list = fock:{n}\nfit.fock_form = power\n")
        out = tmp_path / f"fock{n}"
        assert cli.main(["--config", str(cfgf), "--out", str(out), command]) == cli.EXIT_OK
        values[n] = {r["quantity"]: float(r["value"]) for r in
                     csv.DictReader(io.StringIO((out / f"{command}.csv").read_text()))}
    if command == "exponents":
        for n, rows in values.items():
            assert rows["nu"] == pytest.approx(0.5, abs=1e-9)
            assert n + 1 - 0.05 < rows["gamma"] < n + 1  # the drift of fit_gamma's docstring
    else:
        assert values[186]["xi"] == pytest.approx(values[185]["xi"], rel=1e-5)
        assert values[300]["xi"] == pytest.approx(values[185]["xi"], rel=1e-3)


@pytest.mark.parametrize("command, state, code", [
    ("exponents", "fock:60", cli.EXIT_OK),
    ("vertex", "fock:200", cli.EXIT_NUMERIC),
    ("xi", "fock:200", cli.EXIT_OK),
])
def test_overflow_warnings_stay_off_stderr(tmp_path, capsys, command, state, code):
    # the power form of fock:60 fits, and so does xi of fock:200, whose Bessel
    # transform passes the largest float; the vertex of fock:200 ends in an
    # infinite row; each without numpy or scipy warnings
    cfgf = tmp_path / "c.cfg"
    cfgf.write_text(f"states.list = {state}\nfit.fock_form = power\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["--config", str(cfgf), "--out", str(tmp_path), command])
    assert rc == code
    assert [str(w.message) for w in caught] == []
    assert "Warning" not in capsys.readouterr().err


_STATE_TOKENS = ("vacuum", "fock:0", "fock:2", "fock:5", "fock:60", "thermal",
                 "thermal:beta=2.0", "thermal:beta=30", "mix:{0:0.5,2:0.5}")


@st.composite
def _run_configs(draw):
    """A config text over the model, state and fit keys, and a table subcommand."""
    rate = draw(st.floats(1e-4, 10.0))
    lines = [
        f"model.g0 = {draw(st.floats(1e-3, 20.0))!r}",
        f"model.delta_c = {draw(st.floats(0.1, 10.0))!r}",
        f"model.e_f = {draw(st.floats(1.0, 1e4))!r}",
        "model.lifetime = " + draw(st.sampled_from(["fermi-liquid", f"constant:{rate!r}"])),
        "model.convention = " + draw(st.sampled_from(sorted(cli.CONVENTIONS))),
        "states.list = " + ", ".join(
            draw(st.lists(st.sampled_from(_STATE_TOKENS), min_size=1, max_size=3, unique=True))),
        "fit.fock_form = " + draw(st.sampled_from(["reduced", "power"])),
        f"fit.anisotropy = {draw(st.floats(0.1, 5.0))!r}",
        f"fit.xi_reduced_t = {draw(st.sampled_from([1e-4, 1e-3, -1e-4]))!r}",  # < 0: exit 2
    ]
    command = draw(st.sampled_from(["tc", "exponents", "xi", "vertex", "scan"]))
    return "\n".join(lines) + "\n", command


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_run_configs())
def test_error_contract_on_generated_configs(run):
    # any config ends in success, a config error or a numerical failure, never
    # in a traceback, and a successful table holds no unflagged non-finite value
    text, command = run
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "c.cfg").write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(["--config", str(Path(tmp) / "c.cfg"), "--out", tmp, command])
        assert rc in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERIC), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if rc == cli.EXIT_OK:
            rows = list(csv.DictReader(io.StringIO((Path(tmp) / f"{command}.csv").read_text())))
            assert rows
            for r in rows:
                assert math.isfinite(float(r["value"])) or r["note"].startswith("REJECTED"), r


@pytest.mark.parametrize(
    "preset", ["reference.cfg", "fermi-liquid.cfg", "convention-heavy.cfg"]
)
def test_verify_on_preset_configs(tmp_path, preset):
    from pathlib import Path

    cfg_path = Path(__file__).resolve().parents[1] / "configs" / preset
    assert cli.main(
        ["--config", str(cfg_path), "--out", str(tmp_path), "verify"]
    ) == cli.EXIT_OK


def test_verify_runs_every_check_where_the_config_has_no_root(tmp_path):
    # the default couplings have no root under subsec-tc (B = 2 c2 = 8), so tc exits 3;
    # verify reads only the convention and the anisotropy, and runs every check
    cfg = tmp_path / "c.cfg"
    cfg.write_text("model.convention = subsec-tc\n")
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path), "tc"]) == cli.EXIT_NUMERIC
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path), "verify"]) == cli.EXIT_OK
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["all_passed"] is True
    names = [c["name"] for c in cli.run_verify(RunConfig())[1]["checks"]]
    assert [c["name"] for c in report["checks"]] == names


def test_fit_rejection_marks_row_and_strict_fails(tmp_path, monkeypatch):
    import cavitypairing.critical as crit_mod

    def always_reject(*a, **kw):
        raise crit_mod.FitRejected("r^2 too low", {"r_squared": 0.5})

    monkeypatch.setattr(crit_mod, "fit_gamma", always_reject)
    cfgf = tmp_path / "c.cfg"
    cfgf.write_text("states.list = vacuum\nfit.nu_points = 8\n")
    assert cli.main(["--config", str(cfgf), "--out", str(tmp_path), "exponents"]) == cli.EXIT_OK
    rows = list(csv.DictReader(io.StringIO((tmp_path / "exponents.csv").read_text())))
    gamma_rows = [r for r in rows if r["quantity"] == "gamma"]
    assert gamma_rows[0]["note"].startswith("REJECTED")
    assert cli.main(["--config", str(cfgf), "--out", str(tmp_path),
                     "--strict", "exponents"]) == cli.EXIT_NUMERIC
