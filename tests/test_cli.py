import contextlib
import csv
import io
import json
import math
import re
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavitypairing import cli, critical
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


def test_json_has_schema_version(tmp_path):
    table = _small_table()
    payload = json.loads(table.to_json())
    assert payload["schema_version"] == cli.SCHEMA_VERSION
    assert len(payload["rows"]) == 2


def test_emit_determinism(tmp_path):
    cfg = RunConfig()
    a = cli.cmd_tc(cfg).to_csv()
    b = cli.cmd_tc(cfg).to_csv()
    assert a == b


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
            "correlation_bessel", "thermal_identity"} <= names
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


def test_main_xi_ratios(tmp_path):
    cfgf = tmp_path / "c.cfg"
    cfgf.write_text("states.list = vacuum, fock:3\n")
    rc = cli.main(["--config", str(cfgf), "--out", str(tmp_path), "--format", "json", "xi"])
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


def test_overflowing_fits_are_rejected(tmp_path):
    # the fock:60 hierarchy overflows, so both fits see non-finite data
    cfgf = tmp_path / "c.cfg"
    cfgf.write_text("states.list = fock:60\n")
    args = ["--config", str(cfgf), "--out", str(tmp_path)]
    assert cli.main(args + ["exponents"]) == cli.EXIT_OK
    rows = list(csv.DictReader(io.StringIO((tmp_path / "exponents.csv").read_text())))
    assert [r["quantity"] for r in rows] == ["gamma", "nu"]
    assert all(r["note"].startswith("REJECTED") for r in rows)
    assert all(r["r_squared"] == "nan" for r in rows)
    assert cli.main(args + ["--strict", "exponents"]) == cli.EXIT_NUMERIC


@pytest.mark.parametrize("command, row, fock_form", [
    pytest.param("vertex", "gamma_on_shell = -inf", "reduced", id="vertex-gamma_on_shell = -inf"),
    pytest.param("xi", "xi = nan", "reduced", id="xi-xi = nan"),
    pytest.param("vertex", "gamma_on_shell = -inf", "power",
                 id="vertex-gamma_on_shell = -inf-power"),
])
def test_unflagged_non_finite_value_is_a_numerical_failure(tmp_path, capsys, command, row,
                                                           fock_form):
    cfgf = tmp_path / "c.cfg"
    cfgf.write_text(f"states.list = fock:200\nfit.fock_form = {fock_form}\n")
    rc = cli.main(["--config", str(cfgf), "--out", str(tmp_path), command])
    assert rc == cli.EXIT_NUMERIC
    assert f"numerical failure: {row} for state fock:200" in capsys.readouterr().err
    assert not (tmp_path / f"{command}.csv").exists()


@pytest.mark.parametrize("command", ["xi", "exponents"])
def test_power_form_past_float_factorials_names_the_pole_order(tmp_path, capsys, command):
    # (n)! leaves the float range from n = 171, so the closed-form transform cannot run
    cfgf = tmp_path / "c.cfg"
    cfgf.write_text("states.list = fock:171\nfit.fock_form = power\n")
    assert cli.main(["--config", str(cfgf), "--out", str(tmp_path), command]) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "pole of order 172" in err
    assert "int too large" not in err


@pytest.mark.parametrize("command, state, code", [
    ("exponents", "fock:60", cli.EXIT_OK),
    ("vertex", "fock:200", cli.EXIT_NUMERIC),
    ("xi", "fock:200", cli.EXIT_NUMERIC),
])
def test_overflow_warnings_stay_off_stderr(tmp_path, capsys, command, state, code):
    # an overflowing hierarchy ends in REJECTED rows or exit 3, without numpy warnings
    cfgf = tmp_path / "c.cfg"
    cfgf.write_text(f"states.list = {state}\n")
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
