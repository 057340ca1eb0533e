"""Command-line front end: parameter ingestion, sweeps, verification, output.

Subcommands: tc | exponents | xi | vertex | verify | scan.  Configuration is
flat ``section.key = value`` text; unknown keys are rejected.  Output is
deterministic: identical configs produce byte-identical CSV/JSON.  All
energies are reported in units of the photon gap delta_c unless
``out.physical_units = true``.

Exit codes: 0 success, 1 verification failure, 2 usage/config error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

from . import critical, ladder, sectors
from .ladder import CONVENTIONS, KernelScalars
from .model import (
    ConstantLifetime,
    DiagonalMixture,
    DomainError,
    FermiLiquidLifetime,
    Fock,
    ModelParams,
    Thermal,
    Vacuum,
    statistical_factor,
)
from .useries import RationalFunction, taylor

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    pass


# the model and point the quadrature checks of ``verify`` run at, whatever the config says
_VERIFY_PARAMS = ModelParams(g0=1.0, delta_c=1.0, q0=0.0, e_f=100.0, k_f=1.0)
_VERIFY_DCTAU = 1e3
_VERIFY_T_OVER_DELTA = 0.4


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Flat run configuration; round-trips losslessly through its ``key = value`` text."""

    # defaults give gtilde*delta_c = 0.02, c2 = 0.25, vacuum T_c = 0.04*delta_c
    g0: float = 1.7771531752633465
    delta_c: float = 1.0
    q0: float = 0.001
    e_f: float = 100.0
    k_f: float = 1.0
    lifetime: str = "constant:0.04"
    convention: str = "canonical"
    states: tuple[str, ...] = ("vacuum", "fock:1", "fock:3", "thermal")
    gamma_window: tuple[float, float] = (1e-6, 1e-3)
    gamma_points: int = 24
    nu_window: tuple[float, float] = (1e-5, 1e-3)
    nu_points: int = 8
    anisotropy: float = 1.0
    fock_form: str = "reduced"
    xi_reduced_t: float = 1e-4
    out_format: str = "csv"
    physical_units: bool = False

    _KEYMAP = {
        "model.g0": "g0",
        "model.delta_c": "delta_c",
        "model.q0": "q0",
        "model.e_f": "e_f",
        "model.k_f": "k_f",
        "model.lifetime": "lifetime",
        "model.convention": "convention",
        "states.list": "states",
        "fit.gamma_window": "gamma_window",
        "fit.gamma_points": "gamma_points",
        "fit.nu_window": "nu_window",
        "fit.nu_points": "nu_points",
        "fit.anisotropy": "anisotropy",
        "fit.fock_form": "fock_form",
        "fit.xi_reduced_t": "xi_reduced_t",
        "out.format": "out_format",
        "out.physical_units": "physical_units",
    }

    def params(self) -> ModelParams:
        return ModelParams(self.g0, self.delta_c, self.q0, self.e_f, self.k_f)

    def lifetime_model(self):
        if self.lifetime == "fermi-liquid":
            return FermiLiquidLifetime()
        if self.lifetime.startswith("constant:"):
            return ConstantLifetime(float(self.lifetime.split(":", 1)[1]))
        raise ConfigError(f"unknown lifetime model {self.lifetime!r}")

    def state_objects(self):
        return [parse_state(tok) for tok in self.states]

    def emit(self) -> str:
        lines = []
        for key in sorted(self._KEYMAP):
            attr = self._KEYMAP[key]
            val = getattr(self, attr)
            if isinstance(val, tuple) and attr == "states":
                txt = ", ".join(val)
            elif isinstance(val, tuple):
                txt = ",".join(_fmt(x) for x in val)
            elif isinstance(val, bool):
                txt = "true" if val else "false"
            elif isinstance(val, float):
                txt = _fmt(val)
            else:
                txt = str(val)
            lines.append(f"{key} = {txt}")
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "RunConfig":
        pairs = {}
        for ln, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {ln}: expected key = value, got {raw!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            if key in pairs:
                raise ConfigError(f"line {ln}: duplicate key {key!r}")
            pairs[key] = val
        kwargs = {}
        for key, val in pairs.items():
            if key not in cls._KEYMAP:
                raise ConfigError(f"unknown config key {key!r}")
            attr = cls._KEYMAP[key]
            kwargs[attr] = _convert(attr, val)
        return cls(**kwargs)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _convert(attr: str, val: str):
    if attr == "states":
        states = tuple(_split_states(val))
        if not states:
            raise ConfigError(f"{attr}: need at least one photon state, got {val!r}")
        return states
    if attr in ("gamma_window", "nu_window"):
        bad = ConfigError(f"{attr}: need lo,hi with 0 < lo < hi < inf, got {val!r}")
        try:
            lo, hi = (float(s) for s in val.split(","))
        except ValueError:
            raise bad from None
        if not 0 < lo < hi < math.inf:
            raise bad
        if attr == "nu_window" and hi / lo < critical.MIN_NU_WINDOW_RATIO:
            raise ConfigError(f"{attr}: must span at least two decades, got {val!r}")
        return (lo, hi)
    if attr in ("gamma_points", "nu_points"):
        least, most = (
            (critical.MIN_GAMMA_POINTS, critical.MAX_GAMMA_POINTS) if attr == "gamma_points"
            else (critical.MIN_NU_POINTS, critical.MAX_NU_POINTS)
        )
        bad = ConfigError(f"{attr}: need {least} to {most} (an integer), got {val!r}")
        try:
            num = int(val)
        except ValueError:
            raise bad from None
        if not least <= num <= most:
            raise bad
        return num
    if attr == "physical_units":
        if val.lower() in ("true", "1", "yes"):
            return True
        if val.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{attr}: expected boolean, got {val!r}")
    if attr in ("lifetime", "convention", "fock_form", "out_format"):
        if attr == "convention" and val not in CONVENTIONS:
            raise ConfigError(f"unknown convention {val!r}")
        if attr == "out_format" and val not in ("csv", "json"):
            raise ConfigError(f"unknown output format {val!r}")
        if attr == "fock_form" and val not in ("reduced", "power"):
            raise ConfigError(f"unknown fock_form {val!r}")
        return val
    try:
        num = float(val)
    except ValueError as exc:
        raise ConfigError(f"{attr}: expected number, got {val!r}") from exc
    if not math.isfinite(num):
        raise ConfigError(f"{attr}: need a finite number, got {val!r}")
    # xi and vertex rows sit at T = T_c (1 + xi_reduced_t), which must be above T_c
    if attr in ("anisotropy", "xi_reduced_t") and not num > 0:
        raise ConfigError(f"{attr}: need > 0, got {val!r}")
    return num


def _split_states(text: str) -> list[str]:
    """Split a comma list of state tokens; commas inside {...} stay put."""
    out, buf, depth = [], [], 0
    for ch in text:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        if ch == "," and depth == 0:
            tok = "".join(buf).strip()
            if tok:
                out.append(tok)
            buf = []
        else:
            buf.append(ch)
    tok = "".join(buf).strip()
    if tok:
        out.append(tok)
    if depth != 0:
        raise ConfigError(f"unbalanced braces in states list {text!r}")
    return out


def parse_state(token: str):
    """Parse one state token: vacuum | fock:N | thermal[:beta=X] | mix:{n:w,...}."""
    tok = token.strip()
    try:
        if tok == "vacuum":
            return Vacuum()
        if tok.startswith("fock:"):
            return Fock(int(tok.split(":", 1)[1]))
        if tok == "thermal":
            return Thermal()
        if tok.startswith("thermal:beta="):
            return Thermal(float(tok.split("=", 1)[1]))
        if tok.startswith("mix:{") and tok.endswith("}"):
            body = tok[len("mix:{"):-1]
            weights = {}
            for part in body.split(","):
                part = part.strip()
                if not part:
                    continue
                n, w = part.split(":")
                n = int(n)
                if n in weights:
                    raise ValueError(f"occupation {n} repeated")
                weights[n] = float(w)
            return DiagonalMixture(weights)
    except (ValueError, DomainError) as exc:
        raise ConfigError(f"cannot parse state token {token!r}: {exc}") from exc
    raise ConfigError(f"cannot parse state token {token!r}")


def state_label(state) -> str:
    if isinstance(state, Vacuum):
        return "vacuum"
    if isinstance(state, Fock):
        return f"fock:{state.n}"
    if isinstance(state, Thermal):
        return "thermal" if state.beta is None else f"thermal:beta={_fmt(state.beta)}"
    if isinstance(state, DiagonalMixture):
        inner = ",".join(f"{n}:{_fmt(w)}" for n, w in state.weights.items())
        return "mix:{%s}" % inner
    return repr(state)


# ---------------------------------------------------------------------------
# result table and emitters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Row:
    state: str
    quantity: str
    value: float
    uncertainty: float = float("nan")
    window_lo: float = float("nan")
    window_hi: float = float("nan")
    r_squared: float = float("nan")
    provenance: str = ""
    note: str = ""


@dataclass
class ResultTable:
    rows: list = field(default_factory=list)

    COLUMNS = (
        "state", "quantity", "value", "uncertainty",
        "window_lo", "window_hi", "r_squared", "provenance", "note",
    )

    def add(self, **kw):
        self.rows.append(Row(**kw))

    def to_csv(self) -> str:
        out = [",".join(self.COLUMNS)]
        for r in self.rows:
            cells = []
            for col in self.COLUMNS:
                v = getattr(r, col)
                cells.append(_fmt(v) if isinstance(v, float) else _csv_quote(str(v)))
            out.append(",".join(cells))
        return "\n".join(out) + "\n"

    def to_json(self) -> str:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "rows": [
                {col: getattr(r, col) for col in self.COLUMNS} for r in self.rows
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=True) + "\n"


def _csv_quote(cell: str) -> str:
    if any(c in cell for c in ',"\n\r'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def emit(table: ResultTable, fmt: str, out_dir: Path, stem: str) -> Path:
    """Write the table as ``<stem>.csv`` or ``<stem>.json``; ``fmt`` is checked by the config."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{stem}.{fmt}"
    path.write_text(table.to_csv() if fmt == "csv" else table.to_json(), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _scale(cfg: RunConfig) -> float:
    """Energies are reported in units of delta_c unless overridden."""
    return 1.0 if cfg.physical_units else cfg.delta_c


def _length_scale(cfg: RunConfig) -> float:
    """Lengths carry energy**-0.5 here, so they scale with sqrt(delta_c)."""
    return 1.0 if cfg.physical_units else math.sqrt(cfg.delta_c)


def _root_state(state):
    """A thermal state orders at the root of its dressed kernel, every other at the vacuum one."""
    return state if isinstance(state, Thermal) else Vacuum()


def _criticalities(cfg: RunConfig, states) -> list[critical.Criticality]:
    """One ``Criticality`` per state, with one root search per distinct pole mass."""
    p, lt = cfg.params(), cfg.lifetime_model()
    roots = {root: critical.criticality(root, p, lt, cfg.convention)
             for root in dict.fromkeys(map(_root_state, states))}
    return [replace(roots[_root_state(state)], state=state) for state in states]


def cmd_tc(cfg: RunConfig) -> ResultTable:
    table = ResultTable()
    unit = _scale(cfg)
    for crit in _criticalities(cfg, cfg.state_objects()):
        mode = "vacuum" if _root_state(crit.state) == Vacuum() else "thermal"
        note = ""
        if mode == "vacuum":
            note = "vacuum-kernel root (occupation-independent)"
        if crit.point.n_brackets > 1:
            note = (note + "; " if note else "") + (
                f"{crit.point.n_brackets} crossings, refined largest downward"
            )
        table.add(
            state=state_label(crit.state),
            quantity="t_c",
            value=crit.point.t_c / unit,
            uncertainty=crit.point.residual,
            provenance=f"critical.find_tc[{mode}]",
            note=note,
        )
    return table


def _exponent_rows(cfg: RunConfig, crit: critical.Criticality) -> list[Row]:
    fits = (
        ("gamma", lambda: critical.fit_gamma(crit, cfg.gamma_window, cfg.gamma_points)),
        ("nu", lambda: critical.fit_nu(
            crit, cfg.nu_window, cfg.nu_points,
            anisotropy=cfg.anisotropy, fock_form=cfg.fock_form,
        )),
    )
    rows = []
    for quantity, fit in fits:
        provenance = f"critical.fit_{quantity}"
        try:
            f = fit()
        except critical.FitRejected as exc:
            rows.append(Row(
                state=state_label(crit.state), quantity=quantity, value=float("nan"),
                provenance=provenance, note=f"REJECTED: {exc}",
            ))
            continue
        rows.append(Row(
            state=state_label(crit.state), quantity=quantity, value=f.exponent,
            uncertainty=f.residual_max, window_lo=f.window[0], window_hi=f.window[1],
            r_squared=f.r_squared, provenance=provenance,
        ))
    return rows


def cmd_exponents(cfg: RunConfig, jobs: int = 1) -> ResultTable:
    # ``jobs`` is unused; perfbench/workloads.py still passes it
    table = ResultTable()
    for crit in _criticalities(cfg, cfg.state_objects()):
        table.rows.extend(_exponent_rows(cfg, crit))
    return table


def cmd_xi(cfg: RunConfig) -> ResultTable:
    table = ResultTable()
    unit = _length_scale(cfg)
    t_red = cfg.xi_reduced_t

    def xi_of(crit):
        return critical.correlation_function(
            crit, crit.point.t_c * (1.0 + t_red),
            anisotropy=cfg.anisotropy, fock_form=cfg.fock_form,
        )

    states = cfg.state_objects()
    base, *profs = map(xi_of, _criticalities(cfg, [Vacuum(), *states]))
    for state, prof in zip(states, profs):
        table.add(
            state=state_label(state), quantity="xi", value=prof.xi * unit,
            window_lo=prof.fit_window[0] * unit, window_hi=prof.fit_window[1] * unit,
            r_squared=prof.r_squared,
            provenance="critical.correlation_function",
            note=f"reduced_t={_fmt(t_red)}",
        )
        table.add(
            state=state_label(state), quantity="xi_ratio", value=prof.xi / base.xi,
            provenance="critical.correlation_function",
            note="relative to vacuum",
        )
    return table


def cmd_vertex(cfg: RunConfig) -> ResultTable:
    """On-shell hierarchy values and the P-resolved vertex on a small grid."""
    p, lt = cfg.params(), cfg.lifetime_model()
    table = ResultTable()
    unit = _scale(cfg)
    t_red = cfg.xi_reduced_t
    for crit in _criticalities(cfg, cfg.state_objects()):
        state, T = crit.state, crit.point.t_c * (1.0 + t_red)
        k = KernelScalars.from_model(p, lt, T, cfg.convention, state)
        table.add(
            state=state_label(state), quantity="gamma_on_shell",
            value=ladder.signed_exp(ladder.log_vertex(k), k.gamma0) * unit,
            provenance="ladder.log_vertex", note=f"reduced_t={_fmt(t_red)}",
        )
        vertex = critical.momentum_vertex(crit, T, cfg.anisotropy, cfg.fock_form)
        for P in (0.0, 0.05, 0.1):
            for theta in (0.0, math.pi / 4, math.pi / 2):
                table.add(
                    state=state_label(state), quantity=f"vertex_P[{_fmt(P)},{_fmt(theta)}]",
                    value=vertex(P, theta) * unit, provenance="critical.vertex_P",
                )
    return table


# temperatures on the geometric grid of ``scan``, from 1e-4 to 0.5 E_F
_SCAN_POINTS = 60


def cmd_scan(cfg: RunConfig) -> ResultTable:
    """Kernel masses and on-shell vertices over a temperature grid."""
    p, lt = cfg.params(), cfg.lifetime_model()
    table = ResultTable()
    unit = _scale(cfg)
    m_vac = ladder.mass_curve(p, lt, cfg.convention)
    m_th = ladder.mass_curve(p, lt, cfg.convention, Thermal())
    for T in critical._geometric_grid(1e-4 * p.e_f, 0.5 * p.e_f, _SCAN_POINTS):
        note = f"T={_fmt(T / unit)}"
        table.add(state="-", quantity="m_vac", value=m_vac(T),
                  provenance="ladder.KernelScalars", note=note)
        table.add(state="-", quantity="m_th", value=m_th(T),
                  provenance="ladder.KernelScalars", note=note)
    return table


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _random_rational_kernel(rng: random.Random) -> KernelScalars:
    a = Fraction(rng.randint(1, 60), 100)
    c2 = Fraction(rng.randint(1, 25), 100)
    while a + 2 * c2 == 1:
        c2 += Fraction(1, 1000)
    gamma0 = Fraction(-rng.randint(1, 9), rng.randint(1, 5))
    return KernelScalars(gamma0=gamma0, a_bcs=a, c2=c2)


def _log_abs(x: Fraction) -> float:
    """log|x| of a nonzero rational, also far outside the float range, to about an ulp."""
    num, den = abs(x.numerator), x.denominator
    k = num.bit_length() - den.bit_length()
    return math.log((num << max(0, -k)) / (den << max(0, k))) + k * math.log(2)


def run_verify(cfg: RunConfig, inject_fault: bool = False) -> tuple[bool, dict]:
    """Full invariant suite; returns (all_passed, machine-readable report)."""
    checks = []
    rng = random.Random(20240917)

    def record(name, passed, detail):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    # the thermal dressing, read from the package's statistical factor and kernel
    # terms: s = (1+x)/(1-x) and c2 -> c2 s**2 at x = exp(-beta delta_c)
    p = _VERIFY_PARAMS
    lt = ConstantLifetime(1.0 / _VERIFY_DCTAU)
    T = _VERIFY_T_OVER_DELTA * p.delta_c
    c2 = ladder.kernel_terms(p, lt, cfg.convention)(T)[1]
    worst = 0.0
    for state in (Thermal(2.0 / p.delta_c), Thermal()):
        x = math.exp(-(state.beta or 1.0 / T) * p.delta_c)
        s = (1 + x) / (1 - x)
        dressed = ladder.kernel_terms(p, lt, cfg.convention, state)(T)[1]
        worst = max(worst, abs(statistical_factor(state, p.delta_c, T) / s - 1),
                    abs(dressed / (c2 * s * s) - 1))
    record("thermal_dressing", worst < 1e-14,
           f"max rel dev {worst:.3e} of s and c2 s**2 from (1+x)/(1-x), x = exp(-beta delta_c), "
           "at beta delta_c = 2 and in equilibrium")

    # recursion vs series oracle on random rational kernels
    ok_all, worst_txt = True, "0"
    for i in range(5):
        k = _random_rational_kernel(rng)
        rep = ladder.oracle_check(12, k, mutate_f=inject_fault)
        if not rep.ok:
            ok_all = False
            worst_txt = str(rep.max_abs_discrepancy)
    record("oracle_equivalence", ok_all, f"n<=12, 5 kernels, max discrepancy {worst_txt}")

    k0 = KernelScalars(gamma0=Fraction(-1), a_bcs=Fraction(1, 10), c2=Fraction(1, 100))
    rep = ladder.thermal_resummation_check(k0, Fraction(1, 3))
    record(
        "thermal_resummation",
        rep.residual < 1e-8 and rep.tail < 1e-12,
        f"residual {rep.residual:.3e}, tail {rep.tail:.3e}, N={rep.n_used}",
    )

    kg = KernelScalars(gamma0=Fraction(-1), a_bcs=Fraction(3, 10), c2=Fraction(0))
    hier = ladder.solve_fock_hierarchy(8, kg)
    collapse = all(v == hier[0] for v in hier)
    sys_g = sectors.build_sector_system(
        KernelScalars(
            gamma0=Fraction(-1), a_bcs=Fraction(3, 10), c2=Fraction(1, 100),
            gtilde=Fraction(1, 100), dct=Fraction(10),
        ),
        zero_dk=True,
    )
    sol_g = sectors.solve_sector_system(sys_g)
    collapse2 = sol_g == RationalFunction((Fraction(-1),)) / RationalFunction((Fraction(7, 10),))
    record("gaussian_collapse", collapse and collapse2,
           "c2=0 hierarchy constant; zero-Keldysh sector solve is state-free")

    kx = KernelScalars(
        gamma0=Fraction(-2), a_bcs=Fraction(1, 4), c2=Fraction(1, 64),
        gtilde=Fraction(1, 80), dct=Fraction(10),
    )
    sol = sectors.solve_sector_system(sectors.build_sector_system(kx))
    closed = ladder.intermediate_vertex_closed_form(kx)
    series_match = taylor(sol / RationalFunction((1, -1)), 10) == list(
        ladder.solve_fock_hierarchy(10, kx)
    )
    record("sector_chain", sol == closed and series_match,
           "linear solve == closed form; series == hierarchy (exact)")

    # float closed form of the vertex vs the exact recursion on the same kernel,
    # lifted: a float kernel whose 1 - M = 2**-20 is exact, so u = 1.2e-6 and
    # the sectors pass 1e308 from n = 48
    c2 = 0.25 - 2.0**-21
    exact = ladder.solve_fock_hierarchy(60, KernelScalars(-1.0, 0.5, c2).exact())
    mix = DiagonalMixture({0: 0.25, 7: 0.5, 60: 0.25})
    cases = [(Fock(n), exact[n]) for n in range(61)]
    cases.append((mix, sum(Fraction(w) * exact[n] for n, w in mix.weights.items())))
    worst = 0.0
    for state, ref in cases:
        log_ref = _log_abs(ref)
        err = abs(ladder.log_vertex(KernelScalars(-1.0, 0.5, c2, state=state)) - log_ref)
        worst = max(worst, err / (2.0**-52 * (max(state.weights) + 1 + abs(log_ref))))
    # in eps (n + 1 + |log|Gamma||), the closed form's rounding (of log u, times
    # n, and of the sum) measures at most 1.4
    record("vertex_closed_form", worst <= 4.0,
           f"max |dlog|Gamma|| = {worst:.2f} eps (n+1+|log|Gamma||) vs exact recursion, "
           "n <= 60 and mix:{0,7,60}, 1 - M = 2**-20")

    qr = sectors.bcs_kernel_quadrature(p, lt, T)
    record(
        "bcs_quadrature",
        abs(qr.value.real - 1.0) < 1e-3,
        f"ratio-1 = {qr.value.real - 1.0:.3e} at dc*tau={_VERIFY_DCTAU:g}, "
        f"{qr.evaluations} evaluations",
    )

    off = sectors.offshell_bcs_cancellation(p, lt, T)
    record(
        "offshell_cancellation",
        off.ratio < 1e-2,
        f"|sum|/|leading| = {off.ratio:.3e} at dc*tau={_VERIFY_DCTAU:g}",
    )

    # closed-form correlations vs the independent contour quadrature on the
    # fit grid, for a simple and a third-order anisotropic pole summed
    mix = DiagonalMixture({0: 0.5, 2: 0.5})
    crit = critical.criticality(mix, cfg.params(), cfg.lifetime_model(), cfg.convention)
    kw = dict(anisotropy=cfg.anisotropy, fock_form="power")
    T = crit.point.t_c * (1.0 + 1e-4)
    prof = critical.correlation_function(crit, T, **kw)
    ref = critical.correlation_quadrature(crit, T, prof.r_grid[::4], **kw)
    devs = [abs(v / q - 1.0) for v, q in zip(prof.values[::4], ref)]
    record("correlation_bessel", all(d < 1e-4 for d in devs),
           f"max rel dev {max(devs):.3e} vs contour quadrature at 5 fit-grid points in [3 xi, 10 xi] "
           "(mix:{0,2} power anisotropic, q=1 and q=3)")

    passed = all(c["passed"] for c in checks)
    report = {
        "schema_version": SCHEMA_VERSION,
        "all_passed": passed,
        "fault_injected": inject_fault,
        "checks": checks,
    }
    return passed, report


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cavitypairing",
        description="Pairing criticality of cavity-coupled electrons, by photon state.",
    )
    ap.add_argument("--config", type=Path, help="config file (section.key = value text)")
    ap.add_argument("--convention", choices=sorted(CONVENTIONS), help="kernel convention override")
    ap.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    ap.add_argument("--format", choices=("csv", "json"), help="output format override")
    ap.add_argument("--strict", action="store_true", help="fail on rejected fits")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("tc", "exponents", "xi", "vertex", "scan"):
        sub.add_parser(name)
    v = sub.add_parser("verify")
    v.add_argument("--inject-fault", action="store_true",
                   help="corrupt the hierarchy coupling (negative control)")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = RunConfig.parse(args.config.read_text(encoding="utf-8")) if args.config else RunConfig()
        if args.convention:
            cfg = replace(cfg, convention=args.convention)
        if args.format:
            cfg = replace(cfg, out_format=args.format)
        cfg.params()
        cfg.lifetime_model()
        cfg.state_objects()
    except (ConfigError, DomainError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "verify":
            passed, report = run_verify(cfg, inject_fault=args.inject_fault)
            path = args.out / "verify.json"
            try:
                args.out.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                                encoding="utf-8")
            except OSError as exc:  # --out names a file, or is not writable
                print(f"config error: {exc}", file=sys.stderr)
                return EXIT_CONFIG
            for c in report["checks"]:
                print(f"{'PASS' if c['passed'] else 'FAIL'} {c['name']} - {c['detail']}")
            print(f"report: {path}")
            return EXIT_OK if passed else EXIT_VERIFY

        if args.command == "tc":
            table = cmd_tc(cfg)
        elif args.command == "exponents":
            table = cmd_exponents(cfg)
        elif args.command == "xi":
            table = cmd_xi(cfg)
        elif args.command == "vertex":
            table = cmd_vertex(cfg)
        elif args.command == "scan":
            table = cmd_scan(cfg)
        else:  # pragma: no cover
            raise AssertionError(args.command)
    except (critical.BracketError, critical.SlopeError, sectors.QuadratureError,
            ladder.CriticalityError, DomainError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    # a non-finite value is a numerical failure unless its fit was rejected
    for r in table.rows:
        if not math.isfinite(r.value) and not r.note.startswith("REJECTED"):
            print(f"numerical failure: {r.quantity} = {_fmt(r.value)} for state {r.state}",
                  file=sys.stderr)
            return EXIT_NUMERIC

    try:
        path = emit(table, cfg.out_format, args.out, args.command)
    except OSError as exc:  # --out names a file, or is not writable
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    rejected = [r for r in table.rows if r.note.startswith("REJECTED")]
    print(f"wrote {path}")
    for r in table.rows:
        print(f"{r.state:>18s}  {r.quantity:<14s} {_fmt(r.value)}  {r.note}")
    if rejected:
        print(f"warning: {len(rejected)} fit(s) rejected", file=sys.stderr)
        if args.strict:
            return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
