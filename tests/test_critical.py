import math
import random
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cavitypairing import critical as cr
from cavitypairing import ladder, model
from cavitypairing.cli import RunConfig, cmd_scan
from cavitypairing.ladder import KernelScalars, bare_vertex
from cavitypairing.model import (
    ConstantLifetime,
    DiagonalMixture,
    DomainError,
    FermiLiquidLifetime,
    Fock,
    ModelParams,
    Thermal,
    Vacuum,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


# -- critical temperature -----------------------------------------------------

def test_tc_closed_form_constant_lifetime():
    # M_vac = A/T + B with A = 0.5, B = 0.5: root at A/(1-B) = 1
    p = ModelParams.with_gtilde(0.5, 1.0, 0.0, 100.0, 1.0)
    lt = ConstantLifetime(1.0)  # c2 = (0.5 * 1)**2 = 0.25, B = 0.5
    crit = cr.find_tc(p, lt, Vacuum())
    assert crit.t_c == pytest.approx(1.0, rel=1e-12)
    assert crit.residual < 1e-12 * max(1.0, 0.5 / crit.t_c)


def test_tc_reference_set(const_params, const_lifetime):
    crit = cr.find_tc(const_params, const_lifetime, Vacuum())
    assert crit.t_c == pytest.approx(0.02 / (1 - 0.5), rel=1e-12)


@pytest.mark.parametrize("convention, f_a, f_c", [("canonical", 1, 1), ("subsec-tc", 2, 16)])
@pytest.mark.parametrize("beta", [None, 2.0, 30.0], ids=["vacuum", "beta=2", "beta=30"])
def test_tc_closed_form_vacuum_and_fixed_beta(convention, f_a, f_c, beta):
    # constant lifetime: M(T) = A/T + 2 c2 s**2 with A = f_a gtilde delta_c,
    # c2 = f_c (gtilde delta_c / rate)**2, so T_c = A / (1 - 2 c2 s**2)
    p = ModelParams.with_gtilde(0.01, 1.0, 0.0, 100.0, 1.0)
    lt = ConstantLifetime(0.1)
    a = f_a * p.gtilde * p.delta_c
    c2 = f_c * (p.gtilde * p.delta_c / lt.rate) ** 2
    if beta is None:
        state, s = Vacuum(), 1.0
    else:
        state, s = Thermal(beta), 1.0 / math.tanh(beta * p.delta_c / 2.0)
    point = cr.find_tc(p, lt, state, convention)
    assert point.t_c == pytest.approx(a / (1.0 - 2.0 * c2 * s**2), rel=1e-12)


def test_tc_thermal_strictly_larger(const_params, const_lifetime, fl_params, fl_lifetime):
    for p, lt in ((const_params, const_lifetime), (fl_params, fl_lifetime)):
        vac = cr.find_tc(p, lt, Vacuum())
        th = cr.find_tc(p, lt, Thermal())
        assert th.t_c > vac.t_c


def test_tc_fermi_liquid_vs_dense_scan(fl_params, fl_lifetime):
    crit = cr.find_tc(fl_params, fl_lifetime, Vacuum())
    p = fl_params
    ts = np.geomspace(1e-8 * p.e_f, 0.99 * p.e_f, 10**6)
    rate = (np.pi * ts**2 / (8 * p.e_f)) * np.log(p.e_f / ts)
    mass = p.gtilde * p.delta_c / ts + 2 * (p.gtilde * p.delta_c / rate) ** 2
    f = mass - 1.0
    down = np.where((f[:-1] > 0) & (f[1:] < 0))[0]
    lo, hi = float(ts[down[-1]]), float(ts[down[-1] + 1])

    def mass_of(T):
        r = (math.pi * T * T / (8 * p.e_f)) * math.log(p.e_f / T)
        return p.gtilde * p.delta_c / T + 2 * (p.gtilde * p.delta_c / r) ** 2

    flo = mass_of(lo) - 1.0
    while hi - lo > 1e-14 * hi:
        mid = 0.5 * (lo + hi)
        fm = mass_of(mid) - 1.0
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    assert crit.t_c == pytest.approx(0.5 * (lo + hi), rel=1e-10)


def test_tc_no_root_reports_scan_table():
    p = ModelParams.with_gtilde(1e-12, 1.0, 0.0, 100.0, 1.0)
    lt = ConstantLifetime(1.0)
    with pytest.raises(cr.BracketError) as err:
        cr.find_tc(p, lt, Vacuum())
    assert err.value.scan_table is not None
    assert len(err.value.scan_table) == 512


# The generic curve: the pole mass read off the kernel-terms tuple at each T, and
# the geometric scan plus bisection on it.  The reference for find_tc and
# mass_slope, which read the curve that resolves its factors once.

def _reference_mass(p, lt, convention, state):
    terms = ladder.kernel_terms(p, lt, convention, state)
    return lambda T: ladder._pole_mass(*terms(T)[:2])


def _reference_find_tc(p, lt, state, convention):
    lo_f, hi_f = cr.SCAN_RANGE
    ts = cr._geometric_grid(lo_f * p.e_f, hi_f * p.e_f, cr.N_SCAN)
    mass = _reference_mass(p, lt, convention, state)
    f = lambda T: mass(T) - 1.0
    vals = [f(t) for t in ts]
    brackets = [
        (ts[i], ts[i + 1], vals[i] > vals[i + 1])
        for i in range(len(ts) - 1)
        if vals[i] == 0.0 or (vals[i] > 0) != (vals[i + 1] > 0)
    ]
    if not brackets:
        table = [(t, v + 1.0) for t, v in zip(ts, vals)]
        raise cr.BracketError("no sign change", scan_table=table)
    downward = [b for b in brackets if b[2]]
    lo, hi, _ = downward[-1] if downward else brackets[-1]
    tc = cr._bisect(f, lo, hi)
    return cr.CriticalPoint(tc, (lo, hi), abs(f(tc)), len(brackets))


def _reference_slope(p, lt, state, convention, tc):
    f = _reference_mass(p, lt, convention, state)
    h = cr.SLOPE_STEP * tc
    d1 = (f(tc + h) - f(tc - h)) / (2 * h)
    d2 = (f(tc + h / 2) - f(tc - h / 2)) / h
    return -(4 * d2 - d1) / 3


def _root_search(find, slope, p, lt, state, convention):
    """(point, slope) of one search, or the scan table of its BracketError."""
    try:
        point = find(p, lt, state, convention)
    except cr.BracketError as err:
        return "no root", err.scan_table
    return point, slope(p, lt, state, convention, point.t_c)


def _seeded_points(n):
    """tc-sweep-like points: half constant lifetime, half Fermi-liquid, every convention."""
    rng = random.Random(20261019)
    conventions = sorted(ladder.CONVENTIONS)
    for i in range(n):
        if i % 2 == 0:
            g = 10 ** rng.uniform(math.log10(0.005), math.log10(0.03))
            p = ModelParams.with_gtilde(g, 1.0, 0.0, 100.0, 1.0)
            lt = ConstantLifetime(g * math.sqrt(2 / rng.uniform(0.1, 0.6)))
        else:
            g = 10 ** rng.uniform(math.log10(3e-4), math.log10(3e-3))
            p = ModelParams.with_gtilde(g, 50.0, 0.0, 1e4, 1.0)
            lt = FermiLiquidLifetime()
        yield p, lt, conventions[i % 3]


ROOT_STATES = (Vacuum(), Fock(3), DiagonalMixture({0: 0.5, 3: 0.5}), Thermal(), Thermal(2.0))


def test_root_search_matches_reference_curve_bitwise():
    def slope(p, lt, state, convention, tc):
        return cr.mass_slope(p, lt, state, convention, tc=tc)

    cases = [(p, lt, state, convention)
             for p, lt, convention in _seeded_points(12) for state in ROOT_STATES]
    for name in ("reference", "convention-heavy"):
        cfg = RunConfig.parse((CONFIGS / f"{name}.cfg").read_text())
        cases += [(cfg.params(), cfg.lifetime_model(), state, cfg.convention)
                  for state in ROOT_STATES]
    # no root on the scan: both give the same scan table
    cases.append((ModelParams.with_gtilde(1e-12, 1.0, 0.0, 100.0, 1.0), ConstantLifetime(1.0),
                  Vacuum(), "canonical"))
    two_crossings = no_root = 0
    for p, lt, state, convention in cases:
        got = _root_search(cr.find_tc, slope, p, lt, state, convention)
        want = _root_search(_reference_find_tc, _reference_slope, p, lt, state, convention)
        assert got == want, (p, lt, state, convention)
        no_root += got[0] == "no root"
        two_crossings += got[0] != "no root" and got[0].n_brackets == 2
    # the reference and convention-heavy presets' equilibrium thermal roots cross twice
    assert two_crossings >= 2
    assert no_root >= 1


def test_constant_lifetime_search_resolves_the_rate_once(const_params, const_lifetime,
                                                         monkeypatch):
    # the scan's cost per point is the curve call alone: no lifetime rate or fixed-beta s per T
    calls = []

    def counting(fn):
        return lambda *a, **kw: calls.append(fn.__name__) or fn(*a, **kw)

    for mod in (model, ladder, cr):
        for name in ("tau_inv", "statistical_factor", "_fermi_liquid_rate"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counting(getattr(mod, name)))
    counts = []
    for n_scan in (cr.N_SCAN, 4 * cr.N_SCAN):
        monkeypatch.setattr(cr, "N_SCAN", n_scan)
        calls.clear()
        for state in (Vacuum(), Thermal(2.0)):
            cr.criticality(state, const_params, const_lifetime)
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 2


def test_fitted_pole_matches_kernel_root(const_params, const_lifetime):
    crit = cr.find_tc(const_params, const_lifetime, Vacuum())
    for n in (0, 1, 3, 5):
        pole = cr.fitted_pole_location(n, const_params, const_lifetime)
        assert pole == pytest.approx(crit.t_c, rel=1e-10)


# -- mass slope ----------------------------------------------------------------

def test_criticality_builds_no_kernel_scalars(const_params, const_lifetime, fl_params,
                                              fl_lifetime, monkeypatch):
    calls = []
    from_model = KernelScalars.from_model.__func__
    monkeypatch.setattr(KernelScalars, "from_model", classmethod(
        lambda cls, *a, **kw: calls.append(a) or from_model(cls, *a, **kw)))
    crits = [cr.criticality(state, p, lt)
             for p, lt in ((const_params, const_lifetime), (fl_params, fl_lifetime))
             for state in (Vacuum(), Thermal(), Thermal(2.0))]
    assert calls == []
    # the scan runs on Python floats, so T_c is one too
    assert all(type(c.point.t_c) is float for c in crits)


def test_mass_slope_analytic():
    # pure static channel M = A/T: T_c = A and m = A/T_c^2 = 1/A
    p = ModelParams.with_gtilde(0.5, 1.0, 0.0, 100.0, 1.0)
    lt = ConstantLifetime(1e6)  # c2 ~ 2.5e-13, negligible
    crit = cr.find_tc(p, lt, Vacuum())
    m = cr.mass_slope(p, lt, Vacuum(), tc=crit.t_c)
    assert m == pytest.approx(1.0 / 0.5, rel=1e-8)


def test_mass_slope_vs_analytic_derivative(const_params, const_lifetime):
    crit = cr.find_tc(const_params, const_lifetime, Vacuum())
    m = cr.mass_slope(const_params, const_lifetime, Vacuum(), tc=crit.t_c)
    assert m == pytest.approx(0.02 / crit.t_c**2, rel=1e-8)


def test_mass_slope_richardson_stable(fl_params, fl_lifetime, monkeypatch):
    crit = cr.find_tc(fl_params, fl_lifetime, Vacuum())
    slopes = []
    for h in (1e-5, 1e-6, 1e-7):
        monkeypatch.setattr(cr, "SLOPE_STEP", h)
        slopes.append(cr.mass_slope(fl_params, fl_lifetime, Vacuum(), tc=crit.t_c))
    ref = slopes[1]
    assert all(abs(s / ref - 1) < 1e-6 for s in slopes)


# -- susceptibility exponent ----------------------------------------------------

def test_gamma_thermal(const_params, const_lifetime):
    fit = cr.fit_gamma(cr.criticality(Thermal(), const_params, const_lifetime))
    assert abs(fit.exponent - 1.0) <= 0.02
    assert fit.r_squared > 0.999


def test_gamma_vacuum(const_params, const_lifetime):
    fit = cr.fit_gamma(cr.criticality(Fock(0), const_params, const_lifetime))
    assert abs(fit.exponent - 1.0) <= 0.02


def test_gamma_fock3(const_params, const_lifetime):
    fit = cr.fit_gamma(cr.criticality(Fock(3), const_params, const_lifetime))
    assert abs(fit.exponent - 4.0) <= 0.05


def test_gamma_mixture_pole_order(const_params, const_lifetime):
    mix = DiagonalMixture({0: 0.5, 2: 0.5})
    fit = cr.fit_gamma(cr.criticality(mix, const_params, const_lifetime))
    assert abs(fit.exponent - 3.0) <= 0.05


def test_gamma_invariant_under_vertex_rescale_and_convention():
    base = ModelParams.with_gtilde(0.02, 1.0, 0.0, 100.0, 1.0)
    lt = ConstantLifetime(0.2)  # c2 small enough that every convention is subcritical
    fits = [cr.fit_gamma(cr.criticality(Fock(2), base, lt, convention=c))
            for c in ("canonical", "eq-bs-u-freq", "subsec-tc")]
    assert all(abs(f.exponent - 3.0) <= 0.05 for f in fits)
    # gamma0 -> lambda gamma0 shifts the log intercept only: the fitted slope
    # of log(lambda |Gamma|) is identical by construction of the fit
    from cavitypairing.ladder import solve_fock_hierarchy

    lam = 7.0
    t = np.geomspace(1e-6, 1e-3, 24)
    crit = cr.find_tc(base, lt, Vacuum())
    g = np.array([
        abs(float(solve_fock_hierarchy(
            2, KernelScalars.from_model(base, lt, crit.t_c * (1 + x)))[2]))
        for x in t
    ])
    s1 = np.polyfit(np.log(t), np.log(g), 1)[0]
    s2 = np.polyfit(np.log(t), np.log(lam * g), 1)[0]
    assert s1 == pytest.approx(s2, abs=1e-12)


def test_gamma_needs_enough_points(const_params, const_lifetime):
    with pytest.raises(ValueError):
        cr.fit_gamma(cr.criticality(Vacuum(), const_params, const_lifetime), points=5)
    with pytest.raises(ValueError):
        cr.fit_gamma(cr.criticality(Vacuum(), const_params, const_lifetime),
                     points=cr.MAX_GAMMA_POINTS + 1)


# -- momentum-resolved vertex ----------------------------------------------------

def test_vertex_p_reduces_to_on_shell_pole(const_params, const_lifetime):
    crit = cr.find_tc(const_params, const_lifetime, Vacuum())
    m = cr.mass_slope(const_params, const_lifetime, Vacuum(), tc=crit.t_c)
    T = crit.t_c * 1.001
    for n in (0, 2):
        v = cr.vertex_P(cr.criticality(Fock(n), const_params, const_lifetime), 0.0, 0.3, T)
        expect = bare_vertex(const_params) / (m * (T - crit.t_c)) ** (n + 1)
        assert v == pytest.approx(expect, rel=1e-12)


def test_vertex_p_angular_factor(const_params, const_lifetime):
    crit = cr.find_tc(const_params, const_lifetime, Vacuum())
    m = cr.mass_slope(const_params, const_lifetime, Vacuum(), tc=crit.t_c)
    T = crit.t_c * 1.001
    a = 0.7
    c = cr.Criticality(Vacuum(), const_params, const_lifetime, "canonical", crit, m)
    v = cr.vertex_P(c, 2.0, math.pi / 2, T, anisotropy=a)
    expect = bare_vertex(const_params) / (4.0 * a + m * (T - crit.t_c))
    assert v == pytest.approx(expect, rel=1e-12)


def test_vertex_p_inversion_symmetry(const_params, const_lifetime):
    crit = cr.find_tc(const_params, const_lifetime, Vacuum())
    m = cr.mass_slope(const_params, const_lifetime, Vacuum(), tc=crit.t_c)
    T = crit.t_c * 1.0005
    c = cr.Criticality(Fock(1), const_params, const_lifetime, "canonical", crit, m)
    rng = np.random.default_rng(7)
    for _ in range(12):
        P, th = rng.uniform(0, 3), rng.uniform(0, 2 * math.pi)
        v1 = cr.vertex_P(c, P, th, T)
        v2 = cr.vertex_P(c, P, th + math.pi, T)
        v3 = cr.vertex_P(c, P, -th, T)
        assert v1 == pytest.approx(v2, rel=1e-14)
        assert v1 == pytest.approx(v3, rel=1e-14)


def test_vertex_p_forms_agree_at_small_momentum(const_params, const_lifetime):
    crit = cr.find_tc(const_params, const_lifetime, Vacuum())
    m = cr.mass_slope(const_params, const_lifetime, Vacuum(), tc=crit.t_c)
    T = crit.t_c * 1.001
    mass = m * (T - crit.t_c)
    p_small = 1e-3 * math.sqrt(mass)
    for n in (1, 4):
        c = cr.Criticality(Fock(n), const_params, const_lifetime, "canonical", crit, m)
        full = cr.vertex_P(c, p_small, 0.9, T, fock_form="power")
        red = cr.vertex_P(c, p_small, 0.9, T, fock_form="reduced")
        assert red == pytest.approx(full, rel=1e-5)
        assert cr.vertex_P(c, 0.0, 0.0, T, fock_form="reduced") == pytest.approx(
            cr.vertex_P(c, 0.0, 0.0, T, fock_form="power"), rel=1e-14)


@pytest.mark.parametrize("fock_form", ["reduced", "power"])
def test_vertex_p_high_order_saturates_without_raising(const_params, const_lifetime,
                                                       fock_form):
    # on plain floats mass_gap**200 underflows to 0.0 near T_c and overflows far above
    # it; the vertex then saturates to -inf and to 0.0 instead of raising
    base = cr.criticality(Vacuum(), const_params, const_lifetime)
    crit = replace(base, state=Fock(200), slope=float(base.slope),
                   point=replace(base.point, t_c=float(base.point.t_c)))
    t_c = crit.point.t_c
    assert cr.vertex_P(crit, 0.0, 0.0, t_c * (1 + 1e-4), fock_form=fock_form) == -math.inf
    assert cr.vertex_P(crit, 0.0, 0.0, t_c * 101.0, fock_form=fock_form) == 0.0


def test_vertex_p_requires_supercritical_temperature(const_params, const_lifetime):
    c = cr.criticality(Vacuum(), const_params, const_lifetime)
    with pytest.raises(DomainError):
        cr.vertex_P(c, 0.1, 0.0, c.point.t_c * 0.5)


# -- correlation function ---------------------------------------------------------

@pytest.mark.parametrize("anisotropy", [1.3], ids=["anisotropic"])
@pytest.mark.parametrize("n", range(5))
def test_correlation_closed_form_matches_quadrature(const_params, const_lifetime, n,
                                                   anisotropy):
    # power form of Fock(n) is a single pole of order q = n + 1
    crit = cr.criticality(Fock(n), const_params, const_lifetime)
    T = crit.point.t_c * (1 + 1e-4)
    kw = dict(anisotropy=anisotropy, fock_form="power")
    prof = cr.correlation_function(crit, T, **kw)  # its own 20-point grid on [3 xi, 10 xi]
    ref = cr.correlation_quadrature(crit, T, prof.r_grid, **kw)
    assert np.max(np.abs(np.asarray(prof.values) / ref - 1.0)) < 1e-8


def test_correlation_xi_ratio_sqrt_n_plus_one(const_params, const_lifetime):
    crit = cr.criticality(Vacuum(), const_params, const_lifetime)
    T = crit.point.t_c * (1 + 1e-4)
    xi0 = cr.correlation_function(crit, T).xi
    for n in (1, 3, 8):
        xin = cr.correlation_function(
            cr.criticality(Fock(n), const_params, const_lifetime), T).xi
        assert abs(xin / xi0 / math.sqrt(n + 1) - 1.0) < 0.02


def test_correlation_xi_shrinks_sqrt2_on_doubling(const_params, const_lifetime):
    crit = cr.criticality(Vacuum(), const_params, const_lifetime)
    t = 1e-4
    x1 = cr.correlation_function(crit, crit.point.t_c * (1 + t)).xi
    x2 = cr.correlation_function(crit, crit.point.t_c * (1 + 2 * t)).xi
    assert abs(x1 / x2 / math.sqrt(2.0) - 1.0) < 0.01


def test_correlation_profile_positive_logconvex_tail(const_params, const_lifetime):
    crit = cr.criticality(Fock(2), const_params, const_lifetime)
    prof = cr.correlation_function(crit, crit.point.t_c * (1 + 1e-4))
    vals = np.asarray(prof.values)
    assert np.all(vals > 0)
    # log-convexity via divided differences (geometric grid)
    r = np.asarray(prof.r_grid)
    lr = np.log(vals)
    slopes = np.diff(lr) / np.diff(r)
    assert np.all(np.diff(slopes) > -1e-12)
    assert prof.xi > 0
    assert prof.r_squared > 0.999


def test_correlation_needs_supercritical_temperature(const_params, const_lifetime):
    crit = cr.criticality(Vacuum(), const_params, const_lifetime)
    with pytest.raises(DomainError):
        cr.correlation_function(crit, crit.point.t_c)


# -- correlation-length exponent ---------------------------------------------------

def test_nu_closed_form_is_half():
    # xi(t) = sqrt(a / (m t)): the log-log slope is exactly -1/2
    m, a = 3.0, 0.8
    t1, t2 = 1e-5, 1e-3
    xi = lambda t: math.sqrt(a / (m * t))
    slope = (math.log(xi(t2)) - math.log(xi(t1))) / (math.log(t2) - math.log(t1))
    assert slope == pytest.approx(-0.5, abs=1e-15)


def test_nu_thermal(const_params, const_lifetime):
    fit = cr.fit_nu(cr.criticality(Thermal(), const_params, const_lifetime))
    assert abs(fit.exponent - 0.5) <= 0.02


def test_nu_fock4(const_params, const_lifetime):
    fit = cr.fit_nu(cr.criticality(Fock(4), const_params, const_lifetime))
    assert abs(fit.exponent - 0.5) <= 0.02


def test_nu_window_validation(const_params, const_lifetime):
    crit = cr.criticality(Vacuum(), const_params, const_lifetime)
    with pytest.raises(ValueError):
        cr.fit_nu(crit, window=(1e-4, 1e-3))
    with pytest.raises(ValueError):
        cr.fit_nu(crit, n_temps=4)
    with pytest.raises(ValueError):
        cr.fit_nu(crit, n_temps=cr.MAX_NU_POINTS + 1)


@pytest.mark.parametrize("fit, exponent", [
    pytest.param(cr.fit_gamma, 61.0, id="gamma"),
    pytest.param(lambda crit: cr.fit_nu(crit, fock_form="reduced"), 0.5, id="nu-reduced"),
])
def test_high_pole_order_fits_are_finite(const_params, const_lifetime, fit, exponent):
    # the fock:60 vertex leaves the float range on the fit window; the fits read
    # it as a log, so gamma = n + 1 (less the (n+1) t drift at the top of the
    # window) and the reduced form's nu = 1/2 pass the unchanged r^2 gate
    crit = cr.criticality(Fock(60), const_params, const_lifetime)
    f = fit(crit)
    assert abs(f.exponent - exponent) <= 0.05
    assert f.r_squared > 0.9999999


@pytest.mark.parametrize("fit", [
    pytest.param(lambda crit: cr.fit_nu(crit, fock_form="power"), id="nu-power"),
])
def test_high_pole_order_fits_are_rejected(const_params, const_lifetime, fit):
    # the power-form transform of the order-61 pole leaves the float range on
    # the fit window; the fit gate rejects it, with no numpy warning on the way
    crit = cr.criticality(Fock(60), const_params, const_lifetime)
    with pytest.raises(cr.FitRejected, match=r"r\^2 = nan"):
        fit(crit)


def test_constant_fit_data_are_rejected(const_params, const_lifetime):
    # constant data, as from a window whose temperatures all round to T_c, are
    # explained by no line: r^2 is NaN, not 1, and the fit gate rejects them
    assert math.isnan(cr._line_fit(np.log(np.geomspace(1e-6, 1e-3, 24)), np.full(24, 3.0))[1])
    crit = cr.criticality(Thermal(), const_params, const_lifetime)
    with pytest.raises(cr.FitRejected, match=r"r\^2 = nan"):
        cr.fit_gamma(crit, window=(1e-300, 1e-299))


# -- the float fit layer -----------------------------------------------------------

EPS = 2.0**-52


def _exact_slope(x, y):
    xs, ys = [Fraction(v) for v in x], [Fraction(v) for v in y]
    xm, ym = sum(xs) / len(xs), sum(ys) / len(ys)
    return float(sum((a - xm) * (b - ym) for a, b in zip(xs, ys))
                 / sum((a - xm) ** 2 for a in xs))


@pytest.mark.parametrize("n", [8, 20, 24, 1000, 10000])
def test_line_fit_matches_polyfit(n):
    # np.polyfit's own slope sits up to ~12 ulp off the exact least-squares
    # slope at n = 8, and ~40 ulp is what plain left-to-right sums give at
    # n = 10000; the pairwise centred sums stay within 4 ulp of the exact slope
    rng = np.random.default_rng(n)
    for rep in range(3):
        x = np.sort(rng.uniform(-14.0, -7.0, n))
        y = -2.5 * x + 1.0 + rng.normal(0.0, 0.5, n)
        slope, r2, resid = cr._line_fit(x.tolist(), y.tolist())
        assert type(slope) is type(r2) is type(resid) is float
        ref_slope, ref_icpt = np.polyfit(x, y, 1)
        res = y - (ref_slope * x + ref_icpt)
        ref_r2 = 1.0 - np.sum(res**2) / np.sum((y - y.mean()) ** 2)
        assert slope == pytest.approx(ref_slope, rel=16 * EPS, abs=0)
        assert r2 == pytest.approx(ref_r2, rel=4 * EPS, abs=0)
        assert resid == pytest.approx(np.max(np.abs(res)), rel=1e-12)
        if rep == 0:
            assert slope == pytest.approx(_exact_slope(x.tolist(), y.tolist()), rel=4 * EPS, abs=0)


def test_line_fit_degenerate_data():
    x = [math.log(t) for t in cr._geometric_grid(1e-6, 1e-3, 24)]
    for bad in (math.inf, -math.inf, math.nan):
        assert all(math.isnan(v) for v in cr._line_fit(x, [1.0] * 23 + [bad]))
    # the mean of constant data is taken about its first value, so it is exact
    for c in (3.0, 0.1, -7.3e-200, 1e300):
        slope, r2, resid = cr._line_fit(x, [c] * 24)
        assert slope == 0.0 and resid == 0.0 and math.isnan(r2)


@pytest.mark.parametrize("slope", [0.0, -0.0, math.nan])
def test_flat_or_nan_correlation_tail_gives_nan_xi(const_params, const_lifetime, monkeypatch,
                                                   slope):
    # no decay length and no ZeroDivisionError: xi = NaN, which the nu fit rejects
    # and the CLI's non-finite row check turns into exit 3
    crit = cr.criticality(Fock(1), const_params, const_lifetime)
    monkeypatch.setattr(cr, "_line_fit", lambda x, y: (slope, math.nan, math.nan))
    assert math.isnan(cr.correlation_function(crit, crit.point.t_c * 1.01).xi)
    with pytest.raises(cr.FitRejected, match=r"r\^2 = nan"):
        cr.fit_nu(crit)


def _decimal_grid(lo, hi, n):
    with localcontext() as ctx:
        ctx.prec = 50
        step = (Decimal(hi) / Decimal(lo)).ln() / (n - 1)
        return [float(Decimal(lo) * (step * i).exp()) for i in range(n)]


@pytest.mark.parametrize("lo, hi, n", [
    (1e-6, 1e-3, 24), (1e-5, 1e-3, 8), (1e-6, 1e-3, 10000), (1e-300, 1e-299, 24),
    (3 * 0.37, 10 * 0.37, 20), (3 * 2.9e3, 10 * 2.9e3, 20), (3 * 7.1e-4, 10 * 7.1e-4, 20),
])
def test_geometric_grid(lo, hi, n):
    grid = cr._geometric_grid(lo, hi, n)
    assert len(grid) == n and grid[0] == lo and grid[-1] == hi
    assert all(a < b for a, b in zip(grid, grid[1:]))
    assert max(abs(g / r - 1.0) for g, r in zip(grid, _decimal_grid(lo, hi, n))) <= 4 * EPS
    # np.geomspace steps in log10 and is itself off the 50-digit grid by up to
    # 8 ulp on these windows (282 ulp at 1e-300): the two agree to 16 ulp there
    if lo > 1e-100:
        assert np.max(np.abs(np.array(grid) / np.geomspace(lo, hi, n) - 1.0)) <= 16 * EPS


def test_geometric_grid_past_the_float_range():
    # ends whose ratio overflows step through logs, and still give a finite grid
    grid = cr._geometric_grid(1e-300, 1e300, 24)
    assert grid[0] == 1e-300 and grid[-1] == 1e300
    assert all(a < b < math.inf for a, b in zip(grid, grid[1:]))
    assert max(abs(g / r - 1.0) for g, r in zip(grid, _decimal_grid(1e-300, 1e300, 24))) < 1e-12


@pytest.mark.parametrize("fock_form", ["reduced", "power"])
def test_fit_layer_calls_no_polyfit_or_geomspace(const_params, const_lifetime, monkeypatch,
                                                 fock_form):
    # the root scan, `scan`'s grid, the fits and the correlation logs run on
    # Python floats: numpy serves only the Bessel-K transform
    import scipy.special  # noqa: F401  (loaded before numpy is patched)

    def refuse(*args, **kwargs):
        raise AssertionError("called numpy's polyfit, geomspace or log")

    for name in ("polyfit", "geomspace", "log"):
        monkeypatch.setattr(np, name, refuse)
    crit = cr.criticality(DiagonalMixture({0: 0.5, 2: 0.5}), const_params, const_lifetime)
    assert len(cmd_scan(RunConfig()).rows) == 2 * 60
    assert abs(cr.fit_gamma(crit).exponent - 3.0) <= 0.05
    assert abs(cr.fit_nu(crit, fock_form=fock_form).exponent - 0.5) <= 0.02
    assert cr.correlation_function(crit, crit.point.t_c * 1.001, fock_form=fock_form).xi > 0
