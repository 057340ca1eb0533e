import math
from dataclasses import replace

import numpy as np
import pytest

from cavitypairing import critical as cr
from cavitypairing.ladder import KernelScalars, bare_vertex
from cavitypairing.model import (
    ConstantLifetime,
    DiagonalMixture,
    DomainError,
    Fock,
    ModelParams,
    Thermal,
    Vacuum,
)


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


@pytest.mark.parametrize("fit", [
    pytest.param(cr.fit_gamma, id="gamma"),
    pytest.param(lambda crit: cr.fit_nu(crit, fock_form="reduced"), id="nu-reduced"),
    pytest.param(lambda crit: cr.fit_nu(crit, fock_form="power"), id="nu-power"),
])
def test_high_pole_order_fits_are_rejected(const_params, const_lifetime, fit):
    # the fock:60 vertex and its power-form transform leave the float range on
    # the fit window; the fit gate rejects them, with no numpy warning on the way
    crit = cr.criticality(Fock(60), const_params, const_lifetime)
    with pytest.raises(cr.FitRejected, match=r"r\^2 = nan"):
        fit(crit)
