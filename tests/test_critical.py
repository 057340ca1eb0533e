import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import N_SCAN, RTOL, _bisect

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
    crit = cr.find_tc(p, lt, state, convention)
    assert crit.t_c == pytest.approx(a / (1.0 - 2.0 * c2 * s**2), rel=1e-12)


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
    # M = A/T + B has no turning point, so the table is the coarse scan alone
    p = ModelParams.with_gtilde(1e-12, 1.0, 0.0, 100.0, 1.0)
    lt = ConstantLifetime(1.0)
    with pytest.raises(cr.BracketError) as err:
        cr.find_tc(p, lt, Vacuum())
    mass = ladder.kernel_curves(p, lt).mass
    grid = cr._geometric_grid(1e-8 * p.e_f, 0.99 * p.e_f, cr.N_COARSE)
    assert err.value.scan_table == [(t, mass(t)) for t in grid]


# The generic curve: the pole mass read off the kernel-terms tuple at each T, the
# N_SCAN-point geometric scan plus bisection on it, and its Richardson
# difference.  The reference for find_tc, which reads the curves that resolve
# their factors once, a coarse scan, Newton and the analytic slope.

def _reference_mass(p, lt, convention, state):
    terms = ladder.kernel_curves(p, lt, convention, state).terms
    return lambda T: KernelScalars(bare_vertex(p), *terms(T)).pole_mass


def _reference_criticality(p, lt, state, convention):
    lo_f, hi_f = cr.SCAN_RANGE
    ts = cr._geometric_grid(lo_f * p.e_f, hi_f * p.e_f, N_SCAN)
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
    tc = _bisect(f, lo, hi)
    slope = _reference_slope(p, lt, state, convention, tc)
    # the reference carries no curves: it reads them as kernel terms per T
    return cr.Criticality(state, p, None, tc, (lo, hi), abs(f(tc)), len(brackets), slope)


# central-difference step of the reference slope, relative to T_c
SLOPE_STEP = 1e-6


def _reference_slope(p, lt, state, convention, tc):
    f = _reference_mass(p, lt, convention, state)
    h = SLOPE_STEP * tc
    d1 = (f(tc + h) - f(tc - h)) / (2 * h)
    d2 = (f(tc + h / 2) - f(tc - h / 2)) / h
    return -(4 * d2 - d1) / 3


def _root_search(find, p, lt, state, convention):
    """The ``Criticality`` of one search, or the ``BracketError`` it raised."""
    try:
        return find(p, lt, state, convention)
    except cr.BracketError as err:
        return err


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


def _root_cases():
    cases = [(p, lt, state, convention)
             for p, lt, convention in _seeded_points(12) for state in ROOT_STATES]
    for name in ("reference", "convention-heavy"):
        cfg = RunConfig.parse((CONFIGS / f"{name}.cfg").read_text())
        cases += [(cfg.params(), cfg.lifetime_model(), state, cfg.convention)
                  for state in ROOT_STATES]
    # no root on the scan: the closed-form root 1e-12 lies below it
    cases.append((ModelParams.with_gtilde(1e-12, 1.0, 0.0, 100.0, 1.0), ConstantLifetime(1.0),
                  Vacuum(), "canonical"))
    return cases


def _linear_mass(lt, state):
    """M = A/T + B exactly: a constant lifetime and no equilibrium dressing."""
    return isinstance(lt, ConstantLifetime) and not (isinstance(state, Thermal)
                                                     and state.beta is None)


def test_root_search_matches_reference_scan_and_bisection():
    # where the scan still decides: Fermi-liquid lifetimes, the equilibrium
    # thermal state, and a closed-form root outside the scan.  The coarse scan
    # counts the crossings the reference's 512 points count, Newton's root lies
    # in the reference's bracket within its bisection width, and the analytic
    # slope meets the Richardson difference
    two_crossings = no_root = scanned = 0
    for case in _root_cases():
        want = _root_search(_reference_criticality, *case)
        no_ref_root = isinstance(want, cr.BracketError)
        if _linear_mass(case[1], case[2]) and not no_ref_root:
            continue
        got = _root_search(cr.find_tc, *case)
        assert isinstance(got, cr.BracketError) == no_ref_root, case
        if no_ref_root:
            # the table holds the points the search evaluated, in increasing T
            p, lt, state, convention = case
            mass = ladder.kernel_curves(p, lt, convention, state).mass
            ts = [t for t, _ in got.scan_table]
            assert ts == sorted(set(ts))
            assert (ts[0], ts[-1]) == (cr.SCAN_RANGE[0] * p.e_f, cr.SCAN_RANGE[1] * p.e_f)
            assert all(m == mass(t) for t, m in got.scan_table)
        else:
            assert got.n_brackets == want.n_brackets, case
            assert want.bracket[0] <= got.t_c <= want.bracket[1], case
            assert got.t_c == pytest.approx(want.t_c, rel=RTOL, abs=0), case
            assert got.residual <= 1e-14, case
            assert got.slope == pytest.approx(want.slope, rel=1e-8, abs=0), case
        scanned += 1
        no_root += no_ref_root
        two_crossings += not no_ref_root and got.n_brackets == 2
    # the reference and convention-heavy presets' equilibrium thermal roots cross twice
    assert two_crossings >= 2
    assert no_root >= 1
    assert scanned >= 40


def test_root_search_counts_the_reference_crossings_on_a_seeded_sweep(monkeypatch):
    # 300 seeded points x {vacuum, equilibrium thermal, beta = 3}, where the scan
    # decides: the crossing count and the no-root cases of the reference's 512
    # points, and no refine past its cap of mass calls
    refine_calls = []
    newton = cr._newton

    def counting(mass, *args):
        calls = []
        root = newton(lambda T: calls.append(T) or mass(T), *args)
        refine_calls.append(len(calls))
        return root

    monkeypatch.setattr(cr, "_newton", counting)
    multi = no_root = 0
    for p, lt, convention in _seeded_points(300):
        for state in (Vacuum(), Thermal(), Thermal(3.0)):
            case = (p, lt, state, convention)
            want = _root_search(_reference_criticality, *case)
            no_ref_root = isinstance(want, cr.BracketError)
            if _linear_mass(lt, state) and not no_ref_root:
                continue
            got = _root_search(cr.find_tc, *case)
            if no_ref_root or isinstance(got, cr.BracketError):
                assert isinstance(got, cr.BracketError) == no_ref_root, case
                no_root += 1
            else:
                assert got.n_brackets == want.n_brackets, case
                multi += got.n_brackets > 1
    assert multi >= 100 and no_root >= 100
    assert max(refine_calls) <= cr.MAX_REFINE


@pytest.mark.parametrize("factor", [0.5, 0.55, 2.0])
def test_newton_safeguard_converges_on_a_wrong_slope(fl_params, fl_lifetime, factor):
    # a slope off by a constant factor makes Newton overshoot or creep: the
    # safeguard's bisection still reaches the same root within the cap
    crit = cr.find_tc(fl_params, fl_lifetime, Vacuum())
    curves = crit.curves
    lo, hi = crit.bracket
    t, f = cr._newton(curves.mass, lambda T: factor * curves.slope(T), lo, hi,
                      curves.mass(lo) - 1.0)
    assert t == pytest.approx(crit.t_c, rel=4 * 2.0**-52, abs=0)
    assert abs(f) <= 1e-14


def test_closed_form_root_matches_reference_scan():
    # M = A/T + B: T_c = A / (1 - B) to the rounding of two float operations,
    # bracketing itself, and the slope A / T_c**2 against the Richardson
    # difference of the generic curve
    closed = 0
    for p, lt, state, convention in _root_cases():
        ref = _root_search(_reference_criticality, p, lt, state, convention)
        if not _linear_mass(lt, state) or isinstance(ref, cr.BracketError):
            continue
        got = cr.find_tc(p, lt, state, convention)
        a, b = got.curves.split
        exact = Fraction(a) / (1 - Fraction(b))
        assert abs(Fraction(got.t_c) - exact) <= 2 * Fraction(math.ulp(got.t_c))
        assert got.t_c == pytest.approx(ref.t_c, rel=RTOL, abs=0)
        assert ref.bracket[0] <= got.t_c <= ref.bracket[1]
        assert (got.bracket, got.n_brackets) == ((got.t_c, got.t_c), ref.n_brackets)
        assert got.residual == abs(got.curves.mass(got.t_c) - 1.0)
        assert got.slope == a / (got.t_c * got.t_c)
        assert got.slope == pytest.approx(ref.slope, rel=1e-8, abs=0)
        closed += 1
    assert closed >= 20


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
    for n_scan in (cr.N_COARSE, 4 * cr.N_COARSE):
        monkeypatch.setattr(cr, "N_COARSE", n_scan)
        calls.clear()
        for state in (Vacuum(), Thermal(2.0)):
            cr.find_tc(const_params, const_lifetime, state)
        with pytest.raises(cr.BracketError):  # no root: the scan runs
            cr.find_tc(ModelParams.with_gtilde(1e-12, 1.0, 0.0, 100.0, 1.0), const_lifetime,
                       Vacuum())
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 2


def test_find_tc_refuses_a_root_with_no_positive_slope():
    # the equilibrium thermal mass of gtilde = 1e-12 with a rate of 1e-10
    # crosses 1 upward only, so it has no instability root
    cfg = RunConfig.parse("model.g0 = 1.2566370614359172e-05\nmodel.lifetime = constant:1e-10\n")
    with pytest.raises(cr.SlopeError, match=r"^mass slope -0\.0565\d* is not positive at T_c=35\.35"):
        cr.find_tc(cfg.params(), cfg.lifetime_model(), Thermal(), cfg.convention)


def test_fitted_pole_matches_kernel_root(const_params, const_lifetime, fitted_pole_location):
    crit = cr.find_tc(const_params, const_lifetime, Vacuum())
    for n in (0, 1, 3, 5):
        pole = fitted_pole_location(n, const_params, const_lifetime)
        assert pole == pytest.approx(crit.t_c, rel=1e-10)


# -- mass slope ----------------------------------------------------------------

def test_criticality_builds_no_kernel_scalars(const_params, const_lifetime, fl_params,
                                              fl_lifetime, monkeypatch):
    calls = []
    from_model = KernelScalars.from_model.__func__
    monkeypatch.setattr(KernelScalars, "from_model", classmethod(
        lambda cls, *a, **kw: calls.append(a) or from_model(cls, *a, **kw)))
    crits = [cr.find_tc(p, lt, state)
             for p, lt in ((const_params, const_lifetime), (fl_params, fl_lifetime))
             for state in (Vacuum(), Thermal(), Thermal(2.0))]
    assert calls == []
    # the scan runs on Python floats, so T_c is one too
    assert all(type(c.t_c) is float for c in crits)


def test_mass_slope_analytic():
    # pure static channel M = A/T: T_c = A and m = A/T_c^2 = 1/A
    p = ModelParams.with_gtilde(0.5, 1.0, 0.0, 100.0, 1.0)
    lt = ConstantLifetime(1e6)  # c2 ~ 2.5e-13, negligible
    assert cr.find_tc(p, lt, Vacuum()).slope == pytest.approx(1.0 / 0.5, rel=1e-8)


def test_mass_slope_vs_analytic_derivative(const_params, const_lifetime):
    crit = cr.find_tc(const_params, const_lifetime, Vacuum())
    assert crit.slope == pytest.approx(0.02 / crit.t_c**2, rel=1e-8)


def _mp_mass(mpmath, p, lt, state, convention):
    """The pole mass written out in mpmath: f_a g delta_c / T + 2 f_c (g delta_c s / rate)**2."""
    fa, fc = ladder.CONVENTIONS[convention]
    g, dc, e_f = (mpmath.mpf(v) for v in (p.gtilde, p.delta_c, p.e_f))

    def mass(T):
        if isinstance(lt, ConstantLifetime):
            rate = mpmath.mpf(lt.rate)
        else:
            rate = mpmath.pi * T**2 / (8 * e_f) * mpmath.log(e_f / T)
        c2 = fc * (g * dc / rate) ** 2
        if isinstance(state, Thermal):
            beta = 1 / T if state.beta is None else mpmath.mpf(state.beta)
            c2 *= mpmath.coth(beta * dc / 2) ** 2
        return fa * g * dc / T + 2 * c2

    return mass


def test_mass_slope_matches_mpmath():
    # the analytic slope against a 50-digit numerical derivative of the written-out
    # mass at the float T_c, for every lifetime, convention and state of the root cases
    mpmath = pytest.importorskip("mpmath")
    cases = _root_cases()
    cfg = RunConfig.parse((CONFIGS / "fermi-liquid.cfg").read_text())
    cases += [(cfg.params(), cfg.lifetime_model(), state, cfg.convention) for state in ROOT_STATES]
    checked = 0
    with mpmath.workdps(50):
        for p, lt, state, convention in cases:
            try:
                crit = cr.find_tc(p, lt, state, convention)
            except cr.BracketError:
                continue
            mass = _mp_mass(mpmath, p, lt, state, convention)
            want = -mpmath.diff(mass, mpmath.mpf(crit.t_c))
            assert abs(crit.slope / want - 1) <= 1e-15, (p, lt, state, convention)
            checked += 1
    assert checked >= 60


def test_mass_slope_far_below_the_photon_gap():
    # an equilibrium thermal root at delta_c / T_c = 1000: the thermal log-derivative
    # (delta_c / T**2) / sinh(delta_c / T) underflows to 0 and the slope is the vacuum's
    p = ModelParams.with_gtilde(5e-4, 1.0, 0.0, 100.0, 1.0)
    lt = ConstantLifetime(1e-3)  # c2 = 0.25, B = 0.5: T_c = 1e-3
    vac, th = cr.find_tc(p, lt, Vacuum()), cr.find_tc(p, lt, Thermal())
    assert p.delta_c / th.t_c > 710
    assert th.t_c == pytest.approx(vac.t_c, rel=RTOL)
    assert math.isfinite(th.slope) and th.slope > 0
    assert th.slope == pytest.approx(vac.slope, rel=4 * RTOL)


# -- susceptibility exponent ----------------------------------------------------

def test_gamma_thermal(const_params, const_lifetime):
    fit = cr.fit_gamma(cr.find_tc(const_params, const_lifetime, Thermal()))
    assert abs(fit.exponent - 1.0) <= 0.02
    assert fit.r_squared > 0.999


def test_gamma_vacuum(const_params, const_lifetime):
    fit = cr.fit_gamma(cr.find_tc(const_params, const_lifetime, Fock(0)))
    assert abs(fit.exponent - 1.0) <= 0.02


def test_gamma_fock3(const_params, const_lifetime):
    fit = cr.fit_gamma(cr.find_tc(const_params, const_lifetime, Fock(3)))
    assert abs(fit.exponent - 4.0) <= 0.05


def test_gamma_mixture_pole_order(const_params, const_lifetime):
    mix = DiagonalMixture({0: 0.5, 2: 0.5})
    fit = cr.fit_gamma(cr.find_tc(const_params, const_lifetime, mix))
    assert abs(fit.exponent - 3.0) <= 0.05


def test_gamma_invariant_under_vertex_rescale_and_convention():
    base = ModelParams.with_gtilde(0.02, 1.0, 0.0, 100.0, 1.0)
    lt = ConstantLifetime(0.2)  # c2 small enough that every convention is subcritical
    fits = [cr.fit_gamma(cr.find_tc(base, lt, Fock(2), convention=c))
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
        cr.fit_gamma(cr.find_tc(const_params, const_lifetime, Vacuum()), points=5)
    with pytest.raises(ValueError):
        cr.fit_gamma(cr.find_tc(const_params, const_lifetime, Vacuum()),
                     points=cr.MAX_GAMMA_POINTS + 1)


# -- momentum-resolved vertex ----------------------------------------------------

def test_vertex_p_reduces_to_on_shell_pole(const_params, const_lifetime):
    crit = cr.find_tc(const_params, const_lifetime, Vacuum())
    T = crit.t_c * 1.001
    for n in (0, 2):
        v = cr.momentum_vertex(cr.find_tc(const_params, const_lifetime, Fock(n)), T)(0.0, 0.3)
        expect = bare_vertex(const_params) / (crit.slope * (T - crit.t_c)) ** (n + 1)
        assert v == pytest.approx(expect, rel=1e-12)


def test_vertex_p_angular_factor(const_params, const_lifetime):
    crit = cr.find_tc(const_params, const_lifetime, Vacuum())
    T = crit.t_c * 1.001
    a = 0.7
    v = cr.momentum_vertex(crit, T, anisotropy=a)(2.0, math.pi / 2)
    expect = bare_vertex(const_params) / (4.0 * a + crit.slope * (T - crit.t_c))
    assert v == pytest.approx(expect, rel=1e-12)


def test_vertex_p_inversion_symmetry(const_params, const_lifetime):
    crit = cr.find_tc(const_params, const_lifetime, Fock(1))
    T = crit.t_c * 1.0005
    vertex = cr.momentum_vertex(crit, T)
    rng = np.random.default_rng(7)
    for _ in range(12):
        P, th = rng.uniform(0, 3), rng.uniform(0, 2 * math.pi)
        v1 = vertex(P, th)
        v2 = vertex(P, th + math.pi)
        v3 = vertex(P, -th)
        assert v1 == pytest.approx(v2, rel=1e-14)
        assert v1 == pytest.approx(v3, rel=1e-14)


def test_vertex_p_forms_agree_at_small_momentum(const_params, const_lifetime):
    crit = cr.find_tc(const_params, const_lifetime, Vacuum())
    T = crit.t_c * 1.001
    mass = crit.slope * (T - crit.t_c)
    p_small = 1e-3 * math.sqrt(mass)
    for n in (1, 4):
        c = crit._replace(state=Fock(n))
        full = cr.momentum_vertex(c, T, fock_form="power")
        red = cr.momentum_vertex(c, T, fock_form="reduced")
        assert red(p_small, 0.9) == pytest.approx(full(p_small, 0.9), rel=1e-5)
        assert red(0.0, 0.0) == pytest.approx(full(0.0, 0.0), rel=1e-14)


@pytest.mark.parametrize("fock_form", ["reduced", "power"])
def test_vertex_p_high_order_saturates_without_raising(const_params, const_lifetime,
                                                       fock_form):
    # on plain floats mass_gap**200 underflows to 0.0 near T_c and overflows far above
    # it; the vertex then saturates to -inf and to 0.0 instead of raising
    base = cr.find_tc(const_params, const_lifetime, Vacuum())
    crit = base._replace(state=Fock(200), slope=float(base.slope), t_c=float(base.t_c))
    t_c = crit.t_c
    assert cr.momentum_vertex(crit, t_c * (1 + 1e-4), fock_form=fock_form)(0.0, 0.0) == -math.inf
    assert cr.momentum_vertex(crit, t_c * 101.0, fock_form=fock_form)(0.0, 0.0) == 0.0


def test_vertex_p_requires_supercritical_temperature(const_params, const_lifetime):
    c = cr.find_tc(const_params, const_lifetime, Vacuum())
    with pytest.raises(DomainError):
        cr.momentum_vertex(c, c.t_c * 0.5)


# -- correlation function ---------------------------------------------------------

@pytest.mark.parametrize("anisotropy", [1.3], ids=["anisotropic"])
@pytest.mark.parametrize("n", range(5))
def test_correlation_closed_form_matches_quadrature(const_params, const_lifetime, n,
                                                   anisotropy):
    # power form of Fock(n) is a single pole of order q = n + 1
    crit = cr.find_tc(const_params, const_lifetime, Fock(n))
    T = crit.t_c * (1 + 1e-4)
    kw = dict(anisotropy=anisotropy, fock_form="power")
    prof = cr.correlation_function(crit, T, **kw)  # its own 20-point grid on [3 xi, 10 xi]
    ref = cr.correlation_quadrature(crit, T, prof.r_grid, **kw)
    assert np.max(np.abs(np.exp(prof.log_values) / ref - 1.0)) < 1e-8


def test_correlation_xi_ratio_sqrt_n_plus_one(const_params, const_lifetime):
    crit = cr.find_tc(const_params, const_lifetime, Vacuum())
    T = crit.t_c * (1 + 1e-4)
    xi0 = cr.correlation_function(crit, T).xi
    for n in (1, 3, 8):
        xin = cr.correlation_function(
            cr.find_tc(const_params, const_lifetime, Fock(n)), T).xi
        assert abs(xin / xi0 / math.sqrt(n + 1) - 1.0) < 0.02


def test_correlation_xi_shrinks_sqrt2_on_doubling(const_params, const_lifetime):
    crit = cr.find_tc(const_params, const_lifetime, Vacuum())
    t = 1e-4
    x1 = cr.correlation_function(crit, crit.t_c * (1 + t)).xi
    x2 = cr.correlation_function(crit, crit.t_c * (1 + 2 * t)).xi
    assert abs(x1 / x2 / math.sqrt(2.0) - 1.0) < 0.01


def test_correlation_profile_positive_logconvex_tail(const_params, const_lifetime):
    crit = cr.find_tc(const_params, const_lifetime, Fock(2))
    prof = cr.correlation_function(crit, crit.t_c * (1 + 1e-4))
    lr = np.asarray(prof.log_values)
    assert np.all(np.isfinite(lr))
    # log-convexity via divided differences (geometric grid)
    r = np.asarray(prof.r_grid)
    slopes = np.diff(lr) / np.diff(r)
    assert np.all(np.diff(slopes) > -1e-12)
    assert prof.xi > 0
    assert prof.r_squared > 0.999


def test_correlation_needs_supercritical_temperature(const_params, const_lifetime):
    crit = cr.find_tc(const_params, const_lifetime, Vacuum())
    with pytest.raises(DomainError):
        cr.correlation_function(crit, crit.t_c)


# -- correlation-length exponent ---------------------------------------------------

def test_nu_closed_form_is_half():
    # xi(t) = sqrt(a / (m t)): the log-log slope is exactly -1/2
    m, a = 3.0, 0.8
    t1, t2 = 1e-5, 1e-3
    xi = lambda t: math.sqrt(a / (m * t))
    slope = (math.log(xi(t2)) - math.log(xi(t1))) / (math.log(t2) - math.log(t1))
    assert slope == pytest.approx(-0.5, abs=1e-15)


def test_nu_thermal(const_params, const_lifetime):
    fit = cr.fit_nu(cr.find_tc(const_params, const_lifetime, Thermal()))
    assert abs(fit.exponent - 0.5) <= 0.02


def test_nu_fock4(const_params, const_lifetime):
    fit = cr.fit_nu(cr.find_tc(const_params, const_lifetime, Fock(4)))
    assert abs(fit.exponent - 0.5) <= 0.02


def test_nu_window_validation(const_params, const_lifetime):
    crit = cr.find_tc(const_params, const_lifetime, Vacuum())
    with pytest.raises(ValueError):
        cr.fit_nu(crit, window=(1e-4, 1e-3))
    with pytest.raises(ValueError):
        cr.fit_nu(crit, n_temps=4)
    with pytest.raises(ValueError):
        cr.fit_nu(crit, n_temps=cr.MAX_NU_POINTS + 1)


def _per_t_fit_nu(crit, window=(1e-5, 1e-3), n_temps=8, **kw):
    """The nu fit with ``correlation_function`` run at every window temperature."""
    return cr._fit_exponent("nu", crit, window, n_temps,
                            lambda T: math.log(cr.correlation_function(crit, T, **kw).xi))


def _preset_crit(name, state):
    cfg = RunConfig.parse((CONFIGS / f"{name}.cfg").read_text())
    return cr.find_tc(cfg.params(), cfg.lifetime_model(), state, cfg.convention)


@pytest.mark.parametrize("preset", ["reference", "fermi-liquid"])
@pytest.mark.parametrize("fock_form", ["reduced", "power"])
@pytest.mark.parametrize("state", [Vacuum(), Fock(3), Fock(60), Thermal(), Thermal(2.0)],
                         ids=["vacuum", "fock:3", "fock:60", "thermal", "thermal:beta=2"])
def test_single_term_nu_matches_per_temperature_route(preset, fock_form, state):
    # one Lorentzian term: xi sqrt(mass) is the same at every T, so one profile
    # gives every window temperature's xi
    crit = _preset_crit(preset, state)
    got = cr.fit_nu(crit, fock_form=fock_form)
    want = _per_t_fit_nu(crit, fock_form=fock_form)
    # the per-T route rounds a fresh transform at each T; at pole order 61 the
    # logs of K carry ~1e-13, which reaches nu as up to 2e-14
    order_61 = state == Fock(60) and fock_form == "power"
    assert abs(got.exponent - want.exponent) <= (1e-13 if order_61 else 1e-15)
    assert abs(got.exponent - 0.5) <= 1e-9
    assert got.window == want.window and got.r_squared > cr.R2_MIN


@pytest.mark.parametrize("fock_form", ["reduced", "power"])
def test_mixture_nu_keeps_the_per_temperature_route(const_params, const_lifetime, fock_form):
    crit = cr.find_tc(const_params, const_lifetime, DiagonalMixture({0: 0.5, 2: 0.5}))
    assert cr.fit_nu(crit, fock_form=fock_form) == _per_t_fit_nu(crit, fock_form=fock_form)


@pytest.mark.parametrize("state", [Vacuum(), Fock(3), Thermal(), Thermal(2.0)])
def test_single_term_nu_runs_one_profile(const_params, const_lifetime, monkeypatch, state):
    calls = []
    transform = cr._log_bessel_transform
    monkeypatch.setattr(cr, "_log_bessel_transform",
                        lambda *a: calls.append(a) or transform(*a))
    crit = cr.find_tc(const_params, const_lifetime, state)
    for fock_form in ("reduced", "power"):
        calls.clear()
        cr.fit_nu(crit, fock_form=fock_form)
        assert len(calls) <= 2


@pytest.mark.parametrize("state", [Vacuum(), Thermal(2.0), DiagonalMixture({0: 0.5, 2: 0.5})])
def test_nu_window_touching_t_c_raises_as_per_temperature(const_params, const_lifetime, state):
    # every temperature of the window rounds to T_c, where no vertex exists
    crit = cr.find_tc(const_params, const_lifetime, state)
    window = (1e-300, 1e-297)
    with pytest.raises(DomainError) as want:
        _per_t_fit_nu(crit, window)
    with pytest.raises(DomainError) as got:
        cr.fit_nu(crit, window)
    assert str(got.value) == str(want.value)
    for kw, error in ((dict(anisotropy=0.0), ValueError), (dict(fock_form="nope"), ValueError)):
        with pytest.raises(error) as want:
            _per_t_fit_nu(crit, **kw)
        with pytest.raises(error) as got:
            cr.fit_nu(crit, **kw)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("fit, exponent", [
    pytest.param(cr.fit_gamma, 61.0, id="gamma"),
    pytest.param(lambda crit: cr.fit_nu(crit, fock_form="reduced"), 0.5, id="nu-reduced"),
    pytest.param(lambda crit: cr.fit_nu(crit, fock_form="power"), 0.5, id="nu-power"),
])
def test_high_pole_order_fits_are_finite(const_params, const_lifetime, fit, exponent):
    # the fock:60 vertex and the power form's order-61 transform leave the float
    # range on the fit window; the fits read both as logs, so gamma = n + 1
    # (less the (n+1) t drift at the top of the window) and nu = 1/2 in either
    # form pass the unchanged r^2 gate
    crit = cr.find_tc(const_params, const_lifetime, Fock(60))
    f = fit(crit)
    assert abs(f.exponent - exponent) <= 0.05
    assert f.r_squared > 0.9999999


def test_constant_fit_data_are_rejected(const_params, const_lifetime):
    # constant data are explained by no line: r^2 is NaN, not 1, and the fit
    # gate rejects them.  A window whose temperatures all round to T_c reads
    # the kernel on its root, |M(T_c) - 1| at the rounding level after Newton,
    # which the vertex refuses; read from a T_c above the root, the same window
    # gives constant vertex data
    assert math.isnan(cr._line_fit(np.log(np.geomspace(1e-6, 1e-3, 24)), np.full(24, 3.0))[1])
    crit = cr.find_tc(const_params, const_lifetime, Thermal())
    with pytest.raises(ladder.CriticalityError, match=r"\|1 - pole_mass\| = .* < 1e-14"):
        cr.fit_gamma(crit, window=(1e-300, 1e-299))
    above = crit._replace(t_c=crit.t_c * (1 + 1e-9))
    with pytest.raises(cr.FitRejected, match=r"r\^2 = nan"):
        cr.fit_gamma(above, window=(1e-300, 1e-299))


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
    crit = cr.find_tc(const_params, const_lifetime, Fock(1))
    monkeypatch.setattr(cr, "_line_fit", lambda x, y: (slope, math.nan, math.nan))
    assert math.isnan(cr.correlation_function(crit, crit.t_c * 1.01).xi)
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
    # Python floats: nothing in the package calls numpy
    def refuse(*args, **kwargs):
        raise AssertionError("called numpy's polyfit, geomspace or log")

    for name in ("polyfit", "geomspace", "log"):
        monkeypatch.setattr(np, name, refuse)
    crit = cr.find_tc(const_params, const_lifetime, DiagonalMixture({0: 0.5, 2: 0.5}))
    assert len(cmd_scan(RunConfig()).rows) == 2 * 60
    assert abs(cr.fit_gamma(crit).exponent - 3.0) <= 0.05
    assert abs(cr.fit_nu(crit, fock_form=fock_form).exponent - 0.5) <= 0.02
    assert cr.correlation_function(crit, crit.t_c * 1.001, fock_form=fock_form).xi > 0
