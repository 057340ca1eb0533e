"""The invariant suite that ``verify`` runs: 14 named checks of the float pipeline.

Each check is a function ``check(cfg, inject_fault) -> (passed, detail)``,
and ``CHECKS`` lists them once, in report order; ``cli.run_verify`` runs them
in one loop and names each row after its function.  Every check runs on
couplings of its own: of the config it reads only the kernel convention and
the anisotropy, and only ``oracle_equivalence`` reads ``inject_fault``.

The checks compare the float pipeline (``model``, ``ladder``, ``critical``
and the commands' root dispatch ``cli._criticalities``) against references
it does not use: the exact recursion and series of ``ladder``, the 3-sector
solve and the loop quadratures of ``sectors``, the contour quadrature of
``critical.correlation_quadrature``, and the scans, bisections and Richardson
differences written out here.  Program functions are called through their
modules, so a function rebound there is the one that runs.  Of the commands
only ``verify`` loads this module, and ``sectors`` with it.
"""

import math
import random
from dataclasses import replace
from fractions import Fraction

from . import cli, critical, ladder, model, sectors
from .ladder import CONVENTIONS, KernelScalars
from .model import DiagonalMixture, Fock, ModelParams, Thermal, Vacuum
from .useries import RationalFunction, taylor

# the model, lifetime and T the quadrature checks run at, whatever the config
# says: delta_c = 1, delta_c * tau = 1e3 and T / delta_c = 0.4
_VERIFY_DCTAU = 1e3
_VERIFY_POINT = (ModelParams(g0=1.0, delta_c=1.0, q0=0.0, e_f=100.0, k_f=1.0),
                 model.ConstantLifetime(1.0 / _VERIFY_DCTAU), 0.4)
# the convention-heavy couplings, subcritical under every convention, that the
# root, slope, correlation and vertex checks run on, at the config's convention
_ROOT_CONFIG = cli.RunConfig(g0=ModelParams.with_gtilde(0.02, 1.0, 0.0, 100.0, 1.0).g0,
                             delta_c=1.0, q0=0.0, e_f=100.0, k_f=1.0, lifetime="constant:0.2")


def _root_criticalities(cfg, states):
    """The states' roots on the couplings of ``_ROOT_CONFIG``, by the commands' root dispatch."""
    return cli._criticalities(replace(_ROOT_CONFIG, convention=cfg.convention), states)


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


def _scan_root(mass, e_f: float) -> float:
    """First downward crossing of mass(T) = 1: a 512-point scan of [1e-8, 0.99] E_F, bisected."""
    lo, hi = 1e-8 * e_f, 0.99 * e_f
    ts = [lo * (hi / lo) ** (i / 511) for i in range(512)]
    lo, hi = next((t0, t1) for t0, t1 in zip(ts, ts[1:]) if mass(t0) > 1.0 >= mass(t1))
    while hi - lo > 1e-14 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if mass(mid) > 1.0 else (lo, mid)
    return 0.5 * (lo + hi)


def _richardson_slope(mass, t: float) -> float:
    """-dM/dT at t: central differences of steps 1e-6 t and 5e-7 t, Richardson-extrapolated."""
    h = 1e-6 * t
    d1 = (mass(t + h) - mass(t - h)) / (2 * h)
    d2 = (mass(t + h / 2) - mass(t - h / 2)) / h
    return -(4 * d2 - d1) / 3


def thermal_dressing(cfg, inject_fault):
    # the thermal dressing, read from the package's statistical factor and kernel
    # terms: s = (1+x)/(1-x) and c2 -> c2 s**2 at x = exp(-beta delta_c)
    p, lt, T = _VERIFY_POINT
    c2 = ladder.kernel_curves(p, lt, cfg.convention).terms(T)[1]
    worst = 0.0
    for state in (Thermal(2.0 / p.delta_c), Thermal()):
        x = math.exp(-(state.beta or 1.0 / T) * p.delta_c)
        s = (1 + x) / (1 - x)
        dressed = ladder.kernel_curves(p, lt, cfg.convention, state).terms(T)[1]
        worst = max(worst, abs(model.statistical_factor(state, p.delta_c, T) / s - 1),
                    abs(dressed / (c2 * s * s) - 1))
    return worst < 1e-14, (
        f"max rel dev {worst:.3e} of s and c2 s**2 from (1+x)/(1-x), x = exp(-beta delta_c), "
        "at beta delta_c = 2 and in equilibrium")


def oracle_equivalence(cfg, inject_fault):
    # recursion vs series oracle on random rational kernels
    rng = random.Random(20240917)
    reps = [ladder.oracle_check(12, _random_rational_kernel(rng), mutate_f=inject_fault)
            for _ in range(5)]
    worst = max(rep.max_abs_discrepancy for rep in reps)
    return all(rep.ok for rep in reps), f"n<=12, 5 kernels, max discrepancy {worst}"


def thermal_resummation(cfg, inject_fault):
    k0 = KernelScalars(gamma0=Fraction(-1), a_bcs=Fraction(1, 10), c2=Fraction(1, 100))
    rep = ladder.thermal_resummation_check(k0, Fraction(1, 3))
    return (rep.residual < 1e-8 and rep.tail < 1e-12,
            f"residual {rep.residual:.3e}, tail {rep.tail:.3e}, N={rep.n_used}")


def gaussian_collapse(cfg, inject_fault):
    kg = KernelScalars(gamma0=Fraction(-1), a_bcs=Fraction(3, 10), c2=Fraction(0))
    hier = ladder.solve_fock_hierarchy(8, kg)
    collapse = all(v == hier[0] for v in hier)
    kz = KernelScalars(gamma0=Fraction(-1), a_bcs=Fraction(3, 10), c2=Fraction(1, 100),
                       gtilde=Fraction(1, 100), dct=Fraction(10))
    sol_g = sectors.solve_sector_system(sectors.build_sector_system(kz, zero_dk=True))
    collapse2 = sol_g == RationalFunction((Fraction(-1),)) / RationalFunction((Fraction(7, 10),))
    return (collapse and collapse2,
            "c2=0 hierarchy constant; zero-Keldysh sector solve is state-free")


def sector_chain(cfg, inject_fault):
    kx = KernelScalars(gamma0=Fraction(-2), a_bcs=Fraction(1, 4), c2=Fraction(1, 64),
                       gtilde=Fraction(1, 80), dct=Fraction(10))
    sol = sectors.solve_sector_system(sectors.build_sector_system(kx))
    closed = ladder.intermediate_vertex_closed_form(kx)
    series = taylor(sol / RationalFunction((1, -1)), 10)
    series_match = series == list(ladder.solve_fock_hierarchy(10, kx))
    return (sol == closed and series_match,
            "linear solve == closed form; series == hierarchy (exact)")


def vertex_closed_form(cfg, inject_fault):
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
    return worst <= 4.0, (
        f"max |dlog|Gamma|| = {worst:.2f} eps (n+1+|log|Gamma||) vs exact recursion, "
        "n <= 60 and mix:{0,7,60}, 1 - M = 2**-20")


def bcs_quadrature(cfg, inject_fault):
    # a loop quadrature that misses its own tolerance fails the check, named
    try:
        qr = sectors.bcs_kernel_quadrature(*_VERIFY_POINT)
    except sectors.QuadratureError as exc:
        return False, f"QuadratureError: {exc}"
    return abs(qr.value.real - 1.0) < 1e-3, (
        f"ratio-1 = {qr.value.real - 1.0:.3e} at dc*tau={_VERIFY_DCTAU:g}, "
        f"{qr.evaluations} evaluations")


def offshell_cancellation(cfg, inject_fault):
    off = sectors.offshell_bcs_cancellation(*_VERIFY_POINT)
    return off.ratio < 1e-2, f"|sum|/|leading| = {off.ratio:.3e} at dc*tau={_VERIFY_DCTAU:g}"


def tc_closed_form(cfg, inject_fault):
    # the closed-form T_c and slope of a constant lifetime vs a 512-point scan,
    # bisection and Richardson difference run here on the shared pole-mass curve
    p_root, lt_root = _ROOT_CONFIG.params(), _ROOT_CONFIG.lifetime_model()
    worst_tc = worst_m = 0.0
    for state in (Vacuum(), Thermal(2.0)):
        crit = critical.find_tc(p_root, lt_root, state, cfg.convention)
        mass = crit.curves.mass
        tc = _scan_root(mass, p_root.e_f)
        worst_tc = max(worst_tc, abs(crit.t_c / tc - 1.0))
        worst_m = max(worst_m, abs(crit.slope / _richardson_slope(mass, tc) - 1.0))
    return worst_tc <= 1e-11 and worst_m <= 1e-7, (
        f"max rel dev T_c {worst_tc:.3e}, mass slope {worst_m:.3e} vs scan, bisection and "
        "Richardson difference of the pole-mass curve (vacuum and beta delta_c = 2)")


def thermal_root(cfg, inject_fault):
    # the thermal root, read through the commands' root dispatch, against the
    # edge of convergence of the Boltzmann sum (1-x) sum x**n Gamma**n of the
    # bare kernel, x = exp(-beta delta_c): (1-a)(1-x)**2 = 2 c2 (1+x)**2 with
    # a = f_a gtilde delta_c / T and c2 = f_c (gtilde delta_c / rate)**2
    p_root, lt_root = _ROOT_CONFIG.params(), _ROOT_CONFIG.lifetime_model()
    (f_a, f_c), g_dc = CONVENTIONS[cfg.convention], p_root.gtilde * p_root.delta_c
    x = math.exp(-2.0 * p_root.delta_c)
    c2 = f_c * (g_dc / lt_root.rate) ** 2
    tc = f_a * g_dc * (1 - x) ** 2 / ((1 - x) ** 2 - 2 * c2 * (1 + x) ** 2)
    dev = abs(_root_criticalities(cfg, [Thermal(2.0)])[0].t_c / tc - 1.0)
    return dev <= 1e-13, (
        f"rel dev T_c {dev:.3e} of the root the commands solve for thermal:beta=2 vs the "
        "edge (1-a)(1-x)**2 = 2 c2 (1+x)**2, x = exp(-beta delta_c), of the bare kernel's "
        "Boltzmann sum")


def fermi_liquid_root(cfg, inject_fault):
    # the Fermi-liquid root and mass slope against a scan, bisection and
    # Richardson difference run here of the pole mass with the rate and the
    # equilibrium s written out, on the fermi-liquid preset's couplings
    f_a, f_c = CONVENTIONS[cfg.convention]
    p_fl = ModelParams.with_gtilde(1e-3, 50.0, 0.0, 1e4, 1.0)
    g_dc, dc, e_f = p_fl.gtilde * p_fl.delta_c, p_fl.delta_c, p_fl.e_f
    rate = lambda t: math.pi * t * t / (8.0 * e_f) * math.log(e_f / t)
    worst_tc = worst_m = 0.0
    for state, s in ((Vacuum(), lambda t: 1.0),
                     (Thermal(), lambda t: 1.0 / math.tanh(dc / (2.0 * t)))):
        mass = lambda t: f_a * g_dc / t + 2.0 * f_c * (g_dc / rate(t) * s(t)) ** 2
        tc = _scan_root(mass, e_f)
        crit = critical.find_tc(p_fl, model.FermiLiquidLifetime(), state, cfg.convention)
        worst_tc = max(worst_tc, abs(crit.t_c / tc - 1.0))
        worst_m = max(worst_m, abs(crit.slope / _richardson_slope(mass, tc) - 1.0))
    return worst_tc <= 1e-11 and worst_m <= 1e-8, (
        f"max rel dev T_c {worst_tc:.3e}, mass slope {worst_m:.3e} vs scan, bisection and "
        "Richardson difference of a_bcs + 2 f_c (gtilde delta_c s / rate)**2, rate = "
        "pi T**2 / (8 E_F) ln(E_F / T), s = coth(delta_c / 2T) (vacuum and equilibrium "
        "thermal, fermi-liquid couplings)")


def correlation_bessel(cfg, inject_fault):
    # closed-form correlations vs the independent contour quadrature on the
    # fit grid, for a simple and a third-order anisotropic pole summed
    crit = _root_criticalities(cfg, [DiagonalMixture({0: 0.5, 2: 0.5})])[0]
    kw = dict(anisotropy=cfg.anisotropy, fock_form="power")
    T = crit.t_c * (1.0 + 1e-4)
    prof = critical.correlation_function(crit, T, **kw)
    ref = critical.correlation_quadrature(crit, T, prof.r_grid[::4], **kw)
    devs = [abs(math.exp(v) / q - 1.0) for v, q in zip(prof.log_values[::4], ref)]
    return all(d < 1e-4 for d in devs), (
        f"max rel dev {max(devs):.3e} vs contour quadrature at 5 fit-grid points in [3 xi, 10 xi] "
        "(mix:{0,2} power anisotropic, q=1 and q=3)")


def momentum_vertex(cfg, inject_fault):
    # the momentum-resolved vertex against gamma0 / [P^2 (cos^2 theta + a) + m (T - T_c)]^(n+1),
    # summed over the sector weights and written out here, and the reduced form
    # against the power form at P = 0, in value and in curvature along theta = 0
    a = cfg.anisotropy
    worst = worst_value = worst_curv = 0.0
    for crit in _root_criticalities(cfg, [Fock(2), DiagonalMixture({0: 0.5, 2: 0.5})]):
        T = crit.t_c * (1.0 + 1e-3)
        gap = crit.slope * (T - crit.t_c)
        gamma0 = -crit.params.g0**2 / (2.0 * crit.params.delta_c)
        power = critical.momentum_vertex(crit, T, a, "power")
        reduced = critical.momentum_vertex(crit, T, a, "reduced")
        for P in (0.0, math.sqrt(gap), 3.0 * math.sqrt(gap)):
            for theta in (0.0, math.pi / 2):
                want = sum(w * gamma0 / (P * P * (math.cos(theta) ** 2 + a) + gap) ** (n + 1)
                           for n, w in crit.state.weights.items())
                worst = max(worst, abs(power(P, theta) / want - 1.0))
        h = 1e-3 * math.sqrt(gap / (1.0 + a))
        v_power, v_reduced = power(0.0, 0.0), reduced(0.0, 0.0)
        worst_value = max(worst_value, abs(v_reduced / v_power - 1.0))
        curv = (reduced(h, 0.0) - v_reduced) / (power(h, 0.0) - v_power)
        worst_curv = max(worst_curv, abs(curv - 1.0))
    return worst <= 1e-12 and worst_value <= 1e-12 and worst_curv <= 1e-4, (
        f"max rel dev {worst:.3e} of the power form from gamma0 / [P^2 (cos^2 theta + a) + "
        f"m (T - T_c)]^(n+1) at theta = 0, pi/2; reduced vs power at P = 0: value "
        f"{worst_value:.3e}, curvature {worst_curv:.3e} (fock:2 and mix:{{0,2}}, reduced_t = 1e-3)")


def line_fit(cfg, inject_fault):
    # the line fit on exact power-law data t**-nu returns nu to a few ulp
    window, points = cli.RunConfig.gamma_window, cli.RunConfig.gamma_points
    ts = critical._geometric_grid(window[0], window[1], points)
    worst = 0.0
    for nu in (0.5, 1.0, 3.0):
        slope, _, _ = critical._line_fit([math.log(t) for t in ts], [math.log(t**-nu) for t in ts])
        worst = max(worst, abs(slope + nu) / math.ulp(nu))
    return worst <= 4.0, (
        f"max |fitted - exact exponent| = {worst:g} ulp for nu = 0.5, 1, 3 on the default "
        f"gamma window ({points} points on [{window[0]:g}, {window[1]:g}])")


CHECKS = (
    thermal_dressing, oracle_equivalence, thermal_resummation, gaussian_collapse,
    sector_chain, vertex_closed_form, bcs_quadrature, offshell_cancellation,
    tc_closed_form, thermal_root, fermi_liquid_root, correlation_bessel,
    momentum_vertex, line_fit,
)
