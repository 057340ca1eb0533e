"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on the terminal.  Every tolerance is pinned here; nothing is deferred
to later calibration.
"""

import math
import random
import time
from fractions import Fraction as F

import numpy as np

from cavitypairing import critical as cr
from cavitypairing import sectors as sec
from cavitypairing.ladder import (
    KernelScalars,
    intermediate_vertex_closed_form,
    oracle_check,
    solve_fock_hierarchy,
    thermal_resummation_check,
)
from cavitypairing.model import (
    ConstantLifetime,
    DiagonalMixture,
    Fock,
    ModelParams,
    Thermal,
    Vacuum,
)
from cavitypairing.useries import RationalFunction as RF, taylor

QUAD_P = ModelParams(g0=1.0, delta_c=1.0, q0=0.0, e_f=100.0, k_f=1.0)
QUAD_T = 0.4  # T/delta_c placing the quadrature ratio deviation near 0.5/(dc*tau)


def _report(idx: int, ok: bool, runtime: float, detail: str) -> None:
    print(f"ACCEPTANCE {idx}: {'PASS' if ok else 'FAIL'} [{runtime:.2f} s] {detail}")
    assert ok, f"criterion {idx}: {detail}"


def _random_kernel(rng: random.Random) -> KernelScalars:
    a = F(rng.randint(1, 60), 100)
    c2 = F(rng.randint(1, 25), 100)
    while a + 2 * c2 == 1:
        c2 += F(1, 1000)
    return KernelScalars(
        gamma0=-F(rng.randint(1, 9), rng.randint(1, 5)), a_bcs=a, c2=c2
    )


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(90125)
    kernels = [_random_kernel(rng) for _ in range(6)]
    worst = F(0)
    ok = True
    for k in kernels:
        rep = oracle_check(12, k)
        ok = ok and rep.ok
        worst = max(worst, rep.max_abs_discrepancy)
    dt = time.perf_counter() - t0
    _report(1, ok and worst == 0 and dt < 1.0, dt,
            f"recursion == series oracle for n<=12 on {len(kernels)} rational "
            f"kernels, max discrepancy {worst} (tolerance: zero)")


def test_criterion_2_thermal_closure():
    t0 = time.perf_counter()
    exact = all(
        1 + 4 * F(k, 21) / (1 - F(k, 21)) ** 2 == ((1 + F(k, 21)) / (1 - F(k, 21))) ** 2
        for k in range(1, 21)
    )
    k = KernelScalars(gamma0=F(-1), a_bcs=F(1, 10), c2=F(1, 100))
    rep = thermal_resummation_check(k, F(1, 3))
    dt = time.perf_counter() - t0
    ok = exact and rep.residual < 1e-8 and rep.tail < 1e-12 and dt < 1.0
    _report(2, ok, dt,
            f"scalar identity exact for 20 rational x; resummation residual "
            f"{rep.residual:.2e} < 1e-8 with tail {rep.tail:.2e} < 1e-12")


def test_criterion_3_tc_invariance(const_params, const_lifetime, fl_params, fl_lifetime,
                                   fitted_pole_location):
    t0 = time.perf_counter()
    details = []
    ok = True
    for p, lt, tag in (
        (const_params, const_lifetime, "constant"),
        (fl_params, fl_lifetime, "fermi-liquid"),
    ):
        vac = cr.find_tc(p, lt, Vacuum())
        th = cr.find_tc(p, lt, Thermal())
        ok = ok and th.t_c > vac.t_c
        worst = 0.0
        for n in (0, 1, 3, 5):
            pole = fitted_pole_location(n, p, lt)
            worst = max(worst, abs(pole / vac.t_c - 1.0))
        ok = ok and worst < 1e-10
        details.append(f"{tag}: max pole dev {worst:.1e}, thermal-vacuum "
                       f"{(th.t_c - vac.t_c):.2e}")
    dt = time.perf_counter() - t0
    _report(3, ok and dt < 10.0, dt, "; ".join(details))


def test_criterion_4_susceptibility_exponents(const_params, const_lifetime):
    t0 = time.perf_counter()
    devs = []
    ok = True
    for n in range(6):
        fit = cr.fit_gamma(cr.find_tc(const_params, const_lifetime, Fock(n)))
        dev = abs(fit.exponent - (n + 1))
        devs.append(f"n={n}: {dev:.1e}")
        ok = ok and dev <= 0.05
    th = cr.fit_gamma(cr.find_tc(const_params, const_lifetime, Thermal()))
    ok = ok and abs(th.exponent - 1.0) <= 0.02
    dt = time.perf_counter() - t0
    _report(4, ok and dt < 30.0, dt,
            f"|gamma - (n+1)| <= 0.05 for n=0..5 ({', '.join(devs)}); "
            f"thermal gamma {th.exponent:.4f} within 0.02 of 1")


def test_criterion_5_correlation_length(const_params, const_lifetime):
    t0 = time.perf_counter()
    crit = cr.find_tc(const_params, const_lifetime, Vacuum())
    T = crit.t_c * (1.0 + 1e-4)
    xi0 = cr.correlation_function(crit, T).xi
    ratio_devs = []
    ok = True
    for n in (1, 3, 8):
        xin = cr.correlation_function(
            cr.find_tc(const_params, const_lifetime, Fock(n)), T).xi
        dev = abs(xin / xi0 / math.sqrt(n + 1) - 1.0)
        ratio_devs.append(f"n={n}: {dev:.1e}")
        ok = ok and dev < 0.02
    nu_th = cr.fit_nu(cr.find_tc(const_params, const_lifetime, Thermal()))
    nu_f4 = cr.fit_nu(cr.find_tc(const_params, const_lifetime, Fock(4)))
    ok = ok and abs(nu_th.exponent - 0.5) <= 0.02 and abs(nu_f4.exponent - 0.5) <= 0.02
    dt = time.perf_counter() - t0
    _report(5, ok and dt < 120.0, dt,
            f"xi(n)/xi(0) within 2% of sqrt(n+1) ({', '.join(ratio_devs)}); "
            f"nu(thermal) = {nu_th.exponent:.4f}, nu(fock 4) = {nu_f4.exponent:.4f}")


def test_criterion_6_quadrature_validation():
    t0 = time.perf_counter()
    taus = (10.0, 100.0, 1000.0, 10000.0)
    devs = []
    for dctau in taus:
        res = sec.bcs_kernel_quadrature(QUAD_P, ConstantLifetime(1.0 / dctau), QUAD_T)
        devs.append(abs(res.value.real - 1.0))
    slope = float(np.polyfit(np.log(taus), np.log(devs), 1)[0])
    off = sec.offshell_bcs_cancellation(QUAD_P, ConstantLifetime(1e-3), QUAD_T)
    ok = devs[2] < 1e-3 and -1.2 < slope < -0.8 and off.ratio < 1e-2
    dt = time.perf_counter() - t0
    _report(6, ok and dt < 60.0, dt,
            f"ratio deviation {devs[2]:.2e} < 1e-3 at dc*tau = 1e3; "
            f"log-log slope {slope:.3f} in -1 +- 0.2; "
            f"off-shell cancellation {off.ratio:.2e} < 1e-2")


def test_criterion_7_sector_chain():
    t0 = time.perf_counter()
    kernels = [
        KernelScalars(gamma0=F(-2), a_bcs=F(1, 4), c2=F(1, 64),
                      gtilde=F(1, 80), dct=F(10)),
        KernelScalars(gamma0=F(-1, 3), a_bcs=F(7, 20), c2=F(9, 400),
                      gtilde=F(3, 100), dct=F(5)),
    ]
    ok = True
    for k in kernels:
        sol = sec.solve_sector_system(sec.build_sector_system(k))
        ok = ok and sol == intermediate_vertex_closed_form(k)
        series = taylor(sol / RF((1, -1)), 12)
        ok = ok and tuple(series) == solve_fock_hierarchy(12, k)
    dt = time.perf_counter() - t0
    _report(7, ok and dt < 5.0, dt,
            "sector solve == closed form == hierarchy series, exact rational "
            f"equality on {len(kernels)} kernels (tolerance: zero)")


def test_criterion_8_gaussian_collapse():
    t0 = time.perf_counter()
    k = KernelScalars(gamma0=F(-3), a_bcs=F(2, 5), c2=F(0))
    hier = solve_fock_hierarchy(10, k)
    constant = all(v == hier[0] for v in hier)
    kz = KernelScalars(gamma0=F(-3), a_bcs=F(2, 5), c2=F(1, 50),
                       gtilde=F(1, 50), dct=F(1))
    sol = sec.solve_sector_system(sec.build_sector_system(kz, zero_dk=True))
    state_free = sol == RF((F(-3),)) / RF((F(3, 5),))
    series = taylor(sol / RF((1, -1)), 8)
    flat = all(c == series[0] for c in series)
    dt = time.perf_counter() - t0
    _report(8, constant and state_free and flat, dt,
            "c2 = 0 leaves the hierarchy occupation-independent exactly; "
            "zeroing the statistical photon line removes all state dependence")


def test_criterion_9_thermal_regularisation(const_params, const_lifetime):
    # Boltzmann mixtures truncated at N: weights x^n / sum, n <= N, x = exp(-2).
    # Each orders at the vacuum root with the pole order of its top sector; only
    # the untruncated (thermal) sum regularises to gamma = 1
    t0 = time.perf_counter()
    vac = cr.find_tc(const_params, const_lifetime, Vacuum()).t_c
    x = math.exp(-2.0)
    devs = []
    ok = True
    for n_top in (5, 60):
        z = sum(x**n for n in range(n_top + 1))
        mix = DiagonalMixture({n: x**n / z for n in range(n_top + 1)})
        crit = cr.find_tc(const_params, const_lifetime, mix)
        gamma = cr.fit_gamma(crit).exponent
        devs.append(f"N={n_top}: gamma {gamma:.4f}")
        ok = ok and crit.t_c == vac and abs(gamma - (n_top + 1)) <= 0.05
    dt = time.perf_counter() - t0
    _report(9, ok and dt < 10.0, dt,
            f"truncated Boltzmann mixtures order at the vacuum T_c with gamma = N + 1 "
            f"within 0.05 ({', '.join(devs)})")
