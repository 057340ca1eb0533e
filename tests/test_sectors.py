from fractions import Fraction as F

import numpy as np
import pytest

from cavitypairing import sectors as sec
from cavitypairing.ladder import (
    KernelScalars,
    intermediate_vertex_closed_form,
    solve_fock_hierarchy,
)
from cavitypairing.model import ConstantLifetime, ModelParams
from cavitypairing.useries import RationalFunction as RF, taylor

K_EXACT = KernelScalars(
    gamma0=F(-2), a_bcs=F(1, 4), c2=F(1, 64), gtilde=F(1, 80), dct=F(10)
)

P = ModelParams(g0=1.0, delta_c=1.0, q0=0.0, e_f=100.0, k_f=1.0)
T_CHECK = 0.4  # regime tuned so the kernel ratio deviation is ~0.5/(dc*tau)


def test_system_structure():
    system = sec.build_sector_system(K_EXACT)
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = system.matrix
    # static entries are u-independent
    assert a00 == RF((1 - F(1, 4),))
    assert a11 == a22 == RF((1,))
    assert a12 == a21 == RF((0,))
    # only resonant couplings carry the statistical factor
    f = RF((1, 1), (1, -1))
    assert a01 == a02 == RF((K_EXACT.gtilde,)) * f
    c_off = K_EXACT.c2 / K_EXACT.gtilde
    assert a10 == a20 == RF((c_off,)) * f
    assert system.rhs == (RF((F(-2),)), RF((0,)), RF((0,)))


def test_solve_equals_closed_form_exactly():
    sol = sec.solve_sector_system(sec.build_sector_system(K_EXACT))
    assert sol == intermediate_vertex_closed_form(K_EXACT)


def test_solution_series_matches_hierarchy():
    sol = sec.solve_sector_system(sec.build_sector_system(K_EXACT))
    series = taylor(sol / RF((1, -1)), 12)
    assert tuple(series) == solve_fock_hierarchy(12, K_EXACT)


def test_solution_denominator_degree():
    sol = sec.solve_sector_system(sec.build_sector_system(K_EXACT))
    assert sol.den_degree <= 2


def test_zero_keldysh_removes_state_dependence():
    system = sec.build_sector_system(K_EXACT, zero_dk=True)
    sol = sec.solve_sector_system(system)
    assert sol == RF((K_EXACT.gamma0,)) / RF((1 - K_EXACT.a_bcs,))
    series = taylor(sol / RF((1, -1)), 6)
    assert all(c == series[0] for c in series)


def test_physical_build_matches_closed_form_at_origin():
    lt = ConstantLifetime(1e-3)
    kernel = KernelScalars.from_model(P, lt, T_CHECK)
    sol = sec.solve_sector_system(sec.build_sector_system(kernel))
    closed = float(kernel.gamma0) / (1.0 - float(kernel.pole_mass))
    assert abs(float(sol(0)) / closed - 1.0) < 1e-12


def test_build_requires_couplings():
    bare = KernelScalars(gamma0=F(-1), a_bcs=F(1, 4), c2=F(1, 64))
    with pytest.raises(ValueError):
        sec.build_sector_system(bare)


# -- quadrature checks ---------------------------------------------------------

def test_bcs_quadrature_ratio_converges():
    lt = ConstantLifetime(1e-3)  # dc * tau = 1e3
    res = sec.bcs_kernel_quadrature(P, lt, T_CHECK)
    assert abs(res.value.real - 1.0) < 1e-3
    assert abs(res.value.imag) < 1e-12
    assert res.error_estimate < 1e-5
    assert res.evaluations < 10**6


def test_bcs_quadrature_convergence_slope():
    taus = (10.0, 100.0, 1000.0, 10000.0)
    devs = []
    for dctau in taus:
        res = sec.bcs_kernel_quadrature(P, ConstantLifetime(1.0 / dctau), T_CHECK)
        devs.append(abs(res.value.real - 1.0))
    slope = np.polyfit(np.log(taus), np.log(devs), 1)[0]
    assert -1.2 < slope < -0.8
    # the dc*tau = 10 point deviates at first order: recorded, not asserted
    print(f"ratio deviation at dc*tau=10: {devs[0]:.3e}")


def test_bcs_quadrature_kernel_vanishes_at_high_temperature():
    # the odd thermal weight kills the loop: the raw kernel scales like 1/T
    lt = ConstantLifetime(1e-3)
    vals = []
    for T in (0.4, 4.0):
        res = sec.bcs_kernel_quadrature(P, lt, T)
        analytic = 1.0 / (4.0 * P.delta_c**2 * T)
        vals.append(res.value.real * analytic)
    assert abs(vals[1] / vals[0] - 0.1) < 0.02


def test_bcs_quadrature_misses_tolerance_at_short_lifetime():
    with pytest.raises(sec.QuadratureError, match=r"error estimate \S+ above tolerance"):
        sec.bcs_kernel_quadrature(P, ConstantLifetime(1e10), T_CHECK)  # dc * tau = 1e-10


def test_offshell_cancellation_names_inputs_when_rate_over_2t_overflows():
    with pytest.raises(ArithmeticError, match=r"rate / 2T overflows at delta_c \* tau = 1000, "
                                              r"T / delta_c = 9\.99989e-321"):
        sec.offshell_bcs_cancellation(P, ConstantLifetime(1e-3), 1e-320)


def test_offshell_cancellation_small_and_structured():
    lt = ConstantLifetime(1e-3)
    rep = sec.offshell_bcs_cancellation(P, lt, T_CHECK)
    assert rep.ratio < 1e-2
    # cancellation is pairwise: each term alone is large and finite
    assert abs(rep.piece_a) > 0 and abs(rep.piece_b) > 0
    assert abs(rep.piece_a) > 100 * abs(rep.offshell_sum)
    assert rep.onshell == pytest.approx(1.0 / (4 * T_CHECK), rel=1e-4)


def test_offshell_cancellation_monotone_decay():
    ratios = [
        sec.offshell_bcs_cancellation(P, ConstantLifetime(1.0 / d), T_CHECK).ratio
        for d in (10.0, 100.0, 1000.0, 10000.0)
    ]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    # asymptotically 1/(dc*tau)
    assert ratios[2] == pytest.approx(1e-3, rel=0.05)
