import cmath
import math

import numpy as np
import pytest

from cavitypairing.model import (
    ConstantLifetime,
    DiagonalMixture,
    DomainError,
    FermiLiquidLifetime,
    Fock,
    ModelParams,
    Thermal,
    Vacuum,
    fermion_ga,
    fermion_gk,
    fermion_gr,
    mean_photon_number,
    photon_dk_physical,
    photon_dr,
    photon_gk_two_time,
    photon_im_dr_weights,
    statistical_factor,
    tau_inv,
)

P = ModelParams(g0=1.0, delta_c=1.0, q0=0.0, e_f=100.0, k_f=1.0)
LT = ConstantLifetime(1.0)


def test_params_validation():
    with pytest.raises(DomainError):
        ModelParams(g0=1.0, delta_c=-1.0, q0=0.0, e_f=1.0, k_f=1.0)
    with pytest.raises(DomainError):
        ModelParams(g0=1.0, delta_c=1.0, q0=0.5, e_f=1.0, k_f=1.0)  # q0 not << k_F
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="finite"):
            ModelParams(g0=bad, delta_c=1.0, q0=0.0, e_f=1.0, k_f=1.0)
        with pytest.raises(DomainError, match="finite"):
            ModelParams(g0=1.0, delta_c=bad, q0=0.0, e_f=1.0, k_f=1.0)
        with pytest.raises(DomainError, match="finite"):
            ConstantLifetime(bad)


def test_gtilde_recomputed():
    assert P.gtilde == pytest.approx(1.0 / (4 * math.pi) ** 2)
    p2 = ModelParams.with_gtilde(0.02, 1.0, 0.0, 100.0, 1.0)
    assert p2.gtilde == pytest.approx(0.02, rel=1e-14)


def test_cavity_units():
    p = ModelParams(g0=2.0, delta_c=4.0, q0=0.0, e_f=100.0, k_f=1.0)
    pn = p.in_cavity_units()
    assert pn.delta_c == 1.0
    assert pn.gtilde == pytest.approx(p.gtilde * p.delta_c)  # gtilde carries 1/energy
    assert pn.e_f == 25.0


# -- fermion Green's functions ----------------------------------------------

def test_gr_on_shell():
    assert fermion_gr(P.k_f, 0.0, P, LT, 1.0) == pytest.approx(-1j)


def test_gr_generic_point():
    assert fermion_gr(P.k_f, 1.0, P, LT, 1.0) == pytest.approx(0.5 - 0.5j)


def test_ga_is_conjugate():
    assert fermion_ga(P.k_f, 0.0, P, LT, 1.0) == pytest.approx(1j)
    for w in (-3.0, -0.2, 0.7, 5.0):
        assert fermion_ga(P.k_f, w, P, LT, 1.0) == pytest.approx(
            fermion_gr(P.k_f, w, P, LT, 1.0).conjugate()
        )


def test_gk_on_pole():
    # at w = eps_k the Lorentzian collapses to -2i tau tanh(eps/2T)
    k = P.k_f * math.sqrt(1.0 + 0.5 / P.e_f)  # eps_k = 0.5
    got = fermion_gk(k, P.eps(k), P, LT, 2.0)
    assert got == pytest.approx(-2j * math.tanh(0.5 / 4.0))


def test_gk_zero_at_origin():
    assert fermion_gk(P.k_f, 0.0, P, LT, 1.0) == 0


def test_gk_value():
    assert fermion_gk(P.k_f, 2.0, P, LT, 1.0) == pytest.approx(-2j * math.tanh(1.0) / 5)


def test_gk_imaginary_and_odd():
    for w in (0.1, 0.9, 2.5, 17.0):
        z = fermion_gk(P.k_f, w, P, LT, 0.7)
        assert z.real == 0.0
        assert fermion_gk(P.k_f, -w, P, LT, 0.7) == pytest.approx(-z)


def test_fermi_liquid_domain_error():
    fl = FermiLiquidLifetime()
    with pytest.raises(DomainError):
        fermion_gr(P.k_f, 0.0, P, fl, 150.0)
    with pytest.raises(DomainError):
        tau_inv(fl, P, 0.0)


def test_fermi_liquid_monotone_and_vanishing():
    fl = FermiLiquidLifetime()
    ts = np.linspace(1e-4, P.e_f / math.e, 200)
    rates = [tau_inv(fl, P, t) for t in ts]
    assert rates[0] < 1e-6
    assert all(b > a for a, b in zip(rates, rates[1:]))


# -- photon propagators ------------------------------------------------------

def test_dr_static_limit():
    assert photon_dr(0.0, P, 1e-12) == pytest.approx(-0.5)


def test_dr_asymptotic_decay():
    assert abs(photon_dr(1e6 * P.delta_c, P, 1e-9)) < 1e-10


def test_dr_resonance_pole():
    eta = 1e-6 * P.delta_c
    d = photon_dr(P.delta_c, P, eta)
    assert abs(d) > 1e4 / P.delta_c**2
    assert d == pytest.approx(-1j / (4 * P.delta_c * eta), rel=1e-5)
    with pytest.raises(DomainError):
        photon_dr(0.0, P, 0.0)


def test_dr_da_conjugation():
    for w in (0.0, 0.3, 1.7):
        assert photon_dr(w, P, 1e-4, advanced=True) == pytest.approx(
            photon_dr(w, P, 1e-4).conjugate()
        )


def test_im_dr_weights():
    (wp, cp), (wm, cm) = photon_im_dr_weights(P)
    assert (wp, cp) == (1.0, -math.pi / 2)
    assert (wm, cm) == (-1.0, math.pi / 2)
    assert cp + cm == 0.0  # odd under w -> -w


# -- statistical photon functions --------------------------------------------

def test_dk_vacuum():
    assert photon_dk_physical(0.0, 0.0, P, Vacuum()) == pytest.approx(-0.5j)


def test_dk_fock_factor():
    assert photon_dk_physical(0.0, 0.0, P, Fock(3)) == pytest.approx(-3.5j)


def test_dk_thermal_coth():
    beta = math.log(3.0)  # x = 1/3, coth = (1+x)/(1-x) = 2
    assert photon_dk_physical(0.0, 0.0, P, Thermal(beta)) == pytest.approx(-1j)


def test_dk_thermal_equals_boltzmann_average():
    beta = 0.8
    x = math.exp(-beta * P.delta_c)
    n_max = 120  # x^120 ~ 1e-42, tail far below 1e-12
    z = sum(x**n for n in range(n_max + 1))
    for dt in (0.0, 0.4, 2.0):
        avg = sum(
            (x**n / z) * photon_dk_physical(dt, 0.0, P, Fock(n))
            for n in range(n_max + 1)
        )
        assert avg == pytest.approx(
            photon_dk_physical(dt, 0.0, P, Thermal(beta)), abs=1e-10
        )


def test_two_time_vacuum_reduction():
    omegas = [1.3]
    corr = [[0.0]]
    got = photon_gk_two_time(omegas, corr, 0, 0, 0.7, 0.2)
    assert got == pytest.approx(-1j * cmath.exp(-1.3j * 0.5))


def test_two_time_diagonal_matches_fock_factor():
    got = photon_gk_two_time([1.0, 2.0], [[4.0, 0.0], [0.0, 1.0]], 0, 0, 0.0, 0.0)
    assert got == pytest.approx(-1j * (1 + 2 * 4))


def test_two_time_offdiagonal_value():
    got = photon_gk_two_time([1.0, 2.0], [[0.0, 0.5], [0.5, 0.0]], 0, 1, 0.0, 0.0)
    assert got == pytest.approx(-2j)


def test_two_time_hermiticity_enforced():
    with pytest.raises(ValueError):
        photon_gk_two_time([1.0, 2.0], [[0.0, 0.5], [0.2, 0.0]], 0, 1, 0.0, 0.0)


def test_mixture_validation():
    with pytest.raises(DomainError):
        DiagonalMixture({0: 0.5, 1: 0.6})
    with pytest.raises(DomainError):
        DiagonalMixture({0: 1.5, 1: -0.5})


def test_statistical_factor_mixture():
    s = statistical_factor(DiagonalMixture({0: 0.5, 2: 0.5}), P.delta_c)
    assert s == pytest.approx(0.5 * 1 + 0.5 * 5)


def test_mean_photon_number():
    assert mean_photon_number(Fock(5), P) == 5.0
    assert type(mean_photon_number(Vacuum(), P)) is float
    assert mean_photon_number(Vacuum(), P) == 0.0
    assert mean_photon_number(Thermal(beta=80.0), P) == pytest.approx(0.0, abs=1e-12)
    assert mean_photon_number(Thermal(beta=math.log(2.0)), P) == pytest.approx(1.0)
    assert mean_photon_number(DiagonalMixture({0: 0.5, 4: 0.5}), P) == 2.0


def test_equilibrium_thermal_needs_temperature():
    with pytest.raises(DomainError):
        statistical_factor(Thermal(), P.delta_c)
    assert statistical_factor(Thermal(), P.delta_c, temperature=1.0) == pytest.approx(
        1.0 / math.tanh(0.5)
    )
