import math
import re

import numpy as np
import pytest

from cavitypairing.model import (
    ConstantLifetime,
    DiagonalMixture,
    DomainError,
    FermiLiquidLifetime,
    ModelParams,
    Thermal,
    fermion_gk,
    fermion_gr,
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


# -- fermion Green's functions ----------------------------------------------

def test_gr_on_shell():
    assert fermion_gr(0.0, P, LT, 1.0) == pytest.approx(-1j)


def test_gr_generic_point():
    assert fermion_gr(1.0, P, LT, 1.0) == pytest.approx(0.5 - 0.5j)


def test_gk_zero_at_origin():
    assert fermion_gk(0.0, P, LT, 1.0) == 0


def test_gk_value():
    assert fermion_gk(2.0, P, LT, 1.0) == pytest.approx(-2j * math.tanh(1.0) / 5)


def test_gk_imaginary_and_odd():
    for w in (0.1, 0.9, 2.5, 17.0):
        z = fermion_gk(w, P, LT, 0.7)
        assert z.real == 0.0
        assert fermion_gk(-w, P, LT, 0.7) == pytest.approx(-z)


@pytest.mark.parametrize("rate, named", [
    (1e300, "lifetime rate 1/tau = 1e+300 (delta_c * tau = 1e-300)"),
    (1e-300, "lifetime rate 1/tau = 1e-300 (delta_c * tau = 1e+300)"),
], ids=["rate-large", "rate-small"])
def test_gk_out_of_float_range_names_rate_and_dctau(rate, named):
    # on the fermion pole w = 0 the denominator is rate**2, which over- or underflows
    denominator = "Keldysh fermion denominator w**2 + rate**2 leaves the float range: "
    with pytest.raises(ArithmeticError, match=re.escape(denominator + named)):
        fermion_gk(0.0, P, ConstantLifetime(rate), 0.4)


def test_fermi_liquid_domain_error():
    fl = FermiLiquidLifetime()
    with pytest.raises(DomainError):
        fermion_gr(0.0, P, fl, 150.0)
    with pytest.raises(DomainError):
        tau_inv(fl, P, 0.0)


def test_fermi_liquid_monotone_and_vanishing():
    fl = FermiLiquidLifetime()
    ts = np.linspace(1e-4, P.e_f / math.e, 200)
    rates = [tau_inv(fl, P, t) for t in ts]
    assert rates[0] < 1e-6
    assert all(b > a for a, b in zip(rates, rates[1:]))


def test_mixture_validation():
    with pytest.raises(DomainError):
        DiagonalMixture({0: 0.5, 1: 0.6})
    with pytest.raises(DomainError):
        DiagonalMixture({0: 1.5, 1: -0.5})


# the equal-time Keldysh photon function is -i s / (2 delta_c); delta_c = 1 here


def test_dk_thermal_coth():
    beta = math.log(3.0)  # x = 1/3, coth = (1+x)/(1-x) = 2
    assert statistical_factor(Thermal(beta), P.delta_c) == pytest.approx(2.0)


def test_dk_thermal_equals_boltzmann_average():
    # the Keldysh photon function is -i s cos(delta_c t) / (2 delta_c), so its
    # thermal value is the Boltzmann average over number states exactly when
    # the average of s = 1 + 2n over p_n ~ x^n, x = exp(-beta delta_c), is
    # coth(beta delta_c / 2)
    beta = 0.8
    x = math.exp(-beta * P.delta_c)
    n_max = 120  # x^120 ~ 1e-42, tail far below 1e-12
    z = sum(x**n for n in range(n_max + 1))
    avg = sum((x**n / z) * (1.0 + 2.0 * n) for n in range(n_max + 1))
    assert avg == pytest.approx(statistical_factor(Thermal(beta), P.delta_c), abs=1e-10)
    assert avg == pytest.approx(1.0 / math.tanh(beta * P.delta_c / 2.0), abs=1e-10)


def test_equilibrium_thermal_needs_temperature():
    with pytest.raises(DomainError):
        statistical_factor(Thermal(), P.delta_c)
    assert statistical_factor(Thermal(), P.delta_c, temperature=1.0) == pytest.approx(
        1.0 / math.tanh(0.5)
    )
