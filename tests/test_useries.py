import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavitypairing.useries import (
    ExpansionPoleError,
    RationalFunction as RF,
    f_factor,
    taylor,
)

ONE = RF((1,))
U = RF((0, 1))
GEOM = ONE / RF((1, -1))  # 1/(1-u)


def test_inverse_pair_cancels():
    assert GEOM * RF((1, -1)) == ONE


def test_sum_of_reciprocal_factors():
    lhs = f_factor(1) + RF((1, -1), (1, 1))
    assert lhs == RF((2, 0, 2), (1, 0, -1))  # (2+2u^2)/(1-u^2)


def test_div_identity():
    assert ONE / ONE == ONE


def test_div_by_zero_function_rejected():
    with pytest.raises(ZeroDivisionError):
        ONE / RF((0,))


def test_geometric_series():
    assert taylor(GEOM, 4) == [1, 1, 1, 1, 1]


def test_f_squared_series():
    assert taylor(f_factor(2), 4) == [1, 4, 8, 12, 16]


def test_f_series():
    assert taylor(f_factor(1), 3) == [1, 2, 2, 2]


def test_expansion_pole_rejected():
    with pytest.raises(ExpansionPoleError):
        taylor(ONE / U, 3)


def test_order_cap():
    assert len(taylor(GEOM, 64)) == 65
    with pytest.raises(ValueError):
        taylor(GEOM, 65)


def test_f_factor_construction():
    f2 = f_factor(2)
    assert f2.num == (F(1), F(2), F(1))
    assert f2 == f_factor(1) * f_factor(1)
    assert f_factor(1)(0) == 1
    with pytest.raises(ValueError):
        f_factor(0)


def _perturbative_weights(p, order):
    """Taylor coefficients of (1+u)^p / (1-u)^(p+1): the n-quantum weights of a
    diagram with p statistical boson lines (the normalisation adds 1/(1-u))."""
    rf = RF([math.comb(p, j) for j in range(p + 1)]) / RF((1, -1)) ** (p + 1)
    return taylor(rf, order)


def test_perturbative_weight_examples():
    assert _perturbative_weights(0, 5) == [1] * 6
    assert _perturbative_weights(1, 2) == [1, 3, 5]


@pytest.mark.parametrize("p", range(0, 5))
@pytest.mark.parametrize("n", range(0, 9))
def test_perturbative_weight_combinatorial_oracle(p, n):
    # independent route: sum_j C(p, j) * C(n - j + p, p)
    expect = sum(
        math.comb(p, j) * math.comb(n - j + p, p) for j in range(min(p, n) + 1)
    )
    assert _perturbative_weights(p, n)[n] == expect


def test_apply_L_mixture_boltzmann_vs_closed_form():
    # the number-diagonal operator L on a mixture is sum_n w_n taylor(rf)[n]:
    # truncated geometric weights on f(u)^2/(1-u) resum to f(x)^2
    x = F(1, 3)
    n_max = 40
    z = sum(x**n for n in range(n_max + 1))
    coeffs = taylor(f_factor(2) * GEOM, n_max)
    got = sum(x**n / z * coeffs[n] for n in range(n_max + 1))
    closed = ((1 + x) / (1 - x)) ** 2
    assert abs(float(got - closed)) < 1e-10


def test_thermal_closure_identity_exact():
    # algebraic core of the thermal rearrangement, exact over rationals
    for k in range(1, 21):
        x = F(k, 21)
        assert 1 + 4 * x / (1 - x) ** 2 == ((1 + x) / (1 - x)) ** 2


# -- property tests ---------------------------------------------------------

_coeff = st.fractions(
    min_value=-4, max_value=4, max_denominator=8
)


@st.composite
def rationals(draw):
    """Random rational function with a nonzero denominator at u = 0."""
    num = draw(st.lists(_coeff, min_size=1, max_size=4))
    den = draw(st.lists(_coeff, min_size=1, max_size=4))
    d0 = draw(st.sampled_from([F(1), F(-1), F(2), F(1, 2), F(3)]))
    return RF(num, [d0] + den)


@settings(max_examples=60, deadline=None)
@given(rationals(), rationals(), rationals())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=40, deadline=None)
@given(rationals(), rationals(), st.integers(min_value=0, max_value=32))
def test_taylor_of_product_is_cauchy_convolution(a, b, order):
    ta = taylor(a, order)
    tb = taylor(b, order)
    conv = [
        sum(ta[k] * tb[n - k] for k in range(n + 1)) for n in range(order + 1)
    ]
    assert taylor(a * b, order) == conv


def _padded_taylor(rf, order):
    """Long division over the denominator padded with zeros to ``order``: the reference."""
    a = list(rf.num) + [F(0)] * max(0, order + 1 - len(rf.num))
    d = list(rf.den) + [F(0)] * max(0, order + 1 - len(rf.den))
    out = []
    for n in range(order + 1):
        out.append((a[n] - sum((d[k] * out[n - k] for k in range(1, n + 1)), F(0))) / d[0])
    return out


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_coeff, min_size=1, max_size=8),
    st.sampled_from([F(1), F(-1), F(2), F(1, 2), F(3)]),
    st.lists(_coeff, min_size=0, max_size=6),
    st.integers(min_value=0, max_value=24),
)
def test_taylor_matches_padded_division(num, d0, den_tail, order):
    # denominators of degree 0..6, so the loop bound at the degree is crossed both ways
    rf = RF(num, [d0] + den_tail)
    assert taylor(rf, order) == _padded_taylor(rf, order)


@pytest.mark.parametrize("degree", range(7))
def test_taylor_matches_padded_division_by_degree(degree):
    # one irreducible denominator of each degree 0..6: 1 - u - ... - u^degree over 1 + 2u
    rf = RF((1, 2), [1] + [-1] * degree)
    assert len(rf.den) == degree + 1
    assert taylor(rf, 16) == _padded_taylor(rf, 16)


@settings(max_examples=40, deadline=None)
@given(rationals())
def test_reduction_is_canonical(a):
    # re-wrapping the reduced pair must be a fixed point
    again = RF(a.num, a.den)
    assert again == a
    assert a.den[-1] == 1  # monic denominator
