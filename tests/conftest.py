import pytest

from cavitypairing.ladder import CriticalityError, KernelScalars, solve_fock_hierarchy
from cavitypairing.model import ConstantLifetime, FermiLiquidLifetime, ModelParams


# The reference root search of the tests: a geometric scan on N_SCAN points,
# then bisection to the relative width RTOL.
N_SCAN = 512
RTOL = 1e-12


def _bisect(f, lo: float, hi: float) -> float:
    """Midpoint of the sign change of f on [lo, hi], to relative width RTOL."""
    flo = f(lo)
    while hi - lo > RTOL * hi:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.fixture(scope="session")
def const_params():
    """Reference constant-lifetime set: gtilde*delta_c = 0.02, c2 = 0.25.

    Vacuum kernel mass is 0.02/T + 0.5, so T_c = 0.04 exactly and
    delta_c / T_c = 25 (thermal corrections ~ exp(-25)).
    """
    return ModelParams.with_gtilde(0.02, delta_c=1.0, q0=0.0, e_f=100.0, k_f=1.0)


@pytest.fixture(scope="session")
def const_lifetime():
    # delta_c * tau = 25, so c2 = (0.02 * 25)**2 = 0.25
    return ConstantLifetime(0.04)


@pytest.fixture(scope="session")
def fl_params():
    return ModelParams.with_gtilde(1e-3, delta_c=50.0, q0=0.0, e_f=1e4, k_f=1.0)


@pytest.fixture(scope="session")
def fl_lifetime():
    return FermiLiquidLifetime()


def _locate_pole(n, p, lt):
    """Pole temperature of Gamma^n located from vertex values alone, never from the kernel mass.

    The ratio Gamma^n / Gamma^(n+1) vanishes linearly, with a sign change, at
    the pole.  Below it the ratio changes sign more than once, so of the sign
    changes on a geometric scan over [1e-8, 0.99] E_F the cell whose ends are
    smallest in magnitude is bisected: the zero of the ratio, not a pole of it.
    A temperature on the pole itself, where the hierarchy raises
    ``CriticalityError``, reads as the ratio's zero, which ends the bisection.
    """
    def ratio(T):
        try:
            vals = solve_fock_hierarchy(n + 1, KernelScalars.from_model(p, lt, T))
        except CriticalityError:
            return 0.0
        return vals[n] / vals[n + 1]

    lo, hi = 1e-8 * p.e_f, 0.99 * p.e_f
    ts = [lo * (hi / lo) ** (i / 511) for i in range(512)]
    vals = [ratio(t) for t in ts]
    cells = [(max(abs(v0), abs(v1)), t0, t1)
             for t0, t1, v0, v1 in zip(ts, ts[1:], vals, vals[1:])
             if v0 == 0.0 or (v0 > 0) != (v1 > 0)]
    _, lo, hi = min(cells)
    return _bisect(ratio, lo, hi)


@pytest.fixture(scope="session")
def fitted_pole_location():
    """(n, params, lifetime) -> the pole of Gamma^n bisected from the hierarchy's own values."""
    return _locate_pole
