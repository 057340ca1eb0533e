import math
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavitypairing.cli import RunConfig
from cavitypairing.critical import find_tc
from cavitypairing.ladder import (
    CriticalityError,
    KernelScalars,
    bare_vertex,
    intermediate_vertex_closed_form,
    kernel_terms,
    mass_curve,
    oracle_check,
    physical_vertex_series,
    solve_fock_hierarchy,
    thermal_resummation_check,
    vertex_for_state,
)
from cavitypairing.model import (
    ConstantLifetime,
    DiagonalMixture,
    FermiLiquidLifetime,
    Fock,
    ModelParams,
    Thermal,
    Vacuum,
    statistical_factor,
)
from cavitypairing.useries import RationalFunction as RF

K_REF = KernelScalars(gamma0=F(-1), a_bcs=F(3, 10), c2=F(1, 4))


def test_bare_vertex():
    p = ModelParams(g0=1.0, delta_c=1.0, q0=0.0, e_f=10.0, k_f=1.0)
    assert bare_vertex(p) == -0.5
    p0 = ModelParams(g0=0.0, delta_c=1.0, q0=0.0, e_f=10.0, k_f=1.0)
    assert bare_vertex(p0) == 0.0
    for g0 in (0.3, 1.7, 12.0):
        assert bare_vertex(ModelParams(g0=g0, delta_c=2.0, q0=0.0, e_f=10.0, k_f=1.0)) < 0


def test_kernel_derived_scalars(const_params, const_lifetime):
    assert K_REF.w == 2
    assert K_REF.pole_mass == F(4, 5)
    T = 0.5
    bare = KernelScalars.from_model(const_params, const_lifetime, T)
    assert bare.state == Vacuum()
    # a thermal state dresses c2 by coth(delta_c / 2T)**2 (beta = 2 gives the same s);
    # the pole mass is bit for bit a + (2 c2) s**2
    s = 1.0 / math.tanh(1.0)
    for state in (Thermal(), Thermal(2.0)):
        k = KernelScalars.from_model(const_params, const_lifetime, T, state=state)
        assert k.state == state
        assert k.pole_mass == bare.a_bcs + 2 * bare.c2 * s**2
        assert k.pole_mass > bare.pole_mass
    # every other state keeps the bare kernel
    for state in (Vacuum(), Fock(3), DiagonalMixture({0: 0.5, 2: 0.5})):
        k = KernelScalars.from_model(const_params, const_lifetime, T, state=state)
        assert (k.a_bcs, k.c2, k.pole_mass) == (bare.a_bcs, bare.c2, bare.pole_mass)


@pytest.mark.parametrize("convention", ["canonical", "eq-bs-u-freq", "subsec-tc"])
@pytest.mark.parametrize("lifetime", [ConstantLifetime(0.04), FermiLiquidLifetime()],
                         ids=["constant", "fermi-liquid"])
def test_kernel_terms_match_from_model(const_params, lifetime, convention):
    # the root searches read the pole mass off the curve, never off a KernelScalars
    states = (Vacuum(), Fock(3), DiagonalMixture({0: 0.5, 2: 0.5}), Thermal(), Thermal(2.0))
    temps = [const_params.e_f * 10.0 ** (k / 4) for k in range(-32, 0)]
    for state in states:
        terms = kernel_terms(const_params, lifetime, convention, state)
        mass = mass_curve(const_params, lifetime, convention, state)
        for T in temps:
            k = KernelScalars.from_model(const_params, lifetime, T, convention, state)
            assert terms(T) == (k.a_bcs, k.c2, k.gtilde, k.dct)
            assert mass(T) == float(k.pole_mass)


def test_kernel_conventions():
    p = ModelParams.with_gtilde(0.001, 1.0, 0.0, 100.0, 1.0)
    lt = ConstantLifetime(0.01)
    base = KernelScalars.from_model(p, lt, 0.05)
    doubled = KernelScalars.from_model(p, lt, 0.05, "eq-bs-u-freq")
    heavy = KernelScalars.from_model(p, lt, 0.05, "subsec-tc")
    assert doubled.a_bcs == pytest.approx(2 * base.a_bcs)
    assert doubled.c2 == pytest.approx(base.c2)
    assert heavy.a_bcs == pytest.approx(2 * base.a_bcs)
    assert heavy.c2 == pytest.approx(16 * base.c2)
    with pytest.raises(ValueError):
        KernelScalars.from_model(p, lt, 0.05, "bogus")


def test_hierarchy_reference_values():
    h = solve_fock_hierarchy(2, K_REF)
    assert h == (F(-5), F(-55), F(-655))


def _quadratic_hierarchy(n, kernel, mutate_f=False):
    """The sector recursion summed term by term, O(n**2): the reference for the running sums."""
    denom = 1 - kernel.pole_mass
    values = []
    for m in range(n + 1):
        drive = kernel.gamma0
        for j in range(m):
            drive += kernel.w * (m - j + (1 if mutate_f else 0)) * values[j]
        values.append(drive / denom)
    return tuple(values)


def _preset_kernels():
    """Each preset's states, lifted exactly, at the temperature ``vertex`` reads them."""
    kernels = []
    for cfg_path in sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg")):
        cfg = RunConfig.parse(cfg_path.read_text(encoding="utf-8"))
        p, lt = cfg.params(), cfg.lifetime_model()
        for state in cfg.state_objects():
            t = find_tc(p, lt, state, cfg.convention).t_c * (1 + cfg.xi_reduced_t)
            kernels.append(KernelScalars.from_model(p, lt, t, cfg.convention, state).exact())
    return kernels


RATIONAL_KERNELS = (
    K_REF,
    KernelScalars(gamma0=F(-3), a_bcs=F(2, 5), c2=F(0)),
    KernelScalars(gamma0=F(-7, 3), a_bcs=F(9, 10), c2=F(3, 100)),
    KernelScalars(gamma0=F(-1), a_bcs=F(3, 2), c2=F(1, 8)),  # past the pole: 1 - M < 0
)


@pytest.mark.parametrize("mutate_f", [False, True], ids=["clean", "mutated"])
def test_running_sums_match_quadratic_recursion(mutate_f):
    for kernel in RATIONAL_KERNELS + tuple(_preset_kernels()):
        assert isinstance(kernel.c2, F)
        reference = _quadratic_hierarchy(64, kernel, mutate_f)
        for n in (0, 1, 12, 32, 64):
            assert solve_fock_hierarchy(n, kernel, mutate_f) == reference[: n + 1]


def test_hierarchy_criticality_guard():
    k = KernelScalars(gamma0=F(-1), a_bcs=F(1, 2), c2=F(1, 4))  # pole mass 1
    with pytest.raises(CriticalityError):
        solve_fock_hierarchy(3, k)


def test_closed_form_at_origin():
    rf = intermediate_vertex_closed_form(K_REF)
    assert rf(0) == K_REF.gamma0 / (1 - K_REF.pole_mass)


def test_closed_form_gaussian_limit_is_constant():
    k = KernelScalars(gamma0=F(-1), a_bcs=F(3, 10), c2=F(0))
    rf = intermediate_vertex_closed_form(k)
    assert rf == RF((F(-10, 7),))


def test_closed_form_series_matches_reference():
    assert physical_vertex_series(K_REF, 2) == [F(-5), F(-55), F(-655)]


def test_oracle_exact_reference():
    rep = oracle_check(12, K_REF)
    assert rep.ok and rep.max_abs_discrepancy == 0


def test_oracle_gaussian_collapse():
    k = KernelScalars(gamma0=F(-3), a_bcs=F(2, 5), c2=F(0))
    rep = oracle_check(8, k)
    assert rep.ok
    assert all(v == F(-5) for v in rep.hierarchy)  # -3 / (3/5)


def test_oracle_n_zero():
    rep = oracle_check(0, K_REF)
    assert rep.ok and rep.hierarchy == (F(-5),)


def test_oracle_detects_mutation():
    rep = oracle_check(5, K_REF, mutate_f=True)
    assert not rep.ok and rep.max_abs_discrepancy > 0


def test_oracle_on_float_kernel_is_exact_after_lift():
    k = KernelScalars(gamma0=-1.2, a_bcs=0.17, c2=0.21)
    rep = oracle_check(12, k)
    assert rep.ok and rep.max_abs_discrepancy == 0


def test_unit_weight_display_coefficients():
    # at c2 = 1/8 the coupling weight w = 8*c2 is 1, which reproduces the
    # display coefficients (1; 1,1; 1,3,1) of the iterated solution
    k = KernelScalars(gamma0=F(-1), a_bcs=F(1, 5), c2=F(1, 8))
    assert k.w == 1
    h = solve_fock_hierarchy(2, k)
    d = 1 - k.pole_mass
    g0 = k.gamma0
    assert h[0] == g0 / d
    assert h[1] == g0 * (1 / d + 1 / d**2)
    assert h[2] == g0 * (1 / d + 3 / d**2 + 1 / d**3)


def test_solve_thermal_substitution(const_params, const_lifetime):
    # the thermal vertex is the vacuum vertex of the kernel with c2 -> c2 * s**2
    state = Thermal(math.log(3.0))
    s = statistical_factor(state, const_params.delta_c)
    bare = KernelScalars.from_model(const_params, const_lifetime, 0.2)
    k = KernelScalars.from_model(const_params, const_lifetime, 0.2, state=state)
    assert k.c2 == bare.c2 * s**2
    assert vertex_for_state(k) == vertex_for_state(replace(bare, c2=bare.c2 * s**2))


def test_solve_thermal_vacuum_limit(const_params, const_lifetime):
    # coth(30) is 1.0 in floats, so the kernel built for Thermal(60) is the
    # bare kernel in every number and its vertex is the vacuum sector's
    assert statistical_factor(Thermal(60.0), const_params.delta_c) == 1.0
    bare = KernelScalars.from_model(const_params, const_lifetime, 0.2)
    k = KernelScalars.from_model(const_params, const_lifetime, 0.2, state=Thermal(60.0))
    assert replace(k, state=Vacuum()) == bare
    assert vertex_for_state(k) == vertex_for_state(bare) == solve_fock_hierarchy(0, bare)[0]


def test_solve_thermal_finite_on_grid(fl_params, fl_lifetime):
    # above the transition the closed thermal vertex is finite and |Gamma|
    # shrinks as the kernel mass falls away from 1
    tc = find_tc(fl_params, fl_lifetime, Thermal()).t_c
    vals = []
    for fac in (2.0, 3.0, 5.0, 8.0):
        k = KernelScalars.from_model(fl_params, fl_lifetime, tc * fac, state=Thermal())
        vals.append(abs(vertex_for_state(k)))
        assert math.isfinite(vals[-1])
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_resummation_x_zero_exact():
    rep = thermal_resummation_check(K_REF, 0)
    assert rep.residual == 0.0 and rep.n_used == 0


def test_resummation_scalar_identity_at_half():
    x = F(1, 2)
    assert 1 + 4 * x / (1 - x) ** 2 == ((1 + x) / (1 - x)) ** 2 == 9


def test_resummation_converged():
    k = KernelScalars(gamma0=F(-1), a_bcs=F(1, 10), c2=F(1, 100))
    rep = thermal_resummation_check(k, F(1, 3))
    assert rep.residual < 1e-8
    assert rep.tail < 1e-12


def test_divergence_order():
    # Gamma^n (1 - pole_mass)^(n+1) approaches w^n gamma0 as pole_mass -> 1
    c2 = F(1, 8)
    w = 8 * c2
    for n in (1, 2, 4):
        vals = []
        for eps in (F(1, 100), F(1, 10**4), F(1, 10**6)):
            k = KernelScalars(gamma0=F(-1), a_bcs=1 - 2 * c2 - eps, c2=c2)
            g = solve_fock_hierarchy(n, k)[n]
            vals.append(g * eps ** (n + 1))
        target = w**n * F(-1)
        assert abs(float(vals[-1] - target)) < 1e-4 * abs(float(target))
        # successive estimates close in on the pole coefficient
        assert abs(float(vals[2] - target)) < abs(float(vals[0] - target))


def test_vertex_for_state_dispatch(const_params, const_lifetime):
    h = solve_fock_hierarchy(4, K_REF)
    fock3 = replace(K_REF, state=Fock(3))
    assert vertex_for_state(K_REF) == h[0]
    assert vertex_for_state(fock3) == h[3]
    # point-mass weights keep exact kernels exact
    assert isinstance(vertex_for_state(K_REF), F)
    assert isinstance(vertex_for_state(fock3), F)
    mix = replace(K_REF, state=DiagonalMixture({0: 0.5, 2: 0.5}))
    assert float(vertex_for_state(mix)) == pytest.approx(0.5 * float(h[0]) + 0.5 * float(h[2]))
    # a thermal kernel reads the vacuum sector of its dressed kernel, exactly when lifted
    th = KernelScalars.from_model(const_params, const_lifetime, 0.2, state=Thermal()).exact()
    assert vertex_for_state(th) == solve_fock_hierarchy(0, th)[0]
    assert isinstance(vertex_for_state(th), F)


def test_vertex_for_state_thermal_fixed_beta():
    p = ModelParams(g0=1.0, delta_c=1.0, q0=0.0, e_f=100.0, k_f=1.0)
    lt = ConstantLifetime(0.5)
    state = Thermal(math.log(3.0))  # s = coth(beta * delta_c / 2) = 2
    bare = KernelScalars.from_model(p, lt, 0.5)
    k = KernelScalars.from_model(p, lt, 0.5, state=state)
    assert state.weights == k.state.weights == {0: 1}
    assert k.c2 == pytest.approx(bare.c2 * 2.0**2, rel=1e-15)
    closed = bare.gamma0 / (1 - bare.a_bcs - 2 * bare.c2 * 2.0**2)
    assert vertex_for_state(k) == pytest.approx(closed, rel=1e-14)


# -- property tests ----------------------------------------------------------

@st.composite
def subcritical_kernels(draw):
    c2 = F(draw(st.integers(1, 30)), 100)
    a = F(draw(st.integers(1, 90)), 100)
    m = a + 2 * c2
    if m >= 1:
        a = a / (2 * m)  # pull back inside the normal phase
    g0 = -F(draw(st.integers(1, 8)), draw(st.integers(1, 4)))
    return KernelScalars(gamma0=g0, a_bcs=a, c2=c2)


@settings(max_examples=40, deadline=None)
@given(subcritical_kernels(), st.integers(min_value=1, max_value=10))
def test_oracle_equivalence_property(kernel, n):
    assert oracle_check(n, kernel).ok


@settings(max_examples=40, deadline=None)
@given(subcritical_kernels())
def test_hierarchy_magnitudes_increase(kernel):
    vals = solve_fock_hierarchy(6, kernel)
    mags = [abs(v) for v in vals]
    assert all(b > a for a, b in zip(mags, mags[1:]))
