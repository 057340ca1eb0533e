"""On-shell ladder equations for the cavity pairing channel.

The resummed scattering vertex of two electrons at the Fermi surface, with the
photon either absorbed virtually (static channel, kernel ``a_bcs = gtilde *
delta_c / T``) or exchanged as a real resonant quantum (kernel ``c2 = (gtilde
* delta_c * tau)**2``), closes on a single on-shell component.  With the
quadratic source u attached to the photon's statistical line, the intermediate
vertex is an exact rational function of u,

    Gamma(u) = gamma0 / (1 - a_bcs - 2*c2*((1+u)/(1-u))**2),

and the physical vertex for n photons is the n-th Taylor coefficient of
Gamma(u)/(1-u).  Equivalently, the sector values obey the recursion

    Gamma^m = [gamma0 + w * sum_{j<m} (m-j) Gamma^j] / (1 - M),

with hierarchy coupling weight w = 8*c2 and pole mass M = a_bcs + 2*c2.  Both routes
are implemented independently; ``oracle_check`` demands bit-exact agreement in
rational arithmetic.  Both are linear in n: the series is a long division by a
denominator of degree at most 3, and ``solve_fock_hierarchy`` carries the
weighted sum as two running sums, s0 = sum_{j<m} Gamma^j and
s1 = sum_{j<m} (m-j) Gamma^j, with s1 += s0 before each step.  Its negative
control ``mutate_f`` turns the weights (m-j) into (m-j+1), so the drive's sum
becomes s1 + s0.  A thermal (Gaussian) photon state only renormalises the
kernel: ``kernel_curves`` dresses c2 by s**2 at its statistical factor
s = coth(beta*delta_c/2), and the vertex is then the vacuum sector of the
dressed kernel, gamma0 / (1 - a_bcs - 2*c2*s**2).  Every other state averages
the bare hierarchy over its Fock-sector weights.  ``kernel_curves`` is the one
place a photon state shapes a kernel.  It returns the kernel terms, the pole
mass M = a_bcs + 2*c2 and its slope -dM/dT as functions of T on plain floats,
resolving the convention, the lifetime model and the state's dressing once,
when it is built: f_a*gtilde*delta_c always, delta_c*tau and c2 for a
constant lifetime, and s for a thermal state of fixed beta.  A call then
computes a_bcs = (f_a*gtilde*delta_c)/T and only what still depends on T:
the Fermi-liquid rate and the equilibrium s.  The mass curve returns the
float alone, for the root scan that calls it at every point, and the slope
is analytic, from the log-derivatives of the rate and of s.  With a
constant lifetime and no equilibrium dressing the mass is A/T + B with
A = f_a*gtilde*delta_c and B = 2*c2 fixed, which ``critical`` solves in
closed form with no scan, and the slope is A/T**2.  ``critical.find_tc``
builds the curves once per root, and the ``Criticality`` it returns carries
them to the fits and the on-shell vertex.
``KernelScalars.from_model`` freezes the terms at one T, keeping the state so
that ``pole_mass`` and ``log_vertex`` need no argument.

Floats read the vertex from the two-pole closed form of Gamma(u)/(1-u) instead
of the recursion, whose values leave the float range near the pole from
n ~ 46.  Its denominator (1-a)(1-u)**2 - 2*c2*(1+u)**2 has the reciprocal roots
u and 1/u with, for gap = 1 - M and rho = sqrt(2*c2/(1-a)),

    u = gap / ((1-a) (1+rho)**2),
    Gamma^n = (gamma0/gap) (1 + u**(2n+1)) / ((1+u) u**n),

written with gap rather than as (1-rho)/(1+rho), which cancels near the pole.
Above the root (gap > 0) every sector has gamma0's sign, so ``log_vertex``
returns log|Gamma| and averages a state's sectors by log-sum-exp;
``signed_exp`` turns a log magnitude back into a float, +-inf past the float
range.  The exact recursion stays the reference it is checked against.

Published variants of the kernel normalisation differ by factors of two; they
are exposed as a convention switch and rescale ``a_bcs``/``c2`` only.  No
critical exponent depends on the choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Union

from .model import (
    ConstantLifetime,
    FermiLiquidLifetime,
    InitialPhotonState,
    LifetimeModel,
    ModelParams,
    Thermal,
    Vacuum,
    _fermi_liquid_rate,
    statistical_factor,
)
from .useries import RationalFunction, taylor

__all__ = [
    "CONVENTIONS",
    "CriticalityError",
    "KernelCurves",
    "KernelScalars",
    "OracleReport",
    "ResummationReport",
    "bare_vertex",
    "intermediate_vertex_closed_form",
    "kernel_curves",
    "log_sum_exp",
    "log_vertex",
    "oracle_check",
    "physical_vertex_series",
    "signed_exp",
    "solve_fock_hierarchy",
    "thermal_resummation_check",
]

Number = Union[int, float, Fraction]

#: Kernel normalisation variants: (bcs factor, resonant factor) multipliers
#: applied on top of the canonical a_bcs = gtilde*delta_c/T, c2 = (gtilde*delta_c*tau)**2.
CONVENTIONS = {
    "canonical": (1, 1),
    "eq-bs-u-freq": (2, 1),
    "subsec-tc": (2, 16),
}


class CriticalityError(ArithmeticError):
    """Kernel sits on the pairing instability; the linear solve is singular."""


def _exact(x: Number) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)  # exact binary value
    raise TypeError(f"cannot lift {type(x).__name__} to a rational")


def bare_vertex(p: ModelParams) -> float:
    """Bare pairing vertex gamma0 = -g0**2 / (2 delta_c) (attractive)."""
    return -p.g0**2 / (2.0 * p.delta_c)


class KernelCurves(NamedTuple):
    """One model and photon state's kernel as functions of T, built by ``kernel_curves``."""

    terms: Callable[[float], tuple]
    mass: Callable[[float], float]
    slope: Callable[[float], float]
    split: tuple[float, float] | None


def kernel_curves(
    p: ModelParams,
    lt: LifetimeModel,
    convention: str = "canonical",
    state: InitialPhotonState = Vacuum(),
) -> KernelCurves:
    """The state's kernel terms, pole mass and mass slope as functions of T.

    Built once per model and state: f_a gtilde delta_c, and for a constant
    lifetime delta_c tau and c2, dressed when the state is thermal with a fixed
    beta, are computed here.  A call computes a_bcs = f_a gtilde delta_c / T
    and what still depends on T, the Fermi-liquid rate and the equilibrium
    s = coth(delta_c / 2T).  A thermal state dresses c2 by s**2; this is the one
    place a photon state shapes a kernel.

    - ``terms``: T -> (a_bcs, c2, gtilde, dct), the fields of ``KernelScalars``.
    - ``mass``: T -> a_bcs + 2 c2 as a float alone, for the root scans.
    - ``slope``: T -> m = -dM/dT = A / T**2 + 4 c2 (d ln rate/dT - d ln s/dT),
      with d ln rate/dT = (2 - 1 / ln(E_F / T)) / T for the Fermi-liquid rate
      and d ln s/dT = (delta_c / T**2) / sinh(delta_c / T) for the equilibrium
      s, written 2x / -expm1(-2 delta_c / T) with x = exp(-delta_c / T) so that
      it underflows to 0 far below delta_c.  Each is 0 where it is fixed, so
      the slope is exactly the float A / T**2 where c2 does not depend on T.
    - ``split``: (A, B) when c2 does not depend on T, so that the pole mass is
      exactly the float A / T + B; None otherwise.

    An overflow of c2 or of s**2 names T, so it is raised by each call; an
    unknown convention or lifetime model is raised here.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    fa, fc = CONVENTIONS[convention]
    g, dc, e_f = p.gtilde, p.delta_c, p.e_f
    a = fa * g * dc
    if isinstance(lt, ConstantLifetime):
        fixed_dct = dc / lt.rate
    elif isinstance(lt, FermiLiquidLifetime):
        fixed_dct = None
    else:
        raise TypeError(f"unknown lifetime model {lt!r}")
    thermal = isinstance(state, Thermal)
    fixed_s = statistical_factor(state, dc) if thermal and state.beta is not None else None

    def c2_at(temperature: float, dct: float) -> float:
        try:
            c2 = fc * (g * dct) ** 2
        except OverflowError as exc:
            raise OverflowError(
                f"resonant kernel c2 = (gtilde * delta_c * tau)**2 overflows: "
                f"delta_c * tau = {dct:.6g} for lifetime {lt} at T = {temperature:.6g}"
            ) from exc
        if thermal:
            s = statistical_factor(state, dc, temperature) if fixed_s is None else fixed_s
            try:
                c2 = c2 * s**2
            except OverflowError as exc:
                raise OverflowError(
                    f"thermal kernel mass a_bcs + 2 c2 s**2 overflows: photon statistical "
                    f"factor s = coth(beta * delta_c / 2) = {s:.6g} at T = {temperature}"
                ) from exc
        return c2

    # With no Fermi-liquid rate and no equilibrium s, c2 does not depend on T.
    # T enters only its overflow messages, so an overflow is left to each call.
    fixed_c2 = None
    if fixed_dct is not None and (not thermal or fixed_s is not None):
        try:
            fixed_c2 = c2_at(math.nan, fixed_dct)
        except OverflowError:
            pass

    def terms(temperature: float) -> tuple:
        if temperature <= 0:
            raise ValueError("temperature must be > 0")
        dct = dc / _fermi_liquid_rate(e_f, temperature) if fixed_dct is None else fixed_dct
        return a / temperature, c2_at(temperature, dct) if fixed_c2 is None else fixed_c2, g, dct

    # repeats the check and dct of ``terms`` so that a root scan builds no tuple per T
    def mass(temperature: float) -> float:
        if temperature <= 0:
            raise ValueError("temperature must be > 0")
        if fixed_c2 is not None:
            return a / temperature + 2 * fixed_c2
        dct = dc / _fermi_liquid_rate(e_f, temperature) if fixed_dct is None else fixed_dct
        return a / temperature + 2 * c2_at(temperature, dct)

    def slope(temperature: float) -> float:
        c2 = terms(temperature)[1]
        dlog = 0.0  # d ln rate/dT - d ln s/dT
        if fixed_dct is None:
            dlog += (2.0 - 1.0 / math.log(e_f / temperature)) / temperature
        if thermal and fixed_s is None:
            z = dc / temperature
            dlog -= z / temperature * 2.0 * math.exp(-z) / -math.expm1(-2.0 * z)
        return a / (temperature * temperature) + 4 * c2 * dlog

    return KernelCurves(terms, mass, slope, None if fixed_c2 is None else (a, 2 * fixed_c2))


@dataclass(frozen=True)
class KernelScalars:
    """Scalar kernels of the on-shell ladder at one temperature, for one photon state.

    ``state`` is the photon state the kernel was built for: a thermal state's
    c2 is already dressed by s**2, and ``log_vertex`` averages over the
    state's sector weights.  ``gtilde`` and ``dct`` (= delta_c * tau) are kept
    when known so the frequency-sector system can be assembled from the same
    primitives.  Fields may be floats or Fractions; ``exact()`` lifts every
    float to its exact binary rational.
    """

    gamma0: Number
    a_bcs: Number
    c2: Number
    gtilde: Number | None = None
    dct: Number | None = None
    state: InitialPhotonState = Vacuum()

    def __post_init__(self):
        if self.c2 < 0:
            raise ValueError("c2 must be >= 0")

    @property
    def w(self) -> Number:
        """Hierarchy coupling weight, 8*c2."""
        return 8 * self.c2

    @property
    def pole_mass(self) -> Number:
        """Kernel mass a_bcs + 2*c2 whose crossing of 1 is the pole of the state's vertex."""
        return self.a_bcs + 2 * self.c2

    @classmethod
    def from_model(
        cls,
        p: ModelParams,
        lt: LifetimeModel,
        temperature: float,
        convention: str = "canonical",
        state: InitialPhotonState = Vacuum(),
    ) -> "KernelScalars":
        """Kernels at one temperature for the photon state: a thermal one dresses c2 by s**2."""
        return cls(bare_vertex(p), *kernel_curves(p, lt, convention, state).terms(temperature), state)

    def exact(self) -> "KernelScalars":
        """Lift every numeric field to exact rationals (floats are dyadic)."""
        return replace(
            self,
            gamma0=_exact(self.gamma0),
            a_bcs=_exact(self.a_bcs),
            c2=_exact(self.c2),
            gtilde=None if self.gtilde is None else _exact(self.gtilde),
            dct=None if self.dct is None else _exact(self.dct),
        )


def solve_fock_hierarchy(n: int, kernel: KernelScalars, mutate_f: bool = False) -> tuple:
    """Solve the sector recursion bottom-up from the vacuum component.

    Returns the on-shell vertex values Gamma^0..Gamma^n.  The drive
    sum_{j<m} (m-j) Gamma^j is carried as a running sum: with
    s0 = sum_{j<m} Gamma^j and s1 = sum_{j<m} (m-j) Gamma^j, each step adds
    s0 to s1 before it and Gamma^m to s0 after it, so the solve costs O(n)
    operations.  ``mutate_f`` deliberately corrupts the inter-sector coupling
    coefficients from (m-j) to (m-j+1), i.e. the drive's sum to s1 + s0
    (negative control for the oracle check).  A pole denominator that is
    zero (exact) or below 1e-14 (float) is rejected.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    gamma0, denom = kernel.gamma0, 1 - kernel.pole_mass
    if isinstance(denom, Fraction):
        if denom == 0:
            raise CriticalityError("1 - pole_mass = 0: kernel sits exactly on the instability")
    elif abs(denom) < 1e-14:
        raise CriticalityError(f"|1 - pole_mass| = {abs(denom):.3e} < 1e-14")
    w = kernel.w
    values = []
    s0 = s1 = 0
    for _ in range(n + 1):
        s1 = s1 + s0
        value = (gamma0 + w * (s1 + s0 if mutate_f else s1)) / denom
        values.append(value)
        s0 = s0 + value
    return tuple(values)


def intermediate_vertex_closed_form(kernel: KernelScalars) -> RationalFunction:
    """Exact rational function Gamma(u) = gamma0 / (1 - a_bcs - 2*c2*f(u)^2).

    Floats in the kernel are lifted to their exact binary rationals, so the
    closed form is always exact given its inputs.
    """
    k = kernel.exact()
    one_m_a = 1 - k.a_bcs
    # (1-a)(1-u)^2 - 2 c2 (1+u)^2, expanded
    den = RationalFunction(
        (one_m_a - 2 * k.c2, -2 * one_m_a - 4 * k.c2, one_m_a - 2 * k.c2)
    )
    if den(0) == 0:
        raise CriticalityError("pole at u = 0: kernel sits exactly on the instability")
    num = RationalFunction((k.gamma0,)) * RationalFunction((1, -2, 1))
    return num / den


def physical_vertex_series(kernel: KernelScalars, order: int) -> list[Fraction]:
    """Taylor coefficients of Gamma(u)/(1-u): the exact sector values."""
    rf = intermediate_vertex_closed_form(kernel) / RationalFunction((1, -1))
    return taylor(rf, order)


class OracleReport(NamedTuple):
    ok: bool
    max_abs_discrepancy: Fraction
    hierarchy: tuple
    series: tuple


def oracle_check(n: int, kernel: KernelScalars, mutate_f: bool = False) -> OracleReport:
    """Compare recursion against the series oracle, coefficient by coefficient.

    Both sides run in exact rational arithmetic (float kernels are lifted to
    their dyadic values first); agreement must be bit-exact.
    """
    k = kernel.exact()
    rec = solve_fock_hierarchy(n, k, mutate_f=mutate_f)
    ser = tuple(physical_vertex_series(k, n))
    diffs = [abs(a - b) for a, b in zip(rec, ser)]
    worst = max(diffs) if diffs else Fraction(0)
    return OracleReport(worst == 0, worst, rec, ser)


class ResummationReport(NamedTuple):
    residual: float
    n_used: int
    tail: float


def thermal_resummation_check(kernel: KernelScalars, x: Number) -> ResummationReport:
    """Check that the Boltzmann-weighted sector sum closes onto the dressed kernel.

    ``x`` is the Boltzmann ratio exp(-beta * delta_c) of the photon mode.
    The truncated weighted sum (1-x) * sum_{m<=N} x^m Gamma^m is compared
    against gamma0 / (1 - a_bcs - 2*c2*s**2) with s = (1+x)/(1-x), written
    out here rather than taken from a thermal kernel; both sides are built
    from the same recursion coefficients, so the residual isolates the
    rearrangement algebra plus the truncation tail.  N is the least order
    with x**N < 1e-12 (0 for x = 0), capped at 512; ``tail`` reports x**N.
    """
    if not 0 <= x < 1:
        raise ValueError("need 0 <= x < 1")
    k = kernel.exact()
    xe = _exact(x)
    n_max = 0
    while xe > 0 and xe**n_max >= Fraction(1, 10**12) and n_max < 512:
        n_max += 1
    hier = solve_fock_hierarchy(n_max, k)
    partial = (1 - xe) * sum(
        (xe**m * hier[m] for m in range(n_max + 1)), Fraction(0)
    )
    s = (1 + xe) / (1 - xe)
    closed = k.gamma0 / (1 - k.a_bcs - 2 * k.c2 * s**2)
    residual = abs(float(partial - closed))
    return ResummationReport(residual, n_max, float(xe**n_max))


def log_sum_exp(logs: Iterable[float]) -> float:
    """log(sum(exp(x))) of finite logs, scaled by the largest so nothing overflows."""
    logs = list(logs)
    top = max(logs)
    return top + math.log(sum(math.exp(x - top) for x in logs))


def signed_exp(log_magnitude: float, sign: Number) -> float:
    """copysign(exp(log_magnitude), sign): +-inf past the float range, +-0 below it."""
    try:
        return math.copysign(math.exp(log_magnitude), sign)
    except OverflowError:
        return math.copysign(math.inf, sign)


def log_vertex(kernel: KernelScalars) -> float:
    """log|Gamma| of the on-shell vertex for the photon state the kernel was built for.

    Each Fock sector n reads the two-pole closed form (module docstring), and
    the state's sector weights combine by log-sum-exp: a single sector for the
    vacuum and number states, and the vacuum sector of the dressed kernel for
    a thermal state.  The vertex has gamma0's sign.  A pole denominator
    1 - pole_mass below 1e-14 in magnitude, or at or below zero (on or past
    the instability, where sectors change sign), is rejected.
    """
    gamma0, a, c2 = float(kernel.gamma0), float(kernel.a_bcs), float(kernel.c2)
    gap = 1 - (a + 2 * c2)
    if abs(gap) < 1e-14:
        raise CriticalityError(f"|1 - pole_mass| = {abs(gap):.3e} < 1e-14")
    if gap < 0:
        raise CriticalityError(f"1 - pole_mass = {gap:.3e} < 0: the kernel is past the instability")
    one_m_a = 1 - a
    u = gap / (one_m_a * (1 + math.sqrt(2 * c2 / one_m_a)) ** 2)
    log_u, log1p_u = math.log(u), math.log1p(u)
    base = math.log(abs(gamma0 / gap))
    return log_sum_exp(
        math.log(w) + base - n * log_u + (math.log1p(u ** (2 * n + 1)) - log1p_u)
        for n, w in kernel.state.weights.items()
        if w > 0
    )
