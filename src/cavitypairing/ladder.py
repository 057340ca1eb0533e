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
kernel: ``kernel_terms`` dresses c2 by s**2 at its statistical factor
s = coth(beta*delta_c/2), and the vertex is then the vacuum sector of the
dressed kernel, gamma0 / (1 - a_bcs - 2*c2*s**2).  Every other state averages
the bare hierarchy over its Fock-sector weights.  ``kernel_terms`` is the one
place a photon state shapes a kernel: it returns the terms as a function of T
on plain floats.  ``KernelScalars.from_model`` freezes them at one T, keeping
the state so that ``pole_mass`` and ``vertex_for_state`` need no argument, and
``mass_curve`` reads the pole mass off them without building a kernel, for the
root searches that evaluate it hundreds of times.

Published variants of the kernel normalisation differ by factors of two; they
are exposed as a convention switch and rescale ``a_bcs``/``c2`` only.  No
critical exponent depends on the choice.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Union

from .model import (
    InitialPhotonState,
    LifetimeModel,
    ModelParams,
    Thermal,
    Vacuum,
    statistical_factor,
    tau_inv,
)
from .useries import RationalFunction, taylor

__all__ = [
    "CONVENTIONS",
    "CriticalityError",
    "KernelScalars",
    "OracleReport",
    "ResummationReport",
    "bare_vertex",
    "intermediate_vertex_closed_form",
    "kernel_terms",
    "mass_curve",
    "oracle_check",
    "physical_vertex_series",
    "solve_fock_hierarchy",
    "thermal_resummation_check",
    "vertex_for_state",
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


def _pole_mass(a_bcs: Number, c2: Number) -> Number:
    return a_bcs + 2 * c2


def kernel_terms(
    p: ModelParams,
    lt: LifetimeModel,
    convention: str = "canonical",
    state: InitialPhotonState = Vacuum(),
) -> Callable[[float], tuple]:
    """The photon state's kernel terms as a function T -> (a_bcs, c2, gtilde, dct).

    The convention, gtilde, delta_c and whether the state is thermal are read
    once; each call then costs a lifetime rate and a few float operations.  A
    thermal state dresses c2 by s**2 at its statistical factor s; this is the
    one place a photon state shapes a kernel.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    fa, fc = CONVENTIONS[convention]
    g, dc = p.gtilde, p.delta_c
    thermal = isinstance(state, Thermal)

    def terms(temperature: float) -> tuple:
        if temperature <= 0:
            raise ValueError("temperature must be > 0")
        dct = dc / tau_inv(lt, p, temperature)
        try:
            c2 = fc * (g * dct) ** 2
        except OverflowError as exc:
            raise OverflowError(
                f"resonant kernel c2 = (gtilde * delta_c * tau)**2 overflows: "
                f"delta_c * tau = {dct:.6g} for lifetime {lt} at T = {temperature:.6g}"
            ) from exc
        if thermal:
            s = statistical_factor(state, dc, temperature)
            try:
                c2 = c2 * s**2
            except OverflowError as exc:
                raise OverflowError(
                    f"thermal kernel mass a_bcs + 2 c2 s**2 overflows: photon statistical "
                    f"factor s = coth(beta * delta_c / 2) = {s:.6g} at T = {temperature}"
                ) from exc
        return fa * g * dc / temperature, c2, g, dct

    return terms


def mass_curve(
    p: ModelParams,
    lt: LifetimeModel,
    convention: str = "canonical",
    state: InitialPhotonState = Vacuum(),
) -> Callable[[float], float]:
    """T -> pole mass of the photon state's kernel, equal to ``from_model(...).pole_mass``."""
    terms = kernel_terms(p, lt, convention, state)
    return lambda temperature: _pole_mass(*terms(temperature)[:2])


@dataclass(frozen=True)
class KernelScalars:
    """Scalar kernels of the on-shell ladder at one temperature, for one photon state.

    ``state`` is the photon state the kernel was built for: a thermal state's
    c2 is already dressed by s**2, and ``vertex_for_state`` averages over the
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
        return _pole_mass(self.a_bcs, self.c2)

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
        return cls(bare_vertex(p), *kernel_terms(p, lt, convention, state)(temperature), state)

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


@dataclass(frozen=True)
class OracleReport:
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


@dataclass(frozen=True)
class ResummationReport:
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


def vertex_for_state(kernel: KernelScalars):
    """Physical on-shell vertex for the photon state the kernel was built for.

    Averages the hierarchy over the state's sector weights: a single sector
    for the vacuum and number states, and the vacuum sector of the dressed
    kernel for a thermal state.
    """
    weights = kernel.state.weights
    hier = solve_fock_hierarchy(max(weights), kernel)
    return sum(w * hier[m] for m, w in weights.items())
