"""Physical parameters and single-particle Keldysh Green's functions.

Fermions live on a 2D Fermi surface with a lifetime broadening; the cavity
supplies a single gapped boson mode of frequency ``delta_c`` (the detuning of
the resonance from the drive) and momentum ``q0 << k_F``.  The photon's
initial state enters through the Fock-sector ``weights`` of the vertex
average, and a thermal state also through ``statistical_factor``, the
s = coth(beta * delta_c / 2) that dresses the resonant kernel; its weights
are the vacuum sector {0: 1} of that dressed kernel.

All operations are pure functions of immutable inputs and may be evaluated
concurrently without coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Union

__all__ = [
    "ConstantLifetime",
    "DiagonalMixture",
    "DomainError",
    "FermiLiquidLifetime",
    "Fock",
    "InitialPhotonState",
    "LifetimeModel",
    "ModelParams",
    "Thermal",
    "Vacuum",
    "fermion_gk",
    "fermion_gr",
    "photon_d0",
    "statistical_factor",
    "tau_inv",
]


class DomainError(ValueError):
    """Input outside the validity domain of a physical formula."""


def _finite(z: complex) -> complex:
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ArithmeticError(f"non-finite value escaped an operation: {z!r}")
    return z


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelParams:
    """All physical scales in one immutable record.

    ``g0`` is the light-matter coupling amplitude (units energy**0.5),
    ``delta_c`` the photon gap, ``q0`` the cavity momentum, ``e_f``/``k_f``
    the Fermi energy and momentum.  The derived dimensionless coupling
    ``gtilde = g0**2 / (4*pi*delta_c)**2`` is recomputed on access and never
    stored.  ``q0`` and ``k_f`` are validated but enter no formula: every
    propagator is evaluated on the Fermi surface.
    """

    g0: float
    delta_c: float
    q0: float
    e_f: float
    k_f: float

    def __post_init__(self):
        fields = (self.g0, self.delta_c, self.q0, self.e_f, self.k_f)
        if not all(math.isfinite(x) for x in fields):
            raise DomainError("model parameters must be finite")
        if self.delta_c <= 0:
            raise DomainError("delta_c must be > 0 (attractive regime)")
        if self.e_f <= 0 or self.k_f <= 0:
            raise DomainError("e_f and k_f must be > 0")
        if self.q0 < 0 or self.q0 > 0.1 * self.k_f:
            raise DomainError("q0 must satisfy 0 <= q0 << k_F (enforced: q0 <= 0.1 k_F)")

    @property
    def gtilde(self) -> float:
        return self.g0**2 / (4.0 * math.pi * self.delta_c) ** 2

    @classmethod
    def with_gtilde(
        cls, gtilde: float, delta_c: float, q0: float, e_f: float, k_f: float
    ) -> "ModelParams":
        """Build parameters from the dimensionless coupling instead of g0."""
        if gtilde <= 0:
            raise DomainError("gtilde must be > 0")
        return cls(
            g0=math.sqrt(gtilde) * 4.0 * math.pi * delta_c,
            delta_c=delta_c, q0=q0, e_f=e_f, k_f=k_f,
        )


# ---------------------------------------------------------------------------
# quasiparticle lifetime
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantLifetime:
    """Temperature-independent broadening tau_inv (an energy)."""

    rate: float

    def __post_init__(self):
        if not 0 < self.rate < math.inf:
            raise DomainError("constant lifetime rate must be finite and > 0")


@dataclass(frozen=True)
class FermiLiquidLifetime:
    """tau_inv(T) = (pi T^2 / 8 E_F) ln(E_F / T), valid for 0 < T < E_F."""


LifetimeModel = Union[ConstantLifetime, FermiLiquidLifetime]


def tau_inv(lt: LifetimeModel, p: ModelParams, temperature: float) -> float:
    if isinstance(lt, ConstantLifetime):
        return lt.rate
    if isinstance(lt, FermiLiquidLifetime):
        if not (0.0 < temperature < p.e_f):
            raise DomainError(
                f"Fermi-liquid lifetime needs 0 < T < E_F, got T={temperature}, E_F={p.e_f}"
            )
        return (math.pi * temperature**2 / (8.0 * p.e_f)) * math.log(p.e_f / temperature)
    raise TypeError(f"unknown lifetime model {lt!r}")


# ---------------------------------------------------------------------------
# initial photon states
# ---------------------------------------------------------------------------

# Vacuum and Fock(n) read as point-mass diagonal mixtures through ``weights``.
# The weight is the int 1, so exact (Fraction) kernels stay exact and float
# results are bit-identical to reading the single sector directly.

@dataclass(frozen=True)
class Vacuum:
    @property
    def weights(self) -> Mapping[int, int]:
        return {0: 1}


@dataclass(frozen=True)
class Fock:
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise DomainError("Fock occupation must be >= 0")

    @property
    def weights(self) -> Mapping[int, int]:
        return {self.n: 1}


@dataclass(frozen=True)
class Thermal:
    """Thermal photon state.

    ``beta = None`` means the photons equilibrate with the electron bath, so
    the statistical factor is evaluated at the ambient electron temperature.
    """

    beta: float | None = None

    def __post_init__(self):
        if self.beta is not None and not self.beta > 0:
            raise DomainError("thermal beta must be > 0")

    @property
    def weights(self) -> Mapping[int, int]:
        """The vacuum sector of the kernel its statistical factor dresses."""
        return {0: 1}


@dataclass(frozen=True)
class DiagonalMixture:
    weights: Mapping[int, float]

    def __post_init__(self):
        w = dict(self.weights)
        if not w:
            raise DomainError("mixture needs at least one weight")
        if any(n < 0 for n in w):
            raise DomainError("occupation numbers must be >= 0")
        if not all(x >= 0 for x in w.values()):
            raise DomainError("mixture weights must be non-negative")
        total = sum(w.values())
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"mixture weights sum to {total}, expected 1 within 1e-12")
        object.__setattr__(self, "weights", dict(sorted(w.items())))

    def __hash__(self):
        return hash(tuple(self.weights.items()))


InitialPhotonState = Union[Vacuum, Fock, Thermal, DiagonalMixture]


def statistical_factor(
    state: Thermal, delta_c: float, temperature: float | None = None
) -> float:
    """Thermal s = coth(beta delta_c / 2) multiplying the vacuum Keldysh photon function.

    The equilibrium state (``beta = None``) takes beta = 1/T at the ambient temperature.
    """
    if state.beta is not None:
        x = state.beta * delta_c / 2.0
    elif temperature is None or temperature <= 0:
        raise DomainError("equilibrium thermal state needs a positive ambient temperature")
    else:
        x = delta_c / (2.0 * temperature)
    return 1.0 / math.tanh(x)


# ---------------------------------------------------------------------------
# fermion Green's functions (frequency domain, on the Fermi surface)
# ---------------------------------------------------------------------------

def fermion_gr(omega: float, p: ModelParams, lt: LifetimeModel, temperature: float) -> complex:
    """Retarded fermion propagator 1/(w + i/tau) on the Fermi surface."""
    rate = tau_inv(lt, p, temperature)
    return _finite(1.0 / complex(omega, rate))


def fermion_gk(omega: float, p: ModelParams, lt: LifetimeModel, temperature: float) -> complex:
    """Keldysh fermion propagator on the Fermi surface, broadened by the finite lifetime.

    G_K = [1/(w - i/tau)] * [-2i tanh(w/2T) / tau] / (w + i/tau);
    purely imaginary for real arguments and odd in w.
    """
    rate = tau_inv(lt, p, temperature)
    num = -2.0j * rate * math.tanh(omega / (2.0 * temperature))
    try:
        return _finite(num / (omega**2 + rate**2))
    except (OverflowError, ZeroDivisionError) as exc:
        raise ArithmeticError(
            f"Keldysh fermion denominator w**2 + rate**2 leaves the float range: lifetime "
            f"rate 1/tau = {rate:.6g} (delta_c * tau = {p.delta_c / rate:.6g})"
        ) from exc


# ---------------------------------------------------------------------------
# photon propagators
# ---------------------------------------------------------------------------

def photon_d0(z: complex, p: ModelParams) -> complex:
    """Analytic continuation 1/(2 z^2 - 2 delta_c^2), poles at +-delta_c.

    This is the eta -> 0 limit off the real axis; on the real axis it is the
    principal-value part shared by the retarded and advanced functions.
    """
    return _finite(1.0 / (2.0 * complex(z) ** 2 - 2.0 * p.delta_c**2))
