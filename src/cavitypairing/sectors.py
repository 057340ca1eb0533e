"""Frequency-sector reduction of the pairing ladder and its numerical checks.

The ladder couples the on-shell vertex (external frequency near zero) to the
two off-shell components displaced by one photon gap (+-delta_c); further
sectors are suppressed by the large gap and are excluded.  Assembling the
three sectors gives a linear system over rational functions of the source u
whose on-shell solution must equal the closed-form intermediate vertex
exactly.

Two quadrature checks validate the contour-integration steps behind the
scalar kernels:

* ``bcs_kernel_quadrature`` integrates the static-channel frequency loop with
  the broadened Keldysh fermion function and the exact (principal-value)
  photon propagator and compares with the analytic kernel value; the ratio
  approaches 1 like 1/(delta_c * tau).
* ``offshell_bcs_cancellation`` evaluates the two leading off-shell kernel
  terms, whose resonant denominators ~ 1/(+-2i delta_c / tau) cancel
  pairwise; the residual sum is smaller by another factor 1/(delta_c * tau).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import model
from .ladder import CriticalityError, KernelScalars
from .model import LifetimeModel, ModelParams, tau_inv
from .useries import RationalFunction, f_factor

__all__ = [
    "OffshellCancellation",
    "QuadratureError",
    "QuadratureResult",
    "SectorSystem",
    "bcs_kernel_quadrature",
    "build_sector_system",
    "offshell_bcs_cancellation",
    "solve_sector_system",
]

class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error_estimate: float
    evaluations: int


# ---------------------------------------------------------------------------
# sector linear system over rational functions of u
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SectorSystem:
    """(1 - M) x = b over the rational-function field.

    Unknowns are (Gamma_on-shell(u), Gamma(+delta_c; u), Gamma(-delta_c; u)).
    Static-channel entries are u-independent; only the resonant couplings
    carry the statistical factor f(u) = (1+u)/(1-u).  The inhomogeneous
    vector is (gamma0, 0, 0): the off-shell sectors are driven purely by
    resonant feedback from the on-shell component.
    """

    matrix: tuple
    rhs: tuple


def build_sector_system(kernel: KernelScalars, zero_dk: bool = False) -> SectorSystem:
    """Assemble the three-sector system, exactly, from a kernel with ``gtilde`` and ``dct``.

    All coefficients are lifted to exact rationals (floats become their
    dyadic values), so the downstream solve is exact.  ``zero_dk`` removes
    the statistical (Keldysh photon) couplings: the on-shell equation then
    closes on the static channel alone and every state dependence disappears.
    The photon statistics enter through f(u), so the kernel's c2 must be the
    bare one, not one dressed for a thermal state.
    """
    if kernel.gtilde is None or kernel.dct is None:
        raise ValueError("sector assembly needs gtilde and dct on the kernel")
    k = kernel.exact()
    one = RationalFunction((1,))
    zero = RationalFunction((0,))
    a = RationalFunction((k.a_bcs,))
    if zero_dk:
        res_os = res_off = zero
    else:
        f = f_factor(1)
        # 2 * gtilde * c_off = 2 * c2  =>  the eliminated system closes on
        # 1 - a_bcs - 2*c2*f(u)^2 exactly.
        c_off = k.c2 / k.gtilde
        res_os = RationalFunction((k.gtilde,)) * f
        res_off = RationalFunction((c_off,)) * f
    matrix = (
        (one - a, res_os, res_os),
        (res_off, one, zero),
        (res_off, zero, one),
    )
    rhs = (RationalFunction((k.gamma0,)), zero, zero)
    return SectorSystem(matrix, rhs)


def solve_sector_system(system: SectorSystem) -> RationalFunction:
    """Gaussian elimination over the field of rational functions of u.

    Returns the on-shell component, gcd-reduced.  Raises ``CriticalityError``
    if the reduced solution has a pole at u = 0 (the expansion point).
    """
    n = 3
    a = [list(row) for row in system.matrix]
    b = list(system.rhs)
    for col in range(n):
        piv = next((r for r in range(col, n) if not a[r][col].is_zero()), None)
        if piv is None:
            raise CriticalityError("sector system is singular")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            b[col], b[piv] = b[piv], b[col]
        for r in range(col + 1, n):
            if a[r][col].is_zero():
                continue
            factor = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] = a[r][c] - factor * a[col][c]
            b[r] = b[r] - factor * b[col]
    x = [None] * n
    for r in range(n - 1, -1, -1):
        acc = b[r]
        for c in range(r + 1, n):
            acc = acc - a[r][c] * x[c]
        x[r] = acc / a[r][r]
    on_shell = x[0]
    if on_shell.den[0] == 0:
        raise CriticalityError("on-shell sector solution has a pole at u = 0")
    return on_shell


# ---------------------------------------------------------------------------
# quadrature validation of the contour reductions
# ---------------------------------------------------------------------------

def quad(func, *args, **kwargs):
    """``scipy.integrate.quad``, imported on first use.

    Importing ``scipy.integrate`` costs more than the whole run of a command
    that never integrates, so only the quadrature checks pay for it.  Call
    sites look this name up at call time, so it can be rebound from outside.
    """
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(func, *args, **kwargs)


def _static_loop_weight(omega, p, lt, temperature):
    """i/(2pi) * [G_K(w) G_R(-w) + G_R(w) G_K(-w)] at the Fermi surface; real."""
    gk = model.fermion_gk(omega, p, lt, temperature)
    gr_m = model.fermion_gr(-omega, p, lt, temperature)
    gr_p = model.fermion_gr(omega, p, lt, temperature)
    gk_m = model.fermion_gk(-omega, p, lt, temperature)
    val = 1j / (2.0 * math.pi) * (gk * gr_m + gr_p * gk_m)
    return val.real


# Relative tolerance of the loop quadrature, its frequency cut in units of
# delta_c, and the most integrand evaluations it may spend.
_TOL = 1e-9
_OMEGA_CUT = 50.0
_MAX_EVALUATIONS = 10**6


def bcs_kernel_quadrature(
    p: ModelParams, lt: LifetimeModel, temperature: float
) -> QuadratureResult:
    """Numerically integrate the static-channel frequency loop.

    The integrand is the Keldysh-weighted pair of fermion lines against the
    exact photon propagator; at vanishing regularisation the photon poles at
    +-delta_c reduce to principal values (their delta parts cancel between
    the retarded and advanced assignments).  Returns the ratio of the
    quadrature to the analytic kernel value -D(0)/(2T); the ratio tends to 1
    as delta_c * tau grows, with corrections of first order in its inverse.

    Measured at delta_c = 1: the ratio is within 1e-3 of 1, and that of
    ``offshell_bcs_cancellation`` below 1e-2, for 1e2 <= delta_c * tau <= 2e8
    with delta_c * tau * T / delta_c >= 600 and T / delta_c below about 0.96
    delta_c * tau, above which the tail estimate exceeds tolerance and
    ``QuadratureError`` is raised; at delta_c * tau >= 3e8 it is off by -1.02e-2.
    """
    dc = p.delta_c
    rate = tau_inv(lt, p, temperature)
    psi = lambda w: _static_loop_weight(w, p, lt, temperature)
    analytic = 1.0 / (4.0 * dc * dc * temperature)

    # Psi is even, so the two principal-value poles fold onto one:
    # I = (1/(2 dc)) PV int_{-Om}^{Om} Psi(w)/(w - dc) dw.
    big = _OMEGA_CUT * dc
    total = 0.0
    err = 0.0
    nev = 0
    scale_abs = _TOL * analytic * 2.0 * dc / 8.0

    v, e, info = quad(
        psi, dc / 2, 3 * dc / 2, weight="cauchy", wvar=dc,
        epsabs=scale_abs, epsrel=_TOL, limit=400, full_output=1,
    )[:3]
    total += v; err += e; nev += info["neval"]

    hints = sorted(
        x for x in (
            -125 * rate, -25 * rate, -5 * rate, -rate, 0.0,
            rate, 5 * rate, 25 * rate, 125 * rate, -dc / 4, dc / 4,
        ) if -big < x < dc / 2
    )
    g = lambda w: psi(w) / (w - dc)
    v, e, info = quad(
        g, -big, dc / 2, points=hints, epsabs=scale_abs, epsrel=_TOL,
        limit=800, full_output=1,
    )[:3]
    total += v; err += e; nev += info["neval"]

    v, e, info = quad(
        g, 3 * dc / 2, big, epsabs=scale_abs, epsrel=_TOL, limit=400, full_output=1
    )[:3]
    total += v; err += e; nev += info["neval"]

    if nev > _MAX_EVALUATIONS:
        raise QuadratureError(f"exceeded {_MAX_EVALUATIONS} integrand evaluations")
    # |Psi| <= (2 rate / pi) / w^3 beyond the cut; bound the discarded tail.
    tail = 2.0 * (2.0 * rate / math.pi) / (2.0 * big**2 * (big - dc))
    value = total / (2.0 * dc)
    est = (err + tail) / (2.0 * dc) / analytic
    ratio = value / analytic
    if est > max(_TOL * 1e4, 1e-5):
        raise QuadratureError(f"error estimate {est:.3e} above tolerance")
    return QuadratureResult(complex(ratio), est, nev)


@dataclass(frozen=True)
class OffshellCancellation:
    """Pairwise cancellation of the leading off-shell static kernels.

    ``ratio`` is |sum of the two terms| / max individual magnitude; the
    individual terms scale like the on-shell kernel times delta_c*tau/4 and
    carry resonant denominators of opposite sign, so the ratio decays like
    1/(delta_c * tau).
    """

    ratio: float
    piece_a: complex
    piece_b: complex
    offshell_sum: complex
    onshell: float


def offshell_bcs_cancellation(
    p: ModelParams, lt: LifetimeModel, temperature: float
) -> OffshellCancellation:
    """Evaluate the two displayed off-shell kernel terms at external +delta_c.

    Both come from picking the Lorentzian poles of the Keldysh weight at
    +-i/tau; the photon propagator is evaluated at the exact complex pole
    positions (no leading-order expansion), so the cancellation of the
    1/(+-2i delta_c / tau) parts leaves the genuine subleading remainder.
    """
    dc = p.delta_c
    rate = tau_inv(lt, p, temperature)
    x = rate / (2.0 * temperature)
    if not math.isfinite(x):
        raise ArithmeticError(
            f"off-shell prefactor tan(rate / 2T): rate / 2T overflows at "
            f"delta_c * tau = {dc / rate:.6g}, T / delta_c = {temperature / dc:.6g}"
        )
    pref = -math.tan(x) / (2.0 * rate)
    piece_a = pref * model.photon_d0(complex(-dc, -rate), p)
    piece_b = pref * model.photon_d0(complex(-dc, +rate), p)
    total = piece_a + piece_b
    lead = max(abs(piece_a), abs(piece_b))
    onshell = (
        pref * (model.photon_d0(complex(0, -rate), p) + model.photon_d0(complex(0, rate), p))
    ).real
    return OffshellCancellation(abs(total) / lead, piece_a, piece_b, total, onshell)
