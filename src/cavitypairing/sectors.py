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

The loop is integrated by ``critical.quad``, the package's adaptive
Gauss-Kronrod rule, and a missed tolerance raises ``critical.QuadratureError``;
both names are bound here too.  Of the commands only ``verify`` loads this
module.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import model
from .critical import QuadratureError, quad
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


class QuadratureResult(NamedTuple):
    value: complex
    error_estimate: float
    evaluations: int


# ---------------------------------------------------------------------------
# sector linear system over rational functions of u
# ---------------------------------------------------------------------------

class SectorSystem(NamedTuple):
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

def _static_loop_weight(omega, p, lt, temperature):
    """i/(2pi) * [G_K(w) G_R(-w) + G_R(w) G_K(-w)] at the Fermi surface; real."""
    gk = model.fermion_gk(omega, p, lt, temperature)
    gr_m = model.fermion_gr(-omega, p, lt, temperature)
    gr_p = model.fermion_gr(omega, p, lt, temperature)
    gk_m = -gk  # G_K is odd in w
    val = 1j / (2.0 * math.pi) * (gk * gr_m + gr_p * gk_m)
    return val.real


# Relative tolerance of the loop quadrature and its frequency cut in units of delta_c.
_TOL = 1e-9
_OMEGA_CUT = 50.0
# the largest delta_c * tau at which the loop quadrature was measured to meet the analytic kernel
_MAX_DCTAU = 3e9


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
    ``offshell_bcs_cancellation`` below 1e-2, for 1e2 <= delta_c * tau <= 3e9
    with delta_c * tau * T / delta_c >= 600 and T / delta_c below about 0.96
    delta_c * tau, above which the tail estimate exceeds tolerance and
    ``QuadratureError`` is raised.  Past 3e9 the ratio misses by up to
    -1.02e-2 while its error estimate stays below 1e-9: at the low-temperature
    edge up to delta_c * tau = 1e12 (T / delta_c = 600 / (delta_c * tau) at
    5e9), and at every T from 1e13.  So a delta_c * tau above 3e9 raises
    ``QuadratureError`` before any quadrature runs.
    """
    dc = p.delta_c
    rate = tau_inv(lt, p, temperature)
    if dc / rate > _MAX_DCTAU:
        raise QuadratureError(
            f"delta_c * tau = {dc / rate:.6g} is above {_MAX_DCTAU:g}, past which the loop "
            "quadrature misses the analytic kernel with no error estimate showing it"
        )
    psi = lambda w: _static_loop_weight(w, p, lt, temperature)
    analytic = 1.0 / (4.0 * dc * dc * temperature)

    # Psi is even, so the two principal-value poles fold onto one:
    # I = (1/(2 dc)) PV int_{-Om}^{Om} Psi(w)/(w - dc) dw, and the principal
    # value over [dc/2, 3dc/2] is int_0^{dc/2} (Psi(dc+s) - Psi(dc-s))/s ds.
    big = _OMEGA_CUT * dc
    scale_abs = _TOL * analytic * 2.0 * dc / 8.0
    # Psi peaks at w = 0 with width ~ rate: panels that start at multiples of the
    # rate about it sample the peak however narrow it is
    hints = sorted(
        x for x in (
            -125 * rate, -25 * rate, -5 * rate, -rate, 0.0,
            rate, 5 * rate, 25 * rate, 125 * rate, -dc / 4, dc / 4,
        ) if -big < x < dc / 2
    )
    g = lambda w: psi(w) / (w - dc)
    parts = [
        quad(lambda s: (psi(dc + s) - psi(dc - s)) / s, 0.0, dc / 2, scale_abs, _TOL, 400),
        quad(g, -big, dc / 2, scale_abs, _TOL, 800, hints),
        quad(g, 3 * dc / 2, big, scale_abs, _TOL, 400),
    ]
    total = math.fsum(v for v, _, _ in parts)
    err = sum(e for _, e, _ in parts)
    nev = sum(n for _, _, n in parts)
    # |Psi| <= (2 rate / pi) / w^3 beyond the cut; bound the discarded tail.
    tail = 2.0 * (2.0 * rate / math.pi) / (2.0 * big**2 * (big - dc))
    value = total / (2.0 * dc)
    est = (err + tail) / (2.0 * dc) / analytic
    ratio = value / analytic
    if est > max(_TOL * 1e4, 1e-5):
        raise QuadratureError(f"error estimate {est:.3e} above tolerance")
    return QuadratureResult(complex(ratio), est, nev)


class OffshellCancellation(NamedTuple):
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
