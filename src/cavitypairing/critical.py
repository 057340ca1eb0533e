"""Critical properties of the pairing transition.

The on-shell vertex diverges where the pole mass M(T) of the kernel built
for the photon state (``KernelScalars.pole_mass``) crosses 1: M_vac for
vacuum, number states and mixtures (the root is occupation-independent),
a_bcs + 2 c2 s**2 for a thermal state, whose kernel is dressed at its
statistical factor s (strictly larger, so its root sits above the vacuum
one).  Near the root, 1 - M(T) ~ m (T - T_c) defines the mass slope m, and
the center-of-mass-momentum-resolved vertex takes the quadratic form

    thermal:   gamma0 / [P^2 (cos^2 theta + a) + m (T - T_c)]
    n quanta:  gamma0 / [P^2 (cos^2 theta + a) + m (T - T_c)]^(n+1)

with a fixed anisotropy constant a > 0; the thermal line is the n = 0 term of
the sector average, as a Gaussian state reads the vacuum sector of its
dressed kernel.  Spatial pair correlations follow by Fourier transform over
P; for the number-state case the correlation length is
extracted from the leading-pole form with the mass reduced by n+1, which is
precisely what the binomial collapse of the power form gives at small P (the
exact power form shares the value and curvature at P = 0 but its tail slope
is not what sets the physical decay scale; see ``vertex_P`` for both).

Each Lorentzian term amp / (c_par P_x^2 + c_perp P_y^2 + m)^q transforms in
closed form (DLMF 10.32.10-11; Gradshteyn-Ryzhik 6.565.4):

    C(r) = amp / (2 pi sqrt(c_par c_perp)) (r' / (2 sqrt(m)))^(q-1)
           K_{q-1}(sqrt(m) r') / (q-1)!,        r' = r / sqrt(c_par),

evaluated with ``scipy.special.kv`` over the whole r grid at once.
``correlation_quadrature`` keeps an independent numerical transform (residue
in P_x, adaptive quadrature in P_y) as the reference that ``verify`` checks
the closed form against.

``find_tc`` and ``mass_slope`` take the photon state and read its pole-mass
curve ``ladder.mass_curve``, built once per search with the lifetime, the
convention and the dressing resolved, so a scan point is one curve call;
``fit_gamma`` builds ``ladder.kernel_terms`` once per fit in the same way, and
``momentum_vertex`` the vertex terms once per temperature.  Nothing here
branches on the kind of state.  Everything that can leave the float range
near T_c is carried as a log: ``fit_gamma`` fits ``ladder.log_vertex``, the
vertex terms keep their amplitudes as logs relative to the largest, and
``momentum_vertex`` exponentiates once, through ``ladder.signed_exp``.
``criticality`` returns a frozen ``Criticality`` holding the state, the
model, the root and the mass slope, computed once; the fits, the correlation
functions and the momentum-resolved vertex all take it instead of
re-deriving T_c and m.

The root scan, the fit windows and the correlation grids come from
``_geometric_grid``, and the bisection, ``_line_fit`` and the correlation
logs run on Python floats.  numpy, imported lazily, serves only the ``kv``
transform, so T_c and the fits do not depend on numpy's CPU-specific kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from . import ladder
from .ladder import KernelScalars, log_sum_exp, log_vertex, signed_exp
from .model import (
    DomainError,
    InitialPhotonState,
    LifetimeModel,
    ModelParams,
    Vacuum,
)
from .sectors import QuadratureError, quad

__all__ = [
    "BracketError",
    "CorrelationProfile",
    "CriticalPoint",
    "Criticality",
    "ExponentFit",
    "FitRejected",
    "SlopeError",
    "correlation_function",
    "correlation_quadrature",
    "criticality",
    "find_tc",
    "fit_gamma",
    "fit_nu",
    "fitted_pole_location",
    "mass_slope",
    "momentum_vertex",
    "vertex_P",
]


class BracketError(RuntimeError):
    """No sign change of M(T) - 1 found on the scan grid."""

    def __init__(self, message, scan_table=None):
        super().__init__(message)
        self.scan_table = scan_table


class SlopeError(RuntimeError):
    """Non-positive mass slope: pathological parameters."""


class FitRejected(RuntimeError):
    """Least-squares fit failed the acceptance threshold."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass(frozen=True)
class CriticalPoint:
    t_c: float
    bracket: tuple[float, float]
    residual: float
    n_brackets: int


@dataclass(frozen=True)
class ExponentFit:
    exponent: float
    window: tuple[float, float]
    r_squared: float
    residual_max: float


@dataclass(frozen=True)
class CorrelationProfile:
    r_grid: tuple
    values: tuple
    xi: float
    fit_window: tuple[float, float]
    r_squared: float


@dataclass(frozen=True)
class Criticality:
    """The root a photon state orders at and the mass slope there, built by ``criticality``."""

    state: InitialPhotonState
    params: ModelParams
    lifetime: LifetimeModel
    convention: str
    point: CriticalPoint
    slope: float


# ---------------------------------------------------------------------------
# critical temperature
# ---------------------------------------------------------------------------

# Root scan over [lo, hi] * E_F, and the relative width bisection stops at.
SCAN_RANGE = (1e-8, 0.99)
N_SCAN = 512
RTOL = 1e-12
# Central-difference step of ``mass_slope``, relative to T_c.
SLOPE_STEP = 1e-6


def _geometric_grid(lo: float, hi: float, n: int) -> list[float]:
    """n points from lo to hi at a constant ratio: the ends exact, lo exp(i step) between.

    Ends whose ratio leaves the float range step through exp(log lo + i step).
    """
    ratio = hi / lo
    if ratio < math.inf:
        step = math.log(ratio) / (n - 1)
        inner = [lo * math.exp(i * step) for i in range(1, n - 1)]
    else:
        step = (math.log(hi) - math.log(lo)) / (n - 1)
        inner = [math.exp(math.log(lo) + i * step) for i in range(1, n - 1)]
    return [lo, *inner, hi]


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


def find_tc(
    p: ModelParams,
    lt: LifetimeModel,
    state: InitialPhotonState,
    convention: str = "canonical",
) -> CriticalPoint:
    """Locate the root of the state's M(T) = 1 by geometric scan plus bisection.

    The scan covers ``SCAN_RANGE`` in units of E_F on ``N_SCAN`` points of
    ``_geometric_grid``.  The upper end stays strictly below E_F: the
    Fermi-liquid lifetime formula degenerates (log -> 0) at the band edge,
    which would manufacture a spurious high-temperature crossing.  The
    instability root is a downward crossing (M > 1 below T_c: the vertex
    diverges on cooling); if the scan finds several crossings, the largest
    downward one is refined, and ``CriticalPoint.n_brackets`` counts them.
    """
    lo_f, hi_f = SCAN_RANGE
    ts = _geometric_grid(lo_f * p.e_f, hi_f * p.e_f, N_SCAN)
    mass = ladder.mass_curve(p, lt, convention, state)
    vals = [mass(t) - 1.0 for t in ts]
    brackets = [
        (t0, t1, v0 > v1)
        for t0, t1, v0, v1 in zip(ts, ts[1:], vals, vals[1:])
        if v0 == 0.0 or (v0 > 0) != (v1 > 0)
    ]
    if not brackets:
        raise BracketError(
            f"M(T) - 1 has no sign change on [{ts[0]:.3e}, {ts[-1]:.3e}] ({state})",
            scan_table=[(t, v + 1.0) for t, v in zip(ts, vals)],
        )
    downward = [b for b in brackets if b[2]]
    lo, hi, _ = downward[-1] if downward else brackets[-1]
    f = lambda T: mass(T) - 1.0
    tc = _bisect(f, lo, hi)
    return CriticalPoint(tc, (lo, hi), abs(f(tc)), len(brackets))


def mass_slope(
    p: ModelParams,
    lt: LifetimeModel,
    state: InitialPhotonState,
    convention: str = "canonical",
    *,
    tc: float,
) -> float:
    """m = -dM/dT at T_c, Richardson-extrapolated central difference.

    The linear Taylor term then reads 1 - M(T) ~ m (T - T_c) with m > 0.
    """
    f = ladder.mass_curve(p, lt, convention, state)
    h = SLOPE_STEP * tc
    d1 = (f(tc + h) - f(tc - h)) / (2 * h)
    d2 = (f(tc + h / 2) - f(tc - h / 2)) / h
    m = -(4 * d2 - d1) / 3
    if not m > 0:
        raise SlopeError(f"mass slope {m} is not positive at T_c={tc}")
    return m


def criticality(
    state: InitialPhotonState,
    p: ModelParams,
    lt: LifetimeModel,
    convention: str = "canonical",
) -> Criticality:
    """Root and mass slope of the pole mass the photon state orders at."""
    point = find_tc(p, lt, state, convention)
    slope = mass_slope(p, lt, state, convention, tc=point.t_c)
    return Criticality(state, p, lt, convention, point, slope)


def fitted_pole_location(
    n: int,
    p: ModelParams,
    lt: LifetimeModel,
    convention: str = "canonical",
) -> float:
    """Pole temperature of Gamma^n located from vertex values alone.

    The ratio Gamma^n / Gamma^(n+1) vanishes linearly and with a sign change
    at the pole, so the divergence can be bisected without referencing the
    kernel mass directly.
    """
    def ratio(T):
        vals = ladder.solve_fock_hierarchy(n + 1, KernelScalars.from_model(p, lt, T, convention))
        return vals[n] / vals[n + 1]

    return _bisect(ratio, *find_tc(p, lt, Vacuum(), convention).bracket)


# ---------------------------------------------------------------------------
# susceptibility exponent
# ---------------------------------------------------------------------------

# Fit settings the exponent fits accept; config parsing checks the same.
MIN_GAMMA_POINTS = 20
MAX_GAMMA_POINTS = 10_000
MIN_NU_POINTS = 8
MAX_NU_POINTS = 1_000
MIN_NU_WINDOW_RATIO = 99.0  # two decades
# Least r^2 an exponent fit must exceed to be accepted.
R2_MIN = 0.999


def _sum(v: list[float]) -> float:
    """Pairwise sum: rounding error grows with log(len(v)), not len(v); ``sum`` up to 64 terms."""
    if len(v) <= 64:
        return sum(v)
    half = len(v) // 2
    return _sum(v[:half]) + _sum(v[half:])


def _line_fit(x: Sequence[float], y: Sequence[float]) -> tuple[float, float, float]:
    """Least-squares line on Python floats: slope, r^2 and the largest |residual|.

    Centred sums, added pairwise by ``_sum``: the slope is sum(dx dy) /
    sum(dx^2) about the means, and the residuals are dy - slope dx.  y's
    mean is taken about y[0], so constant data centre to exact zeros.
    Non-finite data give NaN for all three, and constant data give r^2 = NaN
    (a line explains none of their variance): no fit gate accepts r^2 = NaN.
    """
    if not all(map(math.isfinite, y)):
        return math.nan, math.nan, math.nan
    n = len(x)
    xm = _sum(x) / n
    ym = y[0] + _sum([v - y[0] for v in y]) / n
    dx = [v - xm for v in x]
    dy = [v - ym for v in y]
    slope = _sum([a * b for a, b in zip(dx, dy)]) / _sum([a * a for a in dx])
    resid = [b - slope * a for a, b in zip(dx, dy)]
    ss_tot = _sum([b * b for b in dy])
    r2 = 1.0 - _sum([e * e for e in resid]) / ss_tot if ss_tot > 0 else math.nan
    return slope, r2, max(map(abs, resid))


def _fit_exponent(name, crit: Criticality, window, points: int, log_value_at) -> ExponentFit:
    """Exponent -d log value / d log t of ``log_value_at(T_c (1 + t))`` on a geometric window of t."""
    red = _geometric_grid(window[0], window[1], points)
    logs = [log_value_at(crit.point.t_c * (1.0 + t)) for t in red]
    slope, r2, resid = _line_fit([math.log(t) for t in red], logs)
    if not r2 > R2_MIN:
        raise FitRejected(
            f"{name} fit rejected: r^2 = {r2:.6f} <= {R2_MIN}",
            {"window": window, "r_squared": r2, "slope": slope, "state": crit.state},
        )
    return ExponentFit(-slope, window, r2, resid)


def fit_gamma(
    crit: Criticality,
    window: tuple[float, float] = (1e-6, 1e-3),
    points: int = 24,
) -> ExponentFit:
    """Susceptibility exponent from log|Gamma| vs log reduced temperature.

    Number states give n+1 (the pole order of the hierarchy), Gaussian states
    give 1.  The window must sit strictly above T_c; with the defaults the
    leading pole dominates subleading ones by >= 1e3 for n <= 5.  For large n
    the fit drifts below n+1, because (n+1) t reaches O(1) at the top of the
    window (61.0 - 0.009 for n = 60, 1001 - 0.15 for n = 1000).
    """
    if not MIN_GAMMA_POINTS <= points <= MAX_GAMMA_POINTS:
        raise ValueError(f"need {MIN_GAMMA_POINTS} to {MAX_GAMMA_POINTS} window points")

    gamma0 = ladder.bare_vertex(crit.params)
    terms = ladder.kernel_terms(crit.params, crit.lifetime, crit.convention, crit.state)

    def log_gamma_at(T):
        return log_vertex(KernelScalars(gamma0, *terms(T), crit.state))

    return _fit_exponent("gamma", crit, window, points, log_gamma_at)


# ---------------------------------------------------------------------------
# momentum-resolved vertex and spatial correlations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _LorentzianTerm:
    """One term amp / [c_par P_x^2 + c_perp P_y^2 + mass]^order, amp = exp(log_amp)."""

    log_amp: float
    c_par: float
    c_perp: float
    mass: float
    order: int

    @property
    def amp(self) -> float:
        return math.exp(self.log_amp)

    def log_value(self, px: float, py: float) -> float:
        return self.log_amp - self.order * math.log(
            self.c_par * px * px + self.c_perp * py * py + self.mass
        )


def _vertex_terms(
    crit: Criticality,
    T: float,
    anisotropy: float,
    fock_form: str,
) -> tuple[float, list[_LorentzianTerm]]:
    """Lorentzian terms of the momentum-resolved vertex at T > T_c, one per sector weight.

    Returns the log of the largest amplitude and the terms, whose amplitudes
    are relative to it, so the vertex is gamma0 * exp(log_top) * sum(terms).
    The reduced amplitudes w / (mass_gap^n (n+1)) leave the float range near
    T_c for high n; only their ratios enter the terms.
    """
    if anisotropy <= 0:
        raise ValueError("anisotropy must be > 0")
    mass_gap = crit.slope * (T - crit.point.t_c)
    if not mass_gap > 0:
        raise DomainError("the momentum-resolved vertex needs T > T_c")
    c_par = 1.0 + anisotropy
    c_perp = anisotropy
    log_gap = math.log(mass_gap)

    def fock_term(n: int, weight: float) -> tuple:
        if fock_form == "power":
            return math.log(weight), mass_gap, n + 1
        if fock_form == "reduced":
            return math.log(weight) - n * log_gap - math.log(n + 1), mass_gap / (n + 1), 1
        raise ValueError(f"unknown fock_form {fock_form!r}")

    raw = [fock_term(n, w) for n, w in crit.state.weights.items() if w > 0]
    top = max(log_amp for log_amp, _, _ in raw)
    return top, [
        _LorentzianTerm(log_amp - top, c_par, c_perp, mass, order) for log_amp, mass, order in raw
    ]


def momentum_vertex(
    crit: Criticality,
    T: float,
    anisotropy: float = 1.0,
    fock_form: str = "power",
) -> Callable[[float, float], float]:
    """(P, theta) -> pair vertex at center-of-mass momentum P and angle theta, T > T_c.

    The Lorentzian terms at T are built once, so a grid of (P, theta) pays
    for them once.  ``fock_form="power"`` keeps the full pole order n+1;
    ``"reduced"`` is the small-P binomial collapse onto a single Lorentzian
    with the mass divided by n+1.  The two agree in value and curvature at
    P = 0.  The sum runs on logs; a value past the float range is -inf
    (gamma0 < 0), one below it 0.
    """
    log_top, terms = _vertex_terms(crit, T, anisotropy, fock_form)
    gamma0 = ladder.bare_vertex(crit.params)
    log_scale = math.log(abs(gamma0)) + log_top

    def vertex(P: float, theta: float) -> float:
        px = P * math.cos(theta)
        py = P * math.sin(theta)
        return signed_exp(log_scale + log_sum_exp(t.log_value(px, py) for t in terms), gamma0)

    return vertex


def vertex_P(
    crit: Criticality,
    P: float,
    theta: float,
    T: float,
    anisotropy: float = 1.0,
    fock_form: str = "power",
) -> float:
    """Pair vertex at center-of-mass momentum P and angle theta, T > T_c (``momentum_vertex``)."""
    return momentum_vertex(crit, T, anisotropy, fock_form)(P, theta)


def _bessel_transform(term: _LorentzianTerm, r: Sequence[float]) -> "np.ndarray":
    """Exact 2D Fourier transform of one Lorentzian term on the grid r, as a numpy array."""
    # only the correlation commands pay these imports
    import numpy as np
    from scipy.special import kv

    nu = term.order - 1
    rs = np.array(r) / math.sqrt(term.c_par)
    sm = math.sqrt(term.mass)
    try:
        pref = term.amp / (
            2.0 * math.pi * math.sqrt(term.c_par * term.c_perp) * math.factorial(nu)
        )
    except OverflowError:
        raise QuadratureError(
            f"closed-form transform of a pole of order {term.order} leaves the float "
            f"range: ({nu})! exceeds the largest float"
        ) from None
    # high pole orders overflow here; the fit gate or the non-finite row check catches them
    with np.errstate(over="ignore"):
        return pref * (rs / (2.0 * sm)) ** nu * kv(nu, sm * rs)


# quad's error estimate must stay below this fraction of the reference value
_QUAD_REL_TOL = 1e-8


def _contour_transform(term: _LorentzianTerm, r: float) -> tuple[float, float]:
    """Fourier transform of one Lorentzian term by residue in P_x.

    Closing the P_x contour on the pole at i*mu(P_y), mu = sqrt((c_perp
    P_y^2 + mass)/c_par), turns the oscillatory 2D integral into a single
    smooth decaying integral over P_y.  The order-q residue is
    exp(-mu r) sum_j coef_j mu^-(q+j) with real positive coef_j.  Exact for
    every pole order; returns the value and quad's absolute error estimate.
    """
    q = term.order
    c_par, c_perp, mass = term.c_par, term.c_perp, term.mass
    fq = math.factorial(q - 1)
    coefs = [
        2.0 * math.pi * math.comb(q - 1, j) * r ** (q - 1 - j) * math.factorial(q + j - 1)
        / (fq * fq * 2.0 ** (q + j) * c_par**q)
        for j in range(q)
    ]

    def inner(py: float) -> float:
        mu = math.sqrt((c_perp * py * py + mass) / c_par)
        return math.exp(-mu * r) * sum(c * mu ** -(q + j) for j, c in enumerate(coefs))

    mu0 = math.sqrt(mass / c_par)
    decay = r * math.sqrt(c_perp / c_par)
    y_max = (60.0 + mu0 * r) / max(decay, 1e-300)
    v, e = quad(inner, 0.0, y_max, epsabs=0.0, epsrel=1e-2 * _QUAD_REL_TOL, limit=400)
    scale = 2.0 / (2.0 * math.pi) ** 2
    return scale * term.amp * v, scale * abs(term.amp) * e


def correlation_quadrature(
    crit: Criticality,
    T: float,
    r_grid: Sequence[float],
    anisotropy: float = 1.0,
    fock_form: str = "reduced",
) -> list[float]:
    """Reference C(r), one float per point of r_grid, by a transform independent of the closed form.

    Same vertex terms as ``correlation_function``, transformed by residue in
    P_x and adaptive quadrature in P_y.  Raises ``QuadratureError`` when the
    summed error estimate exceeds ``_QUAD_REL_TOL`` of the value.
    """
    _, terms = _vertex_terms(crit, T, anisotropy, fock_form)
    out = []
    for r in r_grid:
        parts = [_contour_transform(term, float(r)) for term in terms]
        tot = sum(v for v, _ in parts)
        err = sum(e for _, e in parts)
        if err > _QUAD_REL_TOL * abs(tot):
            raise QuadratureError(
                f"quadrature error {err:.3e} exceeds {_QUAD_REL_TOL:.1e} relative at r={r}"
            )
        out.append(tot)
    return out


def correlation_function(
    crit: Criticality,
    T: float,
    anisotropy: float = 1.0,
    fock_form: str = "reduced",
) -> CorrelationProfile:
    """Spatial pair correlation C(r) and the fitted correlation length.

    C(r) is the 2D Fourier transform of the momentum-resolved vertex along
    the distinguished axis, summed over the closed-form transforms of its
    Lorentzian terms and divided by gamma0 times the largest term's
    amplitude, so the profile is positive and stays in the float range for
    any pole order; xi does not depend on that scale.
    xi comes from a log-linear fit of the tail over r in [3 xi_est, 10 xi_est]
    with one re-estimation pass, and the profile holds that 20-point grid.
    For number states the default ``fock_form="reduced"`` fits the
    leading-pole form whose mass is reduced by n+1, the form whose decay sets
    the physical correlation length; ``"power"`` transforms the full
    (n+1)-order pole instead.
    """
    _, terms = _vertex_terms(crit, T, anisotropy, fock_form)
    # slowest decay across terms sets the expected length
    xi_est = max(math.sqrt(t.c_par / t.mass) for t in terms)

    def fit(grid: list[float]):
        values = sum(_bessel_transform(term, grid) for term in terms).tolist()
        bad = [r for r, v in zip(grid, values) if not v > 0]
        if bad:
            raise QuadratureError(f"non-positive correlation value at r={bad[0]}")
        slope, r2, _ = _line_fit(grid, [math.log(v) for v in values])
        # a flat or NaN tail has no decay length: xi = NaN, which the xi and nu gates catch
        return values, -1.0 / slope if slope else math.nan, r2

    grid = _geometric_grid(3.0 * xi_est, 10.0 * xi_est, 20)
    values, xi, r2 = fit(grid)
    if xi > 0:
        grid = _geometric_grid(3.0 * xi, 10.0 * xi, 20)
        values, xi, r2 = fit(grid)
    if xi <= 0:
        raise QuadratureError("fitted correlation length is not positive")
    return CorrelationProfile(tuple(grid), tuple(values), xi, (grid[0], grid[-1]), r2)


def fit_nu(
    crit: Criticality,
    window: tuple[float, float] = (1e-5, 1e-3),
    n_temps: int = 8,
    **corr_kwargs,
) -> ExponentFit:
    """Correlation-length exponent from log xi vs log reduced temperature.

    Uses >= 8 reduced temperatures spanning two decades; the answer is 1/2
    for Gaussian and number states alike (only the amplitude of xi knows the
    photon number).
    """
    if not MIN_NU_POINTS <= n_temps <= MAX_NU_POINTS:
        raise ValueError(f"need {MIN_NU_POINTS} to {MAX_NU_POINTS} temperatures")
    if window[1] / window[0] < MIN_NU_WINDOW_RATIO:
        raise ValueError("window must span at least two decades")
    return _fit_exponent(
        "nu", crit, window, n_temps,
        lambda T: math.log(correlation_function(crit, T, **corr_kwargs).xi),
    )
