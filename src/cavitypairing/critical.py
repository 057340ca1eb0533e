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
is not what sets the physical decay scale; ``momentum_vertex`` gives both).

Each Lorentzian term amp / (c_par P_x^2 + c_perp P_y^2 + m)^q transforms in
closed form (DLMF 10.32.10-11; Gradshteyn-Ryzhik 6.565.4):

    C(r) = amp / (2 pi sqrt(c_par c_perp)) (r' / (2 sqrt(m)))^(q-1)
           K_{q-1}(sqrt(m) r') / (q-1)!,        r' = r / sqrt(c_par),

evaluated as log C, with e^x sqrt(x) K_0 and K_1 from literal tables for
x >= 2 and from their power series (DLMF 10.31.1-2) below, and the orders
above from the recurrence of DLMF 10.29.1.
``correlation_quadrature`` keeps an independent numerical transform (residue
in P_x, adaptive Gauss-Kronrod quadrature in P_y) as the reference that
``verify`` checks the closed form against.  The integrator ``quad`` (G10/K21
panels, QUADPACK's QAG scheme) and its ``QuadratureError`` live here;
``sectors`` imports them for its loop quadrature, and this module imports
nothing from ``sectors``.

``find_tc`` takes the photon state and builds its curves
``ladder.kernel_curves`` once, with the lifetime, the convention and the
dressing resolved, and reads both the root and the mass slope from them.
Where c2 does not depend on T (a constant lifetime, and any state but the
equilibrium thermal one) the pole mass is M = A/T + B, so T_c = A / (1 - B)
exactly, with no scan.  Elsewhere a coarse 64-point scan brackets the
crossings, the two cells beside each sampled turning point of M are
re-scanned on 9 points so that two crossings between coarse points still
count, and safeguarded Newton on the analytic slope refines the chosen
crossing to 2 ulp, bisecting where a Newton step would leave the bracket or
shrink too slowly.  The mass slope m = -dM/dT is the curves' analytic
``slope`` at the root for every lifetime and state, A / T_c**2 where
M = A/T + B.  ``find_tc`` returns a ``Criticality``, a named tuple of the state,
the model, the curves, the root and the mass slope; the fits, the
correlation functions and the momentum-resolved vertex all take it instead of
re-deriving T_c and m.  ``fit_gamma`` reads its kernel terms from the
curves it carries, and ``momentum_vertex`` builds the vertex terms once per
temperature.
``fit_nu`` branches on the number of Lorentzian terms: one term is
scale-invariant, xi sqrt(mass) being the same at every T, so one correlation
profile serves the whole window.  Nothing here branches on the kind of state.
Everything that can leave the float range near T_c is carried as a log:
``fit_gamma`` fits ``ladder.log_vertex``, the vertex terms keep their
amplitudes as logs relative to the largest, ``momentum_vertex``
exponentiates once, through ``ladder.signed_exp``, and C(r) is fitted as log C.

The root scan, the fit windows and the correlation grids come from
``_geometric_grid``, and the Newton refine, ``_line_fit`` and the correlation
logs, K and the quadrature run on Python floats, with no CPU-dependent
array kernels and no third-party call.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, NamedTuple, Sequence

from . import ladder
from .ladder import KernelScalars, log_sum_exp, log_vertex, signed_exp
from .model import (
    DomainError,
    InitialPhotonState,
    LifetimeModel,
    ModelParams,
)

__all__ = [
    "BracketError",
    "CorrelationProfile",
    "Criticality",
    "ExponentFit",
    "FitRejected",
    "QuadratureError",
    "SlopeError",
    "correlation_function",
    "correlation_quadrature",
    "find_tc",
    "fit_gamma",
    "fit_nu",
    "momentum_vertex",
]


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class BracketError(RuntimeError):
    """No sign change of M(T) - 1 found on the scan, or no convergence of its refine."""

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


class ExponentFit(NamedTuple):
    exponent: float
    window: tuple[float, float]
    r_squared: float
    residual_max: float


class CorrelationProfile(NamedTuple):
    r_grid: tuple
    log_values: tuple
    xi: float
    fit_window: tuple[float, float]
    r_squared: float


class Criticality(NamedTuple):
    """The root a photon state orders at and the mass slope there, built by ``find_tc``.

    ``curves`` are the kernel curves both were read from, those of the
    kernel the state orders at; ``bracket``, ``residual`` and ``n_brackets``
    describe the root search (``find_tc``).
    """

    state: InitialPhotonState
    params: ModelParams
    curves: ladder.KernelCurves
    t_c: float
    bracket: tuple[float, float]
    residual: float
    n_brackets: int
    slope: float


# ---------------------------------------------------------------------------
# critical temperature
# ---------------------------------------------------------------------------

# Root search over [lo, hi] * E_F: a coarse scan of M on N_COARSE points, the
# two cells beside each sampled turning point re-scanned on N_RESCAN points,
# and at most MAX_REFINE safeguarded Newton steps in the chosen bracket.
SCAN_RANGE = (1e-8, 0.99)
N_COARSE = 64
N_RESCAN = 9
MAX_REFINE = 100


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


def _scan(mass, lo: float, hi: float) -> list[tuple[float, float]]:
    """(T, M(T)) on a coarse ``_geometric_grid``, finer in the two cells beside each turning point.

    A sampled local extremum, (M[i] - M[i-1]) (M[i+1] - M[i]) <= 0, puts a
    turning point of M in one of the cells beside it, where M may cross 1
    twice between two coarse points; both cells are re-scanned on
    ``N_RESCAN`` points.  The table is in increasing T.
    """
    ts = _geometric_grid(lo, hi, N_COARSE)
    ms = [mass(t) for t in ts]
    fine = set()
    for i in range(1, N_COARSE - 1):
        if (ms[i] - ms[i - 1]) * (ms[i + 1] - ms[i]) <= 0:
            fine.update((i - 1, i))
    table = []
    for i in range(N_COARSE - 1):
        table.append((ts[i], ms[i]))
        if i in fine:
            table += [(t, mass(t)) for t in _geometric_grid(ts[i], ts[i + 1], N_RESCAN)[1:-1]]
    table.append((ts[-1], ms[-1]))
    return table


def _newton(mass, slope, lo: float, hi: float, flo: float) -> tuple[float, float]:
    """(T, M(T) - 1) at the root of M = 1 in [lo, hi], with flo = M(lo) - 1 and slope = -dM/dT.

    M - 1 changes sign on [lo, hi].  Safeguarded Newton from the midpoint:
    each evaluation shrinks the bracket to the sign change, and the Newton
    step T + (M - 1) / slope is taken only where it lands strictly inside the
    bracket and is at most half the step before the last one; otherwise the
    bracket is bisected.  Newton on a slope off by a factor 2 then still
    converges, linearly, with no bisection to undo its one-sided approach.
    The search stops when a Newton step or the bracket is at most 2 ulp, and
    raises ``BracketError`` after ``MAX_REFINE`` evaluations: no unconverged
    root is returned.
    """
    if flo == 0.0:
        return lo, flo
    t = 0.5 * (lo + hi)
    last = before = hi - lo
    for _ in range(MAX_REFINE):
        ft = mass(t) - 1.0
        if ft == 0.0:
            return t, ft
        if (ft > 0) == (flo > 0):
            lo, flo = t, ft
        else:
            hi = t
        d = slope(t)
        step = ft / d if d else math.inf
        if abs(step) <= 2 * math.ulp(t) or hi - lo <= 2 * math.ulp(hi):
            return t, ft
        if not (lo < t + step < hi and abs(step) <= 0.5 * abs(before)):
            step = 0.5 * (lo + hi) - t
        t, last, before = t + step, step, last
    raise BracketError(f"root search on [{lo:.17g}, {hi:.17g}] did not converge "
                       f"in {MAX_REFINE} steps")


def find_tc(
    p: ModelParams,
    lt: LifetimeModel,
    state: InitialPhotonState,
    convention: str = "canonical",
) -> Criticality:
    """Root of the state's M(T) = 1 and the mass slope there, from one build of its curves.

    Where c2 does not depend on T (a constant lifetime, and any state but
    the equilibrium thermal one) the pole mass is A/T + B, and if B < 1 and
    T_c = A / (1 - B) lies inside the scan range it is taken with no scan: a
    closed-form root brackets itself, so ``bracket`` is (T_c, T_c),
    ``n_brackets = 1``, and ``residual`` is |M(T_c) - 1|, the pole-mass
    residual (not an error bar on T_c).  Otherwise ``_scan`` brackets the
    crossings over ``SCAN_RANGE`` in units of E_F: a coarse scan on
    ``N_COARSE`` points of ``_geometric_grid``, with the cells beside each
    turning point re-scanned on ``N_RESCAN`` points, so that two crossings
    between coarse points still count.  ``_newton`` refines one crossing by
    safeguarded Newton on the curves' analytic slope, to 2 ulp.
    The upper end stays strictly below E_F: the Fermi-liquid lifetime
    formula degenerates (log -> 0) at the band edge, which would manufacture
    a spurious high-temperature crossing.  The instability root is a
    downward crossing (M > 1 below T_c: the vertex diverges on cooling); if
    the scan finds several crossings, the largest downward one is refined,
    and ``n_brackets`` counts them.  A scan with no crossing raises
    ``BracketError`` with the points it evaluated as its scan table.

    The mass slope m = -dM/dT is the curves' ``slope`` at T_c, so that
    1 - M(T) ~ m (T - T_c); a root where m is not positive (only upward
    crossings) raises ``SlopeError``.
    """
    lo_f, hi_f = SCAN_RANGE
    lo, hi = lo_f * p.e_f, hi_f * p.e_f
    curves = ladder.kernel_curves(p, lt, convention, state)
    mass, split = curves.mass, curves.split
    tc = None
    if split is not None and split[1] < 1:
        a, b = split
        tc = a / (1.0 - b)
        bracket, residual, n_brackets = (tc, tc), abs(mass(tc) - 1.0), 1
    if tc is None or not lo < tc < hi:
        table = _scan(mass, lo, hi)
        brackets = [
            (t0, t1, m0, m1)
            for (t0, m0), (t1, m1) in zip(table, table[1:])
            if m0 == 1.0 or (m0 > 1.0) != (m1 > 1.0)
        ]
        if not brackets:
            raise BracketError(
                f"M(T) - 1 has no sign change on [{lo:.3e}, {hi:.3e}] ({state})",
                scan_table=table,
            )
        downward = [b for b in brackets if b[2] > b[3]]
        lo, hi, m_lo, _ = downward[-1] if downward else brackets[-1]
        tc, ftc = _newton(mass, curves.slope, lo, hi, m_lo - 1.0)
        bracket, residual, n_brackets = (lo, hi), abs(ftc), len(brackets)
    slope = curves.slope(tc)
    if not slope > 0:
        raise SlopeError(f"mass slope {slope} is not positive at T_c={tc}")
    return Criticality(state, p, curves, tc, bracket, residual, n_brackets, slope)


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
    logs = [log_value_at(crit.t_c * (1.0 + t)) for t in red]
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

    gamma0, terms = ladder.bare_vertex(crit.params), crit.curves.terms

    def log_gamma_at(T):
        return log_vertex(KernelScalars(gamma0, *terms(T), crit.state))

    return _fit_exponent("gamma", crit, window, points, log_gamma_at)


# ---------------------------------------------------------------------------
# momentum-resolved vertex and spatial correlations
# ---------------------------------------------------------------------------

class _LorentzianTerm(NamedTuple):
    """One term amp / [c_par P_x^2 + c_perp P_y^2 + mass]^order, amp = exp(log_amp)."""

    log_amp: float
    c_par: float
    c_perp: float
    mass: float
    order: int

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
    mass_gap = crit.slope * (T - crit.t_c)
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


# e^x sqrt(x) K_0(x) and e^x sqrt(x) K_1(x) for x >= 2, as polynomials in
# s = w - mid on 8 equal pieces of w = 2/x in [0, 1]: each row is (mid, c_0, ..., c_9),
# the truncated Chebyshev series of the piece in monomial form, within 1.7e-16
# relative of mpmath.  The tier-1 tests derive them again from mpmath ``besselk``.
_K0E = (
    (0.0625, 1.2485017620221532, -0.07570477707577962, 0.02006591130170408, -0.009578566400759582,
     0.006543754205812598, -0.005761423082179109, 0.006158446269717037, -0.007693679279734567,
     0.011248870345760017, -0.018013964914619394),
    (0.1875, 1.239334928758195, -0.07109224790908684, 0.016993456536182446, -0.0070176203804621145,
     0.003998364613123776, -0.002841839553853055, 0.00238176944258852, -0.0022720667085050186,
     0.0024427656187397313, -0.002837741669548747),
    (0.3125, 1.2307011118035205, -0.06714468317822322, 0.014688674551803768, -0.005385464564194669,
     0.0026577894688730027, -0.0016028592820958448, 0.001120104353007435, -0.0008775480524658316,
     0.0007606563530108668, -0.0007066992997265523),
    (0.4375, 1.2225276223144117, -0.06370596661351705, 0.012890596995372363, -0.004269662534015764,
     0.0018691969144054024, -0.0009854801429210573, 0.0005948442245757977, -0.00039847607168624574,
     0.0002919852703437072, -0.00022804213232104618),
    (0.5625, 1.2147578812485007, -0.06066995839617232, 0.011447413678233409, -0.003468781345998055,
     0.001369666318300396, -0.0006441217985198128, 0.0003437141118309729, -0.00020204464590435349,
     0.00012889540631326831, -8.727591053863965e-05),
    (0.6875, 1.2073465432801709, -0.057960731877503856, 0.010263587989728254,
     -0.0028726977011844707, 0.0010357388935512727, -0.0004408627923538364, 0.00021144263305824832,
     -0.00011107334040448186, 6.295463199084992e-05, -3.774584478866592e-05),
    (0.8125, 1.200256449789108, -0.055521903066125165, 0.009275525528749249,
     -0.0024163063083132855, 0.0008031079647046393, -0.00031286397929334664,
     0.00013655533631086952, -6.498103770817722e-05, 3.321128552213262e-05,
     -1.7907289189010585e-05),
    (0.9375, 1.1934566096591825, -0.0533103702888656, 0.008439053102813614, -0.002058806981909697,
     0.0006356356468016323, -0.00022862815104519177, 9.170039938726633e-05,
     -3.9946711866475225e-05, 1.862147187630554e-05, -9.137035123358182e-06),
)
_K1E = (
    (0.0625, 1.2678617411610231, 0.23058461018673979, -0.03394702713922636, 0.013609299488373944,
     -0.008536819645737579, 0.007143745753676472, -0.007382403865526783, 0.009003032883953873,
     -0.012918093263998648, 0.020396668535496362),
    (0.1875, 1.2961790851234585, 0.22267666488312277, -0.029526684743987352, 0.01022897287014037,
     -0.005346045761493564, 0.0036082603863053795, -0.002921356401761479, 0.0027184662941989574,
     -0.0028673582914026958, 0.003282402635680886),
    (0.3125, 1.3235710871798587, 0.21573664378036458, -0.026130749948357138, 0.008024865676737701,
     -0.0036282200478505926, 0.0020756385358263072, -0.001399912516941784, 0.0010690122492318427,
     -0.0009085444733114339, 0.0008312683352810552),
    (0.4375, 1.3501447209189912, 0.20955407930446507, -0.023425556689036724, 0.006488209235059007,
     -0.0025987421837302817, 0.001298262559282597, -0.0007556205291469801, 0.0004929811617367598,
     -0.0003539711170140844, 0.0002720896257871341),
    (0.5625, 1.3759850312871766, 0.20398298065277315, -0.021213238329013673, 0.00536586181884859,
     -0.0019358529126917016, 0.0008617170926341104, -0.00044298986847626326,
     0.00025342275237395475, -0.0001583261258400881, 0.00010545243418991297),
    (0.6875, 1.4011614793182119, 0.19891704899607923, -0.01936717103102548, 0.004517200281653272,
     -0.0014861238937736991, 0.000598130751124869, -0.0002761316878553692, 0.00014106745311593215,
     -7.825466406903267e-05, 4.612869463294361e-05),
    (0.8125, 1.4257319754920221, 0.194276072729457, -0.01780179123062043, 0.003857895241259837,
     -0.0011685436645155855, 0.0004300127756250685, -0.00018051538691888716, 8.348208743622595e-05,
     -4.1736706882662744e-05, 2.2114032019623286e-05),
    (0.9375, 1.4497455937297044, 0.18999782845981056, -0.016456844461003924, 0.0033344101586107477,
     -0.0009370225694762967, 0.0003180614487054447, -0.0001226019971289711, 5.1871783371353766e-05,
     -2.3640766852925365e-05, 1.1393486832566782e-05),
)
# x = 2 lands on index 8, the end of the last piece
_K0E += _K0E[-1:]
_K1E += _K1E[-1:]


def _k_scaled(table, w: float) -> float:
    """e^x sqrt(x) K(x) at w = 2/x in [0, 1], from one of the tables above."""
    mid, c0, c1, c2, c3, c4, c5, c6, c7, c8, c9 = table[int(8.0 * w)]
    s = w - mid
    return c0 + s * (c1 + s * (c2 + s * (c3 + s * (c4 + s * (c5 + s * (c6 + s * (
        c7 + s * (c8 + s * c9))))))))


# Euler's constant, psi(1) = -gamma, of the series below
_EULER_GAMMA = 0.5772156649015329


def _k_series(x: float) -> tuple[float, float]:
    """e^x sqrt(x) K_0(x) and e^x sqrt(x) K_1(x) for 0 < x < 2, from their power series.

    In t = x**2 / 4, with H_k = 1 + 1/2 + ... + 1/k and L = log(x / 2) + gamma
    (DLMF 10.31.2 and 10.31.1 at n = 1):
    K_0 = sum (H_k - L) t**k / k!**2 and
    K_1 = 1/x + (x/2) sum (L - (H_k + H_{k+1}) / 2) t**k / (k! (k+1)!).
    As t < 1, the 16 terms k <= 15 leave a tail below 1e-24.
    """
    t, log_half = 0.25 * x * x, math.log(0.5 * x) + _EULER_GAMMA
    k0 = k1 = h = 0.0
    term = 1.0  # t**k / k!**2
    for k in range(1, 17):
        h_next = h + 1.0 / k
        k0 += (h - log_half) * term
        k1 += (log_half - 0.5 * (h + h_next)) * term / k
        term *= t / (k * k)
        h = h_next
    scale = math.exp(x) * math.sqrt(x)
    return scale * k0, scale * (1.0 / x + 0.5 * x * k1)


def _log_bessel_transform(term: _LorentzianTerm, r: Sequence[float]) -> list[float]:
    """log C of one Lorentzian term's exact 2D Fourier transform, per point of the grid r.

    log C = log amp - log(2 pi sqrt(c_par c_perp)) - lgamma(nu + 1) + nu log(x / 2m)
    + log(k / sqrt(x)) - x, with x = sqrt(m / c_par) r, nu = q - 1 and
    k = e^x sqrt(x) K_nu(x): k_0 and k_1 from the tables for x >= 2 and from
    ``_k_series`` below, and the orders above by k_{j+1} = k_{j-1} + (2j/x) k_j
    (DLMF 10.29.1) on plain floats.  A step that would pass the largest float
    first divides k_j and k_{j-1} by the exact power of two of k_j, whose log
    is added back to log C, so the transform has no ceiling on the pole order.
    An x that is not positive raises ``QuadratureError``.
    """
    nu, m, scale = term.order - 1, term.mass, math.sqrt(term.mass / term.c_par)
    head = (term.log_amp - math.log(2.0 * math.pi * math.sqrt(term.c_par * term.c_perp))
            - math.lgamma(nu + 1))
    logs = []
    for v in r:
        x = scale * v
        if x >= 2.0:
            w = 2.0 / x
            k0 = _k_scaled(_K0E, w)
            k1 = _k_scaled(_K1E, w) if nu else 0.0
        elif x > 0.0:
            k0, k1 = _k_series(x)
        else:
            raise QuadratureError(f"Bessel transform at x = {x:.6g}, which is not positive")
        if nu:
            prev, k, exp2 = k0, k1, 0
            for j in range(1, nu):
                ratio = 2.0 * j / x
                nxt = prev + ratio * k
                if nxt == math.inf:  # from here on k_j and k_{j-1} are over 2**exp2
                    e = math.frexp(k)[1]
                    prev, k, exp2 = math.ldexp(prev, -e), math.ldexp(k, -e), exp2 + e
                    nxt = prev + ratio * k
                prev, k = k, nxt
            logs.append(head + nu * math.log(x / (2.0 * m)) + math.log(k / math.sqrt(x))
                        + exp2 * math.log(2.0) - x)
        else:  # q = 1, every term of the reduced form: no power of x / 2m to take
            logs.append(head + math.log(k0 / math.sqrt(x)) - x)
    if not all(map(math.isfinite, logs)):
        raise QuadratureError(f"transform of a pole of order {term.order} leaves the float range")
    return logs


# The 21-point Gauss-Kronrod rule on [-1, 1]: its nodes x > 0 in decreasing
# order, the 10-point Gauss nodes at the odd positions, their Kronrod weights,
# the Kronrod weight of x = 0, and the Gauss weights of the odd positions.  The
# tier-1 tests derive them again from the Stieltjes polynomial and mpmath.
_GK_NODES = (
    0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
    0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
    0.2943928627014602, 0.14887433898163122,
)
_GK_WEIGHTS = (
    0.011694638867371874, 0.032558162307964725, 0.054755896574351995, 0.07503967481091996,
    0.0931254545836976, 0.10938715880229764, 0.12349197626206584, 0.13470921731147334,
    0.14277593857706009, 0.14773910490133849,
)
_GK_CENTRE = 0.1494455540029169
_G_WEIGHTS = (
    0.06667134430868814, 0.1494513491505806, 0.21908636251598204, 0.26926671930999635,
    0.29552422471475287,
)


def _gk21(func, a: float, b: float) -> tuple[float, float]:
    """The 21-point Kronrod value of func on [a, b] and QUADPACK's estimate of its error.

    The estimate is |K - G| of the embedded 10-point Gauss rule, scaled as
    asc min(1, (200 |K - G| / asc)**1.5) with asc the integral of |f - mean|,
    and at least 50 eps times the integral of |f|.
    """
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    fc = func(c)
    pairs = [(func(c - h * x), func(c + h * x)) for x in _GK_NODES]
    kron = _GK_CENTRE * fc
    for w, (f1, f2) in zip(_GK_WEIGHTS, pairs):
        kron += w * (f1 + f2)
    gauss = 0.0
    for w, (f1, f2) in zip(_G_WEIGHTS, pairs[1::2]):
        gauss += w * (f1 + f2)
    mean = 0.5 * kron
    asc, size = _GK_CENTRE * abs(fc - mean), _GK_CENTRE * abs(fc)
    for w, (f1, f2) in zip(_GK_WEIGHTS, pairs):
        asc += w * (abs(f1 - mean) + abs(f2 - mean))
        size += w * (abs(f1) + abs(f2))
    h_abs = abs(h)
    err, asc = abs(kron - gauss) * h_abs, asc * h_abs
    if asc and err:
        err = asc * min(1.0, (200.0 * err / asc) ** 1.5)
    return kron * h, max(err, 50.0 * math.ulp(1.0) * size * h_abs)


def quad(func, a: float, b: float, epsabs: float = 0.0, epsrel: float = 1e-10,
         limit: int = 400, points: Sequence[float] = ()) -> tuple[float, float, int]:
    """Integral of func over the finite [a, b] by adaptive Gauss-Kronrod: (value, error, evaluations).

    The global scheme of QUADPACK's QAG: ``_gk21`` on each panel between a,
    the sorted breakpoints ``points`` inside (a, b) and b, then the panel of
    the largest error estimate bisected until the summed estimate is at most
    max(epsabs, epsrel |value|) or ``limit`` panels exist.  The value and the
    error are summed over the panels by ``math.fsum``; the caller judges the
    error, and a value or error that is not finite raises ``QuadratureError``.
    Call sites look this name up at call time, so it can be rebound from outside.
    """
    edges = [a, *points, b]
    panels = []
    for lo, hi in zip(edges, edges[1:]):
        v, e = _gk21(func, lo, hi)
        panels.append((-e, lo, hi, v))
    heapq.heapify(panels)
    value = math.fsum(p[3] for p in panels)
    err = -math.fsum(p[0] for p in panels)
    while err > max(epsabs, epsrel * abs(value)) and len(panels) < limit:
        neg_err, lo, hi, v = heapq.heappop(panels)
        mid = 0.5 * (lo + hi)
        v1, e1 = _gk21(func, lo, mid)
        v2, e2 = _gk21(func, mid, hi)
        heapq.heappush(panels, (-e1, lo, mid, v1))
        heapq.heappush(panels, (-e2, mid, hi, v2))
        value += v1 + v2 - v
        err += e1 + e2 + neg_err
    value = math.fsum(p[3] for p in panels)
    err = -math.fsum(p[0] for p in panels)
    if not (math.isfinite(value) and math.isfinite(err)):
        raise QuadratureError(f"quadrature on [{a:.6g}, {b:.6g}] is not finite: "
                              f"{value!r} +- {err!r}")
    return value, err, 21 * (2 * len(panels) - len(edges) + 1)


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
        inv = 1.0 / mu
        acc = 0.0
        for c in reversed(coefs):
            acc = acc * inv + c
        return math.exp(-mu * r) * acc * inv**q

    mu0 = math.sqrt(mass / c_par)
    decay = r * math.sqrt(c_perp / c_par)
    y_max = (60.0 + mu0 * r) / max(decay, 1e-300)
    v, e, _ = quad(inner, 0.0, y_max, epsabs=0.0, epsrel=1e-2 * _QUAD_REL_TOL)
    scale = 2.0 / (2.0 * math.pi) ** 2 * math.exp(term.log_amp)
    return scale * v, scale * e


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
    amplitude; xi does not depend on that scale.  The profile holds log C.
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
        logs = [_log_bessel_transform(term, grid) for term in terms]
        log_c = logs[0]
        if len(logs) > 1:  # a mixture: its terms summed over one maximum of the whole grid
            top = max(map(max, logs))
            log_c = [top + math.log(sum(math.exp(v - top) for v in col)) for col in zip(*logs)]
        slope, r2, _ = _line_fit(grid, log_c)
        # a flat tail has no decay length: xi = NaN, which the xi and nu gates catch
        return log_c, -1.0 / slope if slope else math.nan, r2

    grid = _geometric_grid(3.0 * xi_est, 10.0 * xi_est, 20)
    log_values, xi, r2 = fit(grid)
    if xi > 0:
        grid = _geometric_grid(3.0 * xi, 10.0 * xi, 20)
        log_values, xi, r2 = fit(grid)
    if xi <= 0:
        raise QuadratureError("fitted correlation length is not positive")
    return CorrelationProfile(tuple(grid), tuple(log_values), xi, (grid[0], grid[-1]), r2)


def fit_nu(
    crit: Criticality,
    window: tuple[float, float] = (1e-5, 1e-3),
    n_temps: int = 8,
    anisotropy: float = 1.0,
    fock_form: str = "reduced",
) -> ExponentFit:
    """Correlation-length exponent from log xi vs log reduced temperature.

    Uses >= 8 reduced temperatures spanning two decades; the answer is 1/2
    for Gaussian and number states alike (only the amplitude of xi knows the
    photon number).  A vertex of one Lorentzian term (vacuum, a number state,
    a thermal state) has C(r; T) = A(T) F(sqrt(mass(T)) r), so xi sqrt(mass)
    is the same at every T: ``correlation_function`` runs once, at the
    window's first temperature T_ref, and log xi(T) = log xi(T_ref) +
    (log mass(T_ref) - log mass(T)) / 2 with the term's mass at each T.  A
    vertex of several terms (a mixture) is not scale-invariant and runs
    ``correlation_function`` at every T.
    """
    if not MIN_NU_POINTS <= n_temps <= MAX_NU_POINTS:
        raise ValueError(f"need {MIN_NU_POINTS} to {MAX_NU_POINTS} temperatures")
    if window[1] / window[0] < MIN_NU_WINDOW_RATIO:
        raise ValueError("window must span at least two decades")

    def log_xi(T):
        return math.log(correlation_function(crit, T, anisotropy, fock_form).xi)

    def log_mass(T):
        return math.log(_vertex_terms(crit, T, anisotropy, fock_form)[1][0].mass)

    t_ref = crit.t_c * (1.0 + window[0])
    _, terms = _vertex_terms(crit, t_ref, anisotropy, fock_form)
    if len(terms) == 1:
        log_xi_ref, log_mass_ref = log_xi(t_ref), math.log(terms[0].mass)
        log_value_at = lambda T: log_xi_ref + 0.5 * (log_mass_ref - log_mass(T))
    else:
        log_value_at = log_xi
    return _fit_exponent("nu", crit, window, n_temps, log_value_at)
