"""The package's own Bessel K and Gauss-Kronrod quadrature, against independent references.

``critical._log_bessel_transform`` takes e^x sqrt(x) K_0 and e^x sqrt(x) K_1
for x >= 2 from literal tables and below from their power series, and goes up
in order by the recurrence K_{j+1} = K_{j-1} + (2j/x) K_j; ``critical.quad``
is an adaptive 21-point Gauss-Kronrod integrator with a literal table of nodes
and weights.  Here both tables are derived again from mpmath and exact
Fractions, the series and the transform are checked against mpmath
``besselk``, the transform also against ``scipy.special.kve``, and the
quadratures of ``bcs_kernel_quadrature`` and ``_contour_transform`` against
``scipy.integrate.quad``.
"""

import inspect
import math
import sys
from fractions import Fraction

import pytest

from cavitypairing import cli
from cavitypairing import critical as cr
from cavitypairing import sectors as sec
from cavitypairing.model import ConstantLifetime, ModelParams

mpmath = pytest.importorskip("mpmath")


def _ulps(got, want):
    return max(abs(g - w) / math.ulp(w) for g, w in zip(got, want))


# -- the tables, derived again -------------------------------------------------

def _bessel_rows(nu):
    """Rows (mid, c_0, ..., c_9) of e^x sqrt(x) K_nu(x) on the 8 pieces of w = 2/x in [0, 1].

    Per piece [mid - 1/16, mid + 1/16]: the Chebyshev series in t = 16 (w - mid),
    from 20 first-kind nodes at 40 digits, truncated to 10 terms and expanded in
    powers of s = w - mid, then rounded to floats.
    """
    n = 20
    with mpmath.workdps(40):
        rows = []
        for i in range(8):
            mid = mpmath.mpf(2 * i + 1) / 16
            angles = [mpmath.pi * (k + mpmath.mpf(1) / 2) / n for k in range(n)]
            xs = [2 / (mid + mpmath.cos(a) / 16) for a in angles]
            vals = [mpmath.exp(x) * mpmath.sqrt(x) * mpmath.besselk(nu, x) for x in xs]
            cheb = [(2 if j else 1) * mpmath.fsum(v * mpmath.cos(j * a) for v, a in zip(vals, angles))
                    / n for j in range(10)]
            # T_j(t) in powers of t, by T_{j+1} = 2 t T_j - T_{j-1}
            powers = [[1], [0, 1]]
            while len(powers) < 10:
                nxt = [0] + [2 * c for c in powers[-1]]
                for k, c in enumerate(powers[-2]):
                    nxt[k] -= c
                powers.append(nxt)
            mono = [mpmath.mpf(0)] * 10
            for c, t_j in zip(cheb, powers):
                for k, p in enumerate(t_j):
                    mono[k] += c * p
            rows.append((float(mid), *(float(c * 16**k) for k, c in enumerate(mono))))
    return rows


def _gauss_kronrod():
    """(Kronrod nodes x > 0 decreasing, their weights, the weight of 0, Gauss weights).

    The Kronrod nodes are the roots of the Stieltjes polynomial E_11, the monic
    odd polynomial orthogonal to P_10 x^k for k < 11 on [-1, 1], solved for in
    Fractions; the roots of P_10 and E_11 come from mpmath ``polyroots`` in
    x**2, the Kronrod weights from exactness on x**0, x**2, ..., x**20, and the
    Gauss weights from 2 / ((1 - x**2) P_10'(x)**2), all at 50 digits.
    """
    def times(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                out[i + j] += u * v
        return out

    def integral(poly):  # over [-1, 1]
        return sum(c * Fraction(2, k + 1) for k, c in enumerate(poly) if k % 2 == 0)

    def power(k):
        return [Fraction(0)] * k + [Fraction(1)]

    prev, legendre = [Fraction(1)], [Fraction(0), Fraction(1)]
    for k in range(1, 10):  # (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1}
        nxt = [Fraction(0)] + [Fraction(2 * k + 1, k + 1) * c for c in legendre]
        for i, c in enumerate(prev):
            nxt[i] -= Fraction(k, k + 1) * c
        prev, legendre = legendre, nxt
    # E_11 = x**11 + sum of a_k x**k over odd k; the conditions of even k hold by parity
    odd = range(1, 11, 2)
    system = [[integral(times(times(legendre, power(j)), power(k))) for k in odd]
              + [-integral(times(times(legendre, power(j)), power(11)))] for j in odd]
    for c in range(5):  # Gauss-Jordan, exact
        piv = next(r for r in range(c, 5) if system[r][c])
        system[c], system[piv] = system[piv], system[c]
        for r in range(5):
            if r != c and system[r][c]:
                f = system[r][c] / system[c][c]
                system[r] = [u - f * v for u, v in zip(system[r], system[c])]
    stieltjes = power(11)
    for i, k in enumerate(odd):
        stieltjes[k] = system[i][5] / system[i][i]

    with mpmath.workdps(50):
        def roots(poly, parity):  # poly(x) = x**parity q(x**2)
            q = [mpmath.mpf(c.numerator) / c.denominator for c in poly[parity::2]]
            return [mpmath.sqrt(mpmath.re(r))
                    for r in mpmath.polyroots(q[::-1], maxsteps=200, extraprec=200)]

        gauss = sorted(roots(legendre, 0), reverse=True)
        nodes = sorted(gauss + roots(stieltjes, 1), reverse=True)
        moments = mpmath.matrix([[(2 if x else 1) * x ** (2 * k) for x in nodes + [0]]
                                 for k in range(11)])
        kron = mpmath.lu_solve(moments, mpmath.matrix([mpmath.mpf(2) / (2 * k + 1)
                                                       for k in range(11)]))
        slope = lambda x: sum(k * mpmath.mpf(c.numerator) / c.denominator * x ** (k - 1)
                              for k, c in enumerate(legendre) if k)
        wg = [2 / ((1 - x * x) * slope(x) ** 2) for x in gauss]
        return ([float(x) for x in nodes], [float(w) for w in kron[:10]], float(kron[10]),
                [float(w) for w in wg])


def test_bessel_tables_derive_from_mpmath():
    for table, nu in ((cr._K0E, 0), (cr._K1E, 1)):
        assert len(table) == 9 and table[8] == table[7]  # x = 2 reads the last piece
        for got, want in zip(table, _bessel_rows(nu)):
            assert _ulps(got, want) <= 1


def test_kronrod_table_derives_from_the_stieltjes_polynomial():
    nodes, weights, centre, gauss = _gauss_kronrod()
    assert _ulps(cr._GK_NODES, nodes) <= 1
    assert _ulps(cr._GK_WEIGHTS, weights) <= 1
    assert _ulps([cr._GK_CENTRE], [centre]) <= 1
    assert _ulps(cr._G_WEIGHTS, gauss) <= 1
    # the Gauss nodes are every other Kronrod node
    assert [round(x, 15) for x in nodes[1::2]] == [
        0.973906528517172, 0.865063366688985, 0.679409568299024, 0.433395394129247,
        0.148874338981631]


# -- the Bessel transform --------------------------------------------------------

def _unit_term(order):
    """A term whose x is r, for which log C = -log(2 pi) - lgamma(q) + nu log(x/2) + log K_nu(x)."""
    return cr._LorentzianTerm(0.0, 1.0, 1.0, 1.0, order)


def _transform(nu, x):
    """log C of the unit term at x."""
    return cr._log_bessel_transform(_unit_term(nu + 1), [x])[0]


def _mp_log_c(nu, x):
    return (-mpmath.log(2 * mpmath.pi) - mpmath.loggamma(nu + 1)
            + nu * mpmath.log(mpmath.mpf(x) / 2) + mpmath.log(mpmath.besselk(nu, x)))


def _scale(nu, x):
    """Sum of the magnitudes the float log C adds up: its rounding is a few eps of this."""
    return math.log(2 * math.pi) + math.lgamma(nu + 1) + nu * abs(math.log(x / 2)) + x + 1.0


def _overflows(nu, x):
    """Whether e^x sqrt(x) K_nu(x) is past the largest float."""
    with mpmath.workdps(30):
        return mpmath.exp(x) * mpmath.sqrt(x) * mpmath.besselk(nu, x) > sys.float_info.max


def test_bessel_transform_matches_scipy_kve_for_orders_0_to_186():
    kve = pytest.importorskip("scipy.special").kve
    xs = cr._geometric_grid(2.0, 600.0, 25)
    worst, compared = 0.0, 0
    for nu in range(187):
        for x, k in zip(xs, kve(nu, xs).tolist()):
            got = _transform(nu, x)
            if not math.isfinite(k):  # past the float range of kve
                continue
            want = -math.log(2 * math.pi) - math.lgamma(nu + 1) + nu * math.log(x / 2) \
                + math.log(k) - x
            worst = max(worst, abs(got - want) / _scale(nu, x))
            compared += 1
    assert compared > 0.9 * 187 * len(xs)
    assert worst <= 4 * sys.float_info.epsilon


def test_bessel_transform_matches_mpmath_besselk():
    # orders where mpmath's besselk is quick; scipy covers every order above
    xs = cr._geometric_grid(2.0, 600.0, 13)
    with mpmath.workdps(30):
        for nu in (0, 1, 2, 3, 7, 20, 60, 186):
            for x in xs:
                if nu > 60 and 0.5 * nu < x < 4 * nu:
                    continue
                got = _transform(nu, x)
                assert abs(got - _mp_log_c(nu, x)) <= 4 * sys.float_info.epsilon * _scale(nu, x)


def test_log_c_past_the_float_range_of_k_matches_mpmath():
    # e^x sqrt(x) K_186(x) is past the largest float at x = 3, the first point
    # of the power form's fit grid; the recurrence then carries k as a float
    # times a power of two, so pole order 187 and far above fit over x in [3, 10]
    xs = cr._geometric_grid(3.0, 10.0, 20)
    assert _overflows(186, 3.0) and not _overflows(185, 3.0)
    with mpmath.workdps(30):
        for order in (185, 186, 187, 301):
            got = cr._log_bessel_transform(_unit_term(order), xs)
            for x, v in zip(xs, got):
                assert abs(v - _mp_log_c(order - 1, x)) <= 4 * sys.float_info.epsilon * _scale(
                    order - 1, x)


def test_bessel_series_below_x_2_matches_mpmath_and_meets_the_tables_at_2():
    xs = cr._geometric_grid(1e-6, 1.999, 60) + [1e-300, math.nextafter(2.0, 0.0)]
    with mpmath.workdps(30):
        for x in xs:
            for nu, got in enumerate(cr._k_series(x)):
                want = mpmath.exp(x) * mpmath.sqrt(x) * mpmath.besselk(nu, x)
                assert abs(got / want - 1) <= 8 * sys.float_info.epsilon, (nu, x)
    # continuous at x = 2, where the tables take over
    below = cr._k_series(math.nextafter(2.0, 0.0))
    for table, k in zip((cr._K0E, cr._K1E), below):
        assert abs(k / cr._k_scaled(table, 1.0) - 1) <= 4 * sys.float_info.epsilon


def test_bessel_transform_below_x_2_matches_mpmath():
    xs = cr._geometric_grid(1e-3, 1.999, 13)
    with mpmath.workdps(30):
        for nu in (0, 1, 2, 3, 7, 20):
            for x in xs:
                got = _transform(nu, x)
                assert abs(got - _mp_log_c(nu, x)) <= 4 * sys.float_info.epsilon * _scale(nu, x)


def test_bessel_transform_below_its_tables_gives_values_and_x_0_fails(
        tmp_path, capsys, monkeypatch):
    with mpmath.workdps(30):
        for order in (1, 3):
            got = cr._log_bessel_transform(_unit_term(order), [3.0, 1.999])
            for x, v in zip((3.0, 1.999), got):
                assert abs(v - _mp_log_c(order - 1, x)) <= 4 * sys.float_info.epsilon * _scale(
                    order - 1, x)
    # a fit grid moved to x = 0 gives exit 3 and no table, not a value
    transform = cr._log_bessel_transform
    monkeypatch.setattr(cr, "_log_bessel_transform",
                        lambda term, r: transform(term, [0.0 * v for v in r]))
    cfg = tmp_path / "c.cfg"
    cfg.write_text("states.list = vacuum\n")
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path), "xi"]) == cli.EXIT_NUMERIC
    assert "Bessel transform at x = 0, which is not positive" in capsys.readouterr().err
    assert not (tmp_path / "xi.csv").exists()


# -- the quadrature ------------------------------------------------------------

def test_quad_is_exact_to_degree_31_on_one_panel():
    # one panel integrates x**31 exactly; its Gauss estimate of the error is
    # exact to degree 19 only, so from x**20 on the default tolerance may bisect
    for k in range(32):
        value, err, evaluations = sec.quad(lambda x: x**k, 0.0, 1.0, limit=1)
        assert abs(value - 1.0 / (k + 1)) <= 4 * sys.float_info.epsilon
        assert evaluations == 21 and err >= abs(value - 1.0 / (k + 1))
        value, err, evaluations = sec.quad(lambda x: x**k, 0.0, 1.0)
        assert abs(value - 1.0 / (k + 1)) <= 4 * sys.float_info.epsilon
        assert err <= 1e-10 * value and (evaluations == 21 or k >= 20)
    value, err, _ = sec.quad(lambda x: x**32, -1.0, 1.0, limit=1)
    assert err > abs(value - 2.0 / 33) > 1e-12


def test_quad_refuses_a_value_that_is_not_finite():
    with pytest.raises(sec.QuadratureError, match="not finite"):
        sec.quad(lambda x: math.inf if x > 0.5 else 1.0, 0.0, 1.0)


def _spied(monkeypatch, module, run):
    """run()'s result and the (arguments, result) of every ``quad`` call it makes via ``module``."""
    calls = []
    quad = module.quad
    signature = inspect.signature(quad)

    def spy(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append((bound.arguments, quad(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(module, "quad", spy)
    return run(), calls


@pytest.mark.parametrize("dctau", [1e3, 1e6])
def test_bcs_quadrature_pieces_match_scipy(monkeypatch, dctau):
    integrate = pytest.importorskip("scipy.integrate")
    p = ModelParams(g0=1.0, delta_c=1.0, q0=0.0, e_f=100.0, k_f=1.0)
    lt, T = ConstantLifetime(1.0 / dctau), 0.4
    res, calls = _spied(monkeypatch, sec, lambda: sec.bcs_kernel_quadrature(p, lt, T))
    assert len(calls) == 3 and res.evaluations == sum(n for _, (_, _, n) in calls)
    for args, (value, err, _) in calls:
        want, _ = integrate.quad(args["func"], args["a"], args["b"], epsabs=args["epsabs"],
                                 epsrel=args["epsrel"], limit=args["limit"],
                                 points=args["points"] or None)
        assert abs(value - want) <= 1e-12 * abs(want)
        assert err <= max(args["epsabs"], args["epsrel"] * abs(value))
    # the folded Cauchy piece against scipy's own principal value on [dc/2, 3 dc/2]
    psi = lambda w: sec._static_loop_weight(w, p, lt, T)
    pv, _ = integrate.quad(psi, 0.5, 1.5, weight="cauchy", wvar=1.0, epsabs=0.0, epsrel=1e-12)
    assert abs(calls[0][1][0] - pv) <= 1e-11 * abs(pv)


@pytest.mark.parametrize("order", [1, 3])
@pytest.mark.parametrize("r", [0.5, 30.0, 400.0])
def test_contour_transform_matches_scipy(monkeypatch, order, r):
    integrate = pytest.importorskip("scipy.integrate")
    term = cr._LorentzianTerm(-0.3, 2.0, 1.0, 1e-3, order)
    (value, err), calls = _spied(monkeypatch, cr, lambda: cr._contour_transform(term, r))
    ((args, (got, _, _)),) = calls
    want, _ = integrate.quad(args["func"], args["a"], args["b"], epsabs=0.0, epsrel=1e-12,
                             limit=400)
    assert abs(got - want) <= 1e-12 * abs(want)
    assert err <= 1e-10 * abs(value)


@pytest.mark.parametrize("dctau", [1e8, 1e9, 3e9])
def test_bcs_quadrature_finds_the_peak_at_the_low_temperature_edge(dctau):
    # at delta_c tau T / delta_c = 600 the peak of Psi at w = 0 is far narrower
    # than any panel of [-50 delta_c, delta_c / 2]; the breakpoints at multiples
    # of the rate sample it, where bisection from one panel finds nothing and
    # returns a ratio of 0 with a tiny error estimate
    p = ModelParams(g0=1.0, delta_c=1.0, q0=0.0, e_f=100.0, k_f=1.0)
    res = sec.bcs_kernel_quadrature(p, ConstantLifetime(1.0 / dctau), 600.0 / dctau)
    assert abs(res.value.real - 1.0) < 1e-3
