"""Exact rational-function algebra in the quadratic source variable u.

Everything downstream that claims exactness is checked against this module:
ratios of polynomials in u with arbitrary-precision rational coefficients,
and Taylor-coefficient extraction at u = 0 by power-series long division.
The statistical factor of a single bosonic mode enters as f(u) = (1+u)/(1-u);
a diagram with p statistical lines carries the weight (1+u)^p/(1-u)^(p+1)
once the source-dependent normalisation is included, and its n-th Taylor
coefficient is the physical weight in the n-quantum sector.

All arithmetic is over ``fractions.Fraction``; nothing in this module touches
floating point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

__all__ = [
    "ExpansionPoleError",
    "RationalFunction",
    "f_factor",
    "taylor",
]

RationalLike = Union[int, Fraction]

#: Highest series order ``taylor`` computes.
ORDER_CAP = 64


class ExpansionPoleError(ZeroDivisionError):
    """The denominator vanishes at u = 0, where all expansions are taken."""


def _coeff(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"rational coefficient required, got {type(x).__name__}")


# ---------------------------------------------------------------------------
# dense polynomial helpers over Fraction (tuples, ascending powers of u)
# ---------------------------------------------------------------------------

def _ptrim(c: Sequence[Fraction]) -> tuple[Fraction, ...]:
    n = len(c)
    while n > 0 and c[n - 1] == 0:
        n -= 1
    return tuple(c[:n]) if n else (Fraction(0),)


def _pis_zero(c: Sequence[Fraction]) -> bool:
    return all(x == 0 for x in c)


def _padd(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    n = max(len(a), len(b))
    return _ptrim([
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    ])


def _pneg(a: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(-x for x in a)


def _pmul(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    if _pis_zero(a) or _pis_zero(b):
        return (Fraction(0),)
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _ptrim(out)


def _pdivmod(a: Sequence[Fraction], b: Sequence[Fraction]):
    if _pis_zero(b):
        raise ZeroDivisionError("polynomial division by zero")
    a = list(_ptrim(a))
    b = _ptrim(b)
    db, lb = len(b) - 1, b[-1]
    if len(a) - 1 < db:
        return (Fraction(0),), _ptrim(a)
    q = [Fraction(0)] * (len(a) - db)
    while len(a) - 1 >= db and not _pis_zero(a):
        k = len(a) - 1 - db
        c = a[-1] / lb
        q[k] = c
        for i in range(db + 1):
            a[k + i] -= c * b[i]
        a = list(_ptrim(a))
        if len(a) == 1 and a[0] == 0:
            break
    return _ptrim(q), _ptrim(a)


def _pgcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    a, b = _ptrim(a), _ptrim(b)
    while not _pis_zero(b):
        _, r = _pdivmod(a, b)
        a, b = b, r
    if _pis_zero(a):
        return (Fraction(1),)
    return tuple(x / a[-1] for x in a)  # monic


def _peval(c: Sequence[Fraction], x: Fraction) -> Fraction:
    out = Fraction(0)
    for ci in reversed(c):
        out = out * x + ci
    return out


class RationalFunction:
    """Exact ratio of polynomials in u, gcd-reduced on construction.

    The canonical form has a monic denominator (leading coefficient 1), so
    equality of reduced fractions is plain tuple equality.  The denominator
    must not be identically zero; a zero at u = 0 is permitted structurally
    but rejected the moment a Taylor expansion is requested.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Iterable[RationalLike], den: Iterable[RationalLike] = (1,)):
        n = _ptrim([_coeff(x) for x in num])
        d = _ptrim([_coeff(x) for x in den])
        if _pis_zero(d):
            raise ZeroDivisionError("denominator is identically zero")
        if _pis_zero(n):
            object.__setattr__(self, "num", (Fraction(0),))
            object.__setattr__(self, "den", (Fraction(1),))
            return
        g = _pgcd(n, d)
        if len(g) > 1:
            n, _ = _pdivmod(n, g)
            d, _ = _pdivmod(d, g)
        lead = d[-1]
        n = tuple(x / lead for x in n)
        d = tuple(x / lead for x in d)
        object.__setattr__(self, "num", n)
        object.__setattr__(self, "den", d)

    def __setattr__(self, *_):  # immutable
        raise AttributeError("RationalFunction is immutable")

    # -- field arithmetic ---------------------------------------------------

    def _lift(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            return other
        return RationalFunction((_coeff(other),))

    def __add__(self, other):
        o = self._lift(other)
        return RationalFunction(
            _padd(_pmul(self.num, o.den), _pmul(o.num, self.den)),
            _pmul(self.den, o.den),
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(_pneg(self.num), self.den)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) + (-self)

    def __mul__(self, other):
        o = self._lift(other)
        return RationalFunction(_pmul(self.num, o.num), _pmul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if _pis_zero(o.num):
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(_pmul(self.num, o.den), _pmul(self.den, o.num))

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only non-negative integer powers")
        out = RationalFunction((1,))
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            if isinstance(other, (int, Fraction)):
                other = RationalFunction((_coeff(other),))
            else:
                return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RationalFunction(num={self.num}, den={self.den})"

    # -- evaluation and series ----------------------------------------------

    def is_zero(self) -> bool:
        return _pis_zero(self.num)

    def __call__(self, x: RationalLike) -> Fraction:
        xf = _coeff(x)
        d = _peval(self.den, xf)
        if d == 0:
            raise ZeroDivisionError(f"pole at u = {xf}")
        return _peval(self.num, xf) / d


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def taylor(rf: RationalFunction, order: int) -> list[Fraction]:
    """Taylor coefficients of ``rf`` at u = 0, orders 0..order inclusive.

    Computed by long division of power series; coefficient n is exactly the
    n-quantum projection (1/n!) d^n/du^n at u = 0, i.e. the pure-Fock value of
    the derivative operator applied to ``rf``.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if order > ORDER_CAP:
        raise ValueError(f"order {order} exceeds cap {ORDER_CAP}")
    d0 = rf.den[0]
    if d0 == 0:
        raise ExpansionPoleError("denominator vanishes at the expansion point u = 0")
    a = list(rf.num) + [Fraction(0)] * max(0, order + 1 - len(rf.num))
    d = list(rf.den) + [Fraction(0)] * max(0, order + 1 - len(rf.den))
    out: list[Fraction] = []
    for n in range(order + 1):
        s = a[n]
        for k in range(1, n + 1):
            s -= d[k] * out[n - k]
        out.append(s / d0)
    return out


def f_factor(power: int) -> RationalFunction:
    """((1+u)/(1-u))**power, the statistical factor of one mode, power >= 1."""
    if power < 1:
        raise ValueError("power must be >= 1")
    return RationalFunction((1, 1), (1, -1)) ** power
