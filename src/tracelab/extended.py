"""Double-length long double arithmetic for cancelling kernel sums.

A value is a pair ``(hi, lo)`` of np.longdouble arrays standing for the
unevaluated sum hi + lo with |lo| <= ulp(hi)/2.  That carries twice the long
double mantissa: about 38 significant digits with the x86 80-bit type, 32
where long double is plain double.  The error-free transformations are
Knuth's two-sum and Dekker's split product; both need round-to-nearest
arithmetic without double rounding, which the x87 extended and the IEEE
double formats give.

A complex value is a pair ``(re, im)`` of such values.  Seeds that need a
transcendental function to full length (exp, cos, sin) are evaluated once per
point with the standard library's ``decimal`` module.
"""

from __future__ import annotations

import decimal
from fractions import Fraction

import numpy as np

LD = np.longdouble
# relative rounding level of a double-length result (a few units of the
# double-length mantissa)
UNIT = float(np.finfo(LD).eps) ** 2
# Dekker's splitter 2^ceil(p/2) + 1 for a p-bit mantissa (p = nmant + 1)
_SPLIT = LD(2 ** ((np.finfo(LD).nmant + 2) // 2) + 1)
_DIGITS = 60
_PI = decimal.Decimal(
    "3.141592653589793238462643383279502884197169399375105820974944592307816406286"
)


def two_sum(a, b):
    """s + e == a + b exactly, s = fl(a + b)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _fast_two_sum(a, b):
    """two_sum for |a| >= |b| (or a == 0)."""
    s = a + b
    return s, b - (s - a)


def _split(a):
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def two_prod(a, b):
    """p + e == a * b exactly, p = fl(a * b)."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def add(x, y):
    s, e = two_sum(x[0], y[0])
    t, f = two_sum(x[1], y[1])
    s, e = _fast_two_sum(s, e + t)
    return _fast_two_sum(s, e + f)


def neg(x):
    return -x[0], -x[1]


def mul(x, y):
    p, e = two_prod(x[0], y[0])
    return _fast_two_sum(p, e + (x[0] * y[1] + x[1] * y[0]))


def mul_int(x, m: int):
    """x * m for an integer m that long double holds exactly."""
    m = LD(m)
    p, e = two_prod(x[0], m)
    return _fast_two_sum(p, e + x[1] * m)


def div_int(x, m: int):
    """x / m for an integer m that long double holds exactly."""
    m = LD(m)
    q = x[0] / m
    p, e = two_prod(q, m)
    return _fast_two_sum(q, (((x[0] - p) - e) + x[1]) / m)


def cmul(x, y):
    """Product of two complex double-length values."""
    (a, b), (c, d) = x, y
    return add(mul(a, c), neg(mul(b, d))), add(mul(a, d), mul(b, c))


def cscale(x, r):
    """Complex double-length x times real double-length r."""
    return mul(x[0], r), mul(x[1], r)


def where(mask, x, y):
    """Elementwise choice between two double-length values."""
    return np.where(mask, x[0], y[0]), np.where(mask, x[1], y[1])


def from_exact(v):
    """Nearest double-length value to a float, Fraction or Decimal."""
    rest = Fraction(v)
    parts = []
    for _ in range(3):
        part = float(rest)
        parts.append(part)
        rest -= Fraction(part)
    return add(two_sum(LD(parts[0]), LD(parts[1])), (LD(parts[2]), LD(0.0)))


def stack(values):
    """Array double-length value from a sequence of scalar ones."""
    return (
        np.array([v[0] for v in values], dtype=LD),
        np.array([v[1] for v in values], dtype=LD),
    )


def to_longdouble(x):
    return x[0] + x[1]


# ----------------------------------------------------------------------------
# full-length seeds
# ----------------------------------------------------------------------------


def _dec(v) -> decimal.Decimal:
    v = Fraction(v)
    return decimal.Decimal(v.numerator) / decimal.Decimal(v.denominator)


def exp_cis(x, theta):
    """e^x (cos theta, sin theta) as a complex double-length value.

    ``x`` and ``theta`` are exact (float or Fraction); the result is correct
    to the double-length level for |theta| up to a few thousand.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = _DIGITS
        radius = _dec(x).exp()
        c, s = _cos_sin(_dec(theta))
        return from_exact(radius * c), from_exact(radius * s)


def exp_real(x):
    """e^x as a double-length value (``x`` exact)."""
    with decimal.localcontext() as ctx:
        ctx.prec = _DIGITS
        return from_exact(_dec(x).exp())


def _cos_sin(theta: decimal.Decimal):
    """(cos, sin) by the Taylor series after reduction to |r| <= pi."""
    two_pi = 2 * _PI
    r = theta - two_pi * (theta / two_pi).to_integral_value()
    tiny = decimal.Decimal(10) ** (-_DIGITS - 5)
    c = s = decimal.Decimal(0)
    term, k = decimal.Decimal(1), 0
    while abs(term) > tiny or k <= 4:
        if k % 4 == 0:
            c += term
        elif k % 4 == 1:
            s += term
        elif k % 4 == 2:
            c -= term
        else:
            s -= term
        k += 1
        term = term * r / k
    return c, s
