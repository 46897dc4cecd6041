from fractions import Fraction

import numpy as np
import pytest

from tracelab import extended as X

LD = np.longdouble


def exact(x) -> Fraction:
    return Fraction(*LD(x[0]).as_integer_ratio()) + Fraction(*LD(x[1]).as_integer_ratio())


def rel(x, ref: Fraction) -> float:
    return abs(float((exact(x) - ref) / ref))


def test_error_free_transformations():
    rng = np.random.default_rng(3)
    for a, b in rng.standard_normal((50, 2)) * 10.0 ** rng.integers(-5, 5, (50, 2)):
        a, b = LD(a) / 3, LD(b) / 7
        fa, fb = Fraction(*a.as_integer_ratio()), Fraction(*b.as_integer_ratio())
        assert exact(X.two_sum(a, b)) == fa + fb
        assert exact(X.two_prod(a, b)) == fa * fb


def test_arithmetic_at_double_length():
    a, b = X.from_exact(Fraction(2, 7)), X.from_exact(Fraction(-5, 11))
    assert rel(a, Fraction(2, 7)) < 4 * X.UNIT
    assert rel(X.add(a, b), Fraction(2, 7) - Fraction(5, 11)) < 4 * X.UNIT
    assert rel(X.mul(a, b), Fraction(-10, 77)) < 4 * X.UNIT
    assert rel(X.mul_int(a, 613), Fraction(2 * 613, 7)) < 4 * X.UNIT
    assert rel(X.div_int(a, 613), Fraction(2, 7 * 613)) < 4 * X.UNIT
    re, im = X.cmul((a, b), (b, a))  # (a + ib)(b + ia) = i (a^2 + b^2)
    assert abs(float(exact(re))) < 4 * X.UNIT
    assert rel(im, Fraction(2, 7) ** 2 + Fraction(5, 11) ** 2) < 4 * X.UNIT


@pytest.mark.parametrize("theta", [0.0, 1.0, np.pi, -2.5, 40.0])
def test_full_length_seeds(theta):
    re, im = X.exp_cis(0.0, theta)
    assert abs(float(exact(re)) - np.cos(theta)) < 1e-15
    assert abs(float(exact(im)) - np.sin(theta)) < 1e-15
    # |e^{i theta}|^2 = 1 and e^x e^{-x} = 1 at the double-length level
    assert abs(float(exact(re) ** 2 + exact(im) ** 2 - 1)) < 8 * X.UNIT
    x = Fraction(theta) / 3
    assert abs(float(exact(X.exp_real(x)) * exact(X.exp_real(-x)) - 1)) < 8 * X.UNIT
