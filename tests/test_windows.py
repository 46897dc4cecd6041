import math

import numpy as np
import pytest
from scipy.integrate import quad

from tracelab.windows import Window, _bump_envelope, _bump_ft_direct


def test_center_value_and_support():
    for shape in ("bump", "gaussian"):
        win = Window(shape, 1.2, 0.4)
        assert win.value(1.2) == 1.0
    bump = Window("bump", 0.0, 0.5)
    assert bump.halfwidth == 0.5
    assert Window("gaussian", 0.0, 0.5).halfwidth == 2.0
    assert bump.value(0.51) == 0.0
    assert bump.value(-0.51) == 0.0
    assert bump.value(0.49) > 0.0


def test_gaussian_fourier_analytic():
    win = Window("gaussian", 0.0, 0.3)
    s = np.linspace(-40, 40, 17)
    ref = np.sqrt(2 * np.pi) * 0.3 * np.exp(-0.5 * (0.3 * s) ** 2)
    assert np.abs(win.fourier(s) - ref).max() < 1e-14


@pytest.mark.parametrize("s", [0.0, 0.7, 5.0, 33.0, 128.0])
def test_bump_fourier_against_direct_quadrature(s):
    win = Window("bump", 0.0, 1.0)
    re = quad(lambda t: win.value(t) * np.cos(s * t), -1, 1, limit=400)[0]
    val = win.fourier(s)
    assert abs(val.real - re) < 5e-11
    assert abs(val.imag) < 1e-12  # even window, centered: transform is real


def test_fourier_zero_frequency_is_mass():
    # 10 widths cover the gaussian tail well past the 1e-10 level
    for shape, eps in (("bump", 0.7), ("gaussian", 0.25)):
        win = Window(shape, 0.0, eps)
        mass = quad(lambda t: win.value(t), -10 * eps, 10 * eps, limit=200)[0]
        assert abs(win.fourier(0.0) - mass) < 1e-11


def test_modulation_by_center():
    base = Window("bump", 0.0, 0.6)
    shifted = Window("bump", 2.0, 0.6)
    s = np.linspace(-20, 20, 41)
    ref = np.exp(-1j * s * 2.0) * base.fourier(s)
    assert np.abs(shifted.fourier(s) - ref).max() < 1e-10


def test_envelope_majorizes_transform():
    for shape in ("bump", "gaussian"):
        win = Window(shape, 0.0, 0.4)
        s = np.linspace(0.0, 300.0, 1201)
        assert np.all(np.abs(win.fourier(s)) <= win.fourier_envelope(s) * (1 + 1e-9) + 1e-300)
        env = win.fourier_envelope(s)
        assert np.all(np.diff(env) <= 1e-12)  # monotone majorant


@pytest.mark.parametrize("eps", [0.3, 1.0])
def test_bump_envelope_majorizes_the_direct_transform(eps):
    win = Window("bump", 0.0, eps)
    # |rhohat| falls below 1e-12 near eps*s = 600
    s = np.linspace(0.0, 800.0 / eps, 8001)
    direct = np.abs(_bump_ft_direct(eps, s))
    resolved = direct > 1e-12  # below it the quadrature's absolute error dominates
    assert resolved.sum() > 5000
    assert np.all(direct[resolved] <= win.fourier_envelope(s[resolved]))
    assert 0.0 < win.fourier_envelope(1e4) < 1e-20


def _unit_bump_transform(mp, sigma):
    """rhohat(sigma) of the unit bump on the V-shaped path -1 -> -i -> 1.

    By symmetry it is twice the real part of the right arm t = 1 - u(1 + i),
    where the integrand is damped like exp(-1/(4u) - sigma u): no cancellation.
    """
    peak = 1 / (2 * mp.sqrt(sigma))

    def arm(u):
        t = 1 - u * (1 + 1j)
        return mp.exp(1 - 1 / (1 - t * t) - 1j * sigma * t) * (1 + 1j)

    cuts = [0] + [peak * 2**k for k in range(-4, 6)] + [1]
    return 2 * mp.re(mp.quad(arm, sorted(set(min(c, 1) for c in cuts))))


def test_bump_envelope_against_bessel_and_mpmath():
    mp = pytest.importorskip("mpmath")
    from scipy.special import k1

    sigma = np.linspace(200.0 / 4000, 200.0, 4000)
    root = np.sqrt(sigma)
    # double-precision K_1, checked against mpmath's besselk on every 100th
    # point (mpmath at all 4,000 points takes about 9 s); the elementary form
    # sits at least 5e-4 above the Bessel bound
    bessel = k1(root)
    unit = Window("bump", 0.0, 1.0)
    with mp.workdps(30):
        for x, k in zip(root[::100], bessel[::100]):
            assert abs(k - float(mp.besselk(1, x))) < 1e-14 * k
        assert abs(float(_unit_bump_transform(mp, 5)) - unit.fourier(5.0).real) < 1e-14
        exact = [abs(_unit_bump_transform(mp, x)) for x in (800, 1600, 3200)]
    assert np.all(_bump_envelope(sigma) >= 2 * math.sqrt(2) * math.e * bessel / root)
    for x, rho in zip((800.0, 1600.0, 3200.0), exact):
        assert rho > 0 and unit.fourier_envelope(x) >= float(rho)


def test_scalar_input_shapes():
    win = Window("bump", 0.5, 0.3)
    val = win.fourier(2.0)
    assert np.ndim(val) == 0
    arr = win.fourier(np.array([2.0, 3.0]))
    assert arr.shape == (2,)


def test_invalid_shape_rejected():
    with pytest.raises(ValueError):
        Window("hann", 0.0, 1.0)
    with pytest.raises(ValueError):
        Window("bump", 0.0, -1.0)
    # NaN fails every comparison, so "eps <= 0" alone let it through
    for eps in (math.nan, math.inf, 0.0):
        with pytest.raises(ValueError, match="width must be positive and finite"):
            Window("gaussian", 0.0, eps)
    for tau0 in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="center must be finite"):
            Window("gaussian", tau0, 0.15)
