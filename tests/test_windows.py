import numpy as np
import pytest
from scipy.integrate import quad

from tracelab.windows import Window


def test_center_value_and_support():
    for shape in ("bump", "gaussian"):
        win = Window(shape, 1.2, 0.4)
        assert win.value(1.2) == 1.0
    bump = Window("bump", 0.0, 0.5)
    lo, hi = bump.support()
    assert (lo, hi) == (-0.5, 0.5)
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
