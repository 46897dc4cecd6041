import math

import numpy as np
import pytest

from tracelab.errors import CoverageError
from tracelab.geometry import fixed_components, heisenberg_chart, make_model, random_sphere_point
from tracelab.smoothing import (
    _diagonal_values,
    _h_table,
    _window_cut,
    _window_sums,
    integrate_diagonal,
    negative_lambda_scan,
    offlocus_decay_scan,
    parity_split,
    scaled_diagonal_scan,
    smoothed_kernel_diagonal,
    smoothed_trace,
    spectral_tail_bound,
)
from tracelab.spectral import SpectralPackage, eigendata, eigensection_values, section_dimension
from tracelab.windows import Window


@pytest.fixture(scope="module")
def model12():
    return make_model((1, 2))


@pytest.fixture(scope="module")
def pkg(model12):
    return eigendata(model12, 460)


@pytest.fixture(scope="module")
def chart(model12):
    x0 = np.array([0.0, 1.0 + 0j])
    return heisenberg_chart(model12, x0, np.pi)


WIN = Window("gaussian", np.pi, 0.15)


def test_toy_trace_is_window_transform():
    toy = SpectralPackage.from_eigenvalues([5.0])
    win = Window("bump", 0.8, 0.5)
    for lam in (2.0, 5.0, 7.25, -3.0):
        res = smoothed_trace(toy, win, lam)
        assert res.value == complex(win.fourier(lam - 5.0))
        assert res.tail_bound == 0.0


def test_trace_linearity_in_spectrum():
    win = Window("gaussian", 0.0, 0.5)
    a = SpectralPackage.from_eigenvalues([1.0, 4.0])
    b = SpectralPackage.from_eigenvalues([2.5])
    ab = SpectralPackage.from_eigenvalues([1.0, 4.0, 2.5])
    lam = 3.1
    total = smoothed_trace(a, win, lam).value + smoothed_trace(b, win, lam).value
    assert abs(smoothed_trace(ab, win, lam).value - total) < 1e-15


def test_trace_translation_covariance(pkg):
    # integer spectrum: shifting the window center by 2*pi multiplies the
    # trace by e^{-2*pi*i*lambda}
    lam = 200.5
    base = smoothed_trace(pkg, Window("gaussian", np.pi, 0.15), lam).value
    shifted = smoothed_trace(pkg, Window("gaussian", 3 * np.pi, 0.15), lam).value
    assert abs(shifted - np.exp(-2j * np.pi * lam) * base) < 1e-12 * abs(base)


def test_coverage_refusal(pkg):
    win = Window("gaussian", 0.0, 0.15)
    with pytest.raises(CoverageError):
        smoothed_trace(pkg, win, float(pkg.coverage_max) + 5.0)
    # far inside coverage the bound is tiny
    assert spectral_tail_bound(pkg, win, 200.0) < 1e-30


def test_fubini_diagonal_integrates_to_trace(model12):
    small = eigendata(model12, 24)
    win = Window("gaussian", np.pi, 0.8)
    lam = 12.3
    tr = smoothed_trace(small, win, lam, tail_tol=1e-8).value
    iv = integrate_diagonal(small, win, lam, tail_tol=1e-8)
    assert abs(iv - tr) < 1e-6 * abs(tr)


def test_scaled_diagonal_scan_converges(pkg, chart):
    grid = np.geomspace(120.0, 400.0, 8)
    rep = scaled_diagonal_scan(pkg, WIN, chart, np.array([0.5 + 0j]), grid)
    mags = np.abs(rep.ratios)
    assert np.all(np.abs(mags - 1.0) < 0.05)
    assert np.abs(mags[-1] - 1.0) < np.abs(mags[0] - 1.0)  # improving in lambda
    # phase of the ratio is flat zero once the leading phase is divided out
    assert np.abs(np.angle(rep.ratios)).max() < 1e-10


def test_scan_u_zero_matches_plain_diagonal(pkg, chart):
    grid = np.array([250.0])
    rep = scaled_diagonal_scan(pkg, WIN, chart, np.array([0.0 + 0j]), grid)
    direct, _ = smoothed_kernel_diagonal(pkg, WIN, 250.0, chart.center[None, :])
    assert abs(rep.exact[0] - direct[0]) < 1e-12 * abs(direct[0])


def test_scan_precision_paths_agree(pkg, chart):
    grid = np.geomspace(150.0, 300.0, 4)
    a = scaled_diagonal_scan(pkg, WIN, chart, np.array([0.3 + 0j]), grid, precision="double")
    b = scaled_diagonal_scan(pkg, WIN, chart, np.array([0.3 + 0j]), grid, precision="longdouble")
    assert np.abs(a.exact - b.exact).max() < 1e-9 * np.abs(a.exact).max()


def test_offlocus_scan_decays(pkg, chart):
    rep = offlocus_decay_scan(pkg, WIN, chart, 1.0, np.geomspace(80.0, 380.0, 8))
    mags = np.abs(rep.ratios)
    assert mags[-1] < mags[0]
    assert rep.fits["decay_exponent"] < -1.0
    assert rep.meta["precision"] == "longdouble"


def _decimal_diagonal(t, weights, win, lam, n_top):
    """The kernel sum term by term in 50-digit decimal arithmetic (no factoring)."""
    from decimal import Decimal, localcontext

    from tracelab.extended import _PI, _cos_sin

    with localcontext() as ctx:
        ctx.prec = 50
        d = len(weights) - 1
        t = [Decimal(float(x)) for x in t]
        h = [Decimal(1)]
        for n in range(1, n_top + 1):
            acc = sum(ti * (n + d * w) * h[n - w] for ti, w in zip(t, weights) if n >= w)
            h.append(acc / n)
        eps, tau0 = Decimal(win.eps), Decimal(win.tau0)
        peak = eps * (2 * _PI).sqrt()
        re = im = Decimal(0)
        for n in range(n_top + 1):
            s = Decimal(lam) - n
            g = h[n] * peak * (-((eps * s) ** 2) / 2).exp()
            c, sn = _cos_sin(s * tau0)
            re, im = re + g * c, im - g * sn
        return complex(re, im) * (math.factorial(d) / np.pi**d)


def test_longdouble_path_survives_offlocus_cancellation(pkg, chart):
    """Off the locus the terms cancel by ~1e12; the long double path keeps
    the double-length rounding level of the terms, double precision does not."""
    lam = 550.0
    pts = chart.normal_point(np.array([[2.6 * lam ** (-7 / 18) + 0j]]))
    ref = _decimal_diagonal(np.abs(pts[0]) ** 2, (1, 2), WIN, lam, int(lam) + 120)
    got, rem = _diagonal_values(pkg, WIN, np.array([lam]), pts, 1e-10, "longdouble")
    dbl, _ = _diagonal_values(pkg, WIN, np.array([lam]), pts, 1e-10, "double")
    assert rem[0] < 1e-30
    assert abs(got[0] - ref) < 1e-15 * abs(ref)
    assert abs(dbl[0] - ref) > 1e-6 * abs(ref)


def test_negative_lambda_scan(pkg):
    win = Window("gaussian", 0.0, 0.3)
    rep = negative_lambda_scan(pkg, win, np.geomspace(-120.0, -10.0, 9))
    assert abs(smoothed_trace(pkg, win, -50.0).value) < 1e-8
    assert rep.fits["decay_exponent"] < -6.0
    with pytest.raises(ValueError):
        negative_lambda_scan(pkg, win, np.array([-5.0, 5.0]))


def test_parity_split_reconstruction(pkg, chart):
    u = np.array([0.4 + 0j])
    lam = 260.0
    split = parity_split(pkg, WIN, chart, u, lam)
    even, odd = split.even, split.odd
    assert split.cut_remainder < 1e-10
    plus, _ = smoothed_kernel_diagonal(
        pkg, WIN, lam, chart.normal_point(u / np.sqrt(lam))[None, :]
    )
    assert abs((even + odd) - plus[0]) < 1e-12 * abs(plus[0])
    # structural evenness on torus models: the odd part is exactly zero
    assert odd == 0.0


def test_kernel_diagonal_positive_at_center(pkg, chart):
    # with a window centered at a period the on-locus diagonal is large
    vals, bound = smoothed_kernel_diagonal(pkg, WIN, 300.0, chart.center[None, :])
    assert abs(vals[0]) > 10.0
    assert bound < 1e-10


# ----------------------------------------------------------------------------
# generating-function kernel sums against the per-monomial lattice
# ----------------------------------------------------------------------------


def _degree_tail_bound(pkg, win, lam):
    """Bound on the degrees k > k_max of the kernel diagonal, pointwise on the sphere.

    The degree-k diagonal is at most dim_k * d!/pi^d (the Szego diagonal of
    degree k), so the tail is at most sum_{k>k_max} dim_k d!/pi^d
    envelope(k*min_w - lam); summed until the terms are negligible.
    """
    d = pkg.model.dim
    min_w = min(pkg.model.weights)
    szego = math.factorial(d) / np.pi**d
    total, k = 0.0, pkg.k_max + 1
    while True:
        term = section_dimension(d, k) * szego * float(win.fourier_envelope(max(k * min_w - lam, 0.0)))
        total += term
        if term < 1e-4 * max(total, 1e-300) and term < 1e-18:
            return total
        k += 1


def _lattice_diagonal(pkg, win, lam, points):
    """Degree-truncated kernel diagonal, summed monomial by monomial (degrees <= k_max)."""
    total = np.zeros(len(points), dtype=complex)
    for k in range(pkg.k_max + 1):
        amps = np.abs(eigensection_values(pkg, k, points)) ** 2
        total += amps @ win.fourier(lam - pkg.block(k).eigenvalues)
    return total


@pytest.mark.parametrize("weights", [(1, 2), (1, 1, 2), (1, 2, 3)])
@pytest.mark.parametrize("precision", ["double", "longdouble"])
def test_recurrence_matches_lattice_sum(weights, precision):
    model = make_model(weights, calibration="none")
    small = eigendata(model, 70)
    win = Window("gaussian", 1.0, 0.3)
    lam = 20.0
    # degrees beyond 70 are negligible here, so the lattice is the full sum
    assert _degree_tail_bound(small, win, lam) < 1e-30
    rng = np.random.default_rng(sum(weights))
    pts = np.array([random_sphere_point(model, rng) for _ in range(4)])
    ref = _lattice_diagonal(small, win, lam, pts)
    got, remainders = _diagonal_values(small, win, np.full(4, lam), pts, 1e-10, precision)
    assert remainders.max() < 1e-20
    assert np.abs(got - ref).max() < 1e-12 * np.abs(ref).max()


def test_degree_truncation_within_certified_tail(model12):
    """Untruncated minus degree-truncated diagonal is bounded by the degree tail bound."""
    small = eigendata(model12, 40)
    win = Window("gaussian", np.pi, 0.3)
    rng = np.random.default_rng(11)
    pts = np.array([random_sphere_point(model12, rng) for _ in range(5)])
    for lam in (30.0, 36.0):
        bound = _degree_tail_bound(small, win, lam)
        full, remainder = smoothed_kernel_diagonal(small, win, lam, pts)
        diff = np.abs(full - _lattice_diagonal(small, win, lam, pts))
        assert diff.max() > 1e-13  # the truncation is visible ...
        assert (diff <= bound + remainder + 1e-12 * np.abs(full)).all()  # ... and certified


def test_widening_the_cut_stays_within_the_remainder(pkg, chart):
    lam = 300.0
    pts = chart.normal_point(np.array([[0.5 + 0j], [1.5 + 0j]]) / np.sqrt(lam))
    wide, wide_rem = smoothed_kernel_diagonal(pkg, WIN, lam, pts)
    cut = _window_cut(WIN, lam, pkg.model)
    assert (np.diff(cut.remainder) <= 0).all()
    h = _h_table(np.abs(pts) ** 2, (1, 2), int(lam) + 200)
    for target in (1e-1, 1e-4, 1e-8):
        narrow = cut.keep(target)
        assert 0.0 < narrow[2] <= target
        vals, _ = _window_sums(WIN, [lam, lam], h, [narrow, narrow], 1.0 / np.pi)
        assert (np.abs(wide - vals) <= narrow[2] + wide_rem + 1e-12 * np.abs(wide)).all()


def test_grouped_trace_equals_per_eigenvalue_sum(pkg):
    # the bump envelope is tabulated too short for a degree tail at k_max 460,
    # so the bump runs on the same spectrum as a toy package (no tail)
    toy = SpectralPackage.from_eigenvalues(pkg.lambda_all)
    cases = [(pkg, WIN), (pkg, Window("gaussian", 0.0, 0.15)), (toy, Window("bump", np.pi, 0.6))]
    for package, win in cases:
        for lam in (150.25, 300.5):
            grouped = smoothed_trace(package, win, lam)
            flat = np.sum(win.fourier(lam - pkg.lambda_all))
            assert abs(grouped.value - flat) < 1e-12 * max(abs(flat), 1.0)
            assert grouped.n_eigenvalues == pkg.lambda_all.size


def test_bump_kernel_refuses_an_uncertified_cut(pkg, chart):
    # the bump's tabulated envelope never certifies a negligible term, so the
    # kernel refuses with a named error instead of cutting silently
    with pytest.raises(CoverageError):
        smoothed_kernel_diagonal(pkg, Window("bump", np.pi, 0.5), 100.0, chart.center[None, :])
