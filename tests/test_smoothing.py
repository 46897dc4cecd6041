import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tracelab.errors import CoverageError, PeriodError
from tracelab.geometry import heisenberg_chart, make_model, period_gap, random_sphere_point
from tracelab.oracles import brute_smoothed_trace, eigenvalue_multiplicity, poisson_trace
from tracelab.smoothing import (
    _denumerants,
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
from tracelab.spectral import eigendata, eigensection_values, section_dimension
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


@pytest.mark.parametrize("weights", [(1, 2), (1, 1)])
def test_untruncated_trace_matches_poisson_far_out(weights):
    # no degree truncation: lambda far beyond any package edge is as good as
    # lambda near zero, within the cut remainder plus the rounding of the
    # kept sum (its terms are all positive at tau0 = 0)
    model = make_model(weights)
    win = Window("gaussian", 0.0, 0.15)
    for lam in (1000.0, 5000.0):
        res = smoothed_trace(model, win, lam)
        ref = poisson_trace(weights, win, lam)
        rounding = 500 * np.finfo(float).eps * abs(res.value)
        assert res.cut_remainder < 1e-20
        assert abs(res.value - ref) <= res.cut_remainder + rounding
    assert abs(smoothed_trace(make_model((1, 2)), win, 1000.0).value - 3146.3050425701776) < 1e-9


def test_trace_translation_covariance(model12):
    # integer spectrum: shifting the window center by 2*pi multiplies the
    # trace by e^{-2*pi*i*lambda}
    lam = 200.5
    base = smoothed_trace(model12, Window("gaussian", np.pi, 0.15), lam).value
    shifted = smoothed_trace(model12, Window("gaussian", 3 * np.pi, 0.15), lam).value
    assert abs(shifted - np.exp(-2j * np.pi * lam) * base) < 1e-12 * abs(base)


def test_bump_trace_refuses_from_the_cut(model12):
    # the bump's tabulated envelope never certifies a negligible term, so the
    # window cut refuses; there is no degree truncation left to blame
    with pytest.raises(CoverageError, match="envelope"):
        smoothed_trace(model12, Window("bump", np.pi, 0.5), 100.0)


def test_trace_grid_matches_pointwise_calls(model12):
    win = Window("gaussian", np.pi, 0.15)
    grid = np.array([-300.0, 3.25, 150.5, 300.0])
    res = smoothed_trace(model12, win, grid)
    points = [smoothed_trace(model12, win, lam) for lam in grid]
    assert res.value.tolist() == [p.value for p in points]
    assert res.cut_remainder.tolist() == [p.cut_remainder for p in points]
    assert res.n_eigenvalues == sum(p.n_eigenvalues for p in points)
    assert points[0].n_eigenvalues == 0 < points[1].n_eigenvalues


def test_denumerants_match_coin_counting():
    for weights in [(1, 2), (1, 1, 2), (2, 3, 5), (3, 5)]:
        counts = _denumerants(weights, 60)
        assert counts.tolist() == [eigenvalue_multiplicity(weights, n) for n in range(61)]
    assert _denumerants((1, 2), -1).tolist() == [1.0]


def test_fubini_diagonal_integrates_to_trace(model12):
    win = Window("gaussian", np.pi, 0.8)
    lam = 12.3
    tr = smoothed_trace(model12, win, lam, tail_tol=1e-8).value
    iv = integrate_diagonal(model12, win, lam, tail_tol=1e-8)
    assert abs(iv - tr) < 1e-6 * abs(tr)


def test_scaled_diagonal_scan_converges(model12, chart):
    grid = np.geomspace(120.0, 400.0, 8)
    rep = scaled_diagonal_scan(model12, WIN, chart, np.array([0.5 + 0j]), grid)
    mags = np.abs(rep.ratios)
    assert np.all(np.abs(mags - 1.0) < 0.05)
    assert np.abs(mags[-1] - 1.0) < np.abs(mags[0] - 1.0)  # improving in lambda
    # phase of the ratio is flat zero once the leading phase is divided out
    assert np.abs(np.angle(rep.ratios)).max() < 1e-10


def test_scan_u_zero_matches_plain_diagonal(model12, chart):
    grid = np.array([250.0])
    rep = scaled_diagonal_scan(model12, WIN, chart, np.array([0.0 + 0j]), grid)
    direct, _ = smoothed_kernel_diagonal(model12, WIN, 250.0, chart.center[None, :])
    assert abs(rep.exact[0] - direct[0]) < 1e-12 * abs(direct[0])


def test_scan_precision_paths_agree(model12, chart):
    grid = np.geomspace(150.0, 300.0, 4)
    a = scaled_diagonal_scan(model12, WIN, chart, np.array([0.3 + 0j]), grid, precision="double")
    b = scaled_diagonal_scan(model12, WIN, chart, np.array([0.3 + 0j]), grid, precision="longdouble")
    assert np.abs(a.exact - b.exact).max() < 1e-9 * np.abs(a.exact).max()


def test_offlocus_scan_decays(model12, chart):
    rep = offlocus_decay_scan(model12, WIN, chart, 1.0, np.geomspace(80.0, 380.0, 8))
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


def test_longdouble_path_survives_offlocus_cancellation(model12, chart):
    """Off the locus the terms cancel by ~1e12; the long double path keeps
    the double-length rounding level of the terms, double precision does not."""
    lam = 550.0
    pts = chart.normal_point(np.array([[2.6 * lam ** (-7 / 18) + 0j]]))
    ref = _decimal_diagonal(np.abs(pts[0]) ** 2, (1, 2), WIN, lam, int(lam) + 120)
    got, rem = _diagonal_values(model12, WIN, np.array([lam]), pts, 1e-10, "longdouble")
    dbl, _ = _diagonal_values(model12, WIN, np.array([lam]), pts, 1e-10, "double")
    assert rem[0] < 1e-30
    assert abs(got[0] - ref) < 1e-15 * abs(ref)
    assert abs(dbl[0] - ref) > 1e-6 * abs(ref)


def test_negative_lambda_scan(model12):
    win = Window("gaussian", 0.0, 0.3)
    rep = negative_lambda_scan(model12, win, np.geomspace(-120.0, -10.0, 9))
    assert abs(smoothed_trace(model12, win, -50.0).value) < 1e-8
    assert rep.fits["decay_exponent"] < -6.0
    with pytest.raises(ValueError):
        negative_lambda_scan(model12, win, np.array([-5.0, 5.0]))


def test_parity_split_reconstruction(model12, chart):
    u = np.array([0.4 + 0j])
    lam = 260.0
    split = parity_split(model12, WIN, chart, u, lam)
    even, odd = split.even, split.odd
    assert split.cut_remainder < 1e-10
    plus, _ = smoothed_kernel_diagonal(
        model12, WIN, lam, chart.normal_point(u / np.sqrt(lam))[None, :]
    )
    assert abs((even + odd) - plus[0]) < 1e-12 * abs(plus[0])
    # structural evenness on torus models: the odd part is exactly zero
    assert odd == 0.0


def test_kernel_diagonal_positive_at_center(model12, chart):
    # with a window centered at a period the on-locus diagonal is large
    vals, bound = smoothed_kernel_diagonal(model12, WIN, 300.0, chart.center[None, :])
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
    got, remainders = _diagonal_values(model, win, np.full(4, lam), pts, 1e-10, precision)
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
        full, remainder = smoothed_kernel_diagonal(model12, win, lam, pts)
        diff = np.abs(full - _lattice_diagonal(small, win, lam, pts))
        assert diff.max() > 1e-13  # the truncation is visible ...
        assert (diff <= bound + remainder + 1e-12 * np.abs(full)).all()  # ... and certified


def test_widening_the_cut_stays_within_the_remainder(model12, chart):
    lam = 300.0
    pts = chart.normal_point(np.array([[0.5 + 0j], [1.5 + 0j]]) / np.sqrt(lam))
    wide, wide_rem = smoothed_kernel_diagonal(model12, WIN, lam, pts)
    targets = np.array([1e-1, 1e-4, 1e-8])
    lo, hi, rem = _window_cut(WIN, model12, np.full(3, lam), targets, 1.0 / np.pi)
    assert (np.diff(lo) <= 0).all() and (np.diff(hi) >= 0).all()  # tighter target, wider cut
    h = _h_table(np.abs(pts) ** 2, (1, 2), int(lam) + 200)
    for a, b, r, target in zip(lo, hi, rem, targets):
        assert 0.0 < r <= target
        vals, _ = _window_sums(WIN, [lam, lam], h, [a, a], [b, b], 1.0 / np.pi)
        assert (np.abs(wide - vals) <= r + wide_rem + 1e-12 * np.abs(wide)).all()


def _reference_cut(win, model, lam, target, scale):
    """The window cut of one lam by a full sort of its majorant terms."""
    d, min_w = model.dim, min(model.weights)
    n_far = max(0, math.floor(lam + math.sqrt(1400.0) / win.eps))
    n = np.arange(n_far + 1)
    s0 = n_far + 1 - lam
    q = (1.0 + d / ((n_far + 1) // min_w + 1)) * np.exp(-0.5 * win.eps**2 * (2.0 * s0 + 1.0))
    b0 = math.comb((n_far + 1) // min_w + d, d) * float(win.fourier_envelope(s0))
    terms = np.array([math.comb(m // min_w + d, d) for m in n]) * win.fourier_envelope(lam - n)
    order = np.argsort(np.abs(lam - n), kind="stable")
    outside = (np.append(np.cumsum(terms[order][::-1])[::-1], 0.0) + b0 / (1.0 - q)) * scale
    j = int(np.argmax(outside <= target))
    kept = order[:j]
    return (int(kept.min()), int(kept.max())) if j else (0, -1), outside[j]


@pytest.mark.parametrize("weights", [(1, 2), (1, 1, 2), (2, 3)])
def test_grid_cut_matches_per_lambda_sort(weights):
    model = make_model(weights, calibration="none")
    win = Window("gaussian", 0.0, 0.4)
    lams = np.array([-120.0, -3.5, 0.0, 0.5, 2.25, 17.0, 17.5, 60.75, 140.0])
    for target in (1e-3, 1e-12, 1e-40, 1e-290):
        lo, hi, rem = _window_cut(win, model, lams, np.full(lams.size, target), 1.0)
        for lam, a, b, r in zip(lams, lo, hi, rem):
            (ra, rb), rr = _reference_cut(win, model, lam, target, 1.0)
            assert (a, b) == (ra, rb)
            assert abs(r - rr) <= 1e-14 * rr


def test_grouped_trace_equals_per_eigenvalue_sum(pkg, model12):
    # below the package edge the untruncated trace is the flat sum over the
    # degree-truncated spectrum, within that sum's certified degree tail
    for win in (WIN, Window("gaussian", 0.0, 0.15)):
        for lam in (150.25, 300.5):
            grouped = smoothed_trace(model12, win, lam)
            flat = np.sum(win.fourier(lam - pkg.lambda_all))
            tail = spectral_tail_bound(pkg, win, lam)
            assert abs(grouped.value - flat) < tail + 1e-12 * max(abs(flat), 1.0)
            assert 0 < grouped.n_eigenvalues < pkg.lambda_all.size


def test_bump_kernel_refuses_an_uncertified_cut(model12, chart):
    # the bump's tabulated envelope never certifies a negligible term, so the
    # kernel refuses with a named error instead of cutting silently
    with pytest.raises(CoverageError):
        smoothed_kernel_diagonal(model12, Window("bump", np.pi, 0.5), 100.0, chart.center[None, :])


# ----------------------------------------------------------------------------
# the untruncated trace over random models (property test)
# ----------------------------------------------------------------------------


def _trace_window(model, tau0, scale):
    """A gaussian window at tau0 that passes the period-gap guard, or None."""
    try:
        gap = period_gap(model, tau0)
    except PeriodError:
        return None
    eps = scale * gap / 8.0  # four standard deviations inside half the gap
    return Window("gaussian", tau0, eps) if eps >= 0.1 else None


@settings(max_examples=25, deadline=None)
@given(
    weights=st.lists(st.integers(1, 5), min_size=2, max_size=4),
    lam=st.floats(-30.0, 250.0),
    tau0=st.one_of(st.sampled_from([0.0, np.pi]), st.floats(-7.0, 7.0)),
    scale=st.floats(0.3, 0.99),
)
def test_trace_matches_lattice_sum_over_random_models(weights, lam, tau0, scale):
    # every weight vector calibrates to this convention (see test_geometry)
    model = make_model(weights, calibration={"lift_sign": -1, "lift_shift": 0.0})
    win = _trace_window(model, tau0, scale)
    assume(win is not None)
    res = smoothed_trace(model, win, lam)
    # the lattice sum reaches every term above 1e-300 of the window
    n_max = max(0, int(lam + 40.0 / win.eps))
    ref = brute_smoothed_trace(weights, win, lam, n_max)
    magnitude = sum(
        eigenvalue_multiplicity(weights, n) * abs(complex(win.fourier(lam - n)))
        for n in range(n_max + 1)
    )
    rounding = 4 * n_max * np.finfo(float).eps * magnitude
    assert abs(res.value - ref) <= res.cut_remainder + rounding + 1e-300
    # a degree-truncated package whose edge lies six window widths past
    # lambda sums to the same trace within its certified degree tail
    pkg = eigendata(model, max(0, math.ceil((lam + 6.0 / win.eps) / min(weights))))
    truncated = np.sum(pkg.multiplicities * win.fourier(lam - pkg.values))
    tail = spectral_tail_bound(pkg, win, lam)
    assert abs(res.value - truncated) <= tail + res.cut_remainder + rounding + 1e-300
