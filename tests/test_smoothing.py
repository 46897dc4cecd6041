import math
import random
from fractions import Fraction
import time
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tracelab import cli, smoothing
from tracelab.asymptotics import (
    gaussian_normal_integral,
    local_prediction,
    predict_local,
    psi2,
    stationary_point_check,
)
from tracelab.errors import CoverageError, InputError, PeriodError, TracelabError
from tracelab.geometry import heisenberg_chart, make_model, period_gap, random_sphere_point
from tracelab.oracles import brute_smoothed_trace, eigenvalue_multiplicity, poisson_trace
from tracelab.quadrature import sphere_rule
from tracelab.reports import ScanReport
from tracelab.smoothing import (
    _rounding_bounds,
    _denumerants,
    _diagonal_values,
    _eigen_sum_diagonal,
    _eigen_sum_trace,
    _h_table,
    _phase_table,
    _window_cut,
    _window_sums,
    negative_lambda_scan,
    offlocus_decay_scan,
    parity_scan,
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
X0, OMEGA = np.array([0.0, 1.0 + 0j]), np.array([1.0, 0.0, 0.0])  # an admissible stationary check


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
    # the bump's envelope decays like exp(-sqrt(eps s)), beyond the reach of
    # the geometric far-tail bound, so the window cut refuses; there is no
    # degree truncation left to blame
    with pytest.raises(CoverageError, match="envelope"):
        smoothed_trace(model12, Window("bump", np.pi, 0.5), 100.0)


def test_lambda_beyond_the_cut_table_refuses(model12, chart):
    # an eigen-sum row at lambda = 1e12 would tabulate 1e12 values of n;
    # past 9.2e18 the count would not even fit int64.  The closed form takes
    # trace rows below 2^52 only, so 1e19 reaches the eigen-sum through
    # `smoothed_trace`; a kernel row summed by the eigen-sum (the rows the
    # closed form does not take) refuses the same way
    with pytest.raises(CoverageError, match=r"lambda=1e\+12 needs a window-cut table"):
        _eigen_sum_trace(model12, Window("gaussian", 0.0, 0.15), np.array([1e12]))
    with pytest.raises(CoverageError, match=r"lambda=1e\+19 needs a window-cut table"):
        smoothed_trace(model12, Window("gaussian", 0.0, 0.15), [10.0, 1e19])
    t = np.array([[0.36, 0.64]])
    with pytest.raises(CoverageError, match=r"lambda=1e\+12 needs a window-cut table"):
        _eigen_sum_diagonal(make_model((1, 3)), Window("gaussian", 0.0, 0.15), np.array([1e12]), t)


def test_tau0_past_the_phase_limit_refuses(model12, chart):
    # |tau0| < 2^52 eps/sqrt(1400), 1.8e13 at eps 0.15: past it a trace
    # returned a value with a bound of 7.5e287, and a kernel row in closed
    # form did not return at all
    limit = 2.0**52 * 0.15 / smoothing._GAUSS_FAR
    assert np.isfinite(smoothed_trace(model12, Window("gaussian", 0.99 * limit, 0.15), 100.0).value)
    for tau0 in (1.01 * limit, -1.01 * limit, 1e300):
        win = Window("gaussian", tau0, 0.15)
        with pytest.raises(CoverageError, match="tau0"):
            smoothed_trace(model12, win, 100.0)
        with pytest.raises(CoverageError, match="tau0"):
            smoothed_kernel_diagonal(model12, win, 100.0, chart.center[None, :])


def test_cut_table_limit_is_one_constant(model12, monkeypatch):
    win = Window("gaussian", 0.0, 0.15)
    # the far edge of a cut at lam = 700 is floor(700 + sqrt(1400)/0.15) = 949
    lam = np.array([700.0])
    monkeypatch.setattr(smoothing, "_CUT_TABLE_MAX", 950)
    assert np.isfinite(_eigen_sum_trace(model12, win, lam)[0]).all()
    monkeypatch.setattr(smoothing, "_CUT_TABLE_MAX", 949)
    with pytest.raises(CoverageError, match="950 entries, above the 949"):
        _eigen_sum_trace(model12, win, lam)


def test_trace_grid_matches_pointwise_calls(model12):
    win = Window("gaussian", np.pi, 0.15)
    grid = np.array([-300.0, 3.25, 150.5, 300.0])
    res = smoothed_trace(model12, win, grid)
    points = [smoothed_trace(model12, win, lam) for lam in grid]
    assert res.value.tolist() == [p.value for p in points]
    assert res.cut_remainder.tolist() == [p.cut_remainder for p in points]
    assert res.n_eigenvalues == sum(p.n_eigenvalues for p in points)
    assert points[0].n_eigenvalues == 0 < points[1].n_eigenvalues


def test_phase_table_is_built_once_per_window(model12):
    # a second call at the same (tau0, eps) returns the same read-only table,
    # and a trace summed with the cached table is bit-identical to one that
    # built it
    smoothing._phase_table_at.cache_clear()
    win = Window("gaussian", np.pi, 0.15)
    grid = np.linspace(150.0, 400.0, 7)
    first = smoothed_trace(model12, win, grid).value
    table = _phase_table(win)
    assert _phase_table(Window("gaussian", np.pi, 0.15)) is table
    assert not (table[0].flags.writeable or table[1].flags.writeable)
    with pytest.raises(ValueError):
        table[0][0] = 0.0
    assert smoothed_trace(model12, win, grid).value.tolist() == first.tolist()
    assert _phase_table(Window("gaussian", 0.0, 0.15)) is not table


def test_non_finite_lambda_is_an_input_error(model12, chart):
    # -inf returned 0 with a NaN rounding bound
    for lam in (-math.inf, math.inf, math.nan):
        with pytest.raises(InputError, match="lambda must be finite"):
            smoothed_trace(model12, WIN, lam)
        with pytest.raises(InputError, match="lambda must be finite"):
            smoothed_kernel_diagonal(model12, WIN, lam, chart.center)


def test_zero_point_is_an_input_error(model12):
    # the zero vector returned 0 after two 0/0 RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="finite and nonzero"):
            smoothed_kernel_diagonal(model12, WIN, 100.0, np.zeros(2, dtype=complex))


def test_point_of_the_wrong_width_is_an_input_error(model12):
    # a 3-coordinate point on (1, 2) raised IndexError
    with pytest.raises(InputError, match="has 2 coordinates"):
        smoothed_kernel_diagonal(model12, WIN, 100.0, np.array([0.6, 0.8, 0.0 + 0j]))


def test_bad_model_and_window_are_input_errors_and_value_errors():
    for call in (lambda: make_model((0, 1)), lambda: Window("gaussian", 0.0, -1.0)):
        with pytest.raises(InputError) as caught:
            call()
        assert isinstance(caught.value, TracelabError) and isinstance(caught.value, ValueError)


def _local_prediction_12():
    model = make_model((1, 2))
    return local_prediction(model, heisenberg_chart(model, np.array([0.0, 1.0 + 0j]), np.pi), WIN)


@pytest.mark.parametrize(
    "call",
    [
        lambda: negative_lambda_scan(make_model((1, 2)), WIN, np.array([-5.0, 5.0])),
        lambda: heisenberg_chart(make_model((1, 2)), np.array([0.0, 2.0 + 0j]), np.pi),
        lambda: ScanReport("trace", [1.0, 2.0], [1.0], [1.0]),
        lambda: ScanReport("trace", [2.0, 1.0, 3.0], [1.0] * 3, [1.0] * 3),
        lambda: predict_local(_local_prediction_12(), np.array([0.1, 0.2]), 100.0),
        lambda: predict_local(_local_prediction_12(), np.zeros((2, 1)), np.array([1.0, 2.0])),
        lambda: psi2(np.zeros(2), np.zeros(3)),
        lambda: gaussian_normal_integral(np.zeros((2, 3))),
        lambda: gaussian_normal_integral(np.array([[np.nan]])),
        lambda: gaussian_normal_integral(np.array([[-1.0, 0.0], [0.0, np.inf]])),
        lambda: gaussian_normal_integral(-np.ones((2, 2, 2))),
        lambda: gaussian_normal_integral(0.5j * np.eye(2)),
        lambda: stationary_point_check(make_model((1, 2)), X0, np.array([1.0, 0.0])),
        lambda: stationary_point_check(make_model((1, 2)), X0, np.array([np.nan, 0.0, 0.0])),
        lambda: stationary_point_check(make_model((1, 2)), np.array([0.0, 0.6, 0.8]), OMEGA),
        lambda: stationary_point_check(make_model((1, 2)), np.array([np.nan, 1.0]), OMEGA),
        lambda: stationary_point_check(make_model((1, 2)), np.zeros(2), OMEGA),
        lambda: stationary_point_check(make_model((1, 2)), np.array([0.0, 2.0 + 0j]), OMEGA),
        lambda: smoothed_trace(make_model((1, 2)), WIN, np.ones((2, 2)) * 100),
        lambda: smoothed_trace(make_model((1, 2)), WIN, "abc"),
        lambda: smoothed_trace(make_model((1, 2)), WIN, 100 + 1j),
        lambda: smoothed_kernel_diagonal(make_model((1, 2)), WIN, np.array([100.0, 200.0]), [[1, 0]]),
        lambda: smoothed_trace(make_model((1, 2)), WIN, 100.0, tail_tol=math.nan),
        lambda: smoothed_kernel_diagonal(make_model((1, 2)), WIN, 100.0, [[1, 0]], tail_tol=-1.0),
    ],
    ids=["positive-grid", "chart-off-sphere", "report-shape", "report-not-monotone",
         "predict-local-dimension", "predict-local-batch", "psi2-dimension",
         "gaussian-integral-2x3", "gaussian-integral-nan", "gaussian-integral-inf",
         "gaussian-integral-3d", "gaussian-integral-not-unitary", "stationary-omega-length",
         "stationary-omega-nan", "stationary-x0-length", "stationary-x0-nan", "stationary-x0-zero",
         "stationary-x0-off-sphere", "trace-lambda-2d", "trace-lambda-string",
         "trace-lambda-complex", "kernel-lambda-per-point", "trace-tail-tol-nan",
         "kernel-tail-tol-negative"],
)
def test_exported_entry_points_refuse_bad_input_with_input_errors(call):
    # each raised a plain ValueError (a NaN omega numpy's LinAlgError), but
    # a non-unitary A, whose closed form was silently wrong, a 2-D lambda
    # (IndexError), a complex one or a lambda per missing point (TypeError)
    # and a NaN tail_tol (a CoverageError that could not "reach nan");
    # InputError is a ValueError too
    with pytest.raises(InputError):
        call()


@pytest.mark.parametrize("tau0", [np.pi, 2 * np.pi / 3, -12 * np.pi, 2 * np.pi * 1e9 + np.pi])
def test_phase_table_is_cis_correctly_rounded(tau0):
    # every entry of the table is mpmath's cis(k tau0), |k| <= K, correctly
    # rounded, as `_rounding_bounds` charges it
    mpmath = pytest.importorskip("mpmath")
    double_cos, double_sin = _phase_table(Window("gaussian", tau0, 0.15))
    reach = math.ceil(smoothing._GAUSS_FAR / 0.15) + 1
    assert double_cos.shape == double_sin.shape == (2 * reach + 1,)
    with mpmath.workdps(60):
        for k in range(-reach, reach + 1):
            cos, sin = mpmath.cos(k * mpmath.mpf(tau0)), mpmath.sin(k * mpmath.mpf(tau0))
            assert (double_cos[reach + k], double_sin[reach + k]) == (float(cos), float(sin)), k


def test_trace_at_pi_keeps_thirteen_digits(model12):
    # at tau0 = pi kappa grows like lam, and a sum that rounded s tau0 per
    # term read 1.2e-13 (median) and 2.8e-13 (max) here.  The reference sums
    # |lam - n| <= 80 in 40-digit mpmath; the terms beyond are below 1e-28
    mpmath = pytest.importorskip("mpmath")
    win = Window("gaussian", np.pi, 0.15)
    lams = np.linspace(150.0, 400.0, 100)
    res = smoothed_trace(model12, win, lams)
    assert res.precision.tolist() == ["closed-form"] * 100
    errors = []
    with mpmath.workdps(40):
        eps, tau0 = mpmath.mpf(win.eps), mpmath.mpf(win.tau0)
        for lam, value in zip(lams, res.value):
            terms = []
            for n in range(math.ceil(lam - 80.0), math.floor(lam + 80.0) + 1):
                s = mpmath.mpf(lam) - n
                terms.append((n // 2 + 1) * mpmath.exp(-((eps * s) ** 2) / 2) * mpmath.expj(-s * tau0))
            ref = eps * mpmath.sqrt(2 * mpmath.pi) * mpmath.fsum(terms)
            errors.append((float(abs(mpmath.mpc(value) - ref)), float(abs(ref))))
    err, mag = np.array(errors).T
    assert (err <= res.cut_remainder + res.rounding_bound + 1e-27).all()
    assert np.median(err / mag) <= 5e-14 and (err / mag).max() <= 2e-13


def _per_term_phase_bounds(win, model, lams, sums, fixed_units, units_per_n=0.0):
    """`_rounding_bounds` with each term's phase charged at its own s tau0, as
    a sum that forms e^{-i s tau0} term by term must be: P |s| + Q with P =
    2|tau0| and Q = 2 (s tau0 rounded twice, cos and sin once)."""
    _, (m0, m1, m2), _, lo, hi = sums
    p, q = 2 * abs(win.tau0), 2.0
    n_terms = np.maximum(hi - lo + 1, 0)
    fixed = n_terms + fixed_units + units_per_n * np.maximum(lams, 0.0) + q + 2 * model.dim + 12
    return 2.0 * 2.0**-53 * (fixed * m0 + (units_per_n + p) * m1 + 4 * win.eps**2 * m2)


_PI_FLAGS = ["--shape", "gaussian", "--tau0", "3.141592653589793", "--eps", "0.15"]
# the benchmark's trace-scan grid at seed 1
_TRACE_SCAN_GRID = ["--lambda-grid", "150.1343642441124:399.1525662630628:400"]


@pytest.mark.parametrize(
    "argv",
    [
        ["trace", "--weights", "1,2", *_PI_FLAGS, *_TRACE_SCAN_GRID],
        ["trace", "--weights", "1,2", "--shape", "gaussian", "--tau0", "0", "--eps", "0.15",
         *_TRACE_SCAN_GRID],
        ["trace", "--weights", "1,1,1,2", *_PI_FLAGS, "--lambda-grid", "1000:100000:4"],
        ["verify", "--seed", "5"],
    ],
    ids=["trace-pi", "trace-0", "trace-1112", "verify"],
)
def test_row_bounds_no_larger_than_per_term_phases(argv, monkeypatch, tmp_path, capsys):
    # one phase table and one turn per row charge no row more than phases
    # taken term by term would: every eigen-sum row of these runs.  The
    # trace runs are summed by the eigen-sum (the closed form gets no poles)
    checked = []
    if argv[0] == "trace":
        monkeypatch.setattr(smoothing, "_unit_poles", lambda weights: None)

    def both(win, model, lams, sums, *units):
        bounds = _rounding_bounds(win, model, lams, sums, *units)
        checked.append(bool((bounds <= _per_term_phase_bounds(win, model, lams, sums, *units)).all()))
        return bounds

    monkeypatch.setattr(smoothing, "_rounding_bounds", both)
    cli.main([*argv, "--out", str(tmp_path / "out")])
    assert checked and all(checked)


def _coin_counts(weights, n_max):
    """d(0..n_max) by the coin-counting recurrence in Python ints."""
    table = [1] + [0] * n_max
    for w in weights:
        for v in range(w, n_max + 1):
            table[v] += table[v - w]
    return table


def test_trace_eigen_sum_tabulates_the_denumerants_once(model12, monkeypatch):
    # the table served the sum and, built again, the count of eigenvalues in each cut
    calls = []

    def counted(weights, n_max):
        calls.append(n_max)
        return _denumerants(weights, n_max)

    monkeypatch.setattr(smoothing, "_denumerants", counted)
    res = smoothed_trace(model12, WIN, -50.0)
    assert res.precision == "double" and len(calls) == 1


def test_cut_target_refusal_names_the_row_it_refuses(model12, chart, monkeypatch):
    # one row of a grid of eigen-sum rows, trace or kernel, misses its target
    cut = smoothing._window_cut

    def short(win, model, lams):
        lo, hi, remainders = cut(win, model, lams)
        return lo, hi, np.where(lams == -60.0, 1.0, remainders)

    monkeypatch.setattr(smoothing, "_window_cut", short)
    grid = np.array([-50.0, -60.0, -70.0])
    with pytest.raises(CoverageError, match=r"remainder 1\.00e\+00 cannot reach .* at lambda=-60\.0$"):
        smoothed_trace(model12, WIN, grid)
    monkeypatch.setattr(smoothing, "_poles", lambda d, moments: None)  # every kernel row an eigen-sum
    with pytest.raises(CoverageError, match=r"at lambda=-60\.0$"):
        _diagonal_values(model12, WIN, grid, np.repeat(chart.center[None, :], 3, axis=0), 1e-10)


_SCAN_FAULTS = {
    "local-negative-lambda": lambda m, c: scaled_diagonal_scan(m, WIN, c, np.array([0.5]), [-100.0]),
    "local-zero-lambda": lambda m, c: scaled_diagonal_scan(m, WIN, c, np.array([0.5]), [0.0, 100.0]),
    "local-u-width": lambda m, c: scaled_diagonal_scan(m, WIN, c, np.array([0.5, 0.5]), [100.0]),
    "parity-split-negative": lambda m, c: parity_split(m, WIN, c, np.array([0.5]), -100.0),
    "parity-scan-zero": lambda m, c: parity_scan(m, WIN, c, np.array([0.5]), [0.0, 100.0]),
    "parity-scan-u-width": lambda m, c: parity_scan(m, WIN, c, np.zeros(3), [100.0]),
    "offlocus-negative-C": lambda m, c: offlocus_decay_scan(m, WIN, c, -1.0, [80.0, 160.0, 320.0]),
    "offlocus-zero-lambda": lambda m, c: offlocus_decay_scan(m, WIN, c, 1.0, [0.0, 100.0]),
    "negative-empty-grid": lambda m, c: negative_lambda_scan(m, WIN, np.array([])),
    "local-radius-past-half-pi": lambda m, c: scaled_diagonal_scan(m, WIN, c, np.array([5.0]), [4.0, 9.0]),
    "offlocus-radius-past-half-pi": lambda m, c: offlocus_decay_scan(m, WIN, c, 1e3, [80.0, 160.0]),
    "offlocus-zero-direction": lambda m, c: offlocus_decay_scan(m, WIN, c, 1.0, [80.0, 160.0],
                                                                direction=np.zeros(1)),
}


@pytest.mark.parametrize("fault", list(_SCAN_FAULTS))
def test_kernel_scans_refuse_what_the_config_refuses(fault, model12, chart, monkeypatch, capfd):
    # a math domain error, numpy's divide warnings before an InputError (a
    # zero lambda, a zero direction), a broadcast ValueError, silent reports
    # (C < 0, and a chart radius past pi/2) and a zero-size ValueError; now
    # an InputError before any point is built, with warnings as errors, and
    # nothing on stderr
    def built(*args):
        raise AssertionError("a point was built")

    monkeypatch.setattr(type(chart), "normal_point", built)
    with warnings.catch_warnings(), pytest.raises(InputError):
        warnings.simplefilter("error")
        _SCAN_FAULTS[fault](model12, chart)
    assert capfd.readouterr().err == ""


def test_denumerants_match_coin_counting():
    for weights in [(1, 2), (1, 1, 2), (2, 3, 5), (3, 5)]:
        counts = _denumerants(weights, 60)
        assert counts.tolist() == [eigenvalue_multiplicity(weights, n) for n in range(61)]
    assert _denumerants((1, 2), -1).tolist() == [1.0]
    # past 2^53 float64 cumulative sums lose units; int64 keeps every one
    n_max = 500_000
    counts = _denumerants((1, 1, 1, 2), n_max)
    assert counts[-1] > 2**53
    assert counts.tolist() == _coin_counts((1, 1, 1, 2), n_max)


def test_denumerants_stay_exact_past_int64():
    # ten unit weights: d(1000) = C(1000 + 9, 9) ~ 3e21 > 2^63, so the table
    # is kept in Python ints; an int64 table would wrap
    counts = _denumerants((1,) * 10, 1000)
    assert counts[1000] == math.comb(1009, 9) > 2**63
    assert counts.tolist() == _coin_counts((1,) * 10, 1000)
    assert _denumerants((1, 2), 1000).dtype == np.int64
    # 71 unit weights: C(2^21 + 70, 70) ~ 1e341 passes the double range, and
    # is refused before anything is allocated
    with pytest.raises(CoverageError, match="double range"):
        _denumerants((1,) * 71, 2**21 - 1)


@pytest.mark.parametrize("weights, eps, lams", [
    ((1,) * 20 + (2,), 0.2, np.linspace(80.0, 120.0, 5)),
    ((1,) * 12 + (2,), 0.1, np.linspace(150.0, 300.0, 6)),
])
def test_ghosts_past_int64_denumerants_agree_with_sixty_digits(weights, eps, lams):
    # the ghost cuts of these rows tabulate d(n) past 2^63 (C(105, 20) ~ 1e22
    # at lambda = 80 on the first); every row is closed-form and within its
    # remainder plus bound of a 60-digit sum
    win = Window("gaussian", 0.0, eps)
    res = smoothed_trace(make_model(weights), win, lams)
    assert res.precision.tolist() == ["closed-form"] * lams.size
    for lam, value, remainder, bound in zip(lams, res.value, res.cut_remainder, res.rounding_bound):
        ref, _ = _mpmath_trace(weights, win, lam, 0, int(lam + 40.0 / eps), digits=60)
        assert abs(complex(ref) - value) <= remainder + bound, lam


def test_fubini_diagonal_integrates_to_trace(model12):
    win = Window("gaussian", np.pi, 0.8)
    lam = 12.3
    tr = smoothed_trace(model12, win, lam, tail_tol=1e-8).value
    # the diagonal is a polynomial of degree n_hi/min_w in the moment
    # coordinates, n_hi the top of its window cut: the sphere rule of one
    # degree more integrates it exactly, and orthonormality gives the trace
    _, n_hi, _ = _window_cut(win, model12, np.array([lam]))
    nodes, wts = sphere_rule(1, int(n_hi[0]) + 1, 1)
    vals, _ = smoothed_kernel_diagonal(model12, win, lam, nodes, tail_tol=1e-8)
    assert abs(np.dot(wts, vals) - tr) < 1e-6 * abs(tr)


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


def _scan_cut(win, model, lams, points):
    """Moment coordinates, the kernel scale d!/pi^d and one window cut for a
    scan, its remainders scaled."""
    t = np.abs(points) ** 2
    scale = math.factorial(model.dim) / np.pi**model.dim
    lo, hi, rem = _window_cut(win, model, lams)
    return t, scale, lo, hi, rem * scale


def test_offlocus_scan_decays(model12, chart):
    rep = offlocus_decay_scan(model12, WIN, chart, 1.0, np.geomspace(80.0, 380.0, 8))
    mags = np.abs(rep.ratios)
    assert mags[-1] < mags[0]
    assert rep.fits["decay_exponent"] < -1.0
    assert rep.meta["precision"] == ["closed-form"] * 8


_PI50 = Decimal("3.1415926535897932384626433832795028841971693993751058209749445923078164")


# pi to 230 digits, for the oracle sums that need more than fifty
_PI230 = Decimal(
    "3.14159265358979323846264338327950288419716939937510582097494459230781640628620899862803482534"
    "21170679821480865132823066470938446095505822317253594081284811174502841027019385211055596446"
    "229489549303819644288109756659334461284756482"
)


def _cos_sin50(x: Decimal, pi: Decimal = _PI50, digits: int = 50):
    """cos and sin by the Taylor series after reduction by 2 pi (50 digits)."""
    r = x - 2 * pi * (x / (2 * pi)).to_integral_value()
    cos = sin = Decimal(0)
    term, k = Decimal(1), 0
    while k < 4 or abs(term) > Decimal(10) ** -(digits + 5):
        if k % 2 == 0:
            cos += term if k % 4 == 0 else -term
        else:
            sin += term if k % 4 == 1 else -term
        k += 1
        term = term * r / k
    return cos, sin


def _decimal_diagonal(t, weights, win, lam, n_top, n_lo=0, sphere=False, digits=50):
    """The kernel sum over n_lo..n_top term by term in ``digits``-digit
    decimal arithmetic (no factoring): (value, sum |terms|).  With ``sphere``
    the moments are first divided by their sum: the sphere point the closed
    form evaluates."""
    pi = _PI50 if digits <= 60 else _PI230
    with localcontext() as ctx:
        ctx.prec = digits
        d = len(weights) - 1
        t = [Decimal(float(x)) for x in t]
        if sphere:
            t = [x / sum(t) for x in t]
        h = [Decimal(1)]
        for n in range(1, n_top + 1):
            acc = sum((ti * (n + d * w) * h[n - w] for ti, w in zip(t, weights) if n >= w), Decimal(0))
            h.append(acc / n)
        eps, tau0 = Decimal(win.eps), Decimal(win.tau0)
        peak = eps * (2 * pi).sqrt() * math.factorial(d) / pi**d
        re = im = mag = Decimal(0)
        for n in range(n_lo, n_top + 1):
            s = Decimal(lam) - n
            g = h[n] * peak * (-((eps * s) ** 2) / 2).exp()
            c, sn = _cos_sin50(s * tau0, pi, digits)
            re, im, mag = re + g * c, im - g * sn, mag + g
        return complex(float(re), float(im)), float(mag)


@pytest.mark.parametrize("weights", [(1, 3), (1, 2, 3)])
def test_eigen_sum_rows_evaluate_the_sphere_point(weights):
    """Eigen-sum rows at tau0 = 2 pi/3 and normal distance 0.2, 0.3 and 0.5
    from the weight-3 point (the closed form takes these rows; the eigen-sum
    serves the rows it does not): the 50-digit sum at t/sum(t) lies within
    each row's remainder plus rounding bound, though the rows at 0.3 and
    0.5 cancel by up to 1e17 and sum t as given, whose sum double rounds
    to 1.  Double resolves every row but lambda = 300 at 0.5, whose bound
    passes |value| (it certifies 1e-4 of the value at lambda = 150, 0.5),
    and keeps 9 digits at 0.2."""
    model = make_model(weights)
    win = Window("gaussian", 2 * np.pi / 3, 0.1)
    chart = heisenberg_chart(model, np.eye(len(weights))[-1].astype(complex), win.tau0)
    u = np.eye(chart.normal_dim)[0]
    lams = np.repeat([150.0, 300.0], 3)
    pts = np.array([chart.normal_point(r * u) for r in [0.2, 0.3, 0.5] * 2])
    values, remainders, bounds, _ = _eigen_sum_diagonal(model, win, lams, np.abs(pts) ** 2)
    for lam, t, value, remainder, bound in zip(lams, np.abs(pts) ** 2, values, remainders, bounds):
        n_top, n_lo = int(lam + 40.0 / win.eps), max(0, int(lam - 40.0 / win.eps))
        ref, _ = _decimal_diagonal(t, weights, win, lam, n_top, n_lo, sphere=True)
        assert abs(value - ref) <= remainder + bound
    assert (bounds < np.abs(values)).tolist() == [True] * 5 + [False]
    assert (bounds[[0, 3]] <= 1e-9 * np.abs(values[[0, 3]])).all()


# an off-locus (3, 1, 1) row whose eigen-sum cancels by kappa = 5.9e40
_CANCELLING_ROW = ((3, 1, 1), 175.297, Window("gaussian", np.pi, 0.2338), [0.1194, 0.6018, 0.2788])


def test_cancelling_kernel_row_is_closed_form_within_its_bound():
    # the closed form turns the row away for its own kappa, but certifies it
    # far better than the eigen-sum can, so the row keeps its closed form:
    # within its remainder plus bound (3.6e-49) of an 80-digit sum at the
    # sphere point, whose |value| is 1.8e-37
    weights, lam, win, t = _CANCELLING_ROW
    pts = np.sqrt(np.array([t]))
    values, remainders, bounds, precision = _diagonal_values(
        make_model(weights), win, np.array([lam]), pts, 1e-10
    )
    n_top, n_lo = int(lam + 40.0 / win.eps), max(0, int(lam - 40.0 / win.eps))
    ref, magnitude = _decimal_diagonal(np.abs(pts[0]) ** 2, weights, win, lam, n_top, n_lo, True, 80)
    assert precision.tolist() == ["closed-form"] and magnitude > 1e40 * abs(ref)
    assert abs(values[0] - ref) <= remainders[0] + bounds[0] <= 1e-11 * abs(ref)


def test_unresolved_eigen_sum_row_shows_a_bound_above_its_value():
    # double cannot resolve the same row as an eigen-sum, so its rounding
    # bound exceeds |value|, and with the cut remainder it covers the
    # 50-digit oracle's error
    weights, lam, win, t = _CANCELLING_ROW
    values, remainders, bounds, _ = _eigen_sum_diagonal(
        make_model(weights), win, np.array([lam]), np.array([t])
    )
    n_top, n_lo = int(lam + 40.0 / win.eps), max(0, int(lam - 40.0 / win.eps))
    ref, _ = _decimal_diagonal(t, weights, win, lam, n_top, n_lo)
    assert bounds[0] >= abs(values[0])
    assert abs(values[0] - ref) <= remainders[0] + bounds[0]


def _decimal_trace(weights, win, lam, n_lo, n_top):
    """The trace sum over n_lo..n_top with exact integer d(n), term by term
    in 50-digit decimal arithmetic: (re, im)."""
    counts = _coin_counts(weights, n_top)
    with localcontext() as ctx:
        ctx.prec = 50
        eps, tau0 = Decimal(win.eps), Decimal(win.tau0)
        peak = eps * (2 * _PI50).sqrt()
        re = im = Decimal(0)
        for n in range(n_lo, n_top + 1):
            s = Decimal(lam) - n
            g = counts[n] * peak * (-((eps * s) ** 2) / 2).exp()
            c, sn = _cos_sin50(s * tau0)
            re, im = re + g * c, im - g * sn
        return re, im


def _decimal_error(value: complex, re: Decimal, im: Decimal) -> float:
    """|value - (re + i im)|, the difference taken in 50-digit decimal."""
    with localcontext() as ctx:
        ctx.prec = 50
        return float(((Decimal(value.real) - re) ** 2 + (Decimal(value.imag) - im) ** 2).sqrt())


def test_trace_keeps_its_digits_under_cancellation():
    # at tau0 = pi the (1, 1, 1, 2) trace is pi/8 at every integer lambda,
    # while an eigen-sum's kappa = sum |terms| / |sum| runs from 1.3e9 to
    # 1.3e15: summed in double it read 0.9251 pi/8 at lambda = 1e5.  The
    # closed form has no cancelling sum and keeps 12 digits; the eigen-sum's
    # bound covers what it loses
    model = make_model((1, 1, 1, 2))
    win, lams = Window("gaussian", np.pi, 0.15), np.linspace(1e3, 1e5, 4)
    res = smoothed_trace(model, win, lams)
    assert res.precision.tolist() == ["closed-form"] * 4
    for value, remainder, bound in zip(res.value, res.cut_remainder, res.rounding_bound):
        err = _decimal_error(complex(value), _PI50 / 8, Decimal(0))
        assert err <= 1e-12 * np.pi / 8
        assert err <= remainder + bound
    for value, remainder, bound, _, _ in zip(*_eigen_sum_trace(model, win, lams)):
        assert _decimal_error(complex(value), _PI50 / 8, Decimal(0)) <= remainder + bound


def test_trace_rows_whose_period_terms_cancel_keep_their_digits():
    # (1, 3) at tau0 = pi, the double just below pi: at integer lambda = 1
    # mod 3 the period terms at tau = 2 pi/3 and 4 pi/3, near 3e-11, differ
    # from a cancelling conjugate pair only through pi - tau0 and leave
    # 3.6e-25.  Summed in double they were 5% off with a bound 1.4 |value|;
    # formed at 40 digits the rows are within their budget of a 50-digit
    # sum, and that budget is below 1e-6 |value|
    model, win = make_model((1, 3)), Window("gaussian", np.pi, 0.15)
    lams = np.arange(67.0, 119.0, 3.0)
    res = smoothed_trace(model, win, lams)
    assert res.precision.tolist() == ["closed-form"] * lams.size
    for lam, value, remainder, bound in zip(lams, res.value, res.cut_remainder, res.rounding_bound):
        re, im = _decimal_trace((1, 3), win, lam, 0, int(lam + 40.0 / win.eps))
        assert abs(complex(float(re), float(im))) < 1e-24
        err = _decimal_error(complex(value), re, im)
        assert err <= remainder + bound <= 1e-6 * abs(complex(float(re), float(im)))


def test_cancelling_trace_rows_judge_their_ghost_against_the_value():
    # the same (1, 3) rows from lambda = 70: a ghost far below the period
    # majorants is not below a value 1e14 times smaller.  Every row sums its
    # ghost; left to the remainder as below 2^-20 units of the majorants, it
    # made lambda = 79, 82 and 85 2.0e-10, 6.7e-13 and 1.8e-15 off, against
    # a 60-digit sum
    model, win = make_model((1, 3)), Window("gaussian", np.pi, 0.15)
    lams = np.arange(70.0, 119.0, 3.0)
    res = smoothed_trace(model, win, lams)
    for lam, value, remainder, bound in zip(lams, res.value, res.cut_remainder, res.rounding_bound):
        ref, _ = _mpmath_trace((1, 3), win, lam, 0, int(lam + 40.0 / win.eps), digits=60)
        err = abs(complex(ref) - value)
        assert err <= remainder + bound <= 1e-15 * abs(complex(ref)), lam


def test_trace_bound_charges_each_term_at_its_own_distance():
    # (1, 1, 1) at tau0 = -12 pi, eps 0.15, lambda = 64719: no cancellation,
    # and a phase |s tau0| up to 9400 radians at the cut's edges.  Charging
    # every term at the edge gave 1.6e-12 of the value; each at its own
    # distance gives about 2e-13, still above the error.  The eigen-sum
    # entry, since the closed form takes this row
    win = Window("gaussian", -12 * np.pi, 0.15)
    lam = 64719.0
    sums = _eigen_sum_trace(make_model((1, 1, 1)), win, np.array([lam]))
    values, remainders, bounds, _, _ = sums
    n_lo, n_top = int(lam - 40.0 / win.eps), int(lam + 40.0 / win.eps)
    err = _decimal_error(complex(values[0]), *_decimal_trace((1, 1, 1), win, lam, n_lo, n_top))
    assert err <= remainders[0] + bounds[0] <= 3e-13 * abs(values[0])


@settings(max_examples=20, deadline=None)
@given(
    weights=st.lists(st.integers(1, 5), min_size=2, max_size=4),
    j=st.integers(-2, 2),
    pick=st.integers(0, 3),
    lam=st.floats(0.0, 1e5),
    scale=st.floats(0.3, 0.99),
)
# tau0 = 2 pi * 1/2: the cancelling (1, 1, 1, 2) trace at the top of the range
@example(weights=[1, 1, 1, 2], j=1, pick=3, lam=1e5, scale=0.6)
def test_trace_matches_exact_integer_oracle_over_random_models(weights, j, pick, lam, scale):
    # tau0 is 0 (j = 0) or the period 2 pi j / w of one of the weights
    tau0 = 2 * np.pi * j / weights[pick % len(weights)]
    model = make_model(weights)
    win = _trace_window(model, tau0, scale)
    assume(win is not None)
    res = smoothed_trace(model, win, lam)
    # the oracle keeps every term above exp(-800) of the window
    n_lo, n_top = max(0, int(lam - 40.0 / win.eps)), int(lam + 40.0 / win.eps)
    re, im = _decimal_trace(weights, win, lam, n_lo, n_top)
    err = _decimal_error(res.value, re, im)
    assert err <= res.cut_remainder + res.rounding_bound + 1e-300


def test_negative_lambda_scan(model12):
    win = Window("gaussian", 0.0, 0.3)
    rep = negative_lambda_scan(model12, win, np.geomspace(-120.0, -10.0, 9))
    assert abs(smoothed_trace(model12, win, -50.0).value) < 1e-8
    assert rep.fits["decay_exponent"] < -6.0
    assert len(rep.meta["rounding_bounds"]) == len(rep.meta["precision"]) == 9
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


def test_parity_grid_equals_per_lambda_splits(model12, chart):
    # criterion 8's grid in one parity_scan call, against one parity_split per lambda
    grid = np.geomspace(100.0, 560.0, 8)
    u = np.array([0.7 + 0j])
    rep = parity_scan(model12, WIN, chart, u, grid)
    splits = [parity_split(model12, WIN, chart, u, float(lam)) for lam in grid]
    assert np.array_equal(rep.exact, [s.odd for s in splits])
    assert np.array_equal(rep.predicted, [s.even for s in splits])
    assert np.array_equal(rep.meta["window_cut_remainders"], [s.cut_remainder for s in splits])


def test_parity_part_is_double_when_either_row_is(model12, chart, monkeypatch):
    # on coordinate charts +-u have the same moments, so no real pair of
    # rows differs: a stand-in diagonal labels one row of a pair "double"
    # (the minus row at lam = 100, the plus row at 300) and gives either
    # row the larger remainder or bound
    def rows(model, win, lams, points, tail_tol, moments=None):
        assert lams.tolist() == [100.0, 200.0, 300.0] * 2 and len(points) == 6
        values = np.array([1.0, 2.0, 3.0, 5.0, 7.0, 11.0], dtype=complex)
        remainders = np.array([1e-12, 5e-11, 4e-12, 3e-12, 2e-13, 1e-12])
        bounds = np.array([2e-15, 1e-14, 1e-16, 7e-15, 1e-16, 3e-16])
        precision = np.array(["closed-form", "closed-form", "double", "double", "closed-form",
                              "closed-form"], dtype=object)
        return values, remainders, bounds, precision

    monkeypatch.setattr(smoothing, "_diagonal_values", rows)
    rep = parity_scan(model12, WIN, chart, np.array([0.5 + 0j]), [100.0, 200.0, 300.0])
    assert rep.meta["precision"] == ["double", "closed-form", "double"]
    assert rep.meta["window_cut_remainders"].tolist() == [3e-12, 5e-11, 4e-12]
    assert rep.meta["rounding_bounds"].tolist() == [7e-15, 1e-14, 3e-16]
    assert rep.exact.tolist() == [-2.0, -2.5, -4.0] and rep.predicted.tolist() == [3.0, 4.5, 7.0]


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
@pytest.mark.parametrize("arithmetic", ["double", "closed-form"])
def test_recurrence_matches_lattice_sum(weights, arithmetic):
    model = make_model(weights)
    small = eigendata(model, 70)
    win = Window("gaussian", 1.0, 0.3)
    lam = 20.0
    # degrees beyond 70 are negligible here, so the lattice is the full sum
    assert _degree_tail_bound(small, win, lam) < 1e-30
    rng = random.Random(sum(weights))
    pts = np.array([random_sphere_point(model, rng) for _ in range(4)])
    ref = _lattice_diagonal(small, win, lam, pts)
    lams = np.full(4, lam)
    t, scale, lo, hi, remainders = _scan_cut(win, model, lams, pts)
    if arithmetic == "double":
        h = _h_table(t, weights, int(hi.max()))
        got, _ = _window_sums(win, lams, h, lo, hi, scale)
    else:  # the closed form at these points, each row in whichever arithmetic it keeps
        got, remainders, _, _ = _diagonal_values(model, win, lams, pts, 1e-10)
    assert remainders.max() < 1e-20
    assert np.abs(got - ref).max() < 1e-12 * np.abs(ref).max()


def test_degree_truncation_within_certified_tail(model12):
    """Untruncated minus degree-truncated diagonal is bounded by the degree tail bound."""
    small = eigendata(model12, 40)
    win = Window("gaussian", np.pi, 0.3)
    rng = random.Random(11)
    pts = np.array([random_sphere_point(model12, rng) for _ in range(5)])
    for lam in (30.0, 36.0):
        bound = _degree_tail_bound(small, win, lam)
        full, remainder = smoothed_kernel_diagonal(model12, win, lam, pts)
        diff = np.abs(full - _lattice_diagonal(small, win, lam, pts))
        assert diff.max() > 1e-13  # the truncation is visible ...
        assert (diff <= bound + remainder + 1e-12 * np.abs(full)).all()  # ... and certified


def _outside_majorant(win, model, lam, lo, hi):
    """sum C(floor(n/min_w) + d, d) envelope(lam - n) over the n >= 0 outside
    lo..hi, with Python-int binomials: exactly out to 2 * `_GAUSS_FAR`/eps
    beyond the cut, whose far terms underflow, and a geometric tail past that."""
    d, min_w = model.dim, min(model.weights)

    def term(n):
        return math.comb(n // min_w + d, d) * float(win.fourier_envelope(lam - n))

    far = hi + 1 + math.ceil(2 * smoothing._GAUSS_FAR / win.eps)
    total = math.fsum(term(n) for n in [*range(lo), *range(hi + 1, far)])
    q = (1.0 + d / (far // min_w + 1)) * math.exp(-0.5 * win.eps**2 * (2.0 * (far - lam) + 1.0))
    return total + term(far) / (1.0 - q)


@pytest.mark.parametrize("weights", [(1, 2), (1, 1, 2), (2, 3)])
def test_the_cut_keeps_the_whole_gaussian_reach(weights):
    # every row keeps all n >= 0 within the reach, and its remainder bounds
    # the majorant outside it
    model = make_model(weights)
    win = Window("gaussian", 0.0, 0.4)
    lams = np.array([-120.0, -3.5, 0.0, 0.5, 2.25, 17.0, 17.5, 60.75, 140.0])
    reach = smoothing._GAUSS_FAR / win.eps
    lo, hi, rem = _window_cut(win, model, lams)
    for lam, a, b, r in zip(lams, lo.tolist(), hi.tolist(), rem):
        kept = [n for n in range(int(lam + reach) + 2) if abs(lam - n) <= reach]
        assert (a, b) == ((kept[0], kept[-1]) if kept else (0, -1))
        # past 1e-308 the terms are subnormal, each rounded to 5e-324 absolute
        assert r >= _outside_majorant(win, model, lam, a, b) - 1e-320


def test_an_empty_cut_at_small_eps_has_a_finite_right_tail():
    # on (1, 2) at eps 0.005 the ratio bound q of the right tail passes 1 on
    # an empty cut for sqrt(1400)/eps < -lambda < ln 2/eps^2; the tail is then
    # bounded by b(0) envelope(s0)/(1 - exp(-eps^2 s0))^(d+1), s0 = -lambda.
    # A trace row whose ghost cut lies there (lambda = 1e4) is closed-form,
    # within its budget of a 50-digit sum, where the eigen-sum certified 3e-12
    model, win = make_model((1, 2)), Window("gaussian", 0.0, 0.005)
    lo, hi, rem = _window_cut(win, model, np.array([-7500.0]))
    assert (lo[0], hi[0]) == (0, -1) and 2.0 * math.exp(-0.5 * win.eps**2 * 15001.0) >= 1.0
    assert math.isfinite(rem[0]) and rem[0] >= _outside_majorant(win, model, -7500.0, 0, -1) > 0
    res = smoothed_trace(model, win, 1e4)
    ref, _ = _mpmath_trace((1, 2), win, 1e4, 6000, 14000, digits=50)  # the rest is below 1e-80
    assert res.precision == "closed-form" and res.rounding_bound <= 1e-14 * abs(res.value)
    assert abs(complex(ref) - res.value) <= res.cut_remainder + res.rounding_bound


def test_a_trace_past_the_cut_table_at_small_eps_is_closed_form():
    # (1^12, 2) at eps 0.001, lambda = 2.3e6: the ghost's empty cut has q >= 1,
    # and the eigen-sum's table would pass `_CUT_TABLE_MAX` and refuse
    model = make_model((1,) * 12 + (2,))
    res = smoothed_trace(model, Window("gaussian", 0.0, 0.001), 2.3e6)
    assert res.precision == "closed-form"
    assert res.cut_remainder + res.rounding_bound <= 1e-13 * abs(res.value)


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


def test_bump_degree_tail_refuses_without_a_far_tail_bound(pkg):
    # the geometric tail bound holds for the gaussian envelope only
    with pytest.raises(CoverageError, match="far-tail bound"):
        spectral_tail_bound(pkg, Window("bump", 0.0, 0.5), 100.0)


def test_bump_kernel_refuses_an_uncertified_cut(model12, chart):
    # no far-tail bound covers the bump's exp(-sqrt(eps s)) envelope, so the
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


@st.composite
def _windowed_models(draw):
    """(weights, tau0, scale) whose `_trace_window` has eps >= 0.1.

    tau0 is a period 2 pi j/w in [-7, 7] or the midpoint of two neighbouring
    ones, among the points whose gap admits eps = scale * gap/8 >= 0.1 at
    some scale <= 0.99; 0 always does (gap 2 pi/max(w) >= 1.25).  Drawing
    tau0 at random instead lost most draws once a weight was 4 or 5.
    """
    weights = draw(st.lists(st.integers(1, 5), min_size=2, max_size=4))
    model = make_model(weights)
    periods = sorted({2 * np.pi * j / w for w in weights for j in range(-w - 1, w + 2)})
    points = [t for t in periods + [(a + b) / 2 for a, b in zip(periods, periods[1:])]
              if abs(t) <= 7.0]
    gaps = {t: period_gap(model, t) for t in points}
    tau0 = draw(st.sampled_from([t for t in points if gaps[t] >= 0.81 / 0.99]))
    scale = draw(st.floats(max(0.3, 0.81 / gaps[tau0]), 0.99))  # 0.81: eps >= 0.1 after rounding
    return weights, tau0, scale


@settings(max_examples=25, deadline=None)
@given(case=_windowed_models(), lam=st.floats(-30.0, 250.0))
# a degree tail of 6.8e-10 whose terms, stopped once below 1e-18, missed
# 1.3e-20: more than the rounding slack, so the tail needs a proven bound
@example(case=([1, 1], 0.0, 0.5), lam=-15.0)
def test_trace_matches_lattice_sum_over_random_models(case, lam):
    weights, tau0, scale = case
    model = make_model(weights)
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


# ----------------------------------------------------------------------------
# the kernel diagonal over random models, in either arithmetic (property test)
# ----------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_kernel_matches_decimal_oracle_over_random_models(data):
    weights = data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=3), label="weights")
    j, w = data.draw(st.integers(-6, 6), label="j"), data.draw(st.sampled_from(weights), label="w")
    tau0 = data.draw(st.sampled_from([0.0, np.pi, 2 * np.pi * j / w]), label="tau0")
    win = Window("gaussian", tau0, data.draw(st.floats(0.15, 0.5), label="eps"))
    lam = data.draw(st.floats(0.0, 200.0), label="lam")
    # a point on the fixed locus of tau0 (the coordinates the flow fixes),
    # moved off it towards a random point by the fraction delta
    fixed = [i for i, wi in enumerate(weights) if abs(math.remainder(tau0 * wi, 2 * np.pi)) < 1e-9]
    fixed = fixed or list(range(len(weights)))

    def draw_t(n, label):
        return np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n), label=label))

    on = np.zeros(len(weights))
    on[fixed] = draw_t(len(fixed), "on-locus moments")
    off = draw_t(len(weights), "random moments")
    delta = data.draw(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), label="delta")
    t = (1.0 - delta) * on / on.sum() + delta * off / off.sum()
    pts = np.sqrt(t)[None, :]
    model = make_model(weights)
    values, remainders, bounds, precision = _diagonal_values(
        model, win, np.array([lam]), pts, 1e-10
    )
    # the oracle keeps every term above exp(-800) of the window, at the
    # sphere point t/sum(t) (closed-form rows evaluate it; a double row's
    # bound covers the rounding of sum(t) to 1), and 20 digits
    # beyond its own cancellation: fifty, or more where the terms cancel further
    n_top, n_lo = int(lam + 40.0 / win.eps), max(0, int(lam - 40.0 / win.eps))
    digits = 50
    ref, magnitude = _decimal_diagonal(np.abs(pts[0]) ** 2, weights, win, lam, n_top, n_lo, True)
    while digits < 220 and magnitude > 10.0 ** (digits - 20) * abs(ref):
        needed = 20 + math.ceil(math.log10(magnitude / max(abs(ref), 1e-300)))
        digits = min(220, max(digits + 10, needed))
        ref, magnitude = _decimal_diagonal(
            np.abs(pts[0]) ** 2, weights, win, lam, n_top, n_lo, True, digits
        )
    # the first-order rounding bound of an n_top-step recurrence and sum in
    # double (Higham, ch. 3-4), plus the final rounding to double
    unit = 2.0**-53
    bound = remainders[0] + 4 * n_top * unit * magnitude + 2.0**-53 * abs(ref) + 1e-300
    assert abs(values[0] - ref) <= bound
    # the row's own reported rounding bound covers the same error
    assert abs(values[0] - ref) <= remainders[0] + bounds[0] + 1e-300


# ----------------------------------------------------------------------------
# the h_n table
# ----------------------------------------------------------------------------


def _h_table_loop(t, weights, n_max):
    """The h_n recurrence one step at a time, each term formed afresh: the
    loop `_h_table` tabulates its factors for."""
    d = len(weights) - 1
    coeffs: dict = {}
    for tw, w in zip(np.asarray(t, dtype=float).T, weights):
        coeffs[w] = coeffs[w] + tw if w in coeffs else tw
    h = np.zeros((max(n_max, 0) + 1, t.shape[0]))
    h[0] = 1
    for n in range(1, n_max + 1):
        acc = np.zeros(t.shape[0])
        for w, tw in coeffs.items():
            if n >= w:
                acc += (n + d * w) * tw * h[n - w]
        h[n] = acc / n
    return h


@pytest.mark.parametrize("weights", [(1, 2), (1, 1, 2), (3, 1, 1), (2, 3, 5, 7)])
def test_h_table_matches_the_step_loop_bitwise(weights):
    rng = np.random.default_rng(len(weights) + sum(weights))
    t = rng.dirichlet(np.ones(len(weights)), size=6)
    t[0] = np.eye(len(weights))[-1]  # a coordinate point: zero moments
    for n_max in (0, 1, 5, 400):
        assert np.array_equal(_h_table(t, weights, n_max), _h_table_loop(t, weights, n_max))


# ----------------------------------------------------------------------------
# traces in closed form (`_closed_form_trace`)
# ----------------------------------------------------------------------------


def _mpmath_trace(weights, win, lam, n_lo, n_top, digits=40):
    """The eigen-sum over n_lo..n_top at ``digits`` digits in mpmath, with
    exact integer d(n): (value, sum of the moduli of its terms)."""
    mpmath = pytest.importorskip("mpmath")
    counts = _coin_counts(weights, n_top)
    with mpmath.workdps(digits):
        eps, tau0, lam = mpmath.mpf(win.eps), mpmath.mpf(win.tau0), mpmath.mpf(lam)
        peak = eps * mpmath.sqrt(2 * mpmath.pi)
        terms = [counts[n] * peak * mpmath.exp(-((eps * (lam - n)) ** 2) / 2)
                 for n in range(n_lo, n_top + 1)]
        phases = [mpmath.expj(-(lam - n) * tau0) for n in range(n_lo, n_top + 1)]
        value = mpmath.fsum(t * phase for t, phase in zip(terms, phases))
        return value, mpmath.fsum(terms)


def test_unit_poles_of_one_two():
    # d(n) = floor(n/2) + 1 = (2n + 3)/4 + (-1)^n/4 on (1, 2), exactly
    poles = smoothing._unit_poles((1, 2))
    assert [(p.turn, p.coeffs) for p in poles] == [(0, (0.75, 0.5)), (Fraction(1, 2), (0.25,))]


@pytest.mark.parametrize("weights", [(1, 1, 1, 2), (1, 2, 3), (2, 3, 5, 7), (1, 3)])
def test_unit_poles_are_the_roots_of_unity_with_their_orders(weights):
    # a root of unity of order o is a pole of order #{i : o | w_i}; every other
    # root of unity is absent, not a rounding residue, and conjugate poles
    # carry conjugate coefficients
    poles = smoothing._unit_poles(weights)
    period = math.lcm(*weights)
    expected = {Fraction(a, period) for a in range(period)
                if any(w % (period // math.gcd(a, period)) == 0 for w in weights)}
    assert {p.turn for p in poles} == expected
    by_turn = {p.turn: p for p in poles}
    for p in poles:
        order = p.turn.denominator
        assert len(p.coeffs) == sum(w % order == 0 for w in weights) and p.coeffs[-1] != 0
        conjugate = by_turn[(1 - p.turn) % 1]
        assert conjugate.coeffs == tuple(c.conjugate() for c in p.coeffs)
    assert smoothing._unit_poles(weights) is poles  # built once per weight vector


def test_unit_poles_reproduce_the_denumerants():
    # sum over the poles of zeta^n P_zeta(n) is d(n) for n >= 0, 0 for
    # -sum w < n < 0 and (-1)^d d(-n - sum w) below (reciprocity): from the
    # double coefficients to 1e-9, and from the 40-digit ones, summed at 50
    # digits, to 1e-25; (11, 13, 17, 19) has lcm(w) (d + 1) = 184,756 but 57
    # poles.  The kernel poles of `_poles` share the record: at dyadic
    # moments their 40-digit coefficients give h_n(t) for n >= 0 to 1e-25
    # too, and 0 for -(d+1) D < n < 0, the band `_negative_tail` relies on
    mpmath = pytest.importorskip("mpmath")
    cases = []
    for weights in [(1, 1, 1, 2), (1, 2, 3), (2, 3, 5, 7), (2, 3), (11, 13, 17, 19)]:
        poles, d, total = smoothing._unit_poles(weights), len(weights) - 1, sum(weights)
        counts = _coin_counts(weights, 300)
        ns = list(range(-total - 60, 240))
        wants = [counts[n] if n >= 0 else 0 if n > -total else (-1) ** d * counts[-n - total]
                 for n in ns]
        for n, want in zip(ns, wants):
            q = sum(complex(np.exp(2j * np.pi * float(p.turn * n % 1)))
                    * sum(c * float(n) ** j for j, c in enumerate(p.coeffs)) for p in poles)
            assert abs(q - want) <= 1e-9 * max(1, abs(want)), (weights, n)
        cases.append((weights, poles, ns, wants))
    for weights, eighths in [((1, 3), (3, 5)), ((2, 3, 5), (1, 2, 5)), ((1, 1, 1, 5), (1, 1, 3, 3))]:
        d, top = len(weights) - 1, max(weights)
        t = np.array(eighths) / 8.0  # dyadic moments summing to 1 exactly
        poles = smoothing._poles(d, smoothing._merged_moments(weights, t))
        ns = list(range(-(d + 1) * top + 1, 200))
        with mpmath.workdps(50):
            h = [mpmath.mpf(1)]
            for n in range(1, 200):
                h.append(mpmath.fsum(mpmath.mpf(x) * (n + d * w) * h[n - w]
                                     for x, w in zip(t, weights) if n >= w) / n)
            wants = [h[n] if n >= 0 else 0 for n in ns]
        cases.append((weights, poles, ns, wants))
    for weights, poles, ns, wants in cases:
        with mpmath.workdps(50):
            sums = [mpmath.mpf(0)] * len(ns)
            for p in poles:
                coeffs = [mpmath.mpc(str(re), str(im)) for re, im in p.exact]
                zeta = mpmath.exp(mpmath.mpf(str(p.log_modulus)) + 1j * mpmath.mpf(str(p.arg)))
                if p.turn is not None:
                    zeta = mpmath.expjpi(2 * mpmath.mpf(p.turn.numerator) / p.turn.denominator)
                phase = zeta ** ns[0]
                for i, n in enumerate(ns):
                    sums[i] += phase * mpmath.polyval(coeffs[::-1], n)
                    phase *= zeta
            for n, want, exact in zip(ns, wants, sums):
                assert abs(exact - want) <= 1e-25 * max(1, abs(want)), (weights, n)


def _other_roots_coefficients(mpmath, roots, orders, r):
    """The oracle for pole r of prod_s (1 - rho_s x)^-orders[s], at the
    working precision: its polynomial's coefficients in powers of n, from
    the product over every other root of (1 - q_s + q_s y)^-M_s, q_s =
    rho_s/rho_r, whose coefficient of y^k weighs C(n + K, K), K = M - 1 - k."""
    size, inverse = orders[r], 1 / roots[r]
    series = [mpmath.mpc(1)] + [mpmath.mpc(0)] * (size - 1)
    for s, (rho, order) in enumerate(zip(roots, orders)):
        if s != r and size == 1:
            series[0] /= (1 - rho * inverse) ** order
        elif s != r:
            q = rho * inverse
            terms = [(1 - q) ** -order]
            for m in range(1, size):  # (1 + beta y)^-M, beta = q/(1 - q)
                terms.append(-terms[-1] * q / (1 - q) * (order - 1 + m) / m)
            series = [mpmath.fsum(series[i] * terms[m - i] for i in range(m + 1)) for m in range(size)]
    coeffs = [mpmath.mpc(0)] * size
    for k, phi in enumerate(series):
        basis = [mpmath.mpf(1)]
        for l in range(1, size - k):  # C(n + K, K) = prod_{l <= K} (n + l)/l
            basis = [(a + l * b) / l for a, b in zip([0] + basis, basis + [0])]
        coeffs = [c + phi * e for c, e in zip(coeffs, basis + [0] * size)]
    return coeffs


def _assert_within_errors(mpmath, pole, reference):
    for (re, im), error, want in zip(pole.exact, pole.errors, reference, strict=True):
        assert abs(mpmath.mpc(str(re), str(im)) - want) <= error, (pole.turn, pole.arg, want)


@pytest.mark.parametrize("weights", [(1, 2), (1, 2, 3), (2, 3, 5, 7), (11, 13, 17, 19), (1, 509)])
def test_trace_pole_errors_bound_a_60_digit_oracle(weights):
    # every 40-digit coefficient of `_unit_poles` is within its error of the
    # other-roots product over the exact roots of unity at 60 digits; of
    # (1, 509)'s poles (seconds at 60 digits) every 16th and the 18 nearest
    # turn 254/509, the period the CI trace reads
    mpmath = pytest.importorskip("mpmath")
    turns = sorted({Fraction(k, w) for w in weights for k in range(w)})
    orders = [sum(w % t.denominator == 0 for w in weights) for t in turns]
    poles = smoothing._unit_poles(weights)
    if len(poles) > 64:
        poles = [p for i, p in enumerate(poles) if i % 16 == 0 or abs(p.turn - Fraction(1, 2)) < Fraction(9, 509)]
    with mpmath.workdps(60):
        roots = [mpmath.expjpi(2 * mpmath.mpf(t.numerator) / t.denominator) for t in turns]
        for pole in poles:
            r = turns.index(pole.turn)
            _assert_within_errors(mpmath, pole, _other_roots_coefficients(mpmath, roots, orders, r))


@pytest.mark.parametrize("weights", [(1, 2), (1, 3), (1, 2, 3), (2, 3, 5, 7)])
def test_kernel_pole_errors_bound_a_60_digit_oracle(weights):
    # every 40-digit coefficient of `_poles` is within its error of the
    # other-roots product over the roots of the decimal p_t found at 60
    # digits, on 24 random moment rows and, where roots can collide, rows
    # whose separation is just above `_ROOT_SEPARATION` (1.5e-3 and 2e-3 on
    # (1, 2, 3), 1.2e-3 and 1.5e-3 on (2, 3, 5, 7))
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(len(weights) + max(weights))
    rows = [rng.uniform(0.01, 1.0, len(weights)) for _ in range(24)]
    rows += {(1, 2, 3): [[x, 0.75 - x, 0.25] for x in (2.8e-7, 5e-7)],
             (2, 3, 5, 7): [[0.75 - x, 0.25 - x, x, x] for x in (7e-9, 1.1e-8)]}.get(weights, [])
    d = len(weights) - 1
    for t in rows:
        moments = smoothing._merged_moments(weights, t)
        poles = smoothing._poles(d, moments)
        assert poles is not None, t
        with mpmath.workdps(60):
            top = max(w for w, c in moments if c > 0)
            p_t = [mpmath.mpf(str(dict(moments).get(w, 0))) for w in range(top, 0, -1)]
            xs = mpmath.polyroots([-c for c in p_t] + [1], maxsteps=200, extraprec=200)
            roots = [1 / x for x in xs]
            for pole in poles:
                rho = mpmath.exp(mpmath.mpf(str(pole.log_modulus)) + 1j * mpmath.mpf(str(pole.arg)))
                r = min(range(len(roots)), key=lambda i: abs(roots[i] - rho))
                reference = _other_roots_coefficients(mpmath, roots, [d + 1] * len(roots), r)
                _assert_within_errors(mpmath, pole, reference)


def test_unit_poles_turn_away_a_build_past_their_work_budget():
    # each trace row sums at least one alias per pole, so the pole count R is
    # capped at `_UNIT_POLES_MAX`: (1, 97, 101), R = 197, and (1, 4093), R =
    # 4,093, are built, while (2003, 2011, 2017), R = 6,029, is turned away
    # once its turns are listed and (16381, 16383), R = 32,763, before, as a
    # weight alone passes the cap; their rows come quickly from the eigen-sum
    assert smoothing._unit_poles((1, 97, 101)) is not None
    assert len(smoothing._unit_poles((1, 4093))) == 4093
    for weights in [(2003, 2011, 2017), (16381, 16383)]:
        start = time.perf_counter()
        assert smoothing._unit_poles(weights) is None
        rows = smoothed_trace(make_model(weights), Window("gaussian", 0.0, 0.04),
                              np.array([1000.0, 1500.5, 2000.25]))
        assert list(rows.precision) == ["double"] * 3 and np.isfinite(rows.value).all()
        assert time.perf_counter() - start < 5.0, weights


@settings(max_examples=30, deadline=None)
@given(case=_windowed_models(), lam=st.one_of(st.floats(40.0, 400.0), st.floats(400.0, 1e4)))
@example(case=([1, 2], np.pi, 0.6), lam=40.5)
@example(case=([2, 3, 5], 0.0, 0.5), lam=77.25)
def test_closed_form_trace_agrees_with_the_oracles(case, lam):
    # 2-4 weights in 1..5, tau0 a period or the midpoint of two: at every
    # period the row is closed-form, and each row is within its remainder
    # plus bound of a 40-digit mpmath eigen-sum and, below lambda = 400, of
    # the lattice sum (which adds its own rounding)
    weights, tau0, scale = case
    model = make_model(weights)
    win = _trace_window(model, tau0, scale)
    assume(win is not None)
    res = smoothed_trace(model, win, lam)
    if any(abs(tau0 - 2 * np.pi * j / w) < 1e-12 for w in weights for j in range(-w - 1, w + 2)):
        assert res.precision == "closed-form"
    n_lo, n_top = max(0, int(lam - 40.0 / win.eps)), int(lam + 40.0 / win.eps)
    ref, magnitude = _mpmath_trace(weights, win, lam, n_lo, n_top)
    budget = res.cut_remainder + res.rounding_bound
    assert abs(complex(ref) - res.value) <= budget + 1e-30 * float(magnitude) + 1e-300
    if lam <= 400.0:
        brute = brute_smoothed_trace(weights, win, lam, n_top)
        rounding = 4 * n_top * np.finfo(float).eps * float(magnitude)
        assert abs(brute - res.value) <= budget + rounding + 1e-300


def test_trace_at_pi_keeps_fifteen_digits(model12):
    # CI's grid: against a 40-digit sum the eigen-sum read 1.5e-14 (median)
    # and 8.3e-14 (max) here; the closed form is one exact phase times pi/2
    win = Window("gaussian", np.pi, 0.15)
    lams = np.linspace(150.0, 400.0, 41)
    res = smoothed_trace(model12, win, lams)
    assert res.precision.tolist() == ["closed-form"] * 41
    errors = []
    for lam, value, remainder, bound in zip(lams, res.value, res.cut_remainder, res.rounding_bound):
        ref, _ = _mpmath_trace((1, 2), win, lam, math.ceil(lam - 80.0), math.floor(lam + 80.0))
        err = abs(complex(ref) - value)
        assert err <= remainder + bound
        errors.append(err / abs(complex(ref)))
    assert np.median(errors) <= 1e-15 and max(errors) <= 1e-15


def test_trace_at_a_large_period_against_forty_digits(model12):
    # tau0 = 2 pi 1e9 + pi: the period and theta = tau0 - tau are formed at
    # 40 digits, and lam tau is reduced exactly (`_period_phase`)
    win = Window("gaussian", 2 * np.pi * 1e9 + np.pi, 0.15)
    lams = np.array([150.25, 300.5, 1234.567])
    res = smoothed_trace(model12, win, lams)
    assert res.precision.tolist() == ["closed-form"] * 3
    for lam, value, remainder, bound in zip(lams, res.value, res.cut_remainder, res.rounding_bound):
        ref, _ = _mpmath_trace((1, 2), win, lam, math.ceil(lam - 80.0), math.floor(lam + 80.0))
        err = abs(complex(ref) - value)
        assert err <= remainder + bound and err <= 1e-15 * abs(complex(ref))


def test_general_weight_trace_at_a_billion():
    # (2, 3, 5, 7) at tau0 = 2 pi/5, eps 0.04: the eigen-sum refuses lambda =
    # 1e9 (its window-cut table); the closed form keeps 15 terms
    model, win = make_model((2, 3, 5, 7)), Window("gaussian", 2 * np.pi / 5, 0.04)
    lams = np.array([1e9, 1e9 + 0.5])
    res = smoothed_trace(model, win, lams)
    assert res.precision.tolist() == ["closed-form"] * 2 and res.n_eigenvalues == 30
    # the omitted periods' bound underflows double, and rounds up, not to 0
    assert np.isfinite(res.cut_remainder).all() and (res.cut_remainder > 0).all()
    assert (res.rounding_bound < 1e-13 * np.abs(res.value)).all()
    with pytest.raises(CoverageError, match="window-cut table"):
        _eigen_sum_trace(model, win, lams)


def test_closed_form_trace_leaves_cancelling_and_huge_rows_to_the_eigen_sum(model12):
    # lam = -3 and 0.5 on (1, 1, 1, 2) at pi: the ghost cancels the Poisson
    # side, so the eigen-sum sums these rows too, and each keeps the value
    # with the smaller remainder plus bound, within it of a 50-digit sum;
    # lam <= -sum w: the ghost holds the window's peak; past 2^52 a double
    # lam no longer resolves n, and the eigen-sum refuses
    model, lams = make_model((1, 1, 1, 2)), np.array([-3.0, 0.5, 300.0])
    res = smoothed_trace(model, WIN, lams)
    assert res.precision.tolist() == ["double", "closed-form", "closed-form"]
    *columns, formed = smoothing._closed_form_trace(model, WIN, lams, 1e-10)
    formed, taken = smoothing._closed_form_verdict(columns, formed, 1e-10)
    _, closed_rem, closed_bound, _, _ = columns
    _, eigen_rem, eigen_bound, _, _ = _eigen_sum_trace(model, WIN, lams)
    assert formed.all() and taken.tolist() == [False, False, True]
    budget = res.cut_remainder + res.rounding_bound
    assert budget[:2].tolist() == np.minimum(closed_rem + closed_bound, eigen_rem + eigen_bound)[:2].tolist()
    for lam, value, allowed in zip(lams[:2], res.value, budget):
        re, im = _decimal_trace((1, 1, 1, 2), WIN, lam, 0, int(lam + 40.0 / WIN.eps))
        assert _decimal_error(complex(value), re, im) <= allowed
    assert smoothed_trace(model12, WIN, -50.0).precision == "double"
    assert smoothed_trace(model12, WIN, 2.0**52 - 1).precision == "closed-form"
    with pytest.raises(CoverageError, match="window-cut table"):
        smoothed_trace(model12, WIN, 2.0**52)


@pytest.mark.parametrize("shape", ["trace", "kernel"])
def test_one_verdict_judges_trace_and_kernel_rows(shape, model12):
    # the raw columns of either closed form: every row stands and is taken;
    # a non-finite bound or a remainder past the cut target makes a row not
    # formed, and a kappa just past `_CLOSED_FORM_KAPPA` formed but not taken
    lams = np.array([150.0, 200.5, 250.0, 300.5])
    if shape == "trace":
        *columns, formed = smoothing._closed_form_trace(model12, WIN, lams, 1e-10)
        assert len(columns) == 5
    else:
        ts = np.array([[0.25, 0.75]] * lams.size)
        *columns, formed = smoothing._closed_form_diagonal(model12, WIN, lams, ts)
        assert len(columns) == 4
    value, remainder, bound, majorants = columns[:4]
    assert smoothing._closed_form_verdict(columns, formed, 1e-10)[1].all()
    bound[0] = np.inf
    remainder[1] = np.nextafter(smoothing._final_cut_target(1e-10, 2.0**-53, majorants[1]), 1.0)
    kappa = smoothing._CLOSED_FORM_KAPPA
    value[2] = majorants[2] / np.nextafter(kappa, np.inf)  # kappa just above the limit
    value[3] = majorants[3] / kappa  # kappa at the limit
    assert majorants[2] > kappa * abs(value[2]) and majorants[3] <= kappa * abs(value[3])
    stands, taken = smoothing._closed_form_verdict(columns, formed, 1e-10)
    assert stands.tolist() == [False, False, True, True]
    assert taken.tolist() == [False, False, False, True]
    assert not smoothing._closed_form_verdict(columns, np.zeros(4, dtype=bool), 1e-10)[0].any()


def test_trace_remainders_carry_the_summed_ghost(model12):
    # (1, 2) at tau0 = 0: each row's ghost at -lam - 3 is summed over its
    # cut, so the remainder is that cut's geometric tail, not the whole
    # ghost (1.7e-115 at lambda = 150 when it was folded into the remainder)
    win, lams = Window("gaussian", 0.0, 0.15), np.linspace(150.0, 240.0, 7)
    res = smoothed_trace(model12, win, lams)
    assert res.precision.tolist() == ["closed-form"] * 7
    assert (res.cut_remainder < 1e-290).all()


def test_empty_ghost_cuts_build_no_phase_table():
    # (2, 3, 5, 7) at eps 0.04: from lambda + 17 past sqrt(1400)/eps every
    # ghost cut is empty; its remainder is the whole-ghost bound
    # envelope(s0)/(1 - q0), s0 = lambda + sum w (the right tail of
    # `_window_cut` from n = 0), and no 40-digit phase table is built
    model, win = make_model((2, 3, 5, 7)), Window("gaussian", 2 * np.pi / 5, 0.04)
    lams = np.linspace(919.0, 930.0, 6)
    calls = smoothing._phase_table_at.cache_info()[:2]  # (hits, misses)
    res = smoothed_trace(model, win, lams)
    ghost, ghost_rem, *rest = _eigen_sum_trace(model, win, -lams - 17.0)
    assert smoothing._phase_table_at.cache_info()[:2] == calls
    s0 = lams + 17.0
    q0 = 4.0 * np.exp(-0.5 * win.eps**2 * (2.0 * s0 + 1.0))
    whole = win.fourier_envelope(s0) / (1.0 - q0)
    assert (whole > 0).all() and ghost_rem.tolist() == whole.tolist()
    assert not (ghost.any() or any(column.any() for column in rest))
    assert res.precision.tolist() == ["closed-form"] * 6 and (res.cut_remainder >= whole).all()
