"""Kernel rows in closed form (`smoothing._closed_form_diagonal`) against the
h_n recurrence, the window-cut eigen-sum and 50-digit mpmath sums."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracelab import cli, smoothing
from tracelab.asymptotics import local_prediction, predict_local
from tracelab.geometry import heisenberg_chart, make_model
from tracelab.harness import _default_chart
from tracelab.smoothing import (
    _chart_moments,
    _closed_form_diagonal,
    _diagonal_values,
    _displacement_radii,
    _eigen_sum_diagonal,
    _h_table,
    _merged_moments,
    _offlocus_radii,
    _poles,
    offlocus_decay_scan,
    parity_scan,
)
from tracelab.windows import Window

WIN = Window("gaussian", np.pi, 0.15)
U = 2.0**-53


def _dyadic_moments(rng, size, bits=20):
    """Moments m/2^bits, m >= 0 integers summing to 2^bits: exact doubles whose sum is exactly 1."""
    cuts = np.sort(rng.integers(0, 2**bits + 1, size=size - 1))
    return np.diff(np.concatenate([[0], cuts, [2**bits]])) / 2.0**bits


def _mp_diagonal(weights, t, lam, tau0, eps, kappa=1.0):
    """(d!/pi^d) sum_n h_n(t) chihat(lam - n) in mpmath, with 25 digits
    beyond a cancellation of ``kappa`` (at least 50 digits), at the sphere
    point t/sum(t), which the closed form evaluates: (value, sum |terms|)."""
    mpmath = pytest.importorskip("mpmath")
    d = len(weights) - 1
    with mpmath.workdps(max(50, 25 + math.ceil(math.log10(kappa)))):
        ts = [mpmath.mpf(float(x)) for x in t]
        ts = [x / mpmath.fsum(ts) for x in ts]
        lam_, eps_, tau_ = mpmath.mpf(lam), mpmath.mpf(eps), mpmath.mpf(tau0)
        n_lo, n_hi = max(0, int(lam - 40.0 / eps)), int(lam + 40.0 / eps)
        h = [mpmath.mpf(1)]
        for n in range(1, n_hi + 1):
            terms = (ti * (n + d * w) * h[n - w] for ti, w in zip(ts, weights) if n >= w)
            h.append(mpmath.fsum(terms) / n)
        peak = eps_ * mpmath.sqrt(2 * mpmath.pi) * math.factorial(d) / mpmath.pi**d
        terms = []
        for n in range(n_lo, n_hi + 1):
            s = lam_ - n
            terms.append(h[n] * peak * mpmath.exp(-((eps_ * s) ** 2) / 2) * mpmath.expj(-s * tau_))
        return complex(mpmath.fsum(terms)), float(mpmath.fsum(abs(x) for x in terms))


def _kappa(weights, lam, eps, value):
    """A cancellation estimate for `_mp_diagonal`'s digits: the sum of |terms|
    is at most about (lam/eps)^(d+1); the closed form's value stands for |sum|."""
    return max(1.0, (lam / eps) ** len(weights) / max(abs(value), 1e-300))


def _closed_form_h(weights, t, n):
    """h_0..h_n from the pole list's partial fractions, with the size of
    each pole's part.  A pole's rho^k is taken as |rho|^k times (rho/|rho|)^k
    by real and complex powers, not from the double log, so its phase keeps
    full accuracy."""
    d = len(weights) - 1
    k = np.arange(n + 1, dtype=float)
    binom = [np.ones_like(k)]
    for m in range(1, d + 1):
        binom.append(binom[-1] * (k + m) / m)
    total, size = np.zeros(n + 1, dtype=complex), np.zeros(n + 1)
    for pole in _poles(d, _merged_moments(weights, t)):
        L, phi = float(pole.log_modulus), float(pole.arg)
        turn = np.array([complex(math.cos(phi), math.sin(phi)) ** int(j) for j in k])
        if phi == 0.0 or abs(phi) == math.pi:
            turn = np.cos(phi) ** k
        part = np.exp(L) ** k * turn * sum(a * binom[d - j] for j, a in enumerate(pole.weights))
        total, size = total + part, size + np.abs(part)
    return total.real, size


@pytest.mark.parametrize("weights", [(1, 2), (1, 1, 2), (1, 2, 2), (1, 1, 1, 2)])
def test_closed_form_h_matches_h_table(weights):
    # h_n = A(n) + (-T)^n B(n) against the recurrence, to the recurrence's
    # own rounding ((d + 4) n units, as `_rounding_bounds` charges it) plus
    # a few units of the two parts, which cancel where T is near 1
    rng = np.random.default_rng(sum(weights))
    d, n_max = len(weights) - 1, 200
    rows = [_dyadic_moments(rng, len(weights)) for _ in range(6)]
    rows += [np.eye(len(weights))[0], np.eye(len(weights))[-1]]  # T = 0 and T = 1
    table = _h_table(np.array(rows), weights, n_max)
    n = np.arange(n_max + 1)
    for i, t in enumerate(rows):
        closed, parts = _closed_form_h(weights, t, n_max)
        tolerance = (d + 4) * n * U * table[:, i] + 64 * U * parts
        assert (np.abs(closed - table[:, i]) <= tolerance).all()


@pytest.mark.parametrize("weights", [(1, 3), (2, 3), (1, 4), (1, 1, 3), (1, 2, 3), (2, 3, 5)])
def test_pole_list_h_matches_h_table(weights):
    # every weight vector: h_n = sum_rho rho^n P_rho(n) from the polished
    # roots and the Laurent weights, against the recurrence, to the
    # recurrence's rounding plus a few units per power step of each pole's part
    rng = np.random.default_rng(sum(weights) + len(weights))
    d, n_max = len(weights) - 1, 200
    rows = [_dyadic_moments(rng, len(weights)) for _ in range(6)]
    rows += [np.eye(len(weights))[0], np.eye(len(weights))[-1]]
    table = _h_table(np.array(rows), weights, n_max)
    n = np.arange(n_max + 1)
    for i, t in enumerate(rows):
        closed, parts = _closed_form_h(weights, t, n_max)
        tolerance = (d + 4) * n * U * table[:, i] + 64 * (n + 1) * U * parts
        assert (np.abs(closed - table[:, i]) <= tolerance).all(), (weights, t)


@pytest.mark.parametrize("weights", [(1, 1, 1, 5), (2, 3, 5, 7), (1, 13)])
def test_conjugate_poles_are_formed_as_exact_conjugates(weights):
    # each complex pole's conjugate is in the list with the negated arg, the
    # conjugate weights and the same majorants, error and spread; polishing
    # and expanding the conjugate separately gives the same bits, since every
    # decimal rounding is symmetric under negation
    rng = np.random.default_rng(len(weights))
    moments = _merged_moments(weights, rng.uniform(0.1, 1.0, len(weights)))
    d = len(weights) - 1
    poles = _poles(d, moments)
    complex_poles = [p for p in poles if p.arg not in (0, smoothing._PI)]
    assert complex_poles and len(complex_poles) % 2 == 0
    for p in complex_poles:
        partner = [c for c in complex_poles
                   if c.arg == p.arg.copy_negate() and c.log_modulus == p.log_modulus]
        assert len(partner) == 1
        c = partner[0]
        assert c.weights == tuple(x.conjugate() for x in p.weights)
        assert (c.majorants, c.error, c.spread) == (p.majorants, p.error, p.spread)
    with smoothing.localcontext() as ctx:
        ctx.prec = smoothing._DECIMAL_DIGITS
        top = max(w for w, x in moments if x > 0)
        tails = [sum((x for w, x in moments if w > m), smoothing.Decimal(0)) for m in range(top)]
        roots = smoothing._polished_roots(tails)
    for g in roots:
        if g[1] < 0:
            assert (g[0], g[1].copy_negate(), g[2]) in roots


def test_colliding_roots_fall_back_to_the_eigen_sum():
    # (2, 3) at moments (3/4, 1/4): p_t(x) = (1 - x)(1 + x/2)^2 has a double
    # root, so the poles are not separated and the eigen-sum sums the row in
    # double; a nearby separated row is in closed form.  Both hold their bounds
    model, win = make_model((2, 3)), Window("gaussian", np.pi, 0.1)
    assert _poles(1, _merged_moments((2, 3), [0.75, 0.25])) is None
    for t, label in (([0.75, 0.25], ["double"]), ([0.7, 0.3], ["closed-form"])):
        pts = np.sqrt(np.array([t]))
        values, rems, bounds, precision = _diagonal_values(model, win, np.array([60.0]), pts, 1e-10)
        assert precision.tolist() == label
        kappa = _kappa((2, 3), 60.0, 0.1, values[0])
        ref, _ = _mp_diagonal((2, 3), np.abs(pts[0]) ** 2, 60.0, np.pi, 0.1, kappa)
        assert abs(values[0] - ref) <= rems[0] + bounds[0]


@pytest.mark.parametrize("weights", [(1, 3), (1, 2, 3)])
def test_general_weight_offlocus_rows_against_fifty_digits(weights):
    # tau0 = 2 pi/3, eps 0.1, normal distance 0.2-0.5 from the weight-3
    # point, lambda 150 and 300: the eigen-sum cancels by up to 1e17 here
    # (these rows were decimal eigen-sum rows); the closed form is within
    # 1e-13 of a 50-digit sum and within its own remainder plus bound
    model = make_model(weights)
    win = Window("gaussian", 2 * np.pi / 3, 0.1)
    chart = heisenberg_chart(model, np.eye(len(weights))[-1].astype(complex), win.tau0)
    u = np.eye(chart.normal_dim)[0]
    lams = np.repeat([150.0, 300.0], 4)
    pts = np.array([chart.normal_point(r * u) for r in [0.2, 0.3, 0.4, 0.5] * 2])
    values, rems, bounds, precision = _diagonal_values(model, win, lams, pts, 1e-10)
    assert precision.tolist() == ["closed-form"] * 8
    for lam, t, value, rem, bound in zip(lams, np.abs(pts) ** 2, values, rems, bounds):
        ref, _ = _mp_diagonal(weights, t, lam, win.tau0, win.eps, _kappa(weights, lam, win.eps, value))
        assert abs(value - ref) <= 1e-13 * abs(ref)
        assert abs(value - ref) <= rem + bound < abs(value)


@st.composite
def _general_rows(draw):
    """A model of 2-4 weights in 1..5, tau0 a period of one of its weights
    or a midpoint, exact dyadic moments on the fixed coordinates of that
    period (on the locus) or on every coordinate (off it), lambda and eps."""
    weights = tuple(draw(st.lists(st.integers(1, 5), min_size=2, max_size=4)))
    w = draw(st.sampled_from(weights))
    j = draw(st.integers(-3, 3))
    tau0 = 2 * np.pi * j / w + draw(st.sampled_from([0.0, np.pi / (2 * w)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fixed = [i for i, wi in enumerate(weights) if abs(math.remainder(tau0 * wi, 2 * np.pi)) < 1e-9]
    support = fixed if (fixed and draw(st.booleans())) else list(range(len(weights)))
    t = np.zeros(len(weights))
    t[support] = _dyadic_moments(rng, len(support))
    lam = draw(st.floats(20.0, 400.0))
    eps = draw(st.floats(0.15, 0.5))
    return weights, t, lam, Window("gaussian", tau0, eps)


@settings(max_examples=40, deadline=None)
@given(row=_general_rows())
def test_closed_form_agrees_with_the_eigen_sum_on_general_weights(row):
    # both sum the series at the same sphere point (moments summing to 1
    # exactly): they agree within both remainders and rounding bounds
    weights, t, lam, win = row
    model = make_model(weights)
    lams, ts = np.array([lam]), t[None, :]
    value, rem, bound, taken, _ = _closed_form_diagonal(model, win, lams, ts, 1e-10)
    if not taken[0]:
        return  # an eigen-sum row
    other, other_rem, other_bound = _eigen_sum_diagonal(model, win, lams, ts, 1e-10)
    assert abs(value[0] - other[0]) <= rem[0] + bound[0] + other_rem[0] + other_bound[0]


def test_general_weight_rows_at_a_million_need_no_coefficient_table(monkeypatch):
    # a (1, 3) row at t = (0.7, 0.3) took 14.4 s at lambda = 1e6 as an
    # eigen-sum; in closed form it builds no h_n table at any lambda
    def refuse(*args):
        raise AssertionError("an h_n table was built or the eigen-sum ran")

    monkeypatch.setattr(smoothing, "_h_table", refuse)
    monkeypatch.setattr(smoothing, "_eigen_sum_diagonal", refuse)
    win = Window("gaussian", 2 * np.pi / 3, 0.15)
    for weights, t in (((1, 3), [0.7, 0.3]), ((1, 2, 3), [0.5, 0.2, 0.3])):
        pts = np.sqrt(np.array([t]))
        for lam in (1e3, 1e6):
            values, rems, bounds, precision = _diagonal_values(
                make_model(weights), win, np.array([lam]), pts, 1e-10
            )
            assert precision.tolist() == ["closed-form"]
            assert abs(values[0]) > 0 and 0.0 < rems[0] <= 1e-10 * abs(values[0])
            assert 0.0 < bounds[0] < 1e-12 * abs(values[0])


@pytest.mark.parametrize(
    "weights, tau0, u",
    [((1, 2), np.pi, [0.5]), ((1, 1, 2), np.pi, [0.5, 0.25j]), ((1, 2, 3), 2 * np.pi / 3, [0.3, -0.4])],
)
def test_chart_moments_are_the_chart_points_moments(weights, tau0, u):
    # on a default chart the decimal moments, rounded, are the moments of
    # the double chart points, to a few units of rounding in those points
    model = make_model(weights)
    chart = _default_chart(model, tau0, None)
    u = np.array(u, dtype=complex)
    lams = np.array([50.0, 300.0, 1e6])
    rows = _chart_moments(chart, u, _displacement_radii(u, lams))
    for row, lam in zip(rows, lams):
        assert math.isclose(sum(map(float, row)), 1.0, rel_tol=1e-15)
        t = np.abs(chart.normal_point(u / math.sqrt(lam))) ** 2
        assert np.allclose([float(x) for x in row], t, rtol=1e-14, atol=0.0)
    radii = _offlocus_radii(1.3, lams)
    assert [float(r) for r in radii] == pytest.approx(2.6 * lams ** (-7 / 18), rel=1e-15)
    # a chart centred off the coordinate points reads its points' own moments
    tilted = heisenberg_chart(make_model((1, 2, 2)), np.array([0.0, 0.6, 0.8 + 0j]), np.pi)
    assert _chart_moments(tilted, np.array([0.5 + 0j]), _displacement_radii([0.5], lams)) is None


def test_offlocus_scan_reads_the_chart_radius():
    # the scan's rows are the closed form at the decimal moments of the
    # radius 2 C lam^(-7/18): within 1e-14 of 50 digits at those moments,
    # where the double points' moments moved the parent's rows by up to 1e-14
    mpmath = pytest.importorskip("mpmath")
    model = make_model((1, 2))
    chart = _default_chart(model, np.pi, None)
    grid = np.array([75.0, 300.0, 600.0])
    rep = offlocus_decay_scan(model, WIN, chart, 1.3, grid)
    for lam, value in zip(grid, rep.exact):
        with mpmath.workdps(50):
            r = 2 * mpmath.mpf(1.3) * mpmath.mpf(lam) ** (mpmath.mpf(-7) / 18)
            t = [mpmath.sin(r) ** 2, mpmath.cos(r) ** 2]
        ref, _ = _mp_diagonal((1, 2), t, lam, np.pi, 0.15, 1e20)
        assert abs(value - ref) <= 1e-14 * abs(ref)


def test_zero_mass_rows_against_mpmath():
    # T = 0 (weights (1, 1), or the point [1:0] of (1, 2)) has one pole, and
    # t1 = 0 (the point [0:1]) puts both poles on the unit circle
    cases = [((1, 1), [0.25, 0.75], 0.0), ((1, 2), [1.0, 0.0], np.pi), ((1, 2), [0.0, 1.0], np.pi),
             ((1, 2), [1.0, 0.0], 0.0), ((1, 1), [0.5, 0.5], np.pi)]
    for weights, t, tau0 in cases:
        win = Window("gaussian", tau0, 0.2)
        model = make_model(weights)
        for lam in (30.0, 250.5):
            values, rems, bounds, taken, _ = _closed_form_diagonal(
                model, win, np.array([lam]), np.array([t]), 1e-10
            )
            assert taken[0], (weights, t, tau0, lam)
            kappa = _kappa(weights, lam, win.eps, values[0])
            ref, magnitude = _mp_diagonal(weights, t, lam, tau0, win.eps, kappa)
            assert magnitude < kappa * abs(ref)
            assert abs(values[0] - ref) <= rems[0] + bounds[0]


def test_mu_charge_near_mu_zero_against_fifty_digits():
    # (1, 2, 2) at tau0 = 0, eps 0.15, lam = 0, t = (0.2, 0.3, 0.5): on the
    # rho = 1 pole's alias at theta = 0, mu is 0 up to its rounding, and a
    # charge d e_mu/|mu|_+ of d/u units made the row's bound 35.6 against a
    # value of 4.49; d e_mu/(|mu|_+ + 1) bounds it by 3.0e-12
    model, win, t = make_model((1, 2, 2)), Window("gaussian", 0.0, 0.15), [0.2, 0.3, 0.5]
    values, rems, bounds, precision = _diagonal_values(
        model, win, np.array([0.0]), np.sqrt([t]), 1e-10
    )
    ref, _ = _mp_diagonal((1, 2, 2), t, 0.0, win.tau0, win.eps)
    assert precision.tolist() == ["closed-form"]
    assert abs(values[0] - ref) <= rems[0] + bounds[0] <= 1e-11 * abs(ref)


@st.composite
def _rows(draw):
    """A {1, 2}-weight model of 2-4 coordinates, exact dyadic moments, lambda,
    tau0 a period (a multiple of pi) or a midpoint, and eps."""
    weights = tuple(draw(st.lists(st.sampled_from([1, 2]), min_size=2, max_size=4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = _dyadic_moments(rng, len(weights))
    j = draw(st.integers(-2, 2))
    tau0 = draw(st.sampled_from([j * np.pi, (j + 0.5) * np.pi]))
    lam = draw(st.floats(20.0, 3000.0))
    eps = draw(st.floats(0.1, 0.6))
    return weights, t, lam, Window("gaussian", tau0, eps)


@settings(max_examples=30, deadline=None)
@given(row=_rows(), oracle=st.booleans())
def test_closed_form_agrees_with_the_eigen_sum(row, oracle):
    # at moments that sum to 1 exactly both evaluate the same series: they
    # agree within both remainders and rounding bounds, and on a sample the
    # closed form's bound holds against a 50-digit mpmath sum
    weights, t, lam, win = row
    model = make_model(weights)
    lams, ts = np.array([lam]), t[None, :]
    value, rem, bound, taken, _ = _closed_form_diagonal(model, win, lams, ts, 1e-10)
    if not taken[0]:
        return  # an eigen-sum row
    other, other_rem, other_bound = _eigen_sum_diagonal(model, win, lams, ts, 1e-10)
    assert abs(value[0] - other[0]) <= rem[0] + bound[0] + other_rem[0] + other_bound[0]
    # the oracle's digits follow the cancellation the closed form's value implies
    kappa = _kappa(weights, lam, win.eps, value[0])
    if oracle and lam <= 1000.0 and kappa < 1e40:
        ref, magnitude = _mp_diagonal(weights, t, lam, win.tau0, win.eps, kappa)
        assert magnitude < kappa * abs(ref)
        assert abs(value[0] - ref) <= rem[0] + bound[0]


@pytest.fixture(scope="module")
def chart():
    return heisenberg_chart(make_model((1, 2)), np.array([0.0, 1.0 + 0j]), np.pi)


def test_criterion_7_row_against_fifty_digits(chart):
    # (1, 2), tau0 = pi, eps 0.15, u = 0.5, lambda = 300: kappa of the
    # eigen-sum about 1e33, where forty decimal digits kept six
    pt = chart.normal_point(np.array([0.5 + 0j]))
    values, _, bounds, precision = _diagonal_values(
        make_model((1, 2)), WIN, np.array([300.0]), pt[None, :], 1e-10
    )
    ref, magnitude = _mp_diagonal((1, 2), np.abs(pt) ** 2, 300.0, np.pi, 0.15, 1e34)
    assert 1e32 * abs(ref) < magnitude < 1e34 * abs(ref)
    assert precision.tolist() == ["closed-form"]
    assert abs(values[0] - ref) <= 1e-13 * abs(ref)
    assert abs(values[0] - ref) <= bounds[0] < 1e-10 * abs(values[0])


def test_offlocus_row_at_a_large_period_against_fifty_digits():
    # (1, 2) at tau0 = 2 pi 1e9 + pi, the off-locus distance 2.6 lam^(-7/18),
    # lambda = 300: alias angles and turns formed in double were 2.4e-6 off
    tau0 = 2 * np.pi * 1e9 + np.pi
    model = make_model((1, 2))
    chart = heisenberg_chart(model, np.array([0.0, 1.0 + 0j]), tau0)
    pt = chart.normal_point(np.array([2.6 * 300.0 ** (-7 / 18) + 0j]))
    win = Window("gaussian", tau0, 0.15)
    values, rems, bounds, precision = _diagonal_values(
        model, win, np.array([300.0]), pt[None, :], 1e-10
    )
    ref, magnitude = _mp_diagonal((1, 2), np.abs(pt) ** 2, 300.0, tau0, 0.15, 1e12)
    assert precision.tolist() == ["closed-form"] and magnitude > 1e10 * abs(ref)
    assert abs(values[0] - ref) <= 1e-13 * abs(ref)
    assert abs(values[0] - ref) <= rems[0] + bounds[0]


def test_large_lambda_rows_need_no_coefficient_table(chart, monkeypatch):
    def refuse(*args):
        raise AssertionError("an h_n table was built or the eigen-sum ran")

    monkeypatch.setattr(smoothing, "_h_table", refuse)
    monkeypatch.setattr(smoothing, "_eigen_sum_diagonal", refuse)
    model = make_model((1, 2))
    for lam in (1e6, 1e12):
        pt = chart.normal_point(np.array([0.5 + 0j]) / math.sqrt(lam))
        values, rems, bounds, precision = _diagonal_values(
            model, WIN, np.array([lam]), pt[None, :], 1e-10
        )
        assert precision.tolist() == ["closed-form"]
        assert np.isfinite(values[0]) and abs(values[0]) > 0
        # the omitted aliases' bound underflows double, and rounds up, not to 0
        assert 0.0 < rems[0] <= 1e-10 and 0.0 < bounds[0] < 1e-12 * abs(values[0])
        # the local leading term holds to its lam^(-1/2) correction
        predicted = predict_local(local_prediction(model, chart, WIN), np.array([0.5 + 0j]), lam)
        assert abs(values[0] / predicted - 1.0) < 10.0 / math.sqrt(lam)


def test_parity_odd_part_is_exactly_zero(chart):
    grid = np.array([100.0, 560.0, 1e6])
    rep = parity_scan(make_model((1, 2)), WIN, chart, np.array([0.7 + 0j]), grid)
    assert rep.meta["precision"] == ["closed-form"] * 3
    assert (rep.exact == 0.0).all()
    assert (np.abs(rep.predicted) > 0).all()


def test_cli_local_at_a_million(tmp_path):
    argv = ["local", "--weights", "1,2", "--shape", "gaussian", "--tau0", "3.141592653589793",
            "--eps", "0.15", "--lambda-grid", "1e6:2e6:3", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    rows = (tmp_path / "local.csv").read_text().splitlines()[1:]
    assert len(rows) == 3
    assert all(abs(float(row.split(",")[5]) - 1.0) < 1e-3 for row in rows)


@pytest.mark.parametrize("weights", ["1,3", "1,2,3"])
def test_cli_general_weights_local_at_a_million(tmp_path, weights):
    argv = ["local", "--weights", weights, "--shape", "gaussian", "--tau0", repr(2 * np.pi / 3),
            "--eps", "0.1", "--lambda-grid", "1e6:2e6:3", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    meta = json.loads((tmp_path / "local.json").read_text())["meta"]
    assert meta["precision"] == ["closed-form"] * 3
    rows = (tmp_path / "local.csv").read_text().splitlines()[1:]
    assert all(abs(float(row.split(",")[5]) - 1.0) < 1e-3 for row in rows)
