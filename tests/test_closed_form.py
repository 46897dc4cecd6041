"""Kernel rows in closed form (`smoothing._closed_form_diagonal`) against the
h_n recurrence, the window-cut eigen-sum and 50-digit mpmath sums."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracelab import cli, smoothing
from tracelab.asymptotics import local_prediction, predict_local
from tracelab.geometry import heisenberg_chart, make_model
from tracelab.smoothing import (
    _closed_form_diagonal,
    _diagonal_values,
    _eigen_sum_diagonal,
    _h_table,
    _pole_weights,
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
    """h_0..h_n from the partial fractions, with the size of their two parts."""
    w = np.asarray(weights)
    d, T = len(weights) - 1, float(t[w == 2].sum())
    a, b = _pole_weights(d, T)
    k = np.arange(n + 1, dtype=float)
    binom = [np.ones_like(k)]
    for m in range(1, d + 1):
        binom.append(binom[-1] * (k + m) / m)
    A = sum(aj * binom[d - j] for j, aj in enumerate(a))
    B = sum(bj * binom[d - j] for j, bj in enumerate(b)) * (-T) ** k
    return A + B, np.abs(A) + np.abs(B)


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


def test_zero_mass_rows_against_mpmath():
    # T = 0 (weights (1, 1), or the point [1:0] of (1, 2)) has one pole, and
    # t1 = 0 (the point [0:1]) puts both poles on the unit circle
    cases = [((1, 1), [0.25, 0.75], 0.0), ((1, 2), [1.0, 0.0], np.pi), ((1, 2), [0.0, 1.0], np.pi),
             ((1, 2), [1.0, 0.0], 0.0), ((1, 1), [0.5, 0.5], np.pi)]
    for weights, t, tau0 in cases:
        win = Window("gaussian", tau0, 0.2)
        model = make_model(weights)
        for lam in (30.0, 250.5):
            values, rems, bounds, taken = _closed_form_diagonal(
                model, win, np.array([lam]), np.array([t]), 1e-10
            )
            assert taken[0], (weights, t, tau0, lam)
            kappa = _kappa(weights, lam, win.eps, values[0])
            ref, magnitude = _mp_diagonal(weights, t, lam, tau0, win.eps, kappa)
            assert magnitude < kappa * abs(ref)
            assert abs(values[0] - ref) <= rems[0] + bounds[0]


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
    value, rem, bound, taken = _closed_form_diagonal(model, win, lams, ts, 1e-10)
    if not taken[0]:
        return  # an eigen-sum row
    other, other_rem, other_bound, _ = _eigen_sum_diagonal(model, win, lams, ts, 1e-10)
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
        raise AssertionError("an h_n table was built")

    monkeypatch.setattr(smoothing, "_h_table", refuse)
    monkeypatch.setattr(smoothing, "_decimal_h", refuse)
    model = make_model((1, 2))
    for lam in (1e6, 1e12):
        pt = chart.normal_point(np.array([0.5 + 0j]) / math.sqrt(lam))
        values, rems, bounds, precision = _diagonal_values(
            model, WIN, np.array([lam]), pt[None, :], 1e-10
        )
        assert precision.tolist() == ["closed-form"]
        assert np.isfinite(values[0]) and abs(values[0]) > 0
        assert 0.0 <= rems[0] <= 1e-10 and 0.0 < bounds[0] < 1e-12 * abs(values[0])
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
