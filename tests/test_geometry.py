import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracelab.asymptotics import covector_pairing, local_prediction
from tracelab.errors import CalibrationError, ChartError, CleanLocusError, PeriodError
from tracelab import geometry
from tracelab.geometry import (
    calibrate,
    contact_field,
    fixed_components,
    flow_differential_normal,
    flow_sphere,
    hamiltonian,
    heisenberg_chart,
    make_model,
    period_gap,
    random_sphere_point,
    turn_phase,
)
from tracelab.smoothing import smoothed_kernel_diagonal
from tracelab.windows import Window


@pytest.fixture(scope="module")
def model12():
    return make_model((1, 2))


@pytest.fixture(scope="module")
def model112():
    return make_model((1, 1, 2))


def _random_points(rng, n, dim):
    z = rng.normal(size=(n, dim)) + 1j * rng.normal(size=(n, dim))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


CALIBRATION_WEIGHTS = [(1, 2), (1, 1, 2), (1, 2, 3), (3, 5), (2, 3, 5, 7)]


@pytest.mark.parametrize("weights", CALIBRATION_WEIGHTS)
def test_contact_field_integration_matches_solve_ivp_and_closed_form(weights):
    """The assembled contact field, integrated by scipy, lands on the closed-form flow."""
    from scipy.integrate import solve_ivp  # independent oracle for the flow

    model = make_model(weights)
    starts = _random_points(np.random.default_rng(7), 3, model.dim + 1)
    n = model.dim + 1

    def rhs(_tau, y):
        v = contact_field(model, y[:n] + 1j * y[n:])
        return np.concatenate([v.real, v.imag])

    for z0 in starts:
        sol = solve_ivp(rhs, (0.0, 1.0), np.concatenate([z0.real, z0.imag]), rtol=1e-11, atol=1e-12)
        assert sol.success
        reference = sol.y[:n, -1] + 1j * sol.y[n:, -1]
        assert np.abs(flow_sphere(model, 1.0, z0) - reference).max() < 1e-8


@pytest.mark.parametrize("weights", CALIBRATION_WEIGHTS)
def test_calibration_convention_across_weights(weights):
    """The contact field is -i diag(w) z, the generator of the flow, at random points."""
    model = make_model(weights)
    z = _random_points(np.random.default_rng(sum(weights)), 50, model.dim + 1)
    expected = -1j * model.weight_array * z
    assert np.abs(contact_field(model, z) - expected).max() <= 1e-15 * np.abs(expected).max()
    assert calibrate(model) is model


def test_calibration_refuses_a_field_that_is_not_the_flow_generator(monkeypatch):
    real = geometry.contact_field
    monkeypatch.setattr(geometry, "contact_field", lambda model, z: real(model, z) + 1e-9j * z)
    with pytest.raises(CalibrationError, match="not -i\\*diag"):
        make_model((1, 2))
    # so is a field wrong in one coordinate: every test point has all coordinates nonzero
    monkeypatch.setattr(
        geometry, "contact_field", lambda model, z: real(model, z) * np.array([1.0, 1.0, 2.0])
    )
    with pytest.raises(CalibrationError):
        make_model((1, 1, 2))


def test_hamiltonian_range(model12):
    rng = np.random.default_rng(0)
    pts = _random_points(rng, 200, 2)
    f = hamiltonian(model12, pts)
    assert np.all(f >= 1.0 - 1e-12) and np.all(f <= 2.0 + 1e-12)


def test_contact_field_tangency(model12):
    rng = np.random.default_rng(1)
    pts = _random_points(rng, 50, 2)
    v = contact_field(model12, pts)
    # real tangency to the sphere: Re<x, v> = 0
    assert np.abs(np.real(np.sum(np.conj(pts) * v, axis=1))).max() < 1e-12


def test_flow_group_law(model12):
    rng = np.random.default_rng(2)
    pts = _random_points(rng, 100, 2)
    s, t = rng.uniform(-3, 3, size=(2, 100))
    worst = 0.0
    for i in range(100):
        one = flow_sphere(model12, float(s[i]), flow_sphere(model12, float(t[i]), pts[i]))
        two = flow_sphere(model12, float(s[i] + t[i]), pts[i])
        worst = max(worst, np.abs(one - two).max())
    assert worst < 1e-10


def test_flow_isometry_and_hamiltonian_invariance(model12):
    rng = np.random.default_rng(3)
    pts = _random_points(rng, 64, 2)
    moved = flow_sphere(model12, 1.234, pts)
    assert np.abs(np.linalg.norm(moved, axis=1) - 1.0).max() < 1e-12
    assert np.abs(hamiltonian(model12, moved) - hamiltonian(model12, pts)).max() < 1e-12


def test_periods_structure(model12):
    # the (1, 2) periods are the multiples of pi, so every gap is pi
    for k in range(5):
        assert abs(period_gap(model12, k * np.pi) - np.pi) < 1e-12


def _enumerated_period_gap(model, tau0):
    """period_gap by listing 0 and every period +-2 pi k/e with |2 pi k/e| <= |tau0| + 4 pi."""
    horizon = abs(tau0) + 4.0 * np.pi
    fracs = set()
    for w in model.weights:
        k = 1
        while 2.0 * np.pi * k / w <= horizon * (1 + 1e-12):
            fracs.add(Fraction(k, w))
            k += 1
    pts = [0.0] + [sign * float(2.0 * np.pi * fr) for fr in fracs for sign in (1, -1)]
    return min(abs(tau0 - t) for t in pts if abs(t - tau0) > 1e-9)


CHART_WEIGHTS = [(1, 2), (1, 1, 2), (1, 2, 3), (3, 5)]


@pytest.mark.parametrize("weights", CHART_WEIGHTS)
def test_period_gap_matches_enumeration(weights):
    model = make_model(weights)
    for tau0 in (0.0, np.pi, 2.0 * np.pi / 3.0, 1.0, -np.pi, -2.0 * np.pi / 3.0, 1e3 * np.pi):
        assert abs(period_gap(model, tau0) - _enumerated_period_gap(model, tau0)) < 1e-12


def test_period_gap_is_immediate_at_large_and_infinite_tau0(model12):
    assert abs(period_gap(model12, 1e5 * np.pi) - np.pi) < 1e-6
    with pytest.raises(PeriodError):
        period_gap(model12, float("inf"))


@pytest.mark.parametrize("weights, tau0, gap, index_set",
                         [((1, 2), 2e9 * np.pi + np.pi, np.pi, (1,)),
                          ((1, 2, 3), 2e9 * np.pi + 2 * np.pi / 3, np.pi / 3, (2,)),
                          ((1, 2), 2 * np.pi * 6.4e11, np.pi, (0, 1)),
                          ((1, 2), 2 * np.pi * 6.4e11 + np.pi, np.pi, (1,))])
def test_period_gap_skips_its_own_period_at_large_tau0(weights, tau0, gap, index_set):
    # 2 pi j/w and tau0 round apart by a few ulps of tau0: the period skipped
    # is the one fixed_components finds, no neighbour at +-gap is skipped with
    # it, and halfway to the neighbour is no period for either
    model = make_model(weights)
    for t in (tau0, -tau0):
        assert abs(period_gap(model, t) - gap) < 16 * math.ulp(tau0)
    comp = fixed_components(model, tau0)[0]
    assert comp.index_set == index_set and not comp.m_only
    assert abs(2 * np.pi * float(comp.period) - tau0) < 16 * math.ulp(tau0)
    with pytest.raises(PeriodError):
        fixed_components(model, tau0 + gap / 2)
    assert abs(period_gap(model, tau0 + gap / 2) - gap / 2) < 16 * math.ulp(tau0)


def _coordinate_gram_schmidt(x0, order, tol, rows=()):
    """The frame loop the chart and the covector pairing each carried inline.

    ``tol=None`` keeps every vector, as the chart's normal loop did.
    """
    rows = list(rows)
    for i in order:
        e = np.zeros(x0.size, dtype=complex)
        e[i] = 1.0
        v = e - np.vdot(x0, e) * x0
        for r in rows:
            v = v - np.vdot(r, v) * r
        nv = np.linalg.norm(v)
        if tol is None or nv > tol:
            rows.append(v / nv)
    return rows


@pytest.mark.parametrize("weights", CHART_WEIGHTS)
def test_chart_frames_and_pairing_are_bit_identical_to_inline_loops(weights):
    model = make_model(weights)
    rng = np.random.default_rng(sum(weights))
    charts = 0
    for tau0 in (np.pi, 2.0 * np.pi / 3.0, 2.0 * np.pi / 5.0, 2.0 * np.pi):
        try:
            comps = [c for c in fixed_components(model, tau0) if not c.m_only]
        except PeriodError:
            continue
        for comp in comps:
            fixed = list(comp.index_set)
            normal = [j for j in range(model.dim + 1) if j not in fixed]
            x0 = np.zeros(model.dim + 1, dtype=complex)
            x0[fixed] = rng.normal(size=len(fixed)) + 1j * rng.normal(size=len(fixed))
            x0 /= np.linalg.norm(x0)
            chart = heisenberg_chart(model, x0, tau0)
            tangent = _coordinate_gram_schmidt(x0, fixed, 1e-10)
            frame = _coordinate_gram_schmidt(x0, normal, None, rows=tangent)
            assert chart.n_tangent == len(tangent) == comp.f_j
            assert np.array_equal(chart.frame, np.array(frame))
            charts += 1
    assert charts >= 2
    points = random.Random(sum(weights))
    for _ in range(5):
        x0 = random_sphere_point(model, points)
        omega = rng.normal(size=1 + 2 * model.dim)
        frame = np.array(_coordinate_gram_schmidt(x0, range(x0.size), 1e-8))
        f = float(hamiltonian(model, x0))
        coords = frame.conj() @ (contact_field(model, x0) + f * (1j * x0))
        ref = -f * omega[0]
        ref += float(np.dot(coords.real, omega[1::2]) + np.dot(coords.imag, omega[2::2]))
        assert covector_pairing(model, x0, omega) == ref


def test_fixed_components_pi(model12):
    comps = fixed_components(model12, np.pi)
    sphere_comps = [c for c in comps if not c.m_only]
    assert len(sphere_comps) == 1
    c = sphere_comps[0]
    assert c.index_set == (1,)
    assert c.f_j == 0 and c.normal_dim == 1
    assert abs(c.c_value - 2.0) < 1e-12
    assert np.allclose(c.normal_angles, [np.pi])
    # the weight-1 coordinate is fixed only downstairs at tau0 = pi... it is
    # not: e^{-i pi} = -1 is a nontrivial common phase, so it shows as m_only
    m_only = [c for c in comps if c.m_only]
    assert all(c.m_only for c in m_only)


def test_fixed_components_two_pi_whole_space(model12):
    comps = fixed_components(model12, 2.0 * np.pi)
    whole = [c for c in comps if c.normal_dim == 0]
    assert len(whole) == 1
    assert whole[0].index_set == (0, 1)
    assert abs(whole[0].c_value - 1.0) < 1e-12  # empty product


def test_fixed_components_112(model112):
    comps = [c for c in fixed_components(model112, np.pi) if not c.m_only]
    assert len(comps) == 1
    c = comps[0]
    assert c.index_set == (2,) and c.normal_dim == 2
    assert abs(c.c_value - 4.0) < 1e-12  # (1 - e^{i pi})^2


def test_c_value_is_taken_at_the_exact_period():
    # normal phases are exact fractions of a turn, so half turns give exact products
    comps = fixed_components(make_model((1, 1, 1, 2)), np.pi)
    assert [c.c_value for c in comps] == [8.0, 2.0]  # (1 - e^{i pi})^3 and the m_only line
    assert np.array_equal(comps[0].normal_angles, [np.pi] * 3)


def test_turn_phase_is_exact_on_quarter_turns():
    quarters = [Fraction(q, 4) for q in range(-9, 10)]
    assert turn_phase(quarters).tolist() == [(1, 1j, -1, -1j)[q % 4] for q in range(-9, 10)]
    others = [Fraction(1, 3), Fraction(-5, 7), Fraction(1001, 8), Fraction(2, 5)]
    expected = np.exp(2j * np.pi * np.array([float(x) for x in others]))
    assert np.abs(turn_phase(others) - expected).max() < 1e-14
    assert turn_phase(Fraction(1, 2)).shape == () and turn_phase([]).shape == (0,)


def test_fixed_components_record_their_period_in_turns(model12):
    assert {c.period for c in fixed_components(model12, np.pi)} == {Fraction(1, 2)}
    assert fixed_components(model12, 2.0 * np.pi)[0].period == 1
    assert fixed_components(model12, -np.pi)[0].period == Fraction(-1, 2)
    assert fixed_components(model12, 0.0)[0].period == 0
    model123 = make_model((1, 2, 3))
    assert fixed_components(model123, 2.0 * np.pi / 3.0)[0].period == Fraction(1, 3)


def test_non_period_raises(model12):
    with pytest.raises(PeriodError):
        fixed_components(model12, 1.0)


def test_chart_frame_and_roundtrip(model12):
    x0 = np.array([0.0, 1.0 + 0j])
    chart = heisenberg_chart(model12, x0, np.pi)
    rows = np.vstack([chart.frame])
    gram = rows.conj() @ rows.T
    assert np.abs(gram - np.eye(len(rows))).max() < 1e-10
    rng = np.random.default_rng(5)
    v = 0.3 * (rng.normal(size=1) + 1j * rng.normal(size=1))
    y = chart.normal_point(v)
    theta, got = chart.coords(y)
    assert abs(theta) < 1e-12
    assert np.abs(got[chart.n_tangent :] - v).max() < 1e-10


def test_chart_phase_equivariance(model12):
    # x+(theta, v) convention: rotating the chart phase rotates the point
    x0 = np.array([0.0, 1.0 + 0j])
    chart = heisenberg_chart(model12, x0, np.pi)
    v = np.array([0.2 + 0.1j])
    a = chart.point(0.4, np.concatenate([np.zeros(chart.n_tangent), v]))
    b = np.exp(1j * 0.4) * chart.point(0.0, np.concatenate([np.zeros(chart.n_tangent), v]))
    assert np.abs(a - b).max() < 1e-12


def test_chart_requires_fixed_center(model12):
    bad = np.array([1.0 + 0j, 1.0]) / np.sqrt(2)
    with pytest.raises(ChartError):
        heisenberg_chart(model12, bad, np.pi)


def test_flow_differential_normal(model12, model112):
    chart = heisenberg_chart(model12, np.array([0.0, 1.0 + 0j]), np.pi)
    A = flow_differential_normal(model12, chart)
    assert A.shape == (1, 1)
    assert abs(A[0, 0] + 1.0) < 1e-6
    chartb = heisenberg_chart(model112, np.array([0.0, 0.0, 1.0 + 0j]), np.pi)
    B = flow_differential_normal(model112, chartb)
    assert np.abs(B + np.eye(2)).max() < 1e-6
    # unitarity and determinant consistency with the component data
    assert np.abs(B.conj().T @ B - np.eye(2)).max() < 1e-8
    assert abs(np.linalg.det(np.eye(2) - B) - chartb.component.c_value) < 1e-6
    # the (1, 1, 2) component at pi has two normal angles and compares whole
    assert chartb.component == fixed_components(model112, np.pi)[0]
    assert chartb.component.normal_angles == (np.pi, np.pi)


def _finite_difference_normal_map(model, chart, step=1e-5):
    """The inverse-time flow differential on the normal space by
    Richardson-extrapolated central differences of the flow read in the
    chart: no weight bookkeeping enters."""
    c = chart.normal_dim

    def image(u):
        _, v = chart.coords(flow_sphere(model, -chart.tau0, chart.normal_point(u)))
        return v[chart.n_tangent :]

    A = np.zeros((c, c), dtype=complex)
    for a in range(c):
        e, out = np.zeros(c, dtype=complex), []
        for h in (step, step / 2.0):
            e[a] = h
            plus = image(e)
            e[a] = -h
            out.append((plus - image(e)) / (2.0 * h))
        A[:, a] = (4.0 * out[1] - out[0]) / 3.0
    return A


@pytest.mark.parametrize(
    "weights, centre, tau0",
    [
        ((1, 2), [0, 1], np.pi),
        ((1, 1, 2), [0, 0, 1], np.pi),
        ((1, 1, 1, 2), [0, 0, 0, 1], np.pi),
        ((1, 2, 2), [0, 0.6, 0.8j], np.pi),
        ((1, 2, 3), [0, 0, 1], 2 * np.pi / 3),
        ((1, 2, 3), [0, 0, 1], -2 * np.pi / 3),
        ((2, 3, 5), [0, 0, 1], 2 * np.pi / 5),
    ],
)
def test_normal_map_matches_the_finite_difference(weights, centre, tau0):
    model = make_model(weights)
    chart = heisenberg_chart(model, np.array(centre, dtype=complex), tau0)
    A = flow_differential_normal(model, chart)
    assert np.abs(A - _finite_difference_normal_map(model, chart)).max() <= 1e-15
    assert np.prod(1.0 - np.diag(A)) == chart.component.c_value


def test_normal_map_is_exact_at_a_large_period(model12):
    # the finite difference sees tau0's rounding (2.6e-7 off -1 here); the
    # closed form takes the exact period
    tau0 = 2 * np.pi * 1e9 + np.pi
    chart = heisenberg_chart(model12, np.array([0.0, 1.0 + 0j]), tau0)
    assert flow_differential_normal(model12, chart).tolist() == [[-1.0]]
    assert abs(_finite_difference_normal_map(model12, chart)[0, 0] + 1.0) > 1e-8


@settings(max_examples=80, deadline=None)
@given(
    weights=st.lists(st.integers(1, 5), min_size=2, max_size=4),
    data=st.data(),
)
def test_the_chart_carries_the_one_sphere_fixed_component(weights, data):
    """At every period 2 pi j / w_i exactly one component is fixed on the
    sphere, `fixed_components` lists it first, and a chart centred anywhere
    on it carries it."""
    model = make_model(weights)
    w = data.draw(st.sampled_from(weights), label="w_i")
    j = data.draw(st.integers(0, 2 * w), label="j")
    tau0 = 2.0 * np.pi * j / w
    comps = fixed_components(model, tau0)
    sphere = [c for c in comps if not c.m_only]
    assert len(sphere) == 1 and comps[0] is sphere[0]
    comp = comps[0]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    x0 = np.zeros(model.dim + 1, dtype=complex)
    x0[list(comp.index_set)] = rng.normal(size=comp.f_j + 1) + 1j * rng.normal(size=comp.f_j + 1)
    x0 /= np.linalg.norm(x0)
    chart = heisenberg_chart(model, x0, tau0)
    assert chart.component == comp
    assert chart.n_tangent == comp.f_j and chart.tau0 == comp.tau0
    assert chart.normal_dim == comp.normal_dim


def test_chart_at_a_non_coordinate_centre_of_the_122_line():
    """The (1, 2, 2) line {z_0 = 0} is fixed at tau0 = pi; a centre mixing its
    two coordinates gets that line, its normal map and the (1, 1, 2) point's
    diagonal, since h_n comes from (1 - x^2)^-3 at both."""
    model = make_model((1, 2, 2))
    x0 = np.array([0.0, 0.6, 0.8j])
    chart = heisenberg_chart(model, x0, np.pi)
    assert chart.component == fixed_components(model, np.pi)[0]
    assert chart.component.index_set == (1, 2) and chart.component.c_value == 2.0
    assert (chart.n_tangent, chart.normal_dim, chart.tau0) == (1, 1, np.pi)
    A = flow_differential_normal(model, chart)
    assert abs(A[0, 0] + 1.0) < 1e-6
    win = Window("gaussian", np.pi, 0.15)
    pred = local_prediction(model, chart, win)
    assert (pred.f_j, pred.period, pred.normal_dim) == (1, Fraction(1, 2), 1)
    assert abs(pred.f_center - 2.0) < 1e-15
    point = chart.normal_point(np.array([0.0j]))
    line, _ = smoothed_kernel_diagonal(model, win, 40.0, point)
    apex, _ = smoothed_kernel_diagonal(make_model((1, 1, 2)), win, 40.0, np.array([0, 0, 1 + 0j]))
    assert abs(line[0] - apex[0]) < 1e-13 * abs(apex[0])
