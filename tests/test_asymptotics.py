import math
from fractions import Fraction

import numpy as np
import pytest

from tracelab.asymptotics import (
    _line_integral,
    _period_phase,
    component_f_integral,
    fit_expansion,
    gaussian_normal_integral,
    local_prediction,
    predict_global_component,
    predict_local,
    psi2,
    stationary_point_check,
    unitary_eigenbasis,
)
from tracelab.errors import CleanLocusError, DegenerateDirectionError, FitError
from tracelab.geometry import fixed_components, heisenberg_chart, make_model, turn_phase
from tracelab.quadrature import gaussian_line_rule, simplex_rule
from tracelab.windows import Window


@pytest.fixture(scope="module")
def model12():
    return make_model((1, 2))


@pytest.fixture(scope="module")
def chart12(model12):
    return heisenberg_chart(model12, np.array([0.0, 1.0 + 0j]), np.pi)


def test_psi2_hand_values():
    assert psi2(np.array([1.0 + 0j]), np.array([1j])) == pytest.approx(-1.0 - 1.0j)
    assert psi2(np.array([2.0 + 1j]), np.array([2.0 + 1j])) == 0.0
    u = np.array([3.0 + 0j, 4.0j])
    assert psi2(u, np.zeros(2, dtype=complex)) == pytest.approx(-12.5)  # -||u||^2/2


def test_psi2_conjugate_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(20):
        u = rng.normal(size=3) + 1j * rng.normal(size=3)
        w = rng.normal(size=3) + 1j * rng.normal(size=3)
        assert abs(psi2(u, w) - np.conj(psi2(w, u))) < 1e-14


def test_psi2_real_part_nonpositive():
    rng = np.random.default_rng(12)
    u = rng.normal(size=(100, 2)) + 1j * rng.normal(size=(100, 2))
    w = rng.normal(size=(100, 2)) + 1j * rng.normal(size=(100, 2))
    assert np.all(psi2(u, w).real <= 0)


def test_gaussian_integral_halfturn_lines():
    res = gaussian_normal_integral(np.array([[-1.0 + 0j]]))
    assert abs(res.closed_form - np.pi / 2) < 1e-14
    assert res.quadrature_rel_error < 1e-12
    res2 = gaussian_normal_integral(-np.eye(2, dtype=complex))
    assert abs(res2.closed_form - np.pi**2 / 4) < 1e-13
    assert res2.quadrature_rel_error < 1e-12


def test_gaussian_integral_random_unitaries():
    """Closed form vs quadrature for 20 random A with eigenvalue gap > 0.1."""
    rng = np.random.default_rng(13)
    for c in (1, 2):
        for _ in range(10):
            g = rng.normal(size=(c, c)) + 1j * rng.normal(size=(c, c))
            Q = np.linalg.qr(g)[0]
            A = (Q * np.exp(1j * rng.uniform(0.21, 2 * np.pi - 0.21, size=c))) @ Q.conj().T
            res = gaussian_normal_integral(A)
            assert res.quadrature_rel_error < 1e-5


def _literal_line_sum(mu, x, w):
    """The n*n tensor sum of exp(psi2(mu*V, V)) over the nodes V = x_i + i*x_j."""
    total = 0j
    for lo in range(0, x.size, 256):  # by row blocks, to keep memory small
        V = (x[lo : lo + 256, None] + 1j * x[None, :])[..., None]
        total += w[lo : lo + 256].dot(np.exp(psi2(mu * V, V))).dot(w)
    return total


@pytest.mark.parametrize(
    "rung, previous", [(128, 90), (256, 128), (512, 256), (1024, 512), (1400, 1024)]
)
def test_line_integral_equals_literal_tensor_sum(rung, previous):
    """The factorised line sum is the n*n tensor rule, at every node count of the ladder."""
    rng = np.random.default_rng(rung)
    for _ in range(3):
        # on the unit circle the line rule asks for 36.9*cot(phi/2) + 90 nodes
        need = rng.uniform(previous + 1, rung - 1)
        phi = 2.0 * np.arctan(36.9 / (need - 90.0)) * rng.choice([-1.0, 1.0])
        mu = complex(np.exp(1j * phi))
        x, w = gaussian_line_rule(1.0 - mu.real, abs(mu.imag))
        assert x.size == rung
        literal = _literal_line_sum(mu, x, w)
        assert abs(_line_integral(mu) - literal) <= 1e-13 * abs(literal)


def _sorted_by_angle(eigs):
    return eigs[np.argsort(np.angle(eigs) % (2.0 * np.pi))]


def _random_unitary(rng, c, phases):
    g = rng.normal(size=(c, c)) + 1j * rng.normal(size=(c, c))
    Q = np.linalg.qr(g)[0]
    return (Q * np.exp(1j * np.asarray(phases))) @ Q.conj().T


def test_unitary_eigenbasis_matches_schur():
    from scipy.linalg import schur  # test-local oracle: production uses numpy only

    rng = np.random.default_rng(15)
    cases = [
        _random_unitary(rng, c, rng.uniform(0.2, 2.0 * np.pi - 0.2, size=c))
        for c in (1, 2, 3, 4)
        for _ in range(10)
    ]
    cases.append(_random_unitary(rng, 3, [np.pi, np.pi, np.pi / 2]))  # diag(-1, -1, i)
    cases += [-np.eye(c, dtype=complex) for c in (1, 2, 3)]
    for A in cases:
        eigs, U = unitary_eigenbasis(A)
        T = schur(A, output="complex")[0]
        assert np.abs(_sorted_by_angle(eigs) - _sorted_by_angle(np.diag(T))).max() < 1e-13
        assert np.abs(U.conj().T @ U - np.eye(A.shape[0])).max() < 1e-13
        assert np.abs(A - (U * eigs) @ U.conj().T).max() < 1e-13


def test_unitary_eigenbasis_rejects_eigenvalue_one():
    with pytest.raises(CleanLocusError):
        unitary_eigenbasis(np.eye(2, dtype=complex))


def test_gaussian_integral_rejects_non_clean():
    with pytest.raises(CleanLocusError):
        gaussian_normal_integral(np.eye(2, dtype=complex))


def test_gaussian_integral_c0_is_one():
    res = gaussian_normal_integral(np.zeros((0, 0), dtype=complex))
    assert res.closed_form == 1.0


def test_local_prediction_phase_coherence(model12, chart12):
    win = Window("gaussian", np.pi, 0.15)
    pred = local_prediction(model12, chart12, win)
    for lam in (10.0, 101.25, 333.5):
        val = complex(predict_local(pred, np.zeros(1, dtype=complex), lam))
        want = (-lam * np.pi) % (2 * np.pi)
        got = np.angle(val) % (2 * np.pi)
        assert min(abs(got - want), 2 * np.pi - abs(got - want)) < 1e-10


def test_predict_local_frame_invariance(model12, chart12):
    """Rotating the normal frame leaves the prediction invariant."""
    win = Window("gaussian", np.pi, 0.15)
    pred = local_prediction(model12, chart12, win)
    rng = np.random.default_rng(14)
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
    u = np.array([0.37 - 0.21j])
    # a unitary change of normal frame maps (A, u) -> (V A V^H, V u)
    import dataclasses

    rotated = dataclasses.replace(pred, normal_map=phase * pred.normal_map * np.conj(phase))
    a = predict_local(pred, u, 250.0)
    b = predict_local(rotated, phase * u, 250.0)
    assert abs(a - b) < 1e-12 * abs(a)


def test_component_f_integrals(model12):
    comp_pi = fixed_components(model12, np.pi)[0]
    assert abs(component_f_integral(model12, comp_pi) - 0.5) < 1e-14
    comp_0 = fixed_components(model12, 0.0)[0]
    # pi * int_0^1 (2 - t)^{-2} dt = pi/2
    assert abs(component_f_integral(model12, comp_0) - np.pi / 2) < 1e-12


def _simplex_f_integral(model, comp, degree=120):
    """pi^m times the integral of f^{-(m+1)} over the component's weight
    simplex by `simplex_rule` quadrature: the oracle of the closed form."""
    sub = model.weight_array[list(comp.index_set)]
    m = comp.f_j
    nodes, wts = simplex_rule(m, degree)
    f = nodes @ sub[:-1] + (1.0 - nodes.sum(axis=1)) * sub[-1]
    return float(np.pi**m * (wts * f ** (-(m + 1))).sum())


@pytest.mark.parametrize("weights", [(1, 1, 2), (1, 2, 3), (1, 1, 1, 2), (2, 3, 5, 7)])
def test_component_f_integral_matches_simplex_quadrature(weights):
    model = make_model(weights)
    for comp in fixed_components(model, 0.0):
        closed = component_f_integral(model, comp)
        assert abs(closed - _simplex_f_integral(model, comp)) < 1e-13 * closed


def test_predict_global_values(model12):
    win = Window("gaussian", np.pi, 0.15)
    comp_pi = fixed_components(model12, np.pi)[0]
    lam = 300.5
    val = predict_global_component(model12, comp_pi, win, lam)
    ref = (np.pi / 2) * np.exp(-1j * np.pi * lam)
    assert abs(val - ref) < 1e-12
    win0 = Window("gaussian", 0.0, 0.15)
    comp_0 = fixed_components(model12, 0.0)[0]
    val0 = predict_global_component(model12, comp_0, win0, lam)
    assert abs(val0 - np.pi * lam) < 1e-9


def test_predictions_take_their_phase_at_the_period():
    # the double nearest pi is below it by 1.2e-16, which e^{-i lam tau0}
    # would carry as a phase of 1.2e-11 at lam = 1e5
    model = make_model((1, 1, 1, 2))
    comp = fixed_components(model, np.pi)[0]
    assert comp.period == Fraction(1, 2)
    win = Window("gaussian", np.pi, 0.15)
    lams = np.array([1e5, 1e5 + 1, 1e5 + 0.5])
    val = predict_global_component(model, comp, win, lams)
    assert np.all(np.abs(np.angle(val * np.array([1, -1, 1j]))) < 1e-15)
    assert np.isnan(predict_global_component(model, comp, win, [np.nan, np.inf])).all()
    x0 = np.zeros(4, dtype=complex)
    x0[3] = 1.0
    chart = heisenberg_chart(model, x0, np.pi)
    local = predict_local(local_prediction(model, chart, win), np.zeros(3), lams)
    assert np.all(np.abs(np.angle(local * np.array([1, -1, 1j]))) < 1e-15)


def test_stationary_point_check(model12):
    x0 = np.array([0.0, 1.0 + 0j])
    chk = stationary_point_check(model12, x0, np.array([1.0, 0.0, 0.0]))
    assert chk.pairing == -2.0  # -f(x0) * omega_0
    assert chk.grad_norm_at_seed < 1e-12
    assert np.allclose(chk.seed_point, [0.0, 0.5, 0.0, 0.5])
    assert chk.det_rel_error < 1e-6
    with pytest.raises(DegenerateDirectionError):
        stationary_point_check(model12, x0, np.array([-1.0, 0.0, 0.0]))


def test_fit_expansion_recovers_synthetic_ladder():
    grid = np.geomspace(50.0, 2000.0, 20)
    ratios = 1.0 + 3.0 / np.sqrt(grid) - 0.8 / grid
    fit = fit_expansion((grid, ratios), half_powers=True, n_terms=2)
    assert abs(fit.coefficients[0] - 3.0) < 1e-9
    assert abs(fit.coefficients[1] + 0.8) < 1e-7
    assert fit.residuals[-1] < 1e-10
    assert fit.residuals[0] > fit.residuals[-1]
    assert abs(fit.measured_slope + 0.5) < 0.02


def test_fit_expansion_integer_ladder():
    grid = np.geomspace(100.0, 1000.0, 15)
    ratios = 1.0 + 2.0 / grid
    fit = fit_expansion((grid, ratios), half_powers=False, n_terms=1)
    assert abs(fit.coefficients[0] - 2.0) < 1e-10


def test_fit_expansion_needs_points():
    with pytest.raises(FitError):
        fit_expansion((np.array([10.0, 20.0]), np.array([1.0, 1.0])), n_terms=3)


@pytest.mark.parametrize(
    "period",
    [Fraction(1, 2), Fraction(-1, 2), Fraction(2, 5), Fraction(-13, 7), Fraction(0),
     Fraction(7, 210), Fraction(2 * 10**9 + 1, 2), Fraction(-(10**9) - 1, 3), Fraction(1, 2**40)],
)
def test_period_phase_is_the_fraction_path_bit_for_bit(period):
    # the int64 reduction over the grid gives exactly the phases of the exact
    # turns -lam * period (`turn_phase`), including p ~ 1e9, subnormal and
    # huge lam, and the non-finite lam that map to NaN
    rng = np.random.default_rng(abs(hash(period)) % 2**32)
    lams = np.concatenate([
        rng.uniform(-1e3, 1e3, 300), rng.uniform(0.0, 1e12, 100),
        np.round(rng.uniform(-1e6, 1e6, 100)),
        rng.uniform(-1.0, 1.0, 100) * 2.0 ** rng.integers(-1070, 70, 100),
        [0.0, -0.0, 0.5, 2.5, 1e300, 5e-324, 2.0**53, 2.0**60],
    ])
    turns = [-Fraction(x) * period for x in lams.tolist()]
    assert _period_phase(period, lams).tolist() == turn_phase(turns).tolist()
    edge = _period_phase(period, np.array([np.inf, np.nan, -np.inf, 1.0]))
    assert np.isnan(edge[:3]).all() and edge[3] == turn_phase([-period])[0]
