import math

import numpy as np
import pytest

from tracelab.errors import QuadratureError
from tracelab.quadrature import (
    _legendre_reference,
    fubini_study_volume,
    gauss_legendre,
    gaussian_line_rule,
    simplex_rule,
    sphere_product_rule,
    sphere_rule,
)


def test_gauss_legendre_polynomial_exactness():
    x, w = gauss_legendre(8, 0.0, 1.0)
    for p in range(16):
        assert abs(np.dot(w, x**p) - 1.0 / (p + 1)) < 1e-14


def test_gauss_legendre_interval_transform():
    x, w = gauss_legendre(12, -2.0, 5.0)
    assert abs(w.sum() - 7.0) < 1e-13
    assert abs(np.dot(w, np.exp(x)) - (math.exp(5) - math.exp(-2))) < 1e-9


def test_gauss_legendre_memoised_rule_is_unchanged():
    """The memoised reference rule gives the same bits, and callers cannot corrupt it."""
    for n in (1, 7, 90):
        ref_x, ref_w = (a.copy() for a in _legendre_reference(n))
        for _ in range(2):
            x, w = gauss_legendre(n, -3.0, 5.0)
            assert np.array_equal(x, 4.0 * (ref_x + 1.0) - 3.0)
            assert np.array_equal(w, 4.0 * ref_w)
            x[:] = np.nan  # the returned arrays are the caller's own
        memo_x, memo_w = _legendre_reference(n)
        assert memo_x is _legendre_reference(n)[0]
        assert not memo_x.flags.writeable and not memo_w.flags.writeable
        with pytest.raises(ValueError):
            memo_w[0] = 0.0
        assert np.array_equal(memo_x, ref_x) and np.array_equal(memo_w, ref_w)
    x, w = gauss_legendre(7)
    assert np.array_equal(x, 0.5 * (_legendre_reference(7)[0] + 1.0))


def _mpmath_legendre_node(mp, n, x0):
    """The Gauss-Legendre node next to x0 and its weight, at 40 digits: Newton's
    method on the recurrence from x0, then 2/((1 - x^2) P_n'(x)^2)."""

    def value_slope(x):
        prev, cur = mp.mpf(1), x
        for j in range(2, n + 1):
            prev, cur = cur, ((2 * j - 1) * x * cur - (j - 1) * prev) / j
        return cur, n * (x * cur - prev) / (x * x - 1)

    with mp.workdps(40):
        x = mp.mpf(float(x0))
        for _ in range(2):  # quadratic from a double: two steps pass 40 digits
            p, dp = value_slope(x)
            x -= p / dp
        _, dp = value_slope(x)
        return x, 2 / ((1 - x * x) * dp * dp)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 33, 128, 200, 256, 512, 1024, 1400])
def test_gauss_legendre_rule_against_mpmath(n):
    """Sampled nodes (both ends included) within 2e-16, weights within 1e-11
    relative; numpy's eigenvalue-based `leggauss` misses that weight bound
    from n = 128 on (1.4e-11 at n = 128, 2.2e-11 at n = 200, 1.2e-8 at
    n = 1400)."""
    mp = pytest.importorskip("mpmath")
    x, w = _legendre_reference(n)
    samples = {0, 1, n // 7, n // 2, n - 1} & set(range(n))
    for i in sorted(samples):
        ref_x, ref_w = _mpmath_legendre_node(mp, n, x[i])
        assert abs(float(x[i] - ref_x)) <= 2e-16, (n, i)
        assert abs(float((w[i] - ref_w) / ref_w)) <= 1e-11, (n, i)


@pytest.mark.parametrize("n", list(range(1, 40)) + [128, 200, 256, 512, 1024, 1400])
def test_gauss_legendre_rule_is_symmetric_and_positive(n):
    x, w = _legendre_reference(n)
    assert x.shape == w.shape == (n,)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert (np.diff(x) > 0).all() and -1.0 < x[0] and x[-1] < 1.0
    assert (w > 0).all()
    assert abs(math.fsum(w) - 2.0) <= 2e-15
    if n % 2:
        assert x[n // 2] == 0.0 and not np.signbit(x[n // 2])  # +0.0, not -0.0


@pytest.mark.parametrize("n", range(1, 13))
def test_gauss_legendre_rule_is_exact_to_degree_2n_minus_1(n):
    x, w = _legendre_reference(n)
    for p in range(2 * n):
        exact = 2.0 / (p + 1) if p % 2 == 0 else 0.0
        assert abs(np.dot(w, x**p) - exact) <= 1e-15, (n, p)


def test_gauss_legendre_rule_refuses_instead_of_iterating_on(monkeypatch):
    from tracelab import quadrature

    monkeypatch.setattr(quadrature, "_NEWTON_SWEEPS", 1)  # Tricomi's guesses are not 1e-15 close
    with pytest.raises(QuadratureError, match="did not converge"):
        quadrature._legendre_reference.__wrapped__(200)
    with pytest.raises(ValueError):
        quadrature._legendre_reference.__wrapped__(0)


@pytest.mark.parametrize("decay, rate", [(0.3, 0.0), (1.2, 2.5), (0.05, 0.4)])
def test_gaussian_line_rule_integrates_a_gaussian(decay, rate):
    x, w = gaussian_line_rule(decay, rate)
    V = x[:, None] + 1j * x[None, :]  # the square tensor grid
    vals = np.exp((-decay + 1j * rate) * np.abs(V) ** 2)
    got = w.dot(vals).dot(w)
    exact = np.pi / (decay - 1j * rate)  # integral over C of exp(-(decay - i rate)|v|^2)
    assert abs(got - exact) < 1e-10 * abs(exact)


def test_gaussian_line_rule_rounds_up_to_the_ladder():
    """Node counts cover the sizing formula and take at most five values."""
    sizes = set()
    for rate in np.linspace(0.0, 60.0, 301):
        x, w = gaussian_line_rule(1.0, rate)
        need = min(int(0.45 * rate * 82.0) + 90, 1400)
        assert x.size == w.size >= need
        assert x.size < 2 * need or x.size == 128
        sizes.add(x.size)
    assert sizes == {128, 256, 512, 1024, 1400}


@pytest.mark.parametrize("d", [1, 2, 3])
def test_simplex_rule_volume(d):
    _, w = simplex_rule(d, 6)
    assert abs(w.sum() - 1.0 / math.factorial(d)) < 1e-14


@pytest.mark.parametrize(
    "d,alpha",
    [(1, (3,)), (2, (2, 1)), (2, (0, 4)), (3, (1, 1, 2))],
)
def test_simplex_rule_monomials(d, alpha):
    # int_simplex t^alpha dt = prod(alpha_i!) / (|alpha| + d)!
    nodes, w = simplex_rule(d, 2 * sum(alpha) + 2)
    val = np.dot(w, np.prod(nodes**np.array(alpha), axis=1))
    ref = np.prod([math.factorial(a) for a in alpha]) / math.factorial(sum(alpha) + d)
    assert abs(val - ref) < 1e-14


@pytest.mark.parametrize("d", [1, 2])
def test_sphere_rule_monomial_norms(d):
    k = 3
    z, w = sphere_rule(d, 2 * k + 1, 2 * k + 1)
    for alpha in [(k,) + (0,) * d, (1,) * (d + 1) if d + 1 <= k else (k,) + (0,) * d]:
        alpha = np.array(alpha[: d + 1])
        kk = alpha.sum()
        vals = np.prod(np.abs(z) ** (2 * alpha), axis=1)
        ref = (
            np.pi**d
            * np.prod([math.factorial(a) for a in alpha])
            / math.factorial(kk + d)
        )
        assert abs(np.dot(w, vals) - ref) < 1e-14


def test_sphere_rule_total_mass():
    for d in (1, 2):
        _, w = sphere_rule(d, 5, 3)
        assert abs(w.sum() - np.pi**d / math.factorial(d)) < 1e-13


@pytest.mark.parametrize("d", [1, 2])
def test_sphere_rule_flattens_product_rule(d):
    rule = sphere_product_rule(d, 5, 4)
    z, w = sphere_rule(d, 5, 4)
    nodes = rule.nodes()
    assert nodes.shape == (rule.t.shape[0],) + (rule.n_angles,) * (d + 1) + (d + 1,)
    assert np.array_equal(z, nodes.reshape(-1, d + 1))
    assert np.array_equal(w, np.repeat(rule.weights, rule.n_angles ** (d + 1)))
    assert np.allclose(np.abs(nodes) ** 2, rule.t.reshape((-1,) + (1,) * (d + 1) + (d + 1,)))
    assert np.array_equal(rule.nodes(slice(2, 4)), nodes[2:4])


@pytest.mark.parametrize("d,degree", [(1, 4), (1, 5), (2, 3), (3, 4)])
def test_folded_angle_grid_permutes_the_meshgrid(d, degree):
    """The diagonal-indexed angle grid holds the meshgrid's nodes, bit for bit."""
    rule = sphere_product_rule(d, degree, degree)
    n = rule.n_angles
    angles = 2.0 * np.pi * np.arange(n) / n
    meshgrid = np.exp(1j * np.stack(np.meshgrid(*[angles] * (d + 1), indexing="ij"), axis=-1))
    # grid point (m'_0, .., m'_{d-1}, s) is the meshgrid node (m' + s, .., s) mod n
    axes = np.indices((n,) * (d + 1))
    m = np.concatenate([(axes[:-1] + axes[-1]) % n, axes[-1:]])
    flat = np.ravel_multi_index(tuple(m), (n,) * (d + 1)).ravel()
    assert np.array_equal(np.sort(flat), np.arange(n ** (d + 1)))
    assert np.array_equal(rule.phase_factors, meshgrid[tuple(m)])

    # the flattened rule is the meshgrid rule's (node, weight) list, permuted
    z, w = sphere_rule(d, degree, degree)
    root_t = np.sqrt(rule.t).reshape((-1,) + (1,) * (d + 1) + (d + 1,))
    old_z = (root_t * meshgrid).reshape(-1, d + 1)
    old_w = np.repeat(rule.weights, n ** (d + 1))
    assert rule.size == len(z) == len(old_z)
    new_order = np.lexsort(np.concatenate([z.real, z.imag], axis=1).T)
    old_order = np.lexsort(np.concatenate([old_z.real, old_z.imag], axis=1).T)
    assert np.array_equal(z[new_order], old_z[old_order])
    assert np.array_equal(w[new_order], old_w[old_order])
    assert w.sum() == old_w.sum()
    assert abs(w.sum() - np.pi**d / math.factorial(d)) < 1e-13


@pytest.mark.parametrize("d", [1, 2, 3])
def test_fubini_study_volume(d):
    assert abs(fubini_study_volume(d) - np.pi**d / math.factorial(d)) < 1e-9
