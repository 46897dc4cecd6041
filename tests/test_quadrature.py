import math

import numpy as np
import pytest

from tracelab.quadrature import (
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
        ref_x, ref_w = np.polynomial.legendre.leggauss(n)
        for _ in range(2):
            x, w = gauss_legendre(n, -3.0, 5.0)
            assert np.array_equal(x, 4.0 * (ref_x + 1.0) - 3.0)
            assert np.array_equal(w, 4.0 * ref_w)
            x[:] = np.nan  # the returned arrays are the caller's own
    x, w = gauss_legendre(7)
    assert np.array_equal(x, 0.5 * (np.polynomial.legendre.leggauss(7)[0] + 1.0))


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
