import json
import math

import numpy as np
import pytest

from tracelab import spectral
from tracelab.errors import CacheError, CoverageError, QuadratureError
from tracelab.geometry import flow_sphere, make_model
from tracelab.quadrature import sphere_rule
from tracelab.spectral import (
    SpectralPackage,
    degree_block,
    eigendata,
    eigensection_values,
    monomial_norms,
    monomial_norms_quadrature,
    monomial_values,
    multi_indices,
    section_dimension,
    szego_diagonal,
    toeplitz_matrix,
)


@pytest.fixture(scope="module")
def model12():
    return make_model((1, 2))


def test_multi_indices_count_and_order():
    for d, k in [(1, 7), (2, 5), (3, 4)]:
        idx = multi_indices(d, k)
        assert len(idx) == math.comb(k + d, d) == section_dimension(d, k)
        assert all(sum(a) == k for a in idx)
    assert np.array_equal(multi_indices(1, 2), [[2, 0], [1, 1], [0, 2]])


def _recursive_multi_indices(d, k):
    """The per-block recursion the stars-and-bars table replaced."""
    if d == 0:
        return np.array([[k]], dtype=np.int64)
    blocks = []
    for first in range(k, -1, -1):
        tail = _recursive_multi_indices(d - 1, k - first)
        blocks.append(np.column_stack([np.full(len(tail), first, dtype=np.int64), tail]))
    return np.concatenate(blocks)


def test_multi_indices_match_the_recursion():
    for d in range(4):
        for k in range(41):
            got = multi_indices(d, k)
            assert got.dtype == np.int64
            assert np.array_equal(got, _recursive_multi_indices(d, k)), (d, k)


@pytest.mark.parametrize("k", [0, 1, 4, 6])
def test_monomial_norms_against_quadrature(model12, k):
    exact = monomial_norms(model12, k)
    quad = monomial_norms_quadrature(model12, k)
    assert np.abs(quad / exact - 1.0).max() < 1e-12


def test_monomial_norms_closed_form(model12):
    # ||z^alpha||^2 = pi^d alpha! / (k+d)!
    norms = monomial_norms(model12, 3)
    for alpha, n in zip(multi_indices(1, 3), norms):
        ref = np.pi * math.factorial(alpha[0]) * math.factorial(alpha[1]) / math.factorial(4)
        assert abs(n**2 - ref) < 1e-15


@pytest.mark.parametrize("d", [1, 2, 3])
def test_monomial_norms_match_log_gamma(d):
    """Exact-factorial log norms agree with gammaln to a few ulps of each log term."""
    from scipy.special import gammaln  # test-local oracle: production uses exact factorials

    model = make_model((1, 2, 3, 5)[: d + 1])
    for k in range(0, 61, 1 if d < 3 else 10):  # d = 3 has ~40k indices at k = 60
        log_alpha = gammaln(multi_indices(d, k) + 1.0).sum(axis=1)
        log_top, log_pi = gammaln(k + d + 1.0), d * math.log(math.pi)
        ref = np.exp(0.5 * (log_pi + log_alpha - log_top))
        tol = 4.0 * np.finfo(float).eps * (1.0 + log_pi + log_alpha + log_top)
        assert np.all(np.abs(monomial_norms(model, k) / ref - 1.0) <= tol)


_TOEPLITZ_CASES = [pytest.param((1, 2), k, id=str(k)) for k in (0, 1, 2, 5, 11)] + [
    pytest.param(w, k, id=f"{''.join(map(str, w))}-{k}")
    for w in ((1, 1, 2), (1, 2, 3))
    for k in (0, 1, 5, 12)
]


@pytest.mark.parametrize("weights,k", _TOEPLITZ_CASES)
def test_toeplitz_diagonal_with_exact_eigenvalues(weights, k):
    op = toeplitz_matrix(make_model(weights), k)
    off = op - np.diag(np.diag(op))
    assert np.abs(off).max() < 1e-10
    expected = multi_indices(len(weights) - 1, k) @ np.array(weights, dtype=float)
    assert np.abs(np.diag(op).real - expected).max() < 1e-10


def test_toeplitz_fd_derivative_route_agrees(model12):
    a = toeplitz_matrix(model12, 6, derivative="analytic")
    b = toeplitz_matrix(model12, 6, derivative="fd")
    assert np.abs(a - b).max() < 1e-6


def _literal_toeplitz(model, k, derivative):
    """Node-by-node assembly over the flattened rule: conj(V) w V^T and conj(V) w (iD)^T."""
    block = degree_block(model, k)
    z, w = sphere_rule(model.dim, k + 2, k + 2)
    field = spectral.contact_field(model, z)
    V = monomial_values(block.exponents, z)  # (m, dim)
    if derivative == "analytic":
        D = V * ((field / z) @ block.exponents.T)
    else:
        h = 1e-6
        D = (monomial_values(block.exponents, z + h * field)
             - monomial_values(block.exponents, z - h * field)) / (2.0 * h)
    Vw = V.conj().T * w
    scale = np.outer(block.norms, block.norms)
    gram = (Vw @ V) / scale
    op = (Vw @ (1j * D)) / scale
    assert np.abs(gram - np.eye(block.dim)).max() < 1e-10
    return 0.5 * (op + op.conj().T)


@pytest.mark.parametrize("derivative", ["analytic", "fd"])
@pytest.mark.parametrize(
    "weights,k", [((1, 2), 0), ((1, 2), 3), ((1, 2), 8), ((1, 1, 2), 2), ((1, 1, 2), 6),
                  ((1, 2, 3), 1), ((1, 2, 3), 5)],
)
def test_toeplitz_matches_literal_node_sum(weights, k, derivative):
    """The sum-factorised assembly is the node-by-node quadrature sum, reordered."""
    model = make_model(weights)
    factorised = toeplitz_matrix(model, k, derivative=derivative)
    literal = _literal_toeplitz(model, k, derivative)
    assert np.abs(factorised - literal).max() < 1e-12


@pytest.mark.parametrize("derivative", ["analytic", "fd"])
@pytest.mark.parametrize("weights,k,coupled", [((1, 2), 4, (0, 1)), ((1, 1, 2), 3, (1, 2))])
def test_toeplitz_detects_phase_dependent_field(monkeypatch, weights, k, coupled, derivative):
    """A field -i(W + eps H)z that breaks the torus symmetry shows up off the diagonal.

    H couples coordinates of different weight, so the field depends on the
    angles; i times its derivative maps z^beta to sum_jl beta_j M_jl
    z^(beta - e_j + e_l), which the rule integrates exactly.
    """
    eps = 1e-3
    model = make_model(weights)
    j, l = coupled
    H = np.zeros((model.dim + 1,) * 2, dtype=complex)
    H[j, l], H[l, j] = 0.6 + 0.8j, 0.6 - 0.8j
    M = np.diag(model.weight_array) + eps * H
    monkeypatch.setattr(spectral, "contact_field", lambda _model, z: -1j * (z @ M.T))
    factorised = toeplitz_matrix(model, k, derivative=derivative)
    literal = _literal_toeplitz(model, k, derivative)
    assert np.abs(factorised - literal).max() < 1e-12

    block = degree_block(model, k)
    expected = np.diag(block.eigenvalues).astype(complex)
    index = {tuple(a): i for i, a in enumerate(block.exponents)}
    for b, beta in enumerate(block.exponents):
        for src, dst in ((j, l), (l, j)):
            if beta[src] > 0:
                alpha = beta.copy()
                alpha[src] -= 1
                alpha[dst] += 1
                a = index[tuple(alpha)]
                expected[a, b] += eps * beta[src] * H[src, dst] * block.norms[a] / block.norms[b]
    tol = 1e-12 if derivative == "analytic" else 1e-8
    assert np.abs(factorised - expected).max() < tol
    off = factorised - np.diag(np.diag(factorised))
    assert 0.5 * eps < np.abs(off).max() < 10 * eps


def test_toeplitz_gram_tolerance_still_enforced(model12):
    with pytest.raises(QuadratureError, match="under-resolved"):
        toeplitz_matrix(model12, 4, gram_tol=1e-300)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("k", [0, 1, 2, 7, 30, 60])
def test_monomial_values_match_literal_powers(d, k):
    """The power-table evaluator agrees with the literal product of complex powers."""
    rng = np.random.default_rng(10 * d + k)
    z = rng.normal(size=(40, d + 1)) + 1j * rng.normal(size=(40, d + 1))
    z[:8, 0] = 0.0  # points with a zero coordinate
    z[8:10, :-1] = 0.0  # the chart centre [0:...:0:1], up to phase
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    exponents = multi_indices(d, k)
    reference = np.prod(z[..., None, :] ** exponents, axis=-1)
    values = monomial_values(exponents, z)
    # Each side is a chain of at most k + d - 1 complex products, each with a
    # relative error of at most sqrt(5)/2 eps, so they differ by < 2.3 (k + d) eps.
    tol = 3 * (k + d) * np.finfo(float).eps
    assert values.shape == reference.shape
    assert np.all(np.abs(values - reference) <= tol * np.abs(reference))
    assert np.array_equal(values == 0, reference == 0)
    batched = monomial_values(exponents, z.reshape(4, 10, d + 1))
    assert np.array_equal(batched, values.reshape(4, 10, -1))


def test_k0_eigenvalue_is_zero(model12):
    pkg = eigendata(model12, 2)
    assert pkg.block(0).eigenvalues.tolist() == [0.0]
    assert pkg.values[0] == 0.0 and pkg.multiplicities[0] == 1


def test_eigendata_routes_agree(model12):
    """The package spectrum equals the eigenvalues of the quadrature-assembled blocks."""
    pkg = eigendata(model12, 8)
    assembled = np.concatenate(
        [np.linalg.eigvalsh(toeplitz_matrix(model12, k)) for k in range(9)]
    )
    assert np.abs(np.sort(assembled) - pkg.lambda_all).max() < 1e-10


def test_blocks_are_built_on_request(model12):
    pkg = eigendata(model12, 5)
    block = pkg.block(5)
    assert block.dim == section_dimension(1, 5)
    assert np.array_equal(block.eigenvalues, block.exponents @ [1.0, 2.0])
    with pytest.raises(CoverageError):
        pkg.block(6)


def test_pullback_eigenproperty(model12):
    """Eigensections satisfy Phi(flow(-tau, x)) = e^{i lam tau} Phi(x)."""
    pkg = eigendata(model12, 6)
    rng = np.random.default_rng(7)
    z = rng.normal(size=(20, 2)) + 1j * rng.normal(size=(20, 2))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    tau = 0.83
    back = flow_sphere(model12, -tau, z)
    for k in range(pkg.k_max + 1):
        before = eigensection_values(pkg, k, z)
        after = eigensection_values(pkg, k, back)
        phases = np.exp(1j * pkg.block(k).eigenvalues * tau)
        assert np.abs(after - before * phases).max() < 1e-10


def test_szego_diagonal_constant(model12):
    pkg = eigendata(model12, 9)
    rng = np.random.default_rng(8)
    z = rng.normal(size=(50, 2)) + 1j * rng.normal(size=(50, 2))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    diag = szego_diagonal(pkg, 9, z)
    ref = section_dimension(1, 9) / np.pi  # dim / vol(X), vol = pi for d=1
    assert np.abs(diag / ref - 1.0).max() < 1e-12


def test_coverage_max(model12):
    pkg = eigendata(model12, 10)
    assert pkg.coverage_max == 11.0  # (k_max + 1) * min(w)


def test_cache_roundtrip_bit_exact(tmp_path, model12):
    pkg = eigendata(model12, 12)
    path = tmp_path / "pkg.npz"
    pkg.save(path)
    loaded = SpectralPackage.load(path)
    assert loaded.k_max == pkg.k_max
    assert loaded.model.weights == pkg.model.weights
    assert loaded.coverage_max == pkg.coverage_max
    assert np.array_equal(loaded.values, pkg.values)
    assert np.array_equal(loaded.multiplicities, pkg.multiplicities)
    assert np.array_equal(loaded.lambda_all, pkg.lambda_all)
    assert [p.name for p in tmp_path.iterdir()] == ["pkg.npz"]  # no temp file left


def write_weightless_cache(path) -> None:
    """A checksummed package file that names no model, as toy packages were saved."""
    from tracelab.spectral import _CACHE_FORMAT, _payload_digest

    arrays = {"values": np.array([1.0, 3.0]), "multiplicities": np.array([1, 2])}
    meta = {"weights": None, "lift_sign": None, "lift_shift": None, "k_max": None,
            "coverage_max": float("inf"), "format": _CACHE_FORMAT}
    digest = np.frombuffer(bytes.fromhex(_payload_digest(arrays, meta)), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.bytes_(json.dumps(meta, sort_keys=True).encode()),
                 checksum=digest, **arrays)


def test_weightless_cache_is_cache_error(tmp_path):
    path = tmp_path / "toy.npz"
    write_weightless_cache(path)
    with pytest.raises(CacheError, match="incomplete"):
        SpectralPackage.load(path)


def test_cache_format_1_is_rejected(tmp_path):
    """Packages written before the compact layout do not load; callers rebuild."""
    path = tmp_path / "old.npz"
    meta = {"weights": [1, 2], "lift_sign": -1, "lift_shift": 0.0, "k_max": 2,
            "coverage_max": 3.0, "route": "analytic", "format": 1}
    np.savez(path, meta=np.bytes_(json.dumps(meta, sort_keys=True).encode()),
             lambda_all=np.array([0.0, 1.0, 2.0]), checksum=np.zeros(32, dtype=np.uint8))
    with pytest.raises(CacheError, match="format"):
        SpectralPackage.load(path)


@pytest.mark.parametrize("blob", [b"", b"PK\x03\x04 truncated", b"not a zip at all"])
def test_cache_garbage_is_cache_error(tmp_path, blob):
    path = tmp_path / "pkg.npz"
    path.write_bytes(blob)
    with pytest.raises(CacheError):
        SpectralPackage.load(path)


def test_cache_corruption_detected(tmp_path, model12):
    pkg = eigendata(model12, 5)
    path = tmp_path / "pkg.npz"
    pkg.save(path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CacheError):
        SpectralPackage.load(path)
