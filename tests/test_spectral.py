import json
import math
import time

import numpy as np
import pytest

from tracelab import cli, spectral
from tracelab.errors import CacheError, CoverageError, InputError, QuadratureError
from tracelab.geometry import flow_sphere, make_model
from tracelab.harness import ExperimentConfig
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


_INPUT_FAULTS = {
    "weights-fractional": (lambda m: make_model((1, 2.5)), InputError),
    "weights-string": (lambda m: make_model("12"), InputError),
    "degree-block-negative": (lambda m: degree_block(m, -1), InputError),
    "monomial-norms-negative": (lambda m: monomial_norms(m, -1), InputError),
    "multi-indices-negative": (lambda m: multi_indices(1, -1), InputError),
    "section-dimension-negative": (lambda m: section_dimension(1, -3), InputError),
    "eigendata-fractional": (lambda m: eigendata(m, 2.5), InputError),
    "toeplitz-fractional": (lambda m: toeplitz_matrix(m, 2.5), InputError),
    "toeplitz-past-the-work-limit": (lambda m: toeplitz_matrix(m, 1000), CoverageError),
    "toeplitz-112-past-the-work-limit": (lambda m: toeplitz_matrix(make_model((1, 1, 2)), 19),
                                         CoverageError),
}


@pytest.mark.parametrize("fault", list(_INPUT_FAULTS))
def test_model_and_degree_inputs_are_refused(fault, model12, monkeypatch):
    # (1, 2.5) and "12" silently built the weights (1, 2) and (1, 2), negative
    # degrees gave empty blocks or numpy's ValueError, a fractional one a
    # TypeError, and toeplitz_matrix on (1, 2) ran past 120 s at degree 1000;
    # past its work limit it now refuses before building its quadrature rule
    def built(*args):
        raise AssertionError("the quadrature rule was built")

    monkeypatch.setattr(spectral, "toeplitz_rule", built)
    call, error = _INPUT_FAULTS[fault]
    with pytest.raises(error):
        call(model12)


@pytest.mark.parametrize("weights, first", [((1, 2), 179), ((1, 1, 2), 19), ((1, 1, 1, 2), 7)])
def test_toeplitz_work_limit_refuses_the_same_first_degree(weights, first, monkeypatch):
    # the work estimate reads `toeplitz_rule`'s node counts from the
    # quadrature's own formula: the first refused degree stays where it was,
    # and the degree below it passes the estimate to build the rule
    def built(*args):
        raise AssertionError("the quadrature rule was built")

    monkeypatch.setattr(spectral, "toeplitz_rule", built)
    with pytest.raises(CoverageError, match=f"degree {first} "):
        toeplitz_matrix(make_model(weights), first)
    with pytest.raises(AssertionError, match="was built"):
        toeplitz_matrix(make_model(weights), first - 1)


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


def test_multi_indices_refuse_a_float_degree_after_the_int_is_cached():
    # the degree check runs on every call, not only on a cache miss
    assert multi_indices(1, 2).shape == (3, 2)
    for degree in (2.0, 3.0):
        with pytest.raises(InputError, match="nonnegative integer"):
            multi_indices(1, degree)


def test_multi_indices_are_read_only_and_ranked():
    first = multi_indices(2, 6)
    assert multi_indices(2, 6) is first  # memoised
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 1
    for d, k in [(1, 9), (2, 6), (3, 5)]:
        binom = np.array([[math.comb(x, r) for r in range(d + 1)] for x in range(k + d)])
        partial = np.cumsum(multi_indices(d, k)[:, :d], axis=1)
        rank = spectral._index_rank(partial, k, binom)
        assert np.array_equal(rank, np.arange(section_dimension(d, k)))


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
    blocks = toeplitz_matrix(make_model(weights), k)
    assert len(blocks) == k + 1
    for j, op in enumerate(blocks):
        off = op - np.diag(np.diag(op))
        assert np.abs(off).max() < 1e-10
        expected = multi_indices(len(weights) - 1, j) @ np.array(weights, dtype=float)
        assert np.abs(np.diag(op).real - expected).max() < 1e-10


@pytest.mark.parametrize("weights,k,degrees", [((1, 2), 30, (0, 7, 19, 29)),
                                               ((1, 1, 2), 12, (3, 8)), ((1, 2, 3), 12, (3, 8))])
def test_toeplitz_blocks_do_not_depend_on_the_rule(weights, k, degrees):
    """The degree-k rule is exact for every lower degree: its blocks match each degree's own rule."""
    model = make_model(weights)
    blocks = toeplitz_matrix(model, k)
    for j in degrees:
        assert np.abs(blocks[j] - toeplitz_matrix(model, j)[j]).max() < 1e-11, j


def test_toeplitz_fd_derivative_route_agrees(model12):
    """The closed-form derivative of the assembly matches central differences of the monomials."""
    blocks = toeplitz_matrix(model12, 6)
    assert len(blocks) == 7
    assert max(np.abs(op - _literal_toeplitz(model12, j, "fd", 6)).max()
               for j, op in enumerate(blocks)) < 1e-6


def _literal_toeplitz(model, k, route, rule_degree):
    """Node-by-node assembly of the degree-k block over the flattened rule of
    degree ``rule_degree``: conj(V) w V^T and conj(V) w (iD)^T, with D the
    monomials differentiated along the field in closed form (route
    "analytic") or by central differences of step 1e-6 (route "fd")."""
    block = degree_block(model, k)
    z, w = sphere_rule(model.dim, rule_degree + 2, rule_degree + 2)
    field = spectral.contact_field(model, z)
    V = monomial_values(block.exponents, z)  # (m, dim)
    if route == "analytic":
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


# the literal sum matches the assembly to rounding by the same derivative, and
# to the central difference's error by the other
ROUTE_TOL = {"analytic": 1e-12, "fd": 1e-8}


@pytest.mark.parametrize("route", ["analytic", "fd"])
@pytest.mark.parametrize(
    "weights,k", [((1, 2), 0), ((1, 2), 3), ((1, 2), 8), ((1, 1, 2), 2), ((1, 1, 2), 6),
                  ((1, 2, 3), 1), ((1, 2, 3), 5), ((1, 1, 1, 2), 1), ((1, 1, 1, 2), 2)],
)
def test_toeplitz_matches_literal_node_sum(weights, k, route):
    """The folded, sum-factorised assembly is the node-by-node quadrature sum, reordered.

    Every block of degree j <= k is summed over the degree-k rule, as the
    assembly does.  (1, 1, 1, 2) at k = 1 and 2 (even and odd n_angles) runs
    the fold and a three-dimensional FFT.
    """
    model = make_model(weights)
    factorised = toeplitz_matrix(model, k)
    assert len(factorised) == k + 1
    for j, op in enumerate(factorised):
        assert np.abs(op - _literal_toeplitz(model, j, route, k)).max() < ROUTE_TOL[route], j


@pytest.mark.parametrize("route", ["analytic", "fd"])
@pytest.mark.parametrize(
    "weights,k,coupled",
    [((1, 2), 4, (0, 1)), ((1, 1, 2), 3, (1, 2)), ((1, 1, 1, 2), 1, (0, 3)),
     ((1, 1, 1, 2), 2, (2, 3))],
)
def test_toeplitz_detects_phase_dependent_field(monkeypatch, weights, k, coupled, route):
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
    blocks = toeplitz_matrix(model, k)
    assert len(blocks) == k + 1
    for degree, factorised in enumerate(blocks):
        literal = _literal_toeplitz(model, degree, route, k)
        assert np.abs(factorised - literal).max() < ROUTE_TOL[route]

        block = degree_block(model, degree)
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
        assert np.abs(factorised - expected).max() < 1e-12
        if degree > 0:  # degree 0 is one constant section, which no field couples
            off = factorised - np.diag(np.diag(factorised))
            assert 0.5 * eps < np.abs(off).max() < 10 * eps, degree


@pytest.mark.parametrize("weights,k", [((1, 2), 20), ((1, 1, 2), 7)])
def test_toeplitz_blocks_do_not_depend_on_the_chunks(monkeypatch, weights, k):
    """One degree per chunk or all degrees in one: the same blocks."""
    model = make_model(weights)
    monkeypatch.setattr(spectral, "_PAIR_ENTRIES", 1)
    per_degree = toeplitz_matrix(model, k)
    monkeypatch.setattr(spectral, "_PAIR_ENTRIES", 1 << 30)
    for alone, together in zip(per_degree, toeplitz_matrix(model, k), strict=True):
        assert alone.shape == together.shape and np.abs(alone - together).max() < 1e-13


def test_toeplitz_gram_tolerance_still_enforced(model12, monkeypatch):
    """Each degree's Gram check survives the chunked assembly: the first
    degree past the tolerance, here k = 0 (a 1.1e-16 residual), is named."""
    monkeypatch.setattr(spectral, "_GRAM_TOL", 1e-300)
    with pytest.raises(QuadratureError, match="under-resolved at k=0:"):
        toeplitz_matrix(model12, 4)


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
    assembled = np.concatenate([np.linalg.eigvalsh(op) for op in toeplitz_matrix(model12, 8)])
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


def test_multiplicities_exact_up_to_the_int64_guard():
    # eleven weights 1: counts[n] = C(n + 10, 10); the guard refuses k_max 255,
    # the first whose C(k_max + 11, 11) monomials pass 2^63, and 254 is exact
    counts = spectral._multiplicities((1,) * 11, 254)
    assert [int(c) for c in counts] == [math.comb(n + 10, 10) for n in range(255)]
    with pytest.raises(CoverageError, match="int64"):
        spectral._multiplicities((1,) * 11, 255)


def test_multiplicity_work_cap(monkeypatch):
    # k_max (d + 1)(k_max w_max + 1) entry-steps: (1, 2) at k_max 2 takes 20
    monkeypatch.setattr(spectral, "_MULTIPLICITY_WORK_MAX", 20)
    assert spectral._multiplicities((1, 2), 2).tolist() == [1, 1, 2, 1, 1]
    with pytest.raises(CoverageError, match="entry-steps"):
        spectral._multiplicities((1, 2), 3)


@pytest.mark.parametrize(
    "weights, kmax",
    [("1,1,1,1,1,1,1,1,1,1,1", "1000"),  # wrapped int64: 346 negative counts
     ("1,2", "100000000")],  # a 3.2 GB table, still running after 60 s
)
def test_cli_spectrum_refuses_tables_it_cannot_count(tmp_path, capsys, weights, kmax):
    start = time.perf_counter()
    assert cli.main(["spectrum", "--weights", weights, "--kmax", kmax, "--out", str(tmp_path)]) == 3
    assert time.perf_counter() - start < 1.0  # refused before anything is allocated
    assert capsys.readouterr().err.startswith("error: multiplicities to degree")


@pytest.mark.parametrize("weights, kmax", [("1,1,1,1,1,1,1,1,1,1,1", "1000"), ("1,2", "100000000")])
def test_spectrum_refuses_before_creating_its_output(tmp_path, capsys, weights, kmax):
    # the guards of `_multiplicities` run when the config is checked, so the
    # refusal (exit 3) leaves no output directory behind
    out = tmp_path / "D"
    assert cli.main(["spectrum", "--weights", weights, "--kmax", kmax, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: multiplicities to degree")
    assert not out.exists()
    with pytest.raises(CoverageError, match="multiplicities to degree"):
        ExperimentConfig(kind="spectrum", weights=tuple(map(int, weights.split(","))), k_max=int(kmax))


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
    meta = {"weights": None, "k_max": None, "coverage_max": float("inf"), "format": _CACHE_FORMAT}
    digest = np.frombuffer(bytes.fromhex(_payload_digest(arrays, meta)), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.bytes_(json.dumps(meta, sort_keys=True).encode()),
                 checksum=digest, **arrays)


def test_weightless_cache_is_cache_error(tmp_path):
    path = tmp_path / "toy.npz"
    write_weightless_cache(path)
    with pytest.raises(CacheError, match="incomplete"):
        SpectralPackage.load(path)


def test_cache_with_lift_keys_still_loads(tmp_path):
    """Format-2 files also stored the lift convention; the checksum covers those
    keys and the load ignores them."""
    from tracelab.spectral import _CACHE_FORMAT, _payload_digest

    pkg = eigendata(make_model((1, 2)), 6)
    arrays = {"values": pkg.values, "multiplicities": pkg.multiplicities}
    meta = {"weights": [1, 2], "lift_sign": -1, "lift_shift": 0.0, "k_max": 6,
            "coverage_max": pkg.coverage_max, "format": _CACHE_FORMAT}
    digest = np.frombuffer(bytes.fromhex(_payload_digest(arrays, meta)), dtype=np.uint8)
    path = tmp_path / "pkg.npz"
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.bytes_(json.dumps(meta, sort_keys=True).encode()),
                 checksum=digest, **arrays)
    loaded = SpectralPackage.load(path)
    assert loaded.model.weights == (1, 2) and loaded.k_max == 6
    assert np.array_equal(loaded.lambda_all, pkg.lambda_all)


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
