"""Spectral side: section spaces, operator blocks, eigendata, kernels.

Degree-k sections of the k-th power of the polarising line are realised as
homogeneous monomials z^alpha (|alpha| = k) on the sphere; the operator is
the compression of i times the contact field.  `toeplitz_matrix` assembles
its blocks of every degree 0..k by quadrature over one product sphere rule
(moment nodes times a uniform angle grid), the one exact at degree k and so
at every lower degree, sum-factorised: z^alpha = sqrt(t)^alpha
e^{i<alpha,phi>}, so the Gram and operator matrices are angle sums of the
contact field at the frequencies beta - alpha, weighted by sqrt(t)^alpha
sqrt(t)^beta.  Those frequencies sum to zero, so at each moment node the
field is evaluated once, summed along the angle grid's diagonal and
transformed by one d-dimensional FFT.  The moment weight depends on alpha
and beta only through alpha + beta, sqrt(t)^alpha sqrt(t)^beta =
sqrt(t)^(alpha + beta), so the transform is summed over the moment nodes
once per alpha + beta, in one matrix product per chunk of degrees, and
entry (alpha, beta) is gathered at alpha + beta and frequency beta - alpha.  That is the
literal quadrature sum reordered, and it establishes that the monomials are
eigensections with the affine eigenvalue law <alpha, w>.  Monomial values
elsewhere, as in `eigensection_values`, come from one evaluator,
`monomial_values`, which multiplies out a table of coordinate powers and
gathers it by exponent.

A `SpectralPackage` tabulates that law for the ``spectrum`` kind and the
degree-block checks: the distinct integer eigenvalues with their
degree-<=k_max multiplicities (by a coin-counting table over degree and
value) plus the guaranteed spectral coverage interval.  Degree blocks of
eigensections are built only on request.  Traces and kernel sums do not use
it: they sum over every degree (see smoothing.py).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
from dataclasses import dataclass
from numbers import Integral
from pathlib import Path

import numpy as np

from .errors import CacheError, CoverageError, InputError, QuadratureError
from .geometry import ProjectiveModel, check_points, contact_field, make_model
from .quadrature import SphereProductRule, rule_sizes, sphere_product_rule, sphere_rule

# entries per array of one block of moment nodes: 128 KB complex, so a block stays in cache
_BLOCK_ENTRIES = 1 << 13
# entries (alpha, beta) per chunk of `toeplitz_matrix`'s blocks, about 300 transient bytes each
_PAIR_ENTRIES = 1 << 12
# largest entry of |normalised Gram matrix - id| a block's quadrature may leave
_GRAM_TOL = 1e-10
# most entry-steps k_max (d + 1)(k_max w_max + 1) a multiplicity table may take: on
# a 2-core x86, (1, 2) at k_max 4,095 (2^26) takes 0.1 s and at k_max 20,000 1.8 s
_MULTIPLICITY_WORK_MAX = 1 << 26
# most multiply-adds `toeplitz_matrix`'s moment sums may take, about
# C(2k + d + 1, d + 1)/2 moment rows by (k/2 + 2)^d moment nodes by (d + 1)
# (k + 3)^d frequencies: (1, 2) to degree 178 take about 0.5 s on a 2-core x86
_TOEPLITZ_WORK_MAX = 1 << 30


# ----------------------------------------------------------------------------
# section spaces
# ----------------------------------------------------------------------------


@functools.lru_cache(maxsize=512, typed=True)
def multi_indices(d: int, k: int) -> np.ndarray:
    """All exponent vectors alpha in N^{d+1} with |alpha| = k, lexicographic.

    Stars and bars: d bars among k + d slots split k stars into d + 1 parts.
    Descending bar positions list the first coordinate descending, then the
    rest the same way.  Memoised, so the array is read-only; the cache is
    keyed by type too, so a float degree equal to a cached int is still
    refused.
    """
    n = section_dimension(d, k)
    flat = itertools.chain.from_iterable(itertools.combinations(range(k + d), d))
    bars = np.fromiter(flat, dtype=np.int64, count=n * d).reshape(n, d)[::-1]
    edges = np.hstack([np.full((n, 1), -1), bars, np.full((n, 1), k + d)])
    alphas = np.diff(edges, axis=1) - 1
    alphas.flags.writeable = False
    return alphas


def section_dimension(d: int, k: int) -> int:
    _check_degree(k)
    return math.comb(k + d, d)


def monomial_norms(model: ProjectiveModel, k: int) -> np.ndarray:
    """Norms ||z^alpha|| in L^2 of the sphere measure (mass pi^d/d!).

    Closed form ||z^alpha||^2 = pi^d * alpha! / (k+d)!, evaluated in log space
    for stability at large degree; log j! is the logarithm of the exact
    integer factorial.  The quadrature oracle `monomial_norms_quadrature`
    validates this independently.
    """
    return _exponent_norms(model.dim, multi_indices(model.dim, k))


def _exponent_norms(d: int, alphas: np.ndarray) -> np.ndarray:
    """`monomial_norms` of the rows alpha of ``alphas``, of any degrees."""
    degree = alphas.sum(axis=1)
    log_factorial = np.array([math.log(math.factorial(j)) for j in range(degree.max(initial=0) + d + 1)])
    log_sq = d * math.log(math.pi) + log_factorial[alphas].sum(axis=1) - log_factorial[degree + d]
    return np.exp(0.5 * log_sq)


def monomial_norms_quadrature(model: ProjectiveModel, k: int) -> np.ndarray:
    """Monomial norms by explicit sphere quadrature (the establishing oracle)."""
    z, w = sphere_rule(model.dim, t_degree=k + 1, phase_degree=1)
    t = np.abs(z) ** 2
    alphas = multi_indices(model.dim, k)
    vals = np.array([(w * np.prod(t**a, axis=1)).sum() for a in alphas])
    return np.sqrt(vals)


@dataclass(eq=False, repr=False)
class EigenBlock:
    """Eigendata of one degree block: the monomials z^alpha, |alpha| = k.

    Rows of ``exponents`` are in `multi_indices` order; the monomials divided
    by ``norms`` are orthonormal eigensections with ``eigenvalues`` <alpha, w>.
    """

    k: int
    exponents: np.ndarray  # (dim, d+1) int
    norms: np.ndarray  # (dim,)
    eigenvalues: np.ndarray  # (dim,)

    @property
    def dim(self) -> int:
        return self.exponents.shape[0]


def degree_block(model: ProjectiveModel, k: int) -> EigenBlock:
    """The monomial eigenbasis of degree k with its norms and eigenvalues."""
    exponents = multi_indices(model.dim, k)
    return EigenBlock(
        k=k,
        exponents=exponents,
        norms=monomial_norms(model, k),
        eigenvalues=(exponents @ model.weight_array).astype(float),
    )


def monomial_values(exponents: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Values x^alpha for each row alpha; batched over leading axes of x.

    Each coordinate's powers x_j^a, a <= max alpha_j, come from repeated
    multiplication (exact at x_j = 0, where 0^0 = 1) and are gathered by
    exponent.  Work runs with the points on the fast axis: the result is a
    view of a section-major (dim, *batch) array, so ``.T`` of the values at
    a list of points is contiguous.
    """
    x = np.asarray(x)
    batch = x.shape[:-1]
    xt = np.moveaxis(x, -1, 0).reshape(x.shape[-1], -1)  # (d+1, points)
    values = None
    for j, column in enumerate(exponents.T):
        powers = np.empty((int(column.max(initial=0)) + 1, xt.shape[1]), np.result_type(xt, 1.0))
        powers[0] = 1.0
        for a in range(1, powers.shape[0]):
            np.multiply(powers[a - 1], xt[j], out=powers[a])
        if values is None:
            values = powers[column]
        else:
            values *= powers[column]
    return np.moveaxis(values.reshape((len(exponents),) + batch), 0, -1)


# ----------------------------------------------------------------------------
# operator assembly
# ----------------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def toeplitz_rule(model: ProjectiveModel, k: int) -> SphereProductRule:
    """The sphere rule `toeplitz_matrix` assembles degrees 0..k over (the last one is kept)."""
    return sphere_product_rule(model.dim, t_degree=k + 2, phase_degree=k + 2)


def toeplitz_matrix(model: ProjectiveModel, k: int) -> list[np.ndarray]:
    """Matrices of i*(contact field), compressed to the degree-j sections, j = 0..k.

    Gram quadrature over `toeplitz_rule`, exact for every degree up to k, so
    one field evaluation per node serves all k + 1 blocks: gram = sum_nodes
    w conj(z^alpha) z^beta and op = sum_nodes w conj(z^alpha) i D_beta, both
    divided by the closed-form norms.  D_beta, z^beta differentiated along
    the field, is z^beta q_beta with q_beta = sum_j beta_j field_j / z_j (no
    node has a zero coordinate).  Sum-factorised as the module docstring
    says: z^alpha = sqrt(t)^alpha e^{i<alpha,phi>}, each q_j = field_j / z_j
    is summed along the diagonal grid axis (every frequency beta - alpha
    sums to zero) and transformed once per moment node into S.  The moment
    weight of entry (alpha, beta) is sqrt(t)^alpha sqrt(t)^beta =
    sqrt(t)^(alpha + beta), so the moment sum runs once per sigma of twice
    each degree (`multi_indices`), as one matrix product X = (w
    sqrt(t)^sigma)^T S over the moment nodes, and

        op[alpha, beta] = sum_i beta_i X[alpha + beta, beta - alpha, i],
        gram[alpha, beta] = (sum_m w sqrt(t)^sigma)[alpha + beta] ones[beta - alpha],

    with every sqrt(t)^sigma taken from one table of coordinate powers up to
    2k.  At n angles per axis X holds C(2j + d, d) n^d (d + 1) entries at
    degree j, about 4^d/d! times the transform S at the top degree.  That is the
    node-by-node sum reordered, with no torus invariance assumed: S keeps
    every frequency, so a field that depends on the phases shows up off the
    diagonal.  Each normalised Gram matrix must be the identity to
    `_GRAM_TOL` and each result Hermitian, or QuadratureError names the
    first degree that is not.  Blocks of up to `_PAIR_ENTRIES` entries in
    all are built and checked as one flat array, and returned as its views.
    """
    _check_degree(k)
    d = model.dim
    t_axis, angles = rule_sizes(d, k + 2, k + 2)  # `toeplitz_rule`'s moment nodes and angles per axis
    if math.comb(2 * k + d + 1, d + 1) // 2 * t_axis**d * angles**d * (d + 1) > _TOEPLITZ_WORK_MAX:
        raise CoverageError(f"Toeplitz blocks to degree {k} take more than {_TOEPLITZ_WORK_MAX} "
                            "multiply-adds")
    rule = toeplitz_rule(model, k)
    n, m_t = rule.n_angles, rule.t.shape[0]
    fold = (n,) * d  # the angle grid with its diagonal axis s summed out
    step = max(1, _BLOCK_ENTRIES // (n ** (d + 1) * (d + 1)))  # moment nodes per block
    S = np.empty((m_t, *fold, d + 1), dtype=complex)
    for lo in range(0, m_t, step):
        z = rule.nodes(slice(lo, lo + step))  # (m, *fold, s, d+1)
        S[lo : lo + step] = (contact_field(model, z) / z).sum(axis=-2)  # along the diagonal
    # one d-dimensional transform per moment node
    S = np.fft.ifftn(S, axes=tuple(range(1, d + 1)), norm="forward").reshape(m_t, -1)
    ones = np.fft.ifftn(np.full(fold, float(n)), norm="forward").ravel()  # Gram: q = 1, folded
    # powers[i, a] = sqrt(t_i)^a at every moment node, a <= 2k
    powers = np.empty((d + 1, 2 * k + 1, m_t))
    powers[:, 0] = 1.0
    root_t = np.sqrt(rule.t).T
    for a in range(1, 2 * k + 1):
        np.multiply(powers[:, a - 1], root_t, out=powers[:, a])

    binom = np.array([[math.comb(x, r) for r in range(d + 1)] for x in range(2 * k + d)])
    E = multi_indices(d + 1, k)[:, 1:]  # |alpha| <= k: the slack k - |alpha| descends first
    partial = np.cumsum(E[:, :d], axis=1)  # alpha_0 + ... + alpha_i, for `_index_rank`
    norms = _exponent_norms(d, E)
    column = E.T.copy()  # column[i] = alpha_i of every exponent
    dims = np.array([section_dimension(d, j) for j in range(k + 1)])
    first = np.cumsum(dims) - dims  # each degree's first exponent
    ends = np.cumsum(dims**2)
    out, j0 = [], 0
    while j0 <= k:  # the blocks of degrees j0..j1-1
        j1 = max(j0 + 1, int(np.searchsorted(ends, ends[j0] - dims[j0] ** 2 + _PAIR_ENTRIES, "right")))
        size = dims[j0:j1] ** 2
        starts = np.cumsum(size) - size  # each block's first entry, row-major
        deg = np.repeat(np.arange(j0, j1), size)
        p = np.arange(size.sum())
        a, b = np.divmod(p - np.repeat(starts, size), dims[deg])
        turn = p + (b - a) * (dims[deg] - 1)  # the entry (beta, alpha) of (alpha, beta)
        a, b = a + first[deg], b + first[deg]
        sigma = [multi_indices(d, 2 * j) for j in range(j0, j1)]
        count = np.array([len(m) for m in sigma])
        sum_row = np.repeat(np.cumsum(count) - count, size)  # row of alpha + beta
        sum_row += _index_rank(partial.take(a, 0) + partial.take(b, 0), 2 * deg, binom)
        freq = np.ravel_multi_index(tuple((column[:d].take(b, 1) - column[:d].take(a, 1)) % n), fold)
        sigma = np.concatenate(sigma)
        moment = rule.weights * np.prod([powers[i].take(sigma[:, i], 0) for i in range(d + 1)], axis=0)
        X = (moment @ S.view(float)).view(complex).reshape(-1, d + 1)  # (len(sigma) n^d, d + 1)
        X = X.take(sum_row * n**d + freq, axis=0)
        op = sum(X[:, i] * column[i].take(b) for i in range(d + 1))
        scale = norms.take(a) * norms.take(b)
        gram = moment.sum(axis=1).take(sum_row) * ones.take(freq) / scale
        gram[a == b] -= 1.0
        op *= 1j / scale
        flip = op.take(turn).conj()
        for residual, tol, what in ((gram, _GRAM_TOL, "quadrature under-resolved at k={}: Gram"),
                                    (op - flip, 1e-9, "assembled block not Hermitian at k={}:")):
            worst = np.maximum.reduceat(np.abs(residual), starts)  # per degree
            if (worst > tol).any():
                j = int(np.argmax(worst > tol))
                raise QuadratureError(f"{what.format(j0 + j)} residual {worst[j]:.2e}")
        op += flip
        op *= 0.5
        out += [op[s : s + m * m].reshape(m, m) for s, m in zip(starts, dims[j0:j1])]
        j0 = j1
    return out


def _index_rank(partial: np.ndarray, k, binom: np.ndarray) -> np.ndarray:
    """Row in `multi_indices`(d, k) of each exponent vector alpha, |alpha| = k,
    given by its partial sums ``partial[..., i]`` = alpha_0 + ... + alpha_i, i < d.

    That order lists the bar positions b_1 < ... < b_d, b_i = alpha_0 + ...
    + alpha_{i-1} + i - 1, of stars and bars in descending lexicographic
    order, where the combinatorial number system ranks them as
    sum_i C(k + d - 1 - b_i, d + 1 - i); ``binom[x, r]`` = C(x, r) for x <
    k + d, r <= d.  k may be an array that broadcasts against each
    ``partial[..., i]``.
    """
    d = partial.shape[-1]  # >= 1
    return sum(binom[:, d - i].take(k + d - 1 - i - partial[..., i]) for i in range(d))


# ----------------------------------------------------------------------------
# spectral packages
# ----------------------------------------------------------------------------


_CACHE_FORMAT = 2


@dataclass(eq=False, repr=False)
class SpectralPackage:
    """Distinct eigenvalues with their multiplicities through degree k_max.

    ``values`` holds the distinct eigenvalues in ascending order and
    ``multiplicities`` the number of degree-<=k_max eigensections of each.
    ``coverage_max``: every operator eigenvalue strictly below this number
    appears with its full multiplicity.
    """

    model: ProjectiveModel
    k_max: int
    values: np.ndarray
    multiplicities: np.ndarray
    coverage_max: float

    @property
    def lambda_all(self) -> np.ndarray:
        """Every eigenvalue repeated by its multiplicity, ascending."""
        return np.repeat(self.values, self.multiplicities)

    @property
    def n_eigenvalues(self) -> int:
        return int(self.multiplicities.sum())

    def block(self, k: int) -> EigenBlock:
        """Degree-k eigensections, built on request."""
        if not 0 <= k <= self.k_max:
            raise CoverageError(f"degree {k} outside the package range 0..{self.k_max}")
        return degree_block(self.model, k)

    def save(self, path) -> None:
        """Write the package as checksummed ``.npz``; atomic via a sibling temp file."""
        path = Path(path)
        arrays = {"values": self.values, "multiplicities": self.multiplicities}
        meta = {
            "weights": list(self.model.weights),
            "k_max": self.k_max,
            "coverage_max": self.coverage_max,
            "format": _CACHE_FORMAT,
        }
        arrays["checksum"] = np.frombuffer(
            bytes.fromhex(_payload_digest(arrays, meta)), dtype=np.uint8
        )
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "wb") as fh:
                np.savez(fh, meta=np.bytes_(json.dumps(meta, sort_keys=True).encode()), **arrays)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    @staticmethod
    def load(path) -> "SpectralPackage":
        try:
            with np.load(path) as data:
                meta = json.loads(bytes(data["meta"]).decode())
                arrays = {k: data[k] for k in data.files if k not in ("meta", "checksum")}
                stored = bytes(data["checksum"]).hex()
        except FileNotFoundError:
            raise
        except Exception as exc:  # zip/CRC/json failures all mean the same thing
            raise CacheError(f"spectral cache unreadable: {exc}") from exc
        if not isinstance(meta, dict) or meta.get("format") != _CACHE_FORMAT:
            raise CacheError("spectral cache has an unknown format version")
        if stored != _payload_digest(arrays, meta):
            raise CacheError("spectral cache corrupt: checksum mismatch")
        try:
            return SpectralPackage(
                model=make_model(meta["weights"]),
                k_max=int(meta["k_max"]),
                values=arrays["values"],
                multiplicities=arrays["multiplicities"],
                coverage_max=float(meta["coverage_max"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CacheError(f"spectral cache incomplete: {exc!r}") from exc


def _payload_digest(arrays: dict, meta: dict) -> str:
    import hashlib  # loads OpenSSL; only cache reads and writes need it

    h = hashlib.sha256()
    h.update(json.dumps(meta, sort_keys=True).encode())
    for key in sorted(k for k in arrays if k != "checksum"):
        h.update(key.encode())
        h.update(np.ascontiguousarray(arrays[key]).tobytes())
    return h.hexdigest()


def _check_degree(k: int) -> None:
    """Refuse (InputError) a degree that is not a nonnegative integer."""
    if not isinstance(k, Integral) or k < 0:
        raise InputError(f"a degree must be a nonnegative integer, got {k!r}")


def check_multiplicity_table(weights, k_max: int) -> None:
    """Refuse, with CoverageError, a `_multiplicities` table that could wrap
    or would take too long: every entry counts some of the C(k_max + d + 1,
    d + 1) alpha with |alpha| <= k_max, so that count must stay below 2^63,
    and the table takes k_max (d + 1)(k_max w_max + 1) entry-steps, at most
    `_MULTIPLICITY_WORK_MAX`.  The ``spectrum`` config checks it too, so the
    refusal comes before the run creates its output directory."""
    d, top = len(weights) - 1, k_max * max(weights)
    if math.comb(k_max + d + 1, d + 1) >= 2**63:
        raise CoverageError(f"multiplicities to degree {k_max} may pass the int64 range")
    if k_max * (d + 1) * (top + 1) > _MULTIPLICITY_WORK_MAX:
        raise CoverageError(f"multiplicities to degree {k_max} take more than "
                            f"{_MULTIPLICITY_WORK_MAX} entry-steps")


def _multiplicities(weights, k_max: int) -> np.ndarray:
    """counts[n] = #{alpha in N^{d+1} : |alpha| <= k_max, <alpha, w> = n}.

    The coin-counting recursion of the denumerants of the weights, with the
    degree as a second index: rows[i] holds the degree-k counts using the
    first i+1 weights, and adding weight w_i maps (k - 1, n - w_i) to (k, n).
    A table `check_multiplicity_table` refuses is refused before it is
    allocated.
    """
    check_multiplicity_table(weights, k_max)
    top = k_max * max(weights)
    rows = np.zeros((len(weights), top + 1), dtype=np.int64)
    rows[:, 0] = 1  # degree 0
    counts = rows[-1].copy()
    for _ in range(k_max):
        below = np.zeros(top + 1, dtype=np.int64)  # no weights: nothing of degree >= 1
        for i, w in enumerate(weights):
            below[w:] += rows[i, : top + 1 - w]
            rows[i] = below
        counts += below
    return counts


def eigendata(model: ProjectiveModel, k_max: int) -> SpectralPackage:
    """Distinct eigenvalues and their multiplicities over degrees 0..k_max.

    The monomials are eigensections with eigenvalue <alpha, w> (the law
    `toeplitz_matrix` establishes by quadrature), so the multiplicity of n
    is the number of alpha with |alpha| <= k_max and <alpha, w> = n.
    """
    _check_degree(k_max)
    counts = _multiplicities(model.weights, k_max)
    present = np.flatnonzero(counts)
    return SpectralPackage(
        model=model,
        k_max=k_max,
        values=present.astype(float),
        multiplicities=counts[present],
        coverage_max=float((k_max + 1) * min(model.weights)),
    )


# ----------------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------------


def eigensection_values(pkg: SpectralPackage, k: int, x: np.ndarray) -> np.ndarray:
    """Values of every degree-k eigensection at x (batched; last axis = section)."""
    block = pkg.block(k)
    return monomial_values(block.exponents, check_points(pkg.model, x)) / block.norms


def szego_diagonal(pkg: SpectralPackage, k: int, x: np.ndarray) -> np.ndarray:
    """Diagonal of the degree-k projector kernel, sum_j |Phi_j(x)|^2."""
    vals = eigensection_values(pkg, k, x)
    return (np.abs(vals) ** 2).sum(axis=-1)
