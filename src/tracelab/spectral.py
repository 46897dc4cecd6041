"""Spectral side: section spaces, operator blocks, eigendata, kernels.

Degree-k sections of the k-th power of the polarising line are realised as
homogeneous monomials z^alpha (|alpha| = k) on the sphere; the operator is
the compression of i times the contact field.  `toeplitz_matrix` assembles
it by quadrature over the product sphere rule (moment sections times a
uniform angle grid), sum-factorised: z^alpha = sqrt(t)^alpha e^{i<alpha,phi>},
so the contact field, evaluated at every node, is summed over the angles at
each moment node t by one FFT, and the Gram and operator matrices are
gathered from those angle sums at the frequencies beta - alpha and weighted
by sqrt(t)^alpha sqrt(t)^beta.  That is the literal quadrature
sum reordered, and it establishes that the monomials are eigensections with
the affine eigenvalue law <alpha, w>.  All monomial values, there and in
`eigensection_values`, come from one evaluator, `monomial_values`, which
multiplies out a table of coordinate powers and gathers it by exponent.

A `SpectralPackage` tabulates that law for the ``spectrum`` kind and the
degree-block checks: the distinct integer eigenvalues with their
degree-<=k_max multiplicities (by a coin-counting table over degree and
value) plus the guaranteed spectral coverage interval.  Degree blocks of
eigensections are built only on request.  Traces and kernel sums do not use
it: they sum over every degree (see smoothing.py).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CacheError, CoverageError, QuadratureError
from .geometry import ProjectiveModel, contact_field, make_model
from .quadrature import sphere_product_rule, sphere_rule

_BLOCK_ENTRIES = 1 << 20  # entries per array of one block of moment nodes: 16 MB complex


# ----------------------------------------------------------------------------
# section spaces
# ----------------------------------------------------------------------------


def multi_indices(d: int, k: int) -> np.ndarray:
    """All exponent vectors alpha in N^{d+1} with |alpha| = k, lexicographic.

    Stars and bars: d bars among k + d slots split k stars into d + 1 parts.
    Descending bar positions list the first coordinate descending, then the
    rest the same way.
    """
    n = math.comb(k + d, d)
    flat = itertools.chain.from_iterable(itertools.combinations(range(k + d), d))
    bars = np.fromiter(flat, dtype=np.int64, count=n * d).reshape(n, d)[::-1]
    edges = np.hstack([np.full((n, 1), -1), bars, np.full((n, 1), k + d)])
    return np.diff(edges, axis=1) - 1


def section_dimension(d: int, k: int) -> int:
    return math.comb(k + d, d)


def monomial_norms(model: ProjectiveModel, k: int) -> np.ndarray:
    """Norms ||z^alpha|| in L^2 of the sphere measure (mass pi^d/d!).

    Closed form ||z^alpha||^2 = pi^d * alpha! / (k+d)!, evaluated in log space
    for stability at large degree; log j! is the logarithm of the exact
    integer factorial.  The quadrature oracle `monomial_norms_quadrature`
    validates this independently.
    """
    alphas = multi_indices(model.dim, k)
    log_factorial = np.array([math.log(math.factorial(j)) for j in range(k + model.dim + 1)])
    log_sq = (
        model.dim * math.log(math.pi)
        + log_factorial[alphas].sum(axis=1)
        - log_factorial[k + model.dim]
    )
    return np.exp(0.5 * log_sq)


def monomial_norms_quadrature(model: ProjectiveModel, k: int) -> np.ndarray:
    """Monomial norms by explicit sphere quadrature (the establishing oracle)."""
    z, w = sphere_rule(model.dim, t_degree=k + 1, phase_degree=1)
    t = np.abs(z) ** 2
    alphas = multi_indices(model.dim, k)
    vals = np.array([(w * np.prod(t**a, axis=1)).sum() for a in alphas])
    return np.sqrt(vals)


@dataclass(frozen=True, eq=False)
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


def toeplitz_matrix(
    model: ProjectiveModel,
    k: int,
    derivative: str = "analytic",
    gram_tol: float = 1e-10,
) -> np.ndarray:
    """Matrix of the compressed contact derivative on degree-k sections.

    Applies i*(contact field) to each basis monomial and projects by Gram
    quadrature over the rule ``sphere_product_rule(d, k+2, k+2)``: gram =
    sum_nodes w conj(z^alpha) z^beta and op = sum_nodes w conj(z^alpha)
    i D_beta, both divided by the closed-form norms.  At the node with
    moment coordinates t and angles phi, z^alpha = R_alpha(t) e^{i<alpha,phi>}
    with R_alpha = sqrt(t)^alpha, and D_beta = z^beta q_beta(t, phi).  So
    each sum is sum_t w_t R_alpha R_beta Q(t, beta - alpha), where
    Q(t, gamma) = sum_phi e^{i<gamma,phi>} q(t, phi) comes from one FFT over
    the angle grid per moment node (q = 1 for the Gram matrix).  This is the
    same discrete sum as the node-by-node one, reordered; it assumes no torus
    invariance, so a field that depends on the phases shows up off the
    diagonal exactly as it would node by node.  The rule certifies itself:
    the normalised Gram matrix must be the identity to ``gram_tol`` and the
    result Hermitian.

    derivative="analytic" differentiates monomials along the field in closed
    form: q_beta = sum_j beta_j field_j / z_j (the rule's nodes have no zero
    coordinate), so one transform per coordinate serves every basis section.
    derivative="fd" replaces D_beta by a central difference of the same
    evaluator along the field at every node and transforms q_beta =
    D_beta / z^beta per section (validation fallback for small k).
    """
    if derivative not in ("analytic", "fd"):
        raise ValueError(f"unknown derivative mode {derivative!r}")
    block = degree_block(model, k)
    exponents = block.exponents
    dim = block.dim
    rule = sphere_product_rule(model.dim, t_degree=k + 2, phase_degree=k + 2)
    n = rule.n_angles
    grid = (n,) * (model.dim + 1)
    # flat index of the frequency beta - alpha (mod n) on the angle grid, per (alpha, beta)
    gamma = (exponents - exponents[:, None]) % n  # (alpha, beta, j)
    freq = np.ravel_multi_index(tuple(np.moveaxis(gamma, -1, 0)), grid)
    R = monomial_values(exponents, np.sqrt(rule.t))  # (m_t, dim)
    ones = _angle_sums(np.ones((1,) + grid + (1,)))[0, :, 0]
    columns = model.dim + 1 if derivative == "analytic" else dim
    per_node = max(math.prod(grid) * columns, dim * dim * (model.dim + 1))
    step = max(1, _BLOCK_ENTRIES // per_node)  # moment nodes per block

    gram = np.zeros((dim, dim), dtype=complex)
    op = np.zeros((dim, dim), dtype=complex)
    for lo in range(0, rule.t.shape[0], step):
        rows = slice(lo, lo + step)
        z = rule.nodes(rows)  # (m, *grid, d+1)
        field = contact_field(model, z)
        if derivative == "analytic":
            q = field / z
        else:
            h = 1e-6
            q = monomial_values(exponents, z + h * field)
            q -= monomial_values(exponents, z - h * field)
            q /= 2.0 * h * monomial_values(exponents, z)
        sums = _angle_sums(q)  # (m, frequencies, columns)
        if derivative == "analytic":  # column beta: sum_j beta_j (transform of field_j / z_j)
            Q = np.einsum("tabj,bj->tab", sums[:, freq], exponents.astype(float))
        else:  # column beta: transform of its own q_beta
            Q = sums[:, freq, np.arange(dim)]
        Rs = R[rows]
        pair = rule.weights[rows, None, None] * Rs[:, :, None] * Rs[:, None, :]
        gram += pair.sum(axis=0) * ones[freq]
        op += np.einsum("tab,tab->ab", pair, Q)
    op *= 1j

    scale = np.outer(block.norms, block.norms)
    gram = gram / scale
    op = op / scale
    if np.abs(gram - np.eye(dim)).max() > gram_tol:
        raise QuadratureError(
            f"quadrature under-resolved at k={k}: Gram residual "
            f"{np.abs(gram - np.eye(dim)).max():.2e}"
        )
    herm = np.abs(op - op.conj().T).max()
    if herm > 1e-9:
        raise QuadratureError(f"assembled block not Hermitian at k={k}: residual {herm:.2e}")
    return 0.5 * (op + op.conj().T)


def _angle_sums(q: np.ndarray) -> np.ndarray:
    """sum_phi e^{i<gamma,phi>} q(phi) for every frequency gamma on the angle grid.

    ``q`` has shape (m, *grid, columns); the result is (m, prod(grid),
    columns), frequencies flattened in grid order (gamma taken mod n).
    """
    axes = tuple(range(1, q.ndim - 1))
    sums = np.fft.ifftn(q, axes=axes, norm="forward")
    return sums.reshape(q.shape[0], -1, q.shape[-1])


# ----------------------------------------------------------------------------
# spectral packages
# ----------------------------------------------------------------------------


_CACHE_FORMAT = 2


@dataclass(frozen=True, eq=False)
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
            "lift_sign": self.model.lift_sign,
            "lift_shift": self.model.lift_shift,
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
            model = make_model(
                meta["weights"],
                calibration={"lift_sign": meta["lift_sign"], "lift_shift": meta["lift_shift"]},
            )
            return SpectralPackage(
                model=model,
                k_max=int(meta["k_max"]),
                values=arrays["values"],
                multiplicities=arrays["multiplicities"],
                coverage_max=float(meta["coverage_max"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CacheError(f"spectral cache incomplete: {exc!r}") from exc


def _payload_digest(arrays: dict, meta: dict) -> str:
    h = hashlib.sha256()
    h.update(json.dumps(meta, sort_keys=True).encode())
    for key in sorted(k for k in arrays if k != "checksum"):
        h.update(key.encode())
        h.update(np.ascontiguousarray(arrays[key]).tobytes())
    return h.hexdigest()


def _multiplicities(weights, k_max: int) -> np.ndarray:
    """counts[n] = #{alpha in N^{d+1} : |alpha| <= k_max, <alpha, w> = n}.

    The coin-counting recursion of the denumerants of the weights, with the
    degree as a second index: rows[i] holds the degree-k counts using the
    first i+1 weights, and adding weight w_i maps (k - 1, n - w_i) to (k, n).
    """
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
    return monomial_values(block.exponents, x) / block.norms


def szego_diagonal(pkg: SpectralPackage, k: int, x: np.ndarray) -> np.ndarray:
    """Diagonal of the degree-k projector kernel, sum_j |Phi_j(x)|^2."""
    vals = eigensection_values(pkg, k, x)
    return (np.abs(vals) ** 2).sum(axis=-1)
