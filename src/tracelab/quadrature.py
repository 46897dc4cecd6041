"""Quadrature rules used throughout the laboratory.

Everything here is standard numerical machinery: Gauss-Legendre rules on
intervals (the reference rule on [-1, 1] is memoised per size), the 1-d
factor of a square tensor rule on a complex line, sized for Gaussian
integrands from a short ladder of node counts, a stick-breaking tensor rule
on the simplex, a moment-coordinate product rule on the odd sphere S^{2d+1}
(exact for torus-symmetric polynomial integrands at finite degree), and an
affine-chart radial rule for the Fubini-Study volume.  The sphere rule is
built once in product form, `SphereProductRule`: simplex nodes in the moment
variables t times a uniform grid in the angles phi, indexed along its
diagonal.  `sphere_rule` flattens it into a node list;
`spectral.toeplitz_matrix` builds one product rule for all its degree
blocks, sums it along that diagonal and transforms the rest by FFT.  The
sphere rule carries the measure normalised
so that the total mass of S^{2d+1} is pi^d/d!; the simplex rule carries
plain Lebesgue measure.

The reference Gauss-Legendre rule is built by Newton's method on the
three-term Legendre recurrence (Hale and Townsend 2013), not by the
Golub-Welsch eigenproblem behind numpy's `leggauss`: O(n) memory instead of
a dense n x n matrix, and on a 2-core x86 host 7 ms instead of 165 ms at
the line rules' cap of 1400 nodes (5 ms for the five rules verify builds).
The ceil(n/2) nonnegative nodes are iterated together from asymptotic
guesses until no node moves by more than 1e-15 (from n = 22 on one sweep
and the one that confirms it, which also gives the weights; after ten the
rule raises `QuadratureError`), and the negative half is mirrored.  Against
40-digit mpmath the nodes are within 1.1e-16 and the weights within
2.1e-13 relative at n <= 256 and 1.3e-12 at n <= 1400; `leggauss` is off
by up to 2.2e-11 and 1.2e-8 there.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError

_LINE_NODES_CAP = 1400  # nodes per side of `gaussian_line_rule`
_LINE_LADDER = 128 << np.arange(5)  # its node counts before the cap
_FS_RADIAL_NODES = 200  # radial nodes of `fubini_study_volume`
_NEWTON_SWEEPS = 10  # Newton sweeps of `_legendre_reference` before it gives up
_NEWTON_TOL = 1e-15  # a Gauss-Legendre rule has converged once no node moves more
# the first zeros of the Bessel function J_0, for the end nodes' guesses in `_legendre_reference`
_BESSEL_ZEROS = (2.4048255576957724, 5.520078110286311, 8.653727912911013, 11.791534439014281)

# ----------------------------------------------------------------------------
# interval rules
# ----------------------------------------------------------------------------


def _legendre_value_slope(n: int, x: np.ndarray):
    """(P_n(x), P_n'(x)) for n >= 1 and |x| < 1, by the three-term recurrence

        P_j = ((2j - 1)/j) x P_{j-1} - ((j - 1)/j) P_{j-2},

    and P_n' = n (x P_n - P_{n-1}) / (x^2 - 1)."""
    prev, cur = np.ones_like(x), x.copy()
    for j in range(2, n + 1):  # in place and with float ratios: half the time of the plain form
        nxt = x * cur
        nxt *= (2 * j - 1) / j
        prev *= (j - 1) / j
        nxt -= prev
        prev, cur = cur, nxt
    return cur, n * (x * cur - prev) / ((x - 1.0) * (x + 1.0))


# criterion 1's simplex rule takes one size, the line rules at most five
@functools.lru_cache(maxsize=64)
def _legendre_reference(n: int):
    """The n-point Gauss-Legendre rule on [-1, 1], as read-only arrays.

    Newton's method on the Legendre recurrence, O(n) memory and O(n^2)
    work (N. Hale and A. Townsend, SIAM J. Sci. Comput. 35(2), 2013).  The
    ceil(n/2) nonnegative nodes x_k = cos(theta_k) start from Olver's
    expansion at the end, psi + (psi cot psi - 1)/(8 psi rho^2), psi =
    j_k/rho, rho = n + 1/2, j_k the zeros of J_0 (`_BESSEL_ZEROS`), and from
    Tricomi's beyond, (1 - (n - 1)/(8 n^3) - (39 - 28/sin^2 phi)/(384 n^4))
    cos phi, phi = pi (4k - 1)/(4n + 2).  A Newton step x <- x -
    P_n(x)/P_n'(x) (`_legendre_value_slope`) from an error e in theta leaves
    about e^2 cos theta, so from n = 22 on one sweep and a second that moves
    no node by more than `_NEWTON_TOL` suffice; a rule that has not
    converged after `_NEWTON_SWEEPS` sweeps raises `QuadratureError`.  An
    odd rule's middle node starts at 0, where every odd P_j vanishes
    exactly, so it stays +0.0.  The converging sweep also gives the weights
    2/((1 - x^2) P_n'(x)^2), 1 - x^2 taken as (1 - x)(1 + x).  Near x = +-1
    that form is ill-conditioned in x (relative slope 2x/(1 - x^2), about 2
    n^2/5.8), so each weight is corrected to first order in the sweep's
    Newton step, the distance from where it was evaluated to the node.  The
    negative nodes are the mirror image, so the rule is exactly symmetric.

    Against 40-digit mpmath at n = 1..1400 the nodes are within 1.1e-16 and
    the weights within 1.3e-12 relative (2.1e-13 at n <= 256), where numpy's
    eigenvalue-based `leggauss` is off by up to 2.2e-11 at n <= 256 and
    1.2e-8 at n = 1400 (end weights).
    """
    if n < 1:
        raise ValueError("a Gauss-Legendre rule needs at least one node")
    k = np.arange(1, (n + 1) // 2 + 1)
    phi = np.pi * (4 * k - 1) / (4 * n + 2)
    x = np.cos(phi) * (1.0 - (n - 1) / (8.0 * n**3) - (39.0 - 28.0 / np.sin(phi) ** 2) / (384.0 * n**4))
    psi = np.array(_BESSEL_ZEROS[: len(k)]) / (n + 0.5)
    x[: len(psi)] = np.cos(psi + (psi / np.tan(psi) - 1.0) / (8.0 * psi * (n + 0.5) ** 2))
    if n % 2:
        x[-1] = 0.0
    for _ in range(_NEWTON_SWEEPS):
        p, dp = _legendre_value_slope(n, x)
        step = p / dp
        if np.abs(step).max() <= _NEWTON_TOL:
            break
        x -= step
    else:
        raise QuadratureError(
            f"the {n}-point Gauss-Legendre rule did not converge in {_NEWTON_SWEEPS} Newton sweeps"
        )
    s = (1.0 - x) * (1.0 + x)
    w = 2.0 / (s * dp * dp) * (1.0 + 2.0 * x * step / s)
    x -= step
    half = n // 2  # x runs from the largest node down to the smallest nonnegative one
    x = np.concatenate([-x[:half], x[::-1]])
    w = np.concatenate([w[:half], w[::-1]])
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_legendre(n: int, a: float = 0.0, b: float = 1.0):
    """Gauss-Legendre nodes and weights transformed to the interval [a, b]."""
    x, w = _legendre_reference(n)
    nodes = 0.5 * (b - a) * (x + 1.0) + a
    weights = 0.5 * (b - a) * w
    return nodes, weights


def gaussian_line_rule(decay: float, rate: float):
    """Gauss-Legendre rule on [-R, R] for the square tensor rule on one complex line.

    The integrand is taken to decay like exp(-decay*|v|^2) and to oscillate
    like exp(i*rate*|v|^2).  R = sqrt(82/decay), where the Gaussian is
    e^{-82}.  The integrand needs floor(0.45*rate*R^2) + 90 nodes per side;
    that count is rounded up to the ladder 128, 256, 512, 1024 and capped at
    1400, so the memoised reference rules come in at most five sizes (more
    nodes never cost accuracy here).  Returns the 1-d nodes x and weights w;
    the tensor rule has the complex nodes x_i + i*x_j with weights w_i*w_j.
    """
    n, R = gaussian_line_size(decay, rate)
    return gauss_legendre(int(n), -R, R)


def gaussian_line_size(decay, rate):
    """Node count n and half-width R of `gaussian_line_rule`, elementwise over arrays."""
    R = np.sqrt(82.0 / np.asarray(decay, dtype=float))
    need = np.minimum(0.45 * (rate * R * R), _LINE_NODES_CAP).astype(int) + 90
    n = _LINE_LADDER[np.searchsorted(_LINE_LADDER, np.minimum(need, _LINE_NODES_CAP))]
    return np.minimum(n, _LINE_NODES_CAP), R


# ----------------------------------------------------------------------------
# simplex rule (stick-breaking map from the cube)
# ----------------------------------------------------------------------------


def rule_sizes(d: int, t_degree: int, phase_degree: int) -> tuple[int, int]:
    """Gauss-Legendre nodes per axis of `simplex_rule` (d, t_degree), whose
    substitution raises each variable's degree to at most t_degree + d, and
    angles per circle of `sphere_product_rule` (d, t_degree, phase_degree)."""
    return (t_degree + d) // 2 + 2, phase_degree + 1


def simplex_rule(d: int, degree: int):
    """Nodes and weights on the open simplex {t_i > 0, sum t_i < 1} in R^d.

    Exact (up to rounding) for all polynomials of total degree <= ``degree``.
    Uses the stick-breaking substitution t_1 = s_1, t_i = s_i * prod_{j<i}
    (1 - s_j), whose Jacobian is polynomial, so tensor Gauss-Legendre on the
    cube is exact at finite order.

    Returns
    -------
    nodes : ndarray, shape (m, d)
    weights : ndarray, shape (m,)   (sums to 1/d!)
    """
    if d < 0:
        raise ValueError("dimension must be nonnegative")
    if d == 0:
        return np.zeros((1, 0)), np.ones(1)
    n1, _ = rule_sizes(d, degree, 0)
    s, ws = gauss_legendre(n1, 0.0, 1.0)
    grids = np.meshgrid(*([s] * d), indexing="ij")
    wgrids = np.meshgrid(*([ws] * d), indexing="ij")
    weights = np.ones_like(grids[0])
    for wg in wgrids:
        weights = weights * wg
    nodes = np.empty(grids[0].shape + (d,))
    remaining = np.ones_like(grids[0])
    for i in range(d):
        nodes[..., i] = grids[i] * remaining
        remaining = remaining * (1.0 - grids[i])
        if d - 1 - i > 0:  # stick-breaking Jacobian factor
            weights = weights * (1.0 - grids[i]) ** (d - 1 - i)
    return nodes.reshape(-1, d), weights.reshape(-1)


# ----------------------------------------------------------------------------
# sphere rule in moment coordinates
# ----------------------------------------------------------------------------


@dataclass(eq=False, repr=False)
class SphereProductRule:
    """The sphere rule on S^{2d+1} in product form.

    Nodes are z_j = sqrt(t_j) e^{i phi_j}: t runs over the rows of ``t``
    (the moment nodes: simplex nodes with their slack coordinate appended)
    and phi over the uniform grid phi_j = 2*pi*m_j/n_angles, m_j <
    n_angles, in each of the d+1 angles, indexed along its diagonal: grid
    axes (m'_0, ..., m'_{d-1}, s) hold m = (m' + s*(1, ..., 1)) mod n_angles
    with m'_d = 0, every grid point once.  ``weights[r]`` is the weight of
    every node with moment coordinates t[r]: the simplex weight times the
    moment-coordinate density 2^{-d}/(2*pi) times the angle cell
    (2*pi/n_angles)^{d+1}.
    """

    t: np.ndarray  # (m_t, d+1) moment coordinates, rows sum to 1
    weights: np.ndarray  # (m_t,)
    n_angles: int

    @property
    def size(self) -> int:
        """Number of nodes: moment nodes times angle grid points."""
        return self.t.shape[0] * self.n_angles ** self.t.shape[1]

    @functools.cached_property
    def phase_factors(self) -> np.ndarray:
        """e^{i phi} on the angle grid, shape (n_angles,)*(d+1) + (d+1,)."""
        n = self.n_angles
        index = np.indices((n,) * self.t.shape[1])  # (d+1, *grid): m'_0.., m'_{d-1}, s
        index[:-1] += index[-1]
        m = np.moveaxis(index % n, 0, -1)
        return np.exp(1j * (2.0 * np.pi * m / n))

    def nodes(self, rows=slice(None)) -> np.ndarray:
        """Nodes at the chosen moment nodes, shape (rows,) + (n_angles,)*(d+1) + (d+1,)."""
        root_t = np.sqrt(self.t[rows])
        d1 = self.t.shape[1]
        return root_t.reshape(root_t.shape[:1] + (1,) * d1 + (d1,)) * self.phase_factors


def sphere_product_rule(d: int, t_degree: int, phase_degree: int) -> SphereProductRule:
    """Product rule on S^{2d+1} in coordinates z_j = sqrt(t_j) e^{i phi_j}.

    The carried measure is the invariant one with total mass pi^d/d! (the
    volume of the unit circle bundle under the conventions of the geometry
    module); in moment coordinates its density is 2^{-d}/(2*pi) with respect
    to dt_1..dt_d dphi_0..dphi_d.

    Exact for integrands of the form (polynomial of degree <= t_degree in the
    moment variables |z_j|^2) times (trigonometric monomials of degree <=
    phase_degree in each angle).
    """
    _, n_phi = rule_sizes(d, t_degree, phase_degree)
    t_nodes, t_w = simplex_rule(d, t_degree)
    slack = 1.0 - t_nodes.sum(axis=1)
    t_full = np.concatenate([t_nodes, slack[:, None]], axis=1)  # (mt, d+1)
    w_angle = (2.0 * np.pi / n_phi) ** (d + 1)
    weights = (2.0 ** (-d) / (2.0 * np.pi)) * t_w * w_angle
    return SphereProductRule(t=t_full, weights=weights, n_angles=n_phi)


def sphere_rule(d: int, t_degree: int, phase_degree: int):
    """`sphere_product_rule` flattened into a node list, moment nodes outermost.

    Returns
    -------
    z : complex ndarray, shape (m, d+1) — points on the unit sphere
    w : ndarray, shape (m,) — weights summing to pi^d/d!
    """
    rule = sphere_product_rule(d, t_degree, phase_degree)
    z = rule.nodes().reshape(-1, d + 1)
    return z, np.repeat(rule.weights, rule.n_angles ** (d + 1))


# ----------------------------------------------------------------------------
# Fubini-Study volume oracle (affine chart)
# ----------------------------------------------------------------------------


def fubini_study_volume(d: int) -> float:
    """Volume of projective d-space by radial quadrature in an affine chart.

    Integrates the affine-chart volume density (1 + |zeta|^2)^{-(d+1)} over
    C^d: the angular part is the exact unit-sphere area of S^{2d-1} and the
    radial integral is evaluated numerically (`_FS_RADIAL_NODES`
    Gauss-Legendre nodes) after the compactifying substitution u = t/(1-t).
    Independent of the moment-coordinate route, so it serves as the
    normalisation oracle (expected value: pi^d/d!).
    """
    if d == 0:
        return 1.0
    t, w = gauss_legendre(_FS_RADIAL_NODES, 0.0, 1.0)
    u = t / (1.0 - t)
    jac = 1.0 / (1.0 - t) ** 2
    radial = np.sum(w * jac * u ** (d - 1) * (1.0 + u) ** (-(d + 1)))
    sphere_area = 2.0 * math.pi**d / math.factorial(d - 1)
    return 0.5 * sphere_area * radial
