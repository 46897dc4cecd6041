"""Geometry of the weighted projective models.

The base manifold is projective d-space with the Fubini-Study structure
normalised so that vol = pi^d/d!, carrying the torus Hamiltonian

    f([z]) = sum_i w_i |z_i|^2 / ||z||^2,   w_i positive integers.

All concrete computation happens upstairs on the unit sphere S^{2d+1} in
C^{d+1} (the unit circle bundle of the dual tautological line).  Points are
plain complex ndarrays of shape (..., d+1); the last axis is the homogeneous
coordinate.  A projective point is such a vector up to phase.

The one-parameter group generated by the contact lift of the Hamiltonian
field acts by coordinate phases.  The contact field, assembled explicitly by
`contact_field`, is the linear field -i*diag(w)*z (its f*z terms cancel), so
the flow is z -> exp(-i*tau*diag(w)) z in closed form.  `calibrate` checks
that identity on every model `make_model` builds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CalibrationError, ChartError, CleanLocusError, InputError, PeriodError

_FIX_TOL = 1e-9  # phase tolerance deciding membership of a fixed locus
_CALIBRATION_TOL = 1e-12  # relative gap allowed between contact_field and -i*diag(w)*z


# ----------------------------------------------------------------------------
# model
# ----------------------------------------------------------------------------


@dataclass(eq=False)
class ProjectiveModel:
    """Weighted projective model: dimension d and the d+1 positive weights."""

    dim: int
    weights: tuple

    @property
    def weight_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)


def make_model(weights) -> ProjectiveModel:
    """The weighted projective model of ``weights`` (>= 2 positive ints), its field checked."""
    try:
        ws = tuple(int(w) for w in weights)
        integral = not isinstance(weights, (str, bytes)) and all(w == v for w, v in zip(weights, ws))
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral or len(ws) < 2 or min(ws) <= 0:
        raise InputError(f"weights must be >= 2 strictly positive integers, got {weights!r}")
    return calibrate(ProjectiveModel(dim=len(ws) - 1, weights=ws))


def random_sphere_point(model: ProjectiveModel, rng: random.Random) -> np.ndarray:
    """A uniform point of the unit sphere in C^(d+1): a standard complex
    Gaussian vector, drawn coordinate by coordinate from ``rng``, normalised."""
    z = np.array([complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(model.dim + 1)])
    return z / np.linalg.norm(z)


# ----------------------------------------------------------------------------
# Hamiltonian, contact field, flows
# ----------------------------------------------------------------------------


def check_points(model: ProjectiveModel, z) -> np.ndarray:
    """``z`` as an array of points, refused (InputError) unless its last axis
    holds the model's dim + 1 coordinates."""
    z = np.asarray(z)
    if z.ndim == 0 or z.shape[-1] != model.dim + 1:
        raise InputError(
            f"a point of the weights {model.weights} has {model.dim + 1} coordinates, "
            f"got an array of shape {z.shape}"
        )
    return z


def hamiltonian(model: ProjectiveModel, z: np.ndarray) -> np.ndarray:
    """Weight quotient f = sum w_i |z_i|^2 / ||z||^2; batched over leading axes."""
    z = check_points(model, z)
    t = np.abs(z) ** 2
    return (t * model.weight_array).sum(axis=-1) / t.sum(axis=-1)


def contact_field(model: ProjectiveModel, z: np.ndarray) -> np.ndarray:
    """Value of the contact lift of the Hamiltonian field at sphere points.

    Assembled from its two defining pieces: the horizontal lift of the
    Hamiltonian field of f (the ambient Hamiltonian field -i(diag(w) - f)z of
    the weight quotient, which is tangent to the sphere and already
    horizontal) minus f times the vertical circle generator iz.  The f*z
    terms cancel, leaving -i*diag(w)*z, the generator of `flow_phases`;
    criterion 1's quadrature (`spectral.toeplitz_matrix`) consumes this
    assembled form.
    """
    z = np.asarray(z)
    f = hamiltonian(model, z)[..., None]
    horizontal = -1j * (model.weight_array * z - f * z)
    vertical = 1j * z
    return horizontal - f * vertical


def calibrate(model: ProjectiveModel) -> ProjectiveModel:
    """Check that the assembled contact field generates `flow_phases`.

    At three fixed sphere points with every coordinate nonzero and distinct
    moduli, `contact_field` must equal -i*diag(w)*z to `_CALIBRATION_TOL`
    relative to its size; otherwise CalibrationError.  Returns the model.
    """
    j = np.arange(1, model.dim + 2)
    z = np.array([j**p * np.exp(1j * (p + 1) * j) for p in range(3)])
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    expected = -1j * model.weight_array * z
    gap = float(np.abs(contact_field(model, z) - expected).max() / np.abs(expected).max())
    if not gap <= _CALIBRATION_TOL:
        raise CalibrationError(
            f"the contact field is not -i*diag(w)*z: relative gap {gap:.2e} "
            f"above {_CALIBRATION_TOL:.0e}"
        )
    return model


def flow_phases(model: ProjectiveModel, tau: float) -> np.ndarray:
    """Per-coordinate phases exp(-i*tau*w) of the lifted flow at time tau."""
    return np.exp(-1j * tau * model.weight_array)


def flow_sphere(model: ProjectiveModel, tau: float, z: np.ndarray) -> np.ndarray:
    """Lifted flow on the unit sphere (batched)."""
    return flow_phases(model, tau) * check_points(model, z)


# ----------------------------------------------------------------------------
# periods and fixed loci
# ----------------------------------------------------------------------------


def _phase_tol(model: ProjectiveModel, tau0: float) -> float:
    """Angle within which a flow phase e^{-i w tau0} counts as 1 (tau0 a period of w).

    `_FIX_TOL`, plus what rounding moves the largest phase w*tau0 by: tau0 is
    a double within ulp/2 of the period it stands for, and a period 2*pi*j/w
    computed in double is a few ulps off, so 4 w ulp(tau0) covers both.
    `period_gap`, `fixed_components` and `heisenberg_chart` all decide by it.
    """
    return _FIX_TOL + 4.0 * max(model.weights) * math.ulp(abs(tau0))


def period_gap(model: ProjectiveModel, tau0: float) -> float:
    """Distance from tau0 to the nearest other period.

    The periods are the multiples +-2*pi*j/w_i (j >= 0) of the weights; they
    are symmetric about 0, so the gap at tau0 is the gap at |tau0|.  Of each
    w_i only the multiples bracketing |tau0| can be nearest, so the cost does
    not grow with |tau0|.  A multiple 2*pi*j/w whose phase w*|tau0 - 2*pi*j/w|
    is within `_phase_tol` is tau0's own period, the one `fixed_components`
    finds, and is skipped.
    """
    if not math.isfinite(tau0):
        raise PeriodError(f"tau0={tau0!r} is not finite")
    tau0 = abs(tau0)
    tol = _phase_tol(model, tau0)
    gaps = []
    for w in model.weights:
        k = math.floor(tau0 * w / (2.0 * np.pi))
        for j in range(max(k - 1, 0), k + 3):
            gap = abs(tau0 - 2.0 * np.pi * j / w)
            if w * gap >= tol:
                gaps.append(gap)
    return min(gaps)


@dataclass(frozen=True)
class FixedComponent:
    """One connected component of the fixed locus at a period tau0.

    ``index_set`` holds the coordinates spanning the component; ``f_j`` is its
    complex dimension; ``normal_angles`` are the rotation angles of the
    inverse-time flow differential on the normal lines; ``c_value`` is
    det(id - that differential).  ``m_only`` components are fixed downstairs
    (common nontrivial phase) but not on the sphere bundle, and are excluded
    from trace predictions.  ``period`` is the exact period nearest tau0 as a
    fraction of a turn: the flow time 2*pi*period fixes the component.
    """

    tau0: float
    index_set: tuple
    f_j: int
    normal_angles: tuple
    c_value: complex
    period: Fraction
    m_only: bool = False

    @property
    def normal_dim(self) -> int:
        return len(self.normal_angles)


def fixed_components(model: ProjectiveModel, tau0: float):
    """Connected components of the fixed locus at time tau0.

    Exactly one component is fixed on the sphere bundle (phase 1 to within
    `_phase_tol`), and it comes first; components fixed only downstairs follow,
    flagged ``m_only``.  Raises PeriodError when tau0 fixes nothing upstairs,
    CleanLocusError when a normal angle degenerates.
    """
    phases = flow_phases(model, tau0)
    angles = np.mod(np.angle(phases), 2.0 * np.pi)
    tol = _phase_tol(model, tau0)

    def angdist(a, b):
        return abs((a - b + np.pi) % (2.0 * np.pi) - np.pi)

    groups: list[list[int]] = []
    for i in range(model.dim + 1):
        for g in groups:
            if angdist(angles[i], angles[g[0]]) < tol:
                g.append(i)
                break
        else:
            groups.append([i])

    x_group = next((g for g in groups if angdist(angles[g[0]], 0.0) < tol), None)
    if x_group is None:
        raise PeriodError(f"tau0={tau0!r} is not a period of the lifted flow")
    period = _period_turns(model, tau0, x_group)
    out = []
    for g in groups:
        rest = [j for j in range(model.dim + 1) if j not in g]
        # turns of the inverse-time differential relative to the component, at the exact period
        rel = [period * (model.weights[j] - model.weights[g[0]]) for j in rest]
        if any(r.denominator == 1 for r in rel):
            raise CleanLocusError("fixed locus not clean: unit normal phase")
        out.append(
            FixedComponent(
                tau0=float(tau0),
                index_set=tuple(g),
                f_j=len(g) - 1,
                normal_angles=tuple(2.0 * np.pi * float(r % 1) for r in rel),
                c_value=complex(np.prod(1.0 - turn_phase(rel))),
                period=period,
                m_only=(g is not x_group),
            )
        )
    out.sort(key=lambda comp: (comp.m_only, comp.index_set))
    return out


def turn_phase(turns) -> np.ndarray:
    """e^{2 pi i x} at exact turns x (Fractions, batched): x is reduced modulo 1
    to r in [-1/2, 1/2], quarter turns come out exact (1, i, -1, -i) and the
    rest as one exponential e^{2 pi i r}."""
    reduced = [x - round(x) for x in np.asarray(turns, dtype=object).ravel().tolist()]
    values = [(1, 1j, -1, -1j)[int(4 * r) % 4] if (4 * r).denominator == 1
              else np.exp(2j * np.pi * float(r)) for r in reduced]
    return np.array(values, dtype=complex).reshape(np.shape(turns))


def _period_turns(model: ProjectiveModel, tau0: float, group) -> Fraction:
    """Period in turns near tau0 fixing ``group``: p/w, tau0 w ~ 2 pi p, w = w_i, i in group."""
    w = model.weights[group[0]]
    return Fraction(round(tau0 * w / (2.0 * math.pi)), w)


# ----------------------------------------------------------------------------
# adapted charts
# ----------------------------------------------------------------------------


def complement_frame(x0: np.ndarray, order, tol: float) -> np.ndarray:
    """Gram-Schmidt of the coordinate vectors e_i, i in ``order``, against x0.

    Each e_i, less its projections on x0 and on the rows kept before it,
    becomes a row when its norm exceeds ``tol``.  The rows are orthonormal
    and orthogonal to x0; callers check that they span its complement.
    """
    rows = []
    for i in order:
        e = np.zeros(x0.size, dtype=complex)
        e[i] = 1.0
        v = e - np.vdot(x0, e) * x0
        for r in rows:
            v = v - np.vdot(r, v) * r
        nv = np.linalg.norm(v)
        if nv > tol:
            rows.append(v / nv)
    return np.array(rows)


@dataclass(eq=False, repr=False)
class HeisenbergChart:
    """Adapted chart at a point of the fixed component it carries.

    The map is the great-circle chart

        point(theta, v) = e^{i theta} ( cos|v| * center + sin|v| * xi(v)/|v| )

    with xi(v) the tangent vector with coordinates v in the unitary frame.
    ``component``, the one `fixed_components` lists first, holds the center;
    the chart's ``tau0`` and ``n_tangent`` (its dimension f_j) are read from
    it.  The frame rows split as (tangent-to-fixed-locus, normal): the first
    ``n_tangent`` rows span the fixed directions, the remaining rows the
    normal ones.  Radial distances are exact: the projective distance from
    the center to point(0, v) equals |v| for |v| <= pi/2.
    """

    center: np.ndarray
    frame: np.ndarray  # (d, d+1), rows orthonormal, all orthogonal to center
    component: FixedComponent

    @property
    def tau0(self) -> float:
        return self.component.tau0

    @property
    def n_tangent(self) -> int:
        return self.component.f_j

    @property
    def dim(self) -> int:
        return self.frame.shape[0]

    @property
    def normal_dim(self) -> int:
        return self.dim - self.n_tangent

    def point(self, theta, v) -> np.ndarray:
        """Chart map; v has shape (d,) or (m, d) complex, theta scalar or (m,)."""
        v = np.asarray(v, dtype=complex)
        single = v.ndim == 1
        vv = v[None, :] if single else v
        r = np.linalg.norm(vv, axis=-1)
        xi = vv @ self.frame
        base = np.cos(r)[:, None] * self.center + np.sinc(r / np.pi)[:, None] * xi
        th = np.asarray(theta, dtype=float)
        phase = np.exp(1j * th)
        out = phase * base if th.ndim == 0 else phase[:, None] * base
        return out[0] if single else out

    def normal_point(self, u, theta: float = 0.0) -> np.ndarray:
        """Chart point displaced along the normal factor only."""
        u = np.asarray(u, dtype=complex)
        single = u.ndim == 1
        uu = u[None, :] if single else u
        v = np.zeros(uu.shape[:-1] + (self.dim,), dtype=complex)
        v[..., self.n_tangent :] = uu
        out = self.point(theta, v)
        return out[0] if single else out

    def coords(self, y: np.ndarray):
        """Inverse chart: (theta, v) with point(theta, v) = y, |v| < pi/2."""
        c = np.vdot(self.center, y)
        theta = float(np.angle(c))
        r = float(np.arccos(np.clip(abs(c), -1.0, 1.0)))
        if r < 1e-14:
            return theta, np.zeros(self.dim, dtype=complex)
        eta = (np.exp(-1j * theta) * y - np.cos(r) * self.center) / np.sin(r)
        v = r * (self.frame.conj() @ eta)
        return theta, v


def heisenberg_chart(model: ProjectiveModel, x0: np.ndarray, tau0: float) -> HeisenbergChart:
    """Adapted chart at x0 on the component fixed upstairs at tau0."""
    x0 = np.asarray(x0, dtype=complex)
    off = abs(np.linalg.norm(x0) - 1.0)
    if off > 1e-10:
        raise InputError(f"chart center is off the unit sphere by {off:.2e}")
    if np.abs(flow_sphere(model, tau0, x0) - x0).max() > _phase_tol(model, tau0):
        raise ChartError("chart center is not on the fixed locus of this period")
    component = fixed_components(model, tau0)[0]
    fixed_idx = list(component.index_set)
    normal_idx = [i for i in range(model.dim + 1) if i not in fixed_idx]
    # tangent rows first: the coordinate directions inside the component minus
    # x0, one of which is dependent; then the normal directions, which x0
    # (supported on fixed_idx) leaves at e_j up to rounding
    frame = complement_frame(x0, fixed_idx + normal_idx, tol=1e-10)
    if frame.shape[0] != model.dim:
        raise ChartError("degenerate frame at chart center")
    return HeisenbergChart(center=x0, frame=frame, component=component)


def flow_differential_normal(model: ProjectiveModel, chart: HeisenbergChart) -> np.ndarray:
    """Matrix of the inverse-time flow differential on the chart's normal space.

    The flow at time -tau0 is z -> exp(i tau0 diag(w)) z.  The chart's
    normal rows are exactly the coordinate vectors e_j off the component (its
    centre lies on the component's coordinates), and reading the image in
    the chart divides out the centre's phase e^{i tau0 w_c}, w_c the weight
    of the component's first coordinate.  So the map is diagonal,
    e^{i tau0 (w_j - w_c)} on normal coordinate j, and at the component's
    exact period p (in turns) it is diag(turn_phase(p (w_j - w_c))): the
    turns whose product of (1 - phase) is ``chart.component.c_value``.
    """
    comp = chart.component
    w_c = model.weights[comp.index_set[0]]
    normal = [w for j, w in enumerate(model.weights) if j not in comp.index_set]
    return np.diag(turn_phase([comp.period * (w - w_c) for w in normal]))
