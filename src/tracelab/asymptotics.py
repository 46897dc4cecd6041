"""Closed-form asymptotic predictions and their independent numerical oracles.

Four families live here:

* the universal quadratic off-diagonal phase `psi2` and the local leading
  term `predict_local` for the scaled diagonal kernel at a fixed-locus point;
* the global per-component leading term `predict_global_component`, with the
  Hamiltonian integral over the component in closed form;
* the Gaussian normal integral over C^c with its closed form
  pi^c/det(id - A), checked against tensor Gauss-Legendre quadrature in
  eigen-rotated coordinates (`unitary_eigenbasis`);
* the truncated-phase stationary point check (closed-form critical point,
  gradient residual, finite-difference Hessian determinant).

Higher-order expansion coefficients are never symbolic inputs: `fit_expansion`
recovers them as least-squares numbers from scan reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    CleanLocusError,
    DegenerateDirectionError,
    FitError,
    QuadratureError,
)
from .geometry import (
    FixedComponent,
    HeisenbergChart,
    ProjectiveModel,
    complement_frame,
    contact_field,
    flow_differential_normal,
    hamiltonian,
    turn_phase,
)
from .quadrature import gaussian_line_rule
from .reports import ScanReport
from .windows import Window

_HESSIAN_FD_STEP = 3e-6  # central-difference step of `stationary_point_check`'s Hessian

# ----------------------------------------------------------------------------
# psi2 and the local prediction
# ----------------------------------------------------------------------------


def psi2(u, w) -> complex | np.ndarray:
    """Quadratic off-diagonal phase i*Im<u,w> - 0.5*||u-w||^2.

    Accepts vectors of equal length, batched over leading axes.  The real
    part is always <= 0 and psi2(u, u) = 0.
    """
    u = np.asarray(u, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if u.shape[-1] != w.shape[-1]:
        raise ValueError("psi2 arguments must have equal dimension")
    herm = (u * np.conj(w)).sum(axis=-1)
    sq = (np.abs(u - w) ** 2).sum(axis=-1)
    return 1j * herm.imag - 0.5 * sq


@dataclass(frozen=True, eq=False)
class LocalPrediction:
    """Inputs of the local leading term at a fixed-locus point.

    ``period`` is the component's period in turns (`FixedComponent.period`),
    ``f_center`` the Hamiltonian value at the base point, ``normal_map`` the
    unitary matrix of the inverse-time flow differential on the normal
    space, ``chi_tau0`` the window value at the period.
    """

    period: Fraction
    f_center: float
    dim: int
    f_j: int
    normal_map: np.ndarray
    chi_tau0: float

    @property
    def normal_dim(self) -> int:
        return self.normal_map.shape[0]


def local_prediction(
    model: ProjectiveModel, chart: HeisenbergChart, window: Window
) -> LocalPrediction:
    """The local-prediction data at the chart's center, on ``chart.component``."""
    component = chart.component
    return LocalPrediction(
        period=component.period,
        f_center=float(hamiltonian(model, chart.center)),
        dim=model.dim,
        f_j=component.f_j,
        normal_map=flow_differential_normal(model, chart),
        chi_tau0=float(window.value(component.tau0)),
    )


def predict_local(pred: LocalPrediction, u, lam) -> np.ndarray:
    """Leading term of the scaled diagonal kernel at normal displacement u.

    Value:  2*pi * e^{-i lam T} / f^{d+1} * (lam/pi)^d
            * exp(psi2(A u, u)/f) * chi(tau0),
    batched over lam, with T the period (`_period_phase`).  The modulus
    decays in u like a Gaussian whose rate is controlled by the spectral gap
    of id - A.
    """
    A = pred.normal_map
    c = pred.normal_dim
    u = np.asarray(u, dtype=complex)
    if u.shape[-1:] != (c,):
        raise ValueError(f"u must have normal dimension {c}")
    if u.ndim > 1 and np.ndim(lam) != 0:
        raise ValueError("batched u requires scalar lam")
    if c and abs(np.linalg.det(np.eye(c) - A)) < 1e-12:
        raise CleanLocusError("locus not clean: id - A is singular")
    lam = np.asarray(lam, dtype=float)
    f = pred.f_center
    gauss = np.exp(psi2(u @ A.T, u) / f) if c else 1.0
    peak = 2.0 * np.pi * _period_phase(pred.period, lam) / f ** (pred.dim + 1)
    return peak * (lam / np.pi) ** pred.dim * gauss * pred.chi_tau0


# ----------------------------------------------------------------------------
# global (per-component) prediction
# ----------------------------------------------------------------------------


def _period_phase(period: Fraction, lam) -> np.ndarray:
    """e^{-i lam T} at the period T = 2*pi*period, batched over lam, exactly
    as `turn_phase` gives it at the turns -lam * period, so the phase does
    not drift with lam.

    With period = p/q, lam is reduced mod q (`np.fmod`, exact) and written
    m 2^-j, m an integer (`np.frexp`, trailing zero bits stripped), so the
    turn is the residue N of -m p modulo D = q 2^j over D (|p| reduced mod
    D first), reduced to [-1/2, 1/2]: int64 arithmetic over the grid.
    Quarter turns come out exact and the rest as e^{2 pi i N/D}, N/D
    correctly rounded (N/q is a division of two exact doubles, then scaled
    by 2^-j), bit for bit the Fraction's rounding.  Where D passes 2^53 or
    m p might pass int64, the turn is taken as a Fraction."""
    lam = np.asarray(lam, dtype=float)
    finite = np.isfinite(lam)
    x = np.where(finite, lam, 0.0).ravel()
    p, q = period.numerator, period.denominator
    out = np.empty(x.size, dtype=complex)
    top = 53 - q.bit_length()  # D = q 2^j <= 2^53 for j <= top
    if top >= 0:
        mant, expo = np.frexp(np.fmod(x, q))
        m = np.ldexp(mant, 53).astype(np.int64)
        j = 53 - expo.astype(np.int64)
        low = np.frexp((m & -m).astype(float))[1] - 1  # trailing zero bits of m != 0
        shift = np.where(m == 0, j, np.minimum(low, j))
        m, j = m >> shift, j - shift
        fast = (j >= 0) & (j <= top)
        j = np.where(fast, j, 0)
        D = np.int64(q) << j
        p_r = np.mod(abs(p) % (q << top), D)  # |p| mod D, as D divides q 2^top
        fast &= np.abs(m).astype(float) * p_r.astype(float) < 2.0**62
        N = np.mod((-1 if p > 0 else 1) * np.where(fast, m, 0) * np.where(fast, p_r, 0), D)
        N = np.where(2 * N > D, N - D, N)
        quarter = fast & (4 * N % D == 0)
        exact = np.array([1, 1j, -1, -1j])[(4 * N // D) % 4]
        with np.errstate(invalid="ignore"):
            out = np.where(quarter, exact, np.exp(2j * np.pi * np.ldexp(N / q, -j)))
    else:
        fast = np.zeros(x.size, dtype=bool)
    slow = np.flatnonzero(~fast)
    if slow.size:
        out[slow] = turn_phase([-Fraction(v) * period for v in x[slow].tolist()])
    return np.where(finite, out.reshape(lam.shape), np.nan)


def component_f_integral(model: ProjectiveModel, component: FixedComponent) -> float:
    """integral over the component of f^{-(f_j+1)} against its volume form.

    In moment coordinates the component's Fubini-Study measure is uniform
    with density pi^m, m = f_j, on the simplex spanned by its weights w_i,
    i in I, and by the Feynman-parameter identity

        int_{Delta_m} (sum_{i in I} x_i w_i)^{-(m+1)} dx = 1/(m! prod_{i in I} w_i)

    the integral is pi^m / (m! prod_{i in I} w_i).
    """
    if component.m_only:
        raise CleanLocusError("trace predictions exclude base-only components")
    m = component.f_j
    weights = math.prod(model.weights[i] for i in component.index_set)
    return math.pi**m / (math.factorial(m) * weights)


def predict_global_component(
    model: ProjectiveModel, component: FixedComponent, window: Window, lam
) -> np.ndarray:
    """Leading term of the component's contribution to the smoothed trace.

    2*pi e^{-i lam T} (lam/pi)^{f_j} chi(tau0)/c_value * `component_f_integral`,
    with T the component's period (`_period_phase`).
    """
    f_integral = component_f_integral(model, component)
    lam = np.asarray(lam, dtype=float)
    chi = float(window.value(component.tau0))
    peak = 2.0 * np.pi * _period_phase(component.period, lam) * (lam / np.pi) ** component.f_j
    return peak * chi / component.c_value * f_integral


# ----------------------------------------------------------------------------
# Gaussian normal integral
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianIntegralResult:
    closed_form: complex
    quadrature: complex
    quadrature_rel_error: float


def unitary_eigenbasis(A: np.ndarray):
    """Eigenvalues and a unitary eigenbasis of a unitary A without eigenvalue 1.

    The Cayley transform H = i(id + A)(id - A)^{-1} is Hermitian for unitary
    A, has A's eigenvectors, and maps the eigenvalue e^{i phi} to
    -cot(phi/2), injectively on the circle minus 1; `numpy.linalg.eigh` of H
    gives an orthonormal eigenbasis U even for repeated eigenvalues.  The
    eigenvalues are the Rayleigh quotients of A on the columns of U.  Returns
    (eigs, U) with A = U diag(eigs) U*, checked to 1e-10.
    """
    c = A.shape[0]
    try:
        H = 1j * np.linalg.solve(np.eye(c) - A, np.eye(c) + A)
    except np.linalg.LinAlgError:
        raise CleanLocusError("non-clean matrix: id - A is singular") from None
    _, U = np.linalg.eigh(0.5 * (H + H.conj().T))
    eigs = np.einsum("ij,ik,kj->j", U.conj(), A, U)
    if np.abs(A - (U * eigs) @ U.conj().T).max() > 1e-10:
        raise QuadratureError("eigen-rotation failed (matrix not unitary?)")
    return eigs, U


def gaussian_normal_integral(A: np.ndarray, seed: int = 0) -> GaussianIntegralResult:
    """Closed form pi^c/det(id-A) for the normal Gaussian integral, with its oracle.

    The integral of exp(psi2(Av, v)) over C^c.  Twenty random directions,
    drawn from ``seed`` in one batch, probe that Re psi2 is negative
    definite.  The quadrature oracle rotates to a unitary eigenbasis of A
    (`unitary_eigenbasis`; Lebesgue-invariant), where the integrand is a
    product over eigenlines, and evaluates the square tensor Gauss-Legendre
    rule of the psi2 integrand on each line (`_line_integral`).
    """
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    c = A.shape[0]
    if c == 0:
        return GaussianIntegralResult(1.0 + 0j, 1.0 + 0j, 0.0)
    det = np.linalg.det(np.eye(c) - A)
    if abs(det) < 1e-10:
        raise CleanLocusError("non-clean matrix: det(id - A) vanishes")
    draws = np.random.default_rng(seed).normal(size=(20, 2, c))
    v = draws[:, 0] + 1j * draws[:, 1]
    r = psi2(v @ A.T, v).real
    if (r > -1e-12 * (np.abs(v) ** 2).sum(axis=1)).any():
        raise CleanLocusError("integral not absolutely convergent: psi2 real part degenerate")
    closed = np.pi**c / det
    eigs, _ = unitary_eigenbasis(A)
    quadrature = 1.0 + 0.0j
    for mu in eigs:
        quadrature *= _line_integral(complex(mu))
    rel_q = abs(quadrature - closed) / abs(closed)
    return GaussianIntegralResult(complex(closed), complex(quadrature), float(rel_q))


def _line_integral(mu: complex) -> complex:
    """Square tensor Gauss-Legendre integral of exp(psi2(mu*v, v)) over one complex line.

    On the line psi2(mu*v, v) = (i*Im mu - 0.5*|mu - 1|^2)*|v|^2, and
    |v|^2 = x^2 + y^2 at v = x + iy, so the n*n tensor sum over the nodes
    x_i + i*x_j is exactly the square of the 1-d sum of w_i*exp(a*x_i^2):
    the same rule, reordered, in O(n) work.
    """
    decay = 1.0 - mu.real  # = 0.5*|mu-1|^2 + ... >= (1-cos phi), the Gaussian rate
    if decay <= 0:
        raise CleanLocusError("non-clean matrix: eigenline without decay")
    x, w = gaussian_line_rule(decay, abs(mu.imag))
    a = 1j * mu.imag - 0.5 * abs(mu - 1.0) ** 2
    return complex(np.dot(w, np.exp(a * x * x)) ** 2)


# ----------------------------------------------------------------------------
# stationary point of the truncated phase
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class StationaryCheck:
    pairing: float
    seed_point: np.ndarray
    grad_norm_at_seed: float
    hessian_det: complex
    expected_det: float

    @property
    def det_rel_error(self) -> float:
        return abs(self.hessian_det - self.expected_det) / abs(self.expected_det)


def covector_pairing(model: ProjectiveModel, x0: np.ndarray, omega: np.ndarray) -> float:
    """Pairing of the contact field with a covector (omega_0, omega_horizontal).

    omega has length 1 + 2d: the vertical component omega_0 followed by the
    real coordinates of the horizontal covector in the standard frame.  At a
    flow-fixed x0 the field is purely vertical and the pairing is
    -f(x0)*omega_0.
    """
    d = model.dim
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (1 + 2 * d,):
        raise ValueError(f"omega must have length {1 + 2*d}")
    f = float(hamiltonian(model, x0))
    field = contact_field(model, x0)
    horizontal = field + f * (1j * x0)  # remove the vertical part
    frame = complement_frame(x0, range(x0.size), tol=1e-8)
    if frame.shape[0] != d:
        raise ValueError("frame construction failed")
    coords = frame.conj() @ horizontal
    pairing = -f * omega[0]
    pairing += float(np.dot(coords.real, omega[1::2]) + np.dot(coords.imag, omega[2::2]))
    return pairing


def _phase_gradient(point: np.ndarray, omega0: float, q: float) -> np.ndarray:
    theta, t, tau, r = point
    return np.array(
        [
            -r * omega0 + t * np.exp(1j * theta),
            1j * (1.0 - np.exp(1j * theta)),
            -r * q - 1.0,
            -theta * omega0 - tau * q,
        ],
        dtype=complex,
    )


def _phase_hessian_analytic(point: np.ndarray, omega0: float, q: float) -> np.ndarray:
    theta, t, tau, r = point
    e = np.exp(1j * theta)
    H = np.zeros((4, 4), dtype=complex)
    H[0, 0] = 1j * t * e
    H[0, 1] = H[1, 0] = e
    H[0, 3] = H[3, 0] = -omega0
    H[2, 3] = H[3, 2] = -q
    return H


def stationary_point_check(
    model: ProjectiveModel,
    x0: np.ndarray,
    omega: np.ndarray,
) -> StationaryCheck:
    """Verify the closed-form stationary point of the truncated trace phase.

    The phase in the variables (theta, t, tau, r) is

        Psi = -r*theta*omega_0 - tau*r*q + i*t*(1 - e^{i theta}) - tau,

    with q the contact/covector pairing at x0 (the quadratic-in-tau remainder
    is dropped; the closed form is stated for this truncation).  The check
    confirms the gradient vanishes at (0, -omega_0/q, 0, -1/q), refines by
    Newton, and compares the finite-difference Hessian determinant (step
    `_HESSIAN_FD_STEP`) at the refined point against q^2 (the
    lambda-normalised closed form).
    """
    omega = np.asarray(omega, dtype=float)
    q = covector_pairing(model, x0, omega)
    if q >= 0:
        raise DegenerateDirectionError("degenerate direction: pairing must be negative")
    omega0 = float(omega[0])
    seed = np.array([0.0, -omega0 / q, 0.0, -1.0 / q], dtype=complex)
    grad0 = _phase_gradient(seed, omega0, q)
    point = seed.copy()
    for _ in range(8):
        g = _phase_gradient(point, omega0, q)
        if np.linalg.norm(g) < 1e-14:
            break
        point = point - np.linalg.solve(_phase_hessian_analytic(point, omega0, q), g)

    # finite-difference Hessian with one Richardson step
    def fd_hessian(h: float) -> np.ndarray:
        H = np.zeros((4, 4), dtype=complex)
        for j in range(4):
            step = np.zeros(4, dtype=complex)
            step[j] = h
            H[:, j] = (
                _phase_gradient(point + step, omega0, q)
                - _phase_gradient(point - step, omega0, q)
            ) / (2.0 * h)
        return H

    H1, H2 = fd_hessian(_HESSIAN_FD_STEP), fd_hessian(_HESSIAN_FD_STEP / 2.0)
    H = (4.0 * H2 - H1) / 3.0
    return StationaryCheck(
        pairing=q,
        seed_point=seed.real,
        grad_norm_at_seed=float(np.linalg.norm(grad0)),
        hessian_det=complex(np.linalg.det(H)),
        expected_det=q * q,
    )


# ----------------------------------------------------------------------------
# expansion fitting
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class FitResult:
    coefficients: np.ndarray
    residuals: np.ndarray  # rms residual after fitting 0..n terms
    measured_slope: float

    @property
    def leading(self) -> complex:
        return complex(self.coefficients[0]) if self.coefficients.size else 0j


def fit_expansion(scan, half_powers: bool = True, n_terms: int = 3) -> FitResult:
    """Least-squares correction coefficients of an exact/predicted ratio scan.

    Fits ratio - 1 = sum_{j=1..n} c_j * grid^{-j/2} (or grid^{-j} when
    ``half_powers`` is false).  Accepts a ScanReport (uses its grid/ratios)
    or a (grid, ratios) pair.  Returns the coefficients at the largest order
    together with the rms residual after each order and the measured log-log
    slope of |ratio - 1| (the empirical first-correction exponent).
    """
    if isinstance(scan, ScanReport):
        grid, ratios = scan.grid, scan.ratios
    else:
        grid, ratios = scan
        grid = np.asarray(grid, dtype=float)
        ratios = np.asarray(ratios, dtype=complex)
    if grid.size < n_terms + 2:
        raise FitError("ill-conditioned fit: not enough grid points")
    y = ratios - 1.0
    step = 0.5 if half_powers else 1.0
    powers = -step * np.arange(1, n_terms + 1)
    V = grid[:, None] ** powers
    if np.linalg.cond(V) > 1e12:
        raise FitError("ill-conditioned fit: Vandermonde condition number too large")
    residuals = [float(np.sqrt(np.mean(np.abs(y) ** 2)))]
    coeffs = np.zeros(0, dtype=complex)
    for n in range(1, n_terms + 1):
        coeffs, *_ = np.linalg.lstsq(V[:, :n], y, rcond=None)
        res = y - V[:, :n] @ coeffs
        residuals.append(float(np.sqrt(np.mean(np.abs(res) ** 2))))
        if residuals[-1] > 2.0 * residuals[-2] + 1e-15:
            raise FitError("ill-conditioned fit: residual grew when adding a term")
    good = np.abs(y) > 0
    if good.sum() >= 2:
        slope = float(np.polyfit(np.log(grid[good]), np.log(np.abs(y[good])), 1)[0])
    else:
        slope = float("nan")
    return FitResult(
        coefficients=coeffs,
        residuals=np.array(residuals),
        measured_slope=slope,
    )
