"""Exact smoothed spectral quantities: traces, kernel diagonals, and scans.

Everything here is an *exact* computation over the integer spectrum
n = <alpha, w> of a weight model; no asymptotics enter and no degree is
truncated.  Traces and kernel diagonals are one window-cut sum

    scale * sum_n c_n chihat(lam - n)

with two choices of coefficients and scale.  For the trace, c_n is the
denumerant d(n) = [x^n] prod_i (1 - x^{w_i})^{-1}, the multiplicity of n over
all degrees, an exact integer, and the scale is 1.  For the kernel diagonal at
a sphere point with moment coordinates t_i = |z_i|^2 (so sum_i t_i = 1) the
scale is d!/pi^d and c_n = h_n(t), with

    sum_n h_n x^n = (1 - sum_i t_i x^{w_i})^{-(d+1)},
    n h_n = sum_i t_i (n + d w_i) h_{n - w_i},   h_0 = 1,

a positive recurrence with no cancellation.  The only truncation is the
window cut to the eigenvalues n nearest lam, and its remainder is proven:
h_n = sum_k C(k+d, d) P(S_k = n) for the walk S_k whose steps are w_i with
probabilities t_i; steps are >= 1, so the walk hits n at most once and then
after k <= n/min_w steps, which gives h_n <= C(floor(n/min_w) + d, d).
Fixing one coordinate of minimal weight, the other d determine it, so d(n)
obeys the same bound.  Every row keeps one fixed cut, all n >= 0 with
|lam - n| <= `_GAUSS_FAR`/eps, where the Gaussian factor exp(-(eps s)^2/2)
has fallen to about 1e-304; the majorant terms outside it are bounded by a
geometric series on each side (`_window_cut`).  The closed form's aliases,
`_negative_tail` and the harness's tau0 limit use the same reach.  The
bump's transform envelope decays only like exp(-sqrt(eps s)), beyond any
geometric series, so bump sums refuse with CoverageError.

Gaussian rows are first formed in closed form, traces and kernel
diagonals alike: c_n = sum_rho rho^n P_rho(n) over the poles rho of the
coefficients' generating function, each one `_Pole` record.  The trace's
poles are the roots of unity of prod_i (1 - x^{w_i})^-1 (`_unit_poles`),
the kernel's rho = 1 and the Newton-polished roots of a deflated p_t
(`_poles`); each takes P_rho from one Laurent expansion of its own factors,
1 - x^{w_i} or p_t at x = (1 - y)/rho, reading no other pole (`_laurent`,
`_pole_record`).  Poisson summation turns each pole into a few aliases near
tau0 (`_alias_walk`), each 2 pi e^X e^{i phase} R(mu), R a gaussian moment
polynomial in mu evaluated by Horner's rule over the grid, with one bound
on the omitted aliases and one rounding derivation (`_pole_sum`).  The
phase of a root of unity comes from an exact reduction of lam
(`_period_phase`); any other pole's exponent is formed per row at
`_DECIMAL_DIGITS` digits and rounded once.  The part of the continued
formula at negative n is subtracted: on every trace row the reciprocity
ghost, (-1)^d times the conjugate trace eigen-sum at -lam - sum w (its cut
is empty once lam + sum w passes `_GAUSS_FAR`/eps), and the kernel's n <=
-(d+1)D, summed from the poles (`_negative_tail`).  Such a row costs O(1)
in lam, is labelled "closed-form", and reports its omitted aliases and
negative-n part as its remainder.  One verdict judges every row a closed
form formed (`_closed_form_verdict`): it stands when it is finite and meets
the cut target, and is taken when, besides, it does not cancel (its kappa
is at most `_CLOSED_FORM_KAPPA`); trace period terms that cancel past that
are summed again at `_DECIMAL_DIGITS` digits (`_exact_periods`).

Every other row (bump windows, colliding poles, trace rows past 2^52, rows
whose terms overflow) is an eigen-sum over its window cut, in double
(`_eigen_sum_trace`, `_eigen_sum_diagonal`: `_window_cut`, one coefficient
table, `_window_sums` and `_rounding_bounds`).  Near a period the phases
alternate and the sum cancels: kappa = sum |terms| / |sum| is 5e7 to 2e12 on
the off-locus diagonal scans and grows like lam^d on a trace at tau0 = pi.
One chooser serves traces and kernels (`_chosen_rows`): a row that stands
but is not taken is summed as an eigen-sum too, and keeps whichever value
reports the smaller remainder plus rounding bound; no eigen-sum is summed
past double.  The eigen-sum takes its phases from one table of cis(k tau0),
|k| <= K, each entry rounded once from 40 digits and built once per (tau0,
eps) (`_phase_table`): with c = round(lam) and f = lam - c a row is
e^{-i f tau0} sum_k c_{c+k} chihat_0(f - k) cis(k tau0), so no phase
argument grows with |lam - n| and a row takes one complex exponential.  Each row reports its arithmetic, "closed-form" or "double",
and a rounding bound (`_rounding_bounds`, or the closed form's own) next to
its remainder; the eigen-sum's bound charges each term's rounding at its own
distance |lam - n|, and passes |value| on a row that cancels past what
double resolves.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction
from numbers import Real

import numpy as np

from .asymptotics import _period_phase, local_prediction, predict_local
from .errors import CoverageError, InputError
from .geometry import HeisenbergChart, ProjectiveModel, check_points
from .reports import ScanReport
from .spectral import SpectralPackage, section_dimension
from .windows import Window

# smallest target a window cut's remainder must meet; rows far below the
# spectrum, whose kept sum underflows, do not refuse
_CUT_FLOOR = 1e-290
# a window cut keeps |lam - n| <= _GAUSS_FAR/eps, where exp(-(eps s)^2/2) is
# about 1e-304, and bounds the terms beyond by a geometric series
_GAUSS_FAR = math.sqrt(1400.0)
# largest coefficient table n = 0..n_hi a cut may ask for (`_denumerants`,
# `_h_table`): a one-point (1, 2) trace at lambda = 1e6 tabulates about 1e6
# entries and peaks near 90 MB, at 2e6 near 145 MB
_CUT_TABLE_MAX = 1 << 21
# a trace's pole sum takes its rows in blocks of about this many (alias,
# row) terms, some 20 MB of arrays (`_pole_sum`'s fixed cost per call is a
# few hundred us on a handful of poles)
_POLE_BLOCK = 1 << 16
# the closed forms' roots, angles and moments and the phase table are formed
# at 40 significant digits, with this rounding unit, and rounded once
_DECIMAL_DIGITS = 40
_DECIMAL_UNIT = 1e-39
# the double pass sums its rows in blocks of at most this many terms
_BLOCK_TERMS = 1 << 13
# a row's window is as long as its cut, rounded up to this
_WINDOW_STEP = 64
_BUMP_REFUSAL = (
    "the bump transform's envelope decays like exp(-sqrt(eps*s)), so the geometric "
    "far-tail bound does not cover it"
)
# a closed-form row is kept only if it does not cancel: sum of its term
# majorants over |value| at most this (every acceptance row reads <= 2.2)
_CLOSED_FORM_KAPPA = 16.0
_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")


@dataclass(eq=False, repr=False)
class TraceResult:
    """Smoothed traces (scalars, or arrays along a grid) with their error budgets.

    ``precision`` names each row's arithmetic: "closed-form"
    (`_closed_form_trace`), or "double" for an eigen-sum row.
    ``cut_remainder`` bounds what a row leaves out (an eigen-sum row's
    window cut; a closed-form row's omitted periods and ghost tail) and
    ``rounding_bound`` the rounding of what it keeps.  ``n_eigenvalues``
    counts the terms summed over the grid: the eigenvalues, with
    multiplicity, inside an eigen-sum row's cut, and for a closed-form row
    one per period term plus the eigenvalues of its ghost sum.
    """

    value: complex | np.ndarray
    cut_remainder: float | np.ndarray
    n_eigenvalues: int
    rounding_bound: float | np.ndarray
    precision: str | np.ndarray


def spectral_tail_bound(pkg: SpectralPackage, win: Window, lam: float) -> float:
    """Bound the contribution of degrees beyond k_max to a degree-truncated trace.

    sum_{k>k_max} dim_k * envelope(k*min_w - lam), summed term by term until
    the terms fall below 1e-4 of the sum and bounded by a geometric series
    beyond.  The trace itself is untruncated; this certifies sums over a
    package's eigenvalues, such as the oracle sums of the tests.
    """
    if win.shape != "gaussian":
        raise CoverageError(_BUMP_REFUSAL)
    d, m = pkg.model.dim, min(pkg.model.weights)
    total, k = 0.0, pkg.k_max + 1
    while True:
        s = max(k * m - lam, 0.0)
        term = section_dimension(d, k) * float(win.fourier_envelope(s))
        total += term
        # once k*m >= lam the term ratio is at most (1 + d/(k+1))
        # exp(-eps^2 m (2s + m)/2), decreasing in k
        q = (1.0 + d / (k + 1)) * math.exp(-0.5 * win.eps**2 * m * (2.0 * s + m))
        if k * m >= lam and q < 1.0 and term <= 1e-4 * total:
            return total + term * q / (1.0 - q)
        k += 1
        if k > pkg.k_max + 100000:
            raise CoverageError("tail bound did not converge within 1e5 degrees")


def _denumerants(weights, n_max: int) -> np.ndarray:
    """d(n) = #{alpha : <alpha, w> = n}, n = 0..n_max, exact: per weight w, a
    cumulative sum along each residue class mod w (the factor 1/(1 - x^w)).
    Every partial table is at most d(n), and d(n) at most the walk majorant:
    int64 below 2^63, Python ints (dtype=object) past it (2^21 entries on 21
    unit weights take about 3 s); refused from 2^1023, which a double may
    not hold."""
    size = max(n_max, 0) + 1
    d, min_w = len(weights) - 1, min(weights)
    top = math.comb((size - 1) // min_w + d, d)
    if top >= 2**1023:
        raise CoverageError(f"denumerants up to n = {size - 1} may pass the double range")
    dtype = np.int64 if top < 2**63 else object
    counts = np.zeros(size, dtype=dtype)
    counts[0] = 1
    for w in weights:
        padded = np.zeros(-(-size // w) * w, dtype=dtype)
        padded[:size] = counts
        counts = np.cumsum(padded.reshape(-1, w), axis=0).ravel()[:size]
    return counts


def smoothed_trace(
    model: ProjectiveModel, win: Window, lam, tail_tol: float = 1e-10
) -> TraceResult:
    """Exact smoothed trace sum_n d(n) transform(lam - n) over every degree.

    ``lam`` is a number or a 1-D grid.  Each row is first formed in closed
    form from the poles of d(n)'s generating function (`_closed_form_trace`);
    the rows it does not take are eigen-sums over their own window cut
    (`_eigen_sum_trace`), chosen between by `_chosen_rows`.
    """
    (values, remainders, bounds, terms), precision = _chosen_rows(
        win, lam, tail_tol, None,
        lambda lams: _closed_form_trace(model, win, lams, tail_tol),
        lambda lams, rows: _eigen_sum_trace(model, win, lams),
    )
    if np.ndim(lam) == 0:
        return TraceResult(complex(values[0]), float(remainders[0]), int(terms[0]),
                           float(bounds[0]), str(precision[0]))
    return TraceResult(values, remainders, int(terms.sum()), bounds, precision)


def _chosen_rows(win: Window, lam, tail_tol, size, closed_form, eigen_sum):
    """The rows of a trace or kernel diagonal: values, remainders, rounding
    bounds (and for traces term counts) and each row's arithmetic,
    "closed-form" or "double".  In order: tau0 (`_check_tau0`), lam
    (`_check_lambdas`, ``size`` rows when given) and tail_tol are checked;
    ``closed_form(lams)`` forms the rows (the columns of ``eigen_sum``, sum
    |terms| read as sum of majorants, and a mask of the rows formed), which
    `_closed_form_verdict` judges; ``eigen_sum(lams, rows)`` sums the rows
    not taken; one short of `_final_cut_target` refuses; a row that stands
    keeps the better certified of its two values."""
    _check_tau0(win)
    lams = _check_lambdas(lam, size)
    if not (isinstance(tail_tol, Real) and 0 < tail_tol < math.inf):
        raise InputError(f"tail_tol must be positive and finite, got {tail_tol!r}")
    *columns, formed = closed_form(lams)
    formed, taken = _closed_form_verdict(columns, formed, tail_tol)
    precision = np.full(lams.size, "closed-form", dtype=object)
    rows = np.flatnonzero(~taken)
    if rows.size:
        values, remainders, bounds, magnitudes, *more = eigen_sum(lams[rows], rows)
        targets = _final_cut_target(tail_tol, 2.0**-52, magnitudes)
        if not (remainders <= targets).all():
            i = int(np.argmin(remainders <= targets))  # the first row short of its target
            raise CoverageError(f"window cut remainder {remainders[i]:.2e} cannot reach "
                                f"{targets[i]:.2e} at lambda={lams[rows[i]]}")
        use = ~(formed[rows] & (columns[1][rows] + columns[2][rows] < remainders + bounds))
        for column, new in zip(columns, (values, remainders, bounds, magnitudes, *more)):
            column[rows[use]] = new[use]
        precision[rows[use]] = "double"
    del columns[3]  # the sums of majorants or |terms|, read by the verdict and the cut target
    return columns, precision


def _eigen_sum_trace(model: ProjectiveModel, win: Window, lams: np.ndarray):
    """The trace rows at ``lams`` as window-cut eigen-sums: values,
    remainders, rounding bounds, sum |terms| and each row's count of
    eigenvalues inside its cut, all from one table of d(n)."""
    lo, hi, remainders = _window_cut(win, model, lams)
    counts = _denumerants(model.weights, int(hi.max(initial=-1))).astype(float)
    table = np.broadcast_to(counts[:, None], (counts.size, lams.size))
    values, moments = _window_sums(win, lams, table, lo, hi, 1.0)
    # d(n) is an exact integer rounded once to double
    bounds = _rounding_bounds(win, model, lams, (values, moments, remainders, lo, hi), 1.0)
    below = np.concatenate([[0.0], np.cumsum(counts)])  # doubles: d(n) passes int64 on large cuts
    return values, remainders, bounds, moments[0], below[hi + 1] - below[lo]


# ----------------------------------------------------------------------------
# the window cut
# ----------------------------------------------------------------------------


def _walk_majorant(n: np.ndarray, d: int, min_w: int) -> np.ndarray:
    """C(floor(n/min_w) + d, d): bounds h_n(t) over the whole sphere, and d(n)."""
    m = n // min_w
    out = np.ones(n.shape)
    for j in range(1, d + 1):
        out *= (m + j) / j
    return out


def _window_cut(
    win: Window, model: ProjectiveModel, lams: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cut lo..hi of each lam, all n >= 0 with |lam - n| <= `_GAUSS_FAR`/eps
    (empty: hi = lo - 1), and its unscaled remainder: a bound on sum b(n)
    envelope(lam - n) over the n >= 0 outside it, b the walk majorant.

    To the right the term ratio from n to n + 1 is at most q = (1 + d/(m+1))
    exp(-eps^2 (2s+1)/2), m = floor(n/min_w) and s = n - lam, decreasing in
    n, so the terms from n0 = hi + 1 on, s0 = n0 - lam > 0, sum to at most
    b(n0) envelope(s0)/(1 - q(n0)), or where q(n0) >= 1 (small eps), as C(m0
    + k + d, d) <= C(m0 + d, d) C(k + d, d) and envelope(s0 + k) <=
    envelope(s0) exp(-eps^2 s0 k), b(n0) envelope(s0)/(1 - exp(-eps^2
    s0))^(d+1).  To the left (lo > 0) b does not grow as n falls and the
    envelope ratio from n to n - 1 is at most exp(-eps^2 (2s+1)/2), s = lam
    - n, so the terms from n1 = lo - 1 down sum to at most b(n1)
    envelope(lam - n1)/(1 - exp(-eps^2 (2(lam - n1) + 1)/2)).  A cut whose
    coefficient table 0..hi would pass `_CUT_TABLE_MAX` entries is refused
    before anything is allocated.
    """
    if win.shape != "gaussian":
        raise CoverageError(_BUMP_REFUSAL)
    d, min_w = model.dim, int(min(model.weights))
    reach = _GAUSS_FAR / win.eps
    far = np.floor(lams + reach)
    if far.max(initial=0.0) >= _CUT_TABLE_MAX:
        i = int(np.argmax(far))
        raise CoverageError(
            f"lambda={lams[i]:.6g} needs a window-cut table of {far[i] + 1:.3g} entries, above "
            f"the {_CUT_TABLE_MAX} a cut may tabulate (ROADMAP item 1: an O(1/eps) cut)"
        )
    lo = np.maximum(np.ceil(lams - reach), 0.0).astype(np.int64)
    hi = np.maximum(far, lo - 1).astype(np.int64)

    def tail(n, s, growth):
        q = growth * np.exp(-0.5 * win.eps**2 * (2.0 * s + 1.0))
        size = _walk_majorant(n, d, min_w) * win.fourier_envelope(s)
        # 0/0 arises only in a left tail that lo = 0 masks; a left tail has q < 1
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(q < 1.0, size / (1.0 - q), size / (-np.expm1(-win.eps**2 * s)) ** (d + 1))

    right = tail(hi + 1, hi + 1 - lams, 1.0 + d / ((hi + 1) // min_w + 1))
    left = np.where(lo > 0, tail(lo - 1, lams - lo + 1, 1.0), 0.0)
    return lo, hi, right + left


def _check_tau0(win: Window) -> None:
    """Refuse (CoverageError) a window whose |tau0| is not below 2^52
    eps/`_GAUSS_FAR`, 1.8e13 at eps 0.15.

    A cut keeps |s| = |lam - n| <= `_GAUSS_FAR`/eps, and the phase table
    |k| <= K, so below the limit every phase argument is under about 2^52
    radians: `_negative_tail`, which still forms s*tau0 in double, keeps it to
    a radian, and the 40-digit reduction of tau0 in `_cis_powers` leaves the
    table more than 20 digits, as it leaves the pole sum's angles theta =
    tau0 - 2 pi (k - turn) (`_alias_walk`).  Far beyond it that reduction
    loses every digit (near |tau0| = 1e40), and at tau0 = 1e300 the alias
    walk did not return within a minute.
    """
    limit = 2.0**52 * win.eps / _GAUSS_FAR
    if not abs(win.tau0) < limit:
        raise CoverageError(
            f"|tau0| must be below 2^52 eps/sqrt(1400) = {limit:.3g} to resolve the phases "
            f"across the window cut, got {win.tau0:.6g}"
        )


def _check_lambdas(lam, size: int | None = None) -> np.ndarray:
    """``lam``, a number or a 1-D grid, as a float grid (broadcast to ``size``
    rows when given), refused (InputError) unless every lam is real and
    finite."""
    try:
        lams = np.asarray(lam)
        if lams.dtype.kind not in "iufO" or lams.ndim > 1:
            raise TypeError
        lams = np.atleast_1d(lams.astype(float))
        lams = lams if size is None else np.broadcast_to(lams, (size,))
    except (TypeError, ValueError):
        per = "" if size is None else f" (one, or one per point: {size})"
        raise InputError(f"lambda must be a real number or a 1-D grid{per}, got {lam!r}") from None
    if not np.isfinite(lams).all():
        raise InputError(f"lambda must be finite, got {lams[~np.isfinite(lams)][0]}")
    return lams


def _final_cut_target(tail_tol: float, unit, magnitudes: np.ndarray) -> np.ndarray:
    """What a cut must meet: min(tail_tol, unit * sum |terms|), above the floor."""
    return np.maximum(np.minimum(tail_tol, unit * magnitudes), _CUT_FLOOR)


def _closed_form_verdict(columns, formed, tail_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Of the rows ``formed`` by a closed form, with ``columns`` (values,
    remainders, rounding bounds, sums of term majorants M, ...), those that
    stand, finite and within `_final_cut_target`(tail_tol, 2^-53, M), and
    those taken: standing with kappa = M/|value| <= `_CLOSED_FORM_KAPPA`."""
    value, remainder, bound, majorants = columns[:4]
    formed = formed & np.isfinite(value) & np.isfinite(remainder) & np.isfinite(bound)
    formed &= np.isfinite(majorants) & (remainder <= _final_cut_target(tail_tol, 2.0**-53, majorants))
    return formed, formed & (majorants <= _CLOSED_FORM_KAPPA * np.abs(value))


# ----------------------------------------------------------------------------
# the eigen-sum: one window-cut sum for traces and kernels
# ----------------------------------------------------------------------------


def _rounding_bounds(win, model, lams, sums, fixed_units, units_per_n=0.0) -> np.ndarray:
    """First-order bounds on the rounding error of each row of ``sums``,
    (values, moments, remainders, lo, hi) of an eigen-sum's window cut and
    `_window_sums`.

    With u = 2^-53 and N kept terms, c = round(lam) and f = lam - c (|f| <=
    1/2), the term at n = c + k, s = lam - n = f - k and x = (eps s)^2 / 2,
    carries a relative error of at most u times the sum of (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2002, ch. 3-4):

    - C = ``fixed_units`` + ``units_per_n`` n for its coefficient: 1 for
      d(n) rounded to double, (d + 4) n/min_w for h_n, whose positive
      recurrence rounds d + 4 times a step along at most n/min_w steps; n =
      lam - s <= max(lam, 0) + |s|;
    - 8x + 2 for the gaussian factor, whose exponent double computes to 8u;
    - Q for cis(k tau0) from the phase table (`_phase_table`), whose entries
      are the 40-digit values rounded once: Q = 1 (0 at tau0 = 0, where
      every entry is exactly 1);
    - 2d + 10 for eps sqrt(2 pi), d!/pi^d and the joining products.

    Summing N complex terms adds sqrt(2) (N - 1) u per |term| (the zeros
    outside the cut add nothing); a factor 2 takes up the sqrt(2) and the
    second-order terms.  The turn e^{-i f tau0} multiplies the row's sum
    once, so its error is relative to |value|, R units: f tau0 is rounded
    once (|f| |tau0| units), cos and sin are within 2 units and the complex
    product within 3, R = |f| |tau0| + 5 (0 at tau0 = 0, where the turn is
    exactly 1).  So with the moments M_j = sum |t| |s|^j of the kept terms t
    (`_window_sums`),

        rho = 2 u (sum_terms |t| (N + C + 8x + Q + 2d + 12) + R |value|)

    is charged exactly against M_0, M_1 and M_2 (a polynomial in |s| of
    degree 2).  rho passes |value| once kappa passes about 1 / (2 u N): such
    a row is unresolved, and its bound says so.
    """
    values, (m0, m1, m2), _, lo, hi = sums
    tau = abs(win.tau0)
    f = np.abs(lams - np.rint(lams))
    turn = f * tau + 5 if tau else 0.0
    n_terms = np.maximum(hi - lo + 1, 0)
    fixed = (n_terms + fixed_units + units_per_n * np.maximum(lams, 0.0) + (1.0 if tau else 0.0)
             + 2 * model.dim + 12)
    units = fixed * m0 + units_per_n * m1 + 4 * win.eps**2 * m2
    return 2.0 * 2.0**-53 * (units + turn * np.abs(values))


def _h_table(t: np.ndarray, weights, n_max: int) -> np.ndarray:
    """h_n(t) for n = 0..n_max (rows), one column per row of t.

    The recurrence n h_n = sum_w (n + d w) t_w h_{n - w}, with equal weights
    merged and the factor columns (n + d w) t_w tabulated once; each step
    multiplies, adds the terms in weight order to zero and divides by n.
    """
    d = len(weights) - 1
    coeffs: dict = {}
    for tw, w in zip(np.asarray(t, dtype=float).T, weights):
        coeffs[w] = coeffs[w] + tw if w in coeffs else tw
    n = np.arange(max(n_max, 0) + 1)
    factors = [(w, np.multiply.outer(n + d * w, tw)) for w, tw in coeffs.items()]
    h = np.zeros((n.size, t.shape[0]))
    h[0] = 1
    term = np.empty(t.shape[0])
    for m in range(1, n_max + 1):
        for w, factor in factors:
            if m >= w:
                np.multiply(factor[m], h[m - w], out=term)
                h[m] += term
        h[m] /= m
    return h


def _phase_table(win: Window) -> tuple[np.ndarray, np.ndarray]:
    """cis(k tau0) for k = -K..K, K = ceil(`_GAUSS_FAR`/eps) + 1, as read-only
    (cos, sin) arrays: each entry stepped from cis(tau0) at
    `_DECIMAL_DIGITS` digits (`_cis_powers`) and rounded once to double.
    With c = round(lam), every n of a row's cut has |n - c| <= |lam - n| +
    1/2 <= K.  Built once per (tau0, eps) and shared by every later call."""
    return _phase_table_at(float(win.tau0), float(win.eps))


@functools.lru_cache(maxsize=8)
def _phase_table_at(tau0: float, eps: float) -> tuple[np.ndarray, np.ndarray]:
    with localcontext() as ctx:
        ctx.prec = _DECIMAL_DIGITS
        exact = _cis_powers(Decimal(tau0), math.ceil(_GAUSS_FAR / eps) + 1)
    cos = np.array([float(c) for c, _ in exact])
    sin = np.array([float(s) for _, s in exact])
    cos, sin = np.concatenate([cos[:0:-1], cos]), np.concatenate([-sin[:0:-1], sin])
    cos.flags.writeable = sin.flags.writeable = False
    return cos, sin


def _window_sums(win: Window, lams, h: np.ndarray, lo, hi, scale) -> tuple[np.ndarray, np.ndarray]:
    """Kept sums sum_n h_n chihat(lam - n) over lo..hi per point, and the
    moments sum |t| |s|^j, j = 0, 1, 2, of their terms t at s = lam - n (rows
    of a (3, points) array).

    With c = round(lam) and f = lam - c, chihat(lam - n) = e^{-i f tau0}
    chihat_0(f - k) cis(k tau0) at n = c + k, so a row is

        e^{-i f tau0} sum_k h_{c+k} chihat_0(f - k) cis(k tau0)

    over the window n = lo..lo + W - 1, W the cut's length rounded up to a
    multiple of `_WINDOW_STEP`, masked to lo..hi, with cis(k tau0) read
    from `_phase_table`, fetched only when some row keeps terms: one complex
    exponential per row.  A row's window depends on that row alone, so its
    value does not depend on the grid; rows of one window length go in
    blocks of at most `_BLOCK_TERMS` terms.
    """
    values = np.zeros(len(lams), dtype=complex)
    moments = np.zeros((3, len(lams)))
    rows = np.flatnonzero(hi >= lo)
    if not rows.size:
        return values, moments
    cos, sin = _phase_table(win)
    reach = (cos.size - 1) // 2
    centres = np.rint(lams)
    widths = -(-(hi - lo + 1) // _WINDOW_STEP) * _WINDOW_STEP  # lo - c >= -K; past hi masked
    for width in sorted(set(widths[rows].tolist())):  # np.unique would load numpy.ma
        group = rows[widths[rows] == width]
        step = max(1, _BLOCK_TERMS // width)
        for first in range(0, group.size, step):
            i = group[first : first + step]
            f = lams[i] - centres[i]
            ks = (lo[i] - centres[i]).astype(np.int64)[:, None] + np.arange(width)
            at = np.minimum(ks + reach, 2 * reach)
            n = centres[i, None].astype(np.int64) + ks
            kept = (n >= lo[i, None]) & (n <= hi[i, None])
            s = f[:, None] - ks
            g = np.where(kept, h[np.clip(n, 0, h.shape[0] - 1), i[:, None]], 0.0) * win.fourier_base(s)
            sums = (g * cos[at]).sum(axis=1) + 1j * (g * sin[at]).sum(axis=1)
            turns = np.array([complex(math.cos(x), -math.sin(x)) for x in (f * win.tau0).tolist()])
            values[i] = sums * turns * scale
            size, dist = np.abs(g) * scale, np.abs(s)
            moments[:, i] = size.sum(axis=1), (size * dist).sum(axis=1), (size * dist * dist).sum(axis=1)
    return values, moments


def _sin_cos(x: Decimal) -> tuple[Decimal, Decimal]:
    """sin x and cos x, |x| <= 4, at the context's precision: both Taylor
    series in Horner form, cut after the first term below 10^-(prec + 2)
    (about 30 terms at |x| = pi and 40 digits).  At |x| <= pi each is off by
    < 100 decimal units, charged 280: the steps S_k = 1 - S_{k+1} a_k, a_k =
    x^2/(2k(2k -+ 1)) <= 4.94, round 3 times each on numbers below 5, and a
    step's error reaches the result times the product of the later a_j,
    which sums to less than 12 over the steps."""
    x2, tiny, ax2 = x * x, 10.0 ** -(getcontext().prec + 2), float(x) ** 2
    terms, size = 1, 1.0
    while size > tiny:
        size *= ax2 / ((2 * terms - 1) * (2 * terms))
        terms += 1
    sin = cos = Decimal(1)
    for k in range(terms, 0, -1):
        sin = 1 - sin * x2 / (2 * k * (2 * k + 1))
        cos = 1 - cos * x2 / (2 * k * (2 * k - 1))
    return x * sin, cos


def _cis_powers(theta: Decimal, k_max: int) -> list:
    """(cos k theta, sin k theta) for k = 0..k_max, by stepping cis(theta),
    itself `_sin_cos` of theta reduced to |r| <= pi."""
    two_pi = 2 * _PI
    step_s, step_c = _sin_cos(theta - two_pi * (theta / two_pi).to_integral_value())
    powers = [(Decimal(1), Decimal(0))]
    for _ in range(k_max):
        c, s = powers[-1]
        powers.append((c * step_c - s * step_s, c * step_s + s * step_c))
    return powers


# ----------------------------------------------------------------------------
# the poles of the generating functions: one record for traces and kernels
# ----------------------------------------------------------------------------

# two poles closer than this, relative to the larger modulus, are not
# separated: their partial fractions would cancel, and the row is summed by
# the eigen-sum instead
_ROOT_SEPARATION = 1e-3
# Newton steps polishing each double root of p_t at `_DECIMAL_DIGITS` digits:
# the error goes about 1e-13 -> 1e-26 -> 1e-40 at the separation above
_NEWTON_STEPS = 3


@dataclass(frozen=True, repr=False)
class _Pole:
    """One pole rho = e^(log_modulus + i arg) of a generating function sum_n
    c_n x^n: it adds rho^n sum_j coeffs[j] n^j to c_n for every integer n.
    ``log_modulus`` (<= 0, and 0 on the unit circle) and ``arg`` (in [-pi,
    pi]) are `_DECIMAL_DIGITS`-digit decimals, each within ``error``;
    ``turn`` is arg/(2 pi) mod 1 as an exact Fraction for a root of unity of
    the trace (whose ``error`` is 0), else None.  ``coeffs`` are rounded once
    from the decimal sums ``exact`` (re, im), which are within ``errors[j]``
    of the true coefficients, and ``majorants[j]`` is |coeffs[j]| plus
    errors[j] over 2^-53 (`_pole_record`)."""

    log_modulus: Decimal
    arg: Decimal
    turn: Fraction | None
    coeffs: tuple
    exact: tuple
    errors: tuple
    majorants: tuple
    error: float


def _log_polar(re: Decimal, im: Decimal) -> tuple[Decimal, Decimal]:
    """(log |rho|, arg rho) of rho = re + i im != 0 at the context's
    precision, each from its double by one correction step: Halley's for
    log |rho|^2 (error cubed, one decimal exp), and for the angle the sine of
    its error, im cos(phi) - re sin(phi) over |rho| (error cubed over 6)."""
    norm = re * re + im * im
    y = Decimal(math.log(float(norm)))
    e = y.exp()
    log_modulus = (y + 2 * (norm - e) / (norm + e)) / 2
    if im == 0:
        return log_modulus, Decimal(0) if re > 0 else _PI
    phi = Decimal(math.atan2(float(im), float(re)))
    sin, cos = _sin_cos(phi)
    return log_modulus, phi + (im * cos - re * sin) / norm.sqrt()


def _cmul(a: tuple, b: tuple) -> tuple:
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _polished_roots(q: list) -> list | None:
    """The roots of S(y) = sum_k q[k] y^(m-k), m = len(q) - 1, q[0] = 1, as
    (re, im, radius): ``np.roots`` polished by `_NEWTON_STEPS` Newton steps at
    the context's precision, each with the radius of a disc that holds a root
    of S.  S has a root within m |S(y)|/|S'(y)| of any y, so the radius is m
    (|S(y)| + e_S)/|S'(y)| with e_S = 8 m u_dec sum_k q_k |y|^(m-k) for the
    rounding of the evaluation and of the q_k (u_dec = `_DECIMAL_UNIT`).
    The q_k are real, so ``np.roots`` returns complex roots in conjugate
    pairs, and every step on the conjugate of a guess is the conjugate of
    the step on the guess (each rounding is symmetric under negation): the
    second root of a pair is taken as the conjugate of the first.  None when
    the double roots already fail `_ROOT_SEPARATION`."""
    m = len(q) - 1
    if m <= 1:  # S(y) = y + q_1, or no root
        return [(-q[1], Decimal(0), 4 * _DECIMAL_UNIT * float(q[1]))] if m else []
    guesses = [complex(g) for g in np.roots([float(x) for x in q])]
    if _separation([1.0] + guesses) < _ROOT_SEPARATION:
        return None
    roots, polished = [], {}
    for g in guesses:
        if g.imag < 0 and g.conjugate() in polished:
            re, im, radius = polished[g.conjugate()]
            roots.append((re, im.copy_negate(), radius))
            continue
        y0, y1 = Decimal(g.real), Decimal(g.imag)
        for step in range(_NEWTON_STEPS + 1):  # Horner for S (s) and S' (t)
            s0, s1, t0, t1 = q[0], Decimal(0), Decimal(0), Decimal(0)
            for x in q[1:]:
                t0, t1 = t0 * y0 - t1 * y1 + s0, t0 * y1 + t1 * y0 + s1
                s0, s1 = s0 * y0 - s1 * y1 + x, s0 * y1 + s1 * y0
            if step < _NEWTON_STEPS:  # y -= S(y)/S'(y)
                n = t0 * t0 + t1 * t1
                y0, y1 = y0 - (s0 * t0 + s1 * t1) / n, y1 - (s1 * t0 - s0 * t1) / n
        size = abs(complex(float(y0), float(y1)))
        e_s = 8 * m * _DECIMAL_UNIT * sum(float(x) * size ** (m - k) for k, x in enumerate(q))
        value = abs(complex(float(s0), float(s1)))
        polished[g] = (y0, y1, m * (value + e_s) / abs(complex(float(t0), float(t1))))
        roots.append(polished[g])
    return roots


def _separation(roots) -> float:
    """The least |rho_r - rho_s| / max(|rho_r|, |rho_s|) over pairs of roots."""
    return min(
        (abs(a - b) / max(abs(a), abs(b)) for i, a in enumerate(roots) for b in roots[:i]),
        default=math.inf,
    )


def _laurent(factors: list) -> tuple[list, tuple, float]:
    """The Laurent series at a pole rho of G = prod_f P_f(x)^-M_f from its
    own factors: each P = 1 - sum_w a_w x^w as (M, z, terms), z its order at
    rho, terms ((w, s_w, e_w), ...) with s_w = a_w rho^-w a complex decimal
    and e_w its distance from the truth plus (T + 1) v |s_w| (T terms), the
    rounding of the sums that form g.

    At x = (1 - y)/rho, P = 1 - sum_w s_w (1 - y)^w = y^z g(y), g_0 != 0, so
    G = y^-m prod_f g_f^-M_f, m = sum_f z M the pole's order, and the
    coefficient phi_k of y^k, k < m, adds C(n + m - 1 - k, m - 1 - k) rho^n
    to [x^n] G.  Each g^-M comes from k g_0 h_k = sum_{j=1..k} (-M j - (k -
    j)) g_j h_{k-j}, h_0 = g_0^-M, at the context's precision.

    **Bounds.**  g_j is within e_j = sum_w C(w, z + j) e_w, so with a_0 =
    |g_0| - e_0 > 0 and b_j = |g_j| + e_j the Cauchy majorants A^-M, A = a_0
    - sum_{j>0} b_j y^j, multiply to Phi >> phi for every g within the e_j.
    Moving g by the e_j moves phi by at most Phi sum_f M E_f/A_f, E_f = sum_j
    e_j y^j; as E_f << eps_f (2 a_0 - A), eps_f = max(e_0/a_0, e_j/b_j), 1/A
    << a_0^(M-1) A^-M and A^-2M << 2^n a_0^-M A^-M at y^n (C(2M + n - 1, n)
    <= 2^n C(M + n - 1, n)), that is 2^m sum_f M eps_f of Phi.  Rounding (v
    = `_DECIMAL_UNIT`; a complex product 1.5 v of the product of the moduli,
    a k-term sum 0.71 (k - 1) v of their moduli, 1/g_0 2.5 v) leaves h_0
    within (4 M - 1.5) v of its majorant, and each step adds (0.71 k + 6.3)
    v, so h_k is within (4 M + k (k + 14)/2) v; each product of two series
    adds (m + 1) v.  Returns (phi, Phi, spread), each phi_k within spread
    Phi_k of the truth; phi is exactly real where every s_w is.
    """
    v, size = _DECIMAL_UNIT, sum(M * z for M, z, _ in factors)
    series, bound, spread = None, None, -(size + 1) * v
    for M, z, terms in factors:
        g, e, b = [], [], []
        for j in range(z, z + size):  # [y^j] P((1 - y)/rho) = [j = 0] - (-1)^j sum_w C(w, j) s_w
            re, im, err, sign = Decimal(j == 0), Decimal(0), v * (j == 0), (-1) ** (j + 1)
            for w, (s0, s1), e_w in terms:
                if w >= j:
                    c = sign * math.comb(w, j)
                    re, im, err = re + c * s0, im + c * s1, err + abs(c) * e_w
            g.append((re, im))
            e.append(err)
            b.append(abs(complex(float(re), float(im))) + err)
        a0 = b[0] - 2 * e[0]  # |g_0| - e_0
        if not a0 > 0:  # `_closed_form_diagonal` then sums the rows as eigen-sums
            raise ValueError("a factor's leading coefficient is within its error of 0")
        norm = g[0][0] * g[0][0] + g[0][1] * g[0][1]
        inv = g[0][0] / norm, -g[0][1] / norm
        h, hat = [functools.reduce(_cmul, [inv] * M)], [a0**-M]  # g^-M and its majorant A^-M
        for k in range(1, size):
            t0 = t1 = 0
            for j in range(1, k + 1):
                c, (p0, p1) = -M * j - (k - j), _cmul(g[j], h[k - j])
                t0, t1 = t0 + c * p0, t1 + c * p1
            h.append(_cmul((t0 / k, t1 / k), inv))
            hat.append(sum((M * j + k - j) * b[j] * hat[k - j] for j in range(1, k + 1)) / (k * a0))
        if series is None:
            series, bound = h, hat
        else:
            series = [tuple(map(sum, zip(*(_cmul(series[i], h[k - i]) for i in range(k + 1))))) for k in range(size)]
            bound = [sum(bound[i] * hat[k - i] for i in range(k + 1)) for k in range(size)]
        eps = max([e[0] / a0] + [x / y for x, y in zip(e[1:], b[1:]) if y])
        spread += 2**size * M * eps + (4 * M + (size - 1) * (size + 13) / 2 + size + 1) * v
    return series, tuple(bound), spread


@functools.lru_cache(maxsize=None)
def _binomial_bases(d: int) -> tuple:
    """C(n + K, K) = prod_{l <= K} (n + l)/l in powers of n, K = 0..d: each
    coefficient e, an exact rational, as (e rounded to `_DECIMAL_DIGITS`
    digits, e rounded to double)."""
    bases = [[Fraction(1)]]
    for k in range(1, d + 1):
        bases.append([(a + k * b) / k for a, b in zip([0] + bases[-1], bases[-1] + [0])])
    with localcontext() as ctx:
        ctx.prec = _DECIMAL_DIGITS
        return tuple(tuple((Decimal(e.numerator) / e.denominator, float(e)) for e in basis)
                     for basis in bases)


def _pole_record(factors, log_modulus, arg, turn, error) -> _Pole:
    """The pole rho = e^(log_modulus + i arg) of prod_f P_f(x)^-M_f as a
    `_Pole`, at the context's precision, from its own ``factors``.

    Its Laurent series phi (`_laurent`) adds sum_k phi_k C(n + K, K) rho^n,
    K = m - 1 - k and m the pole's order, to the n-th coefficient; it is
    converted once to powers of n by the exact rationals e_Kj = [n^j]
    C(n + K, K) (`_binomial_bases`), each rounded once.  Coefficient j is
    then off by at most (spread + (m + 1) v) sum_k e_Kj phibar_k (v =
    `_DECIMAL_UNIT`, phibar the series' majorants: v/2 for e_Kj and for the
    product, sqrt(2) v/2 for each of m - 1 sums, and phi_k within spread
    phibar_k)."""
    series, bounds, spread = _laurent(factors)
    size = len(series)
    exact, weight = [(Decimal(0), Decimal(0))] * size, [0.0] * size
    for (p0, p1), bound, basis in zip(series, bounds, _binomial_bases(size - 1)[::-1]):
        for j, (x, e) in enumerate(basis):
            exact[j] = exact[j][0] + p0 * x, exact[j][1] + p1 * x
            weight[j] += e * bound
    errors = tuple((spread + (size + 1) * _DECIMAL_UNIT) * w for w in weight)
    coeffs = tuple(complex(float(re), float(im)) for re, im in exact)
    majorants = tuple(abs(c) + e * 2.0**53 for c, e in zip(coeffs, errors))
    return _Pole(log_modulus, arg, turn, coeffs, tuple(exact), errors, majorants, error)


def _conjugate(p: _Pole) -> _Pole:
    """The pole conjugate to ``p`` of a real generating function: the
    conjugate arg, turn and coefficients, the same errors and majorants."""
    return _Pole(
        p.log_modulus, p.arg.copy_negate(), None if p.turn is None else 1 - p.turn,
        tuple(c.conjugate() for c in p.coeffs), tuple((x, y.copy_negate()) for x, y in p.exact),
        p.errors, p.majorants, p.error,
    )


def _poles(d: int, moments: tuple) -> list | None:
    """The poles of G(x) = sum_n h_n x^n = p_t(x)^-(d+1), p_t(x) = 1 - sum_w
    c_w x^w, for ``moments`` ((w, c_w), ...) as `_merged_moments` gives them.

    With D the largest w whose c_w > 0, p_t(x) = (1 - x) sum_{m<D} Q_m x^m,
    Q_m = sum_{w>m} c_w (sums of positive moments, no cancellation), so p_t
    = prod_rho (1 - rho x) over rho = 1 and the D - 1 roots of S(y) =
    sum_m Q_m y^(D-1-m) (`_polished_roots`), all with |rho| <= 1.  The root
    1 is exact for moments that sum to 1; the decimal moments sum to 1
    within 2 D decimal units, which moves it by at most that (p_t'(1) <= -1).
    The coefficients are real, so each conjugate pair is formed once
    (`_conjugate`).  None when two poles are closer than `_ROOT_SEPARATION`
    or their discs meet.
    """
    with localcontext() as ctx:
        ctx.prec = _DECIMAL_DIGITS
        top = max(w for w, c in moments if c > 0)
        tails = [sum((c for w, c in moments if w > m), Decimal(0)) for m in range(top)]
        roots = _polished_roots(tails)
        if roots is None:
            return None
        roots = [(Decimal(1), Decimal(0), 2 * top * _DECIMAL_UNIT)] + roots
        centres = [complex(float(re), float(im)) for re, im, _ in roots]
        gap = min((abs(a - b) for i, a in enumerate(centres) for b in centres[:i]), default=math.inf)
        if _separation(centres) < _ROOT_SEPARATION or max(x for _, _, x in roots) > gap / 4:
            return None
        poles, formed, unit = [], {}, _DECIMAL_UNIT
        scale = {w: (c, float(c)) for w, c in moments if c > 0}
        for r, (re, im, radius) in enumerate(roots):
            if (re, im.copy_negate()) in formed:
                poles.append(_conjugate(formed[re, im.copy_negate()]))
                continue
            log_modulus, arg = _log_polar(re, im) if r else (Decimal(0), Decimal(0))
            # |d log rho| <= |d rho|/(|rho| - |d rho|), and the decimal steps
            error = radius / (abs(centres[r]) - radius)
            error += 8 * _DECIMAL_UNIT * (1 + abs(float(log_modulus)) + abs(float(arg)))
            # s_w = c_w rho^-w: the radius moves rho^-w by w radius (|rho| - radius)^-(w+1), its
            # powers round by 4 w v |rho|^-w, and (T + 1) v |s_w| covers `_laurent`'s sums
            norm, terms, size = re * re + im * im, [], abs(centres[r])
            inv = power = (re / norm, -im / norm) if r else (1, 0)  # 1/rho, exact at rho = 1
            for w in range(1, top + 1):
                power = _cmul(power, inv) if w > 1 else inv
                if w in scale:
                    e_w = w * radius / (size - radius) ** (w + 1) + (4 * w + len(scale) + 1) * unit / size**w
                    terms.append((w, (scale[w][0] * power[0], scale[w][0] * power[1]), scale[w][1] * e_w))
            poles.append(_pole_record([(d + 1, 1, terms)], log_modulus, arg, None, error))
            if im:
                formed[re, im] = poles[-1]
    return poles


# ----------------------------------------------------------------------------
# the pole sum: one pole's Poisson terms near tau0, for traces and kernels
# ----------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _normal_moments(d: int) -> tuple[list, list]:
    """E[Z^i] and E[|Z|^i], i = 0..d, for Z standard normal."""
    absolute = [1.0, math.sqrt(2.0 / math.pi)]
    for i in range(2, d + 1):
        absolute.append((i - 1) * absolute[i - 2])
    absolute = absolute[: d + 1]
    return [m if i % 2 == 0 else 0.0 for i, m in enumerate(absolute)], absolute


def _mu_polynomial(coeffs, eps, moments: list) -> list:
    """The coefficients b_k of R(mu) = E[P(mu + Z/eps)] = sum_j C_j E[(mu +
    Z/eps)^j], P = sum_j coeffs[j] n^j and ``moments`` E[Z^i], in the
    arithmetic of ``coeffs`` and ``eps`` (double or decimal).  With the
    coefficient majorants and E|Z|^i, sum_k bbar_k x^k = E[Pbar(x + |Z|/eps)]
    bounds |R| and every partial Horner sum at |mu| <= x (`_pole_sum`)."""
    degree = len(coeffs) - 1
    return [sum(coeffs[j] * math.comb(j, k) * eps ** (k - j) * moments[j - k]
                for j in range(k, degree + 1)) for k in range(degree + 1)]


def _horner(coeffs, x):
    """sum_k coeffs[k] x^k by Horner's rule, batched over x."""
    if len(coeffs) == 1:
        return coeffs[0] * np.ones_like(x)
    out = coeffs[-1] * x + coeffs[-2]
    for c in coeffs[-3::-1]:
        out = out * x + c
    return out


def _floored(exponent, scale, size):
    """e^exponent size (size > 0), a bound on omitted terms that never reads
    0, from ``scale``, e^exponent as the caller forms it: where the scale
    or the product leaves the normal range it is taken as e^(exponent + log
    size), rounded up to the smallest subnormal (under the caller's
    np.errstate, which ignores overflow)."""
    direct = scale * size
    low = np.maximum(np.exp(exponent + np.log(size)), math.ulp(0.0))
    return np.where((direct >= 2.0**-1022) & (scale >= 2.0**-1022), direct, low)


@functools.lru_cache(maxsize=256)
def _alias_walk(pole: _Pole, tau0: float, eps: float) -> tuple[list, list]:
    """The aliases theta_k = tau0 - 2 pi (k - t) of ``pole``, t its turn
    (arg/(2 pi) where it has none) at `_DECIMAL_DIGITS` digits: every k
    whose gaussian factor exp(-theta_k^2/(2 eps^2)) lies within
    exp(-`_GAUSS_FAR`^2/2) of the largest, the reach of the window cut's
    factors, and the first theta_k beyond on each side, as doubles.  Each
    kept alias is (k, theta, theta/eps^2, chi) in decimals, with chi =
    exp(-theta^2/(2 eps^2)) for a pole with an exact turn (else None).  It
    does not depend on lam, so a trace's walks are formed once per window."""
    kept, beyond = [], []
    with localcontext() as ctx:
        ctx.prec = _DECIMAL_DIGITS
        tau0, eps2, two_pi = Decimal(tau0), Decimal(eps) ** 2, 2 * _PI
        if pole.turn is None:
            turn = pole.arg / two_pi
        else:
            turn = Decimal(pole.turn.numerator) / pole.turn.denominator
        k0 = int((tau0 / two_pi + turn).to_integral_value())
        reach = float(tau0 - two_pi * (k0 - turn)) ** 2 + (eps * _GAUSS_FAR) ** 2
        for k, step in ((k0, 1), (k0 - 1, -1)):
            while float(theta := tau0 - two_pi * (k - turn)) ** 2 <= reach:
                chi = None if pole.turn is None else (-theta * theta / (2 * eps2)).exp()
                kept.append((k, theta, theta / eps2, chi))
                k += step
            beyond.append(float(theta))
    return kept, beyond


def _row_inputs(pole: _Pole, win: Window, lam: np.ndarray, kept: list):
    """The per-row inputs of the kept aliases of a pole with no exact turn
    (`_pole_sum`): Re mu per row, and four (alias, row) arrays: the weight
    2 pi e^X e^{i phase}, its majorant 2 pi e^{X_hi}, the extra rounding
    units u X^2 + e_dec/u and e_mu.  X, the phase and Re mu are formed at
    `_DECIMAL_DIGITS` digits from the decimal L, phi and theta, X and the
    phase rounded to a double and the double of what that rounding left:
    the weight is 2 pi e^{X_hi} (1 + X_lo) cis(phase_hi) (1 + i phase_lo)."""
    eps, u, v = win.eps, 2.0**-53, _DECIMAL_UNIT
    L, phi, error = pole.log_modulus, pole.arg, pole.error
    Lf, arg, inv = abs(float(L)), float(phi), 1.0 / eps**2
    rows, centre = [], []
    with localcontext() as ctx:
        ctx.prec = _DECIMAL_DIGITS
        two_pi, eps2 = 2 * _PI, Decimal(eps) ** 2
        shift = L / eps2
        for value in lam.tolist():
            c, lam_d = round(value), Decimal(value)
            f, grow = lam_d - c, lam_d * L + L * L / (2 * eps2)
            centre.append(float(lam_d + shift))
            for k, theta, _, _ in kept:
                x = grow - theta * theta / (2 * eps2)
                turn = c * phi + f * (phi - two_pi * k) + shift * theta
                turn -= two_pi * (turn / two_pi).to_integral_value()
                x_hi, turn_hi = float(x), float(turn)
                x_lo, turn_lo = float(x - Decimal(x_hi)), float(turn - Decimal(turn_hi))
                peak = 2.0 * math.pi * math.exp(x_hi) if x_hi < 709.78 else math.inf
                rotor = complex(math.cos(turn_hi), math.sin(turn_hi)) * complex(1.0, turn_lo)
                th, fl = abs(float(theta)), abs(value - c)
                e_theta = error + 5 * v * (2.0 + abs(win.tau0) + th)
                parts = (abs(value) * Lf + 0.5 * (Lf * Lf + th * th) * inv + abs(c * arg)
                         + fl * abs(arg - 2.0 * math.pi * k) + Lf * th * inv)
                e_dec = (2.0 * abs(value) + 1.0 + (Lf + th) * inv) * error
                e_dec += (Lf + th) * inv * e_theta + 16 * v * parts
                e_mu = (error + e_theta) * inv + 4 * v * (abs(value) + (Lf + th) * inv)
                rows.append((peak * (1.0 + x_lo) * rotor, peak, u * x_hi * x_hi + e_dec / u, e_mu))
    weight, peak, extra, e_mu = np.array(rows).reshape(lam.size, len(kept), 4).T
    return np.array(centre), list(zip(weight, peak.real, extra.real, e_mu.real))


def _pole_sum(items: list, win: Window, lam: np.ndarray, count, sums: tuple) -> None:
    """Add the Poisson terms of ``items``, (pole, its `_alias_walk`, rows)
    triples, to ``sums`` = (value, magnitude, units, remainder) at those
    rows of the grid ``lam``, in place: the sums of the kept aliases, of
    their majorants M, of their rounding units times M (each term carrying
    ``count`` more units for the sum it joins) and the bounds on the
    omitted aliases.  Every (alias, row) term of every item is evaluated at
    once, each pole's polynomials padded with zero coefficients to the
    highest degree, and added to its row in the order of the items and
    their walks (``np.add.at``, one addition at a time).

    **Derivation.**  A pole rho = e^{L + i phi} adds rho^n P(n), P(n) =
    sum_j C_j n^j, to the coefficient c_n of a row's sum_n c_n chihat(lam -
    n), at every integer n.  Poisson summation against chihat(s) = eps
    sqrt(2 pi) exp(-eps^2 s^2/2 - i s tau0), with n^j e^{i n tau} = (-i
    d/dtau)^j e^{i n tau}, completing the square and shifting the contour,
    turns it into the aliases

        2 pi e^X e^{i phase} R(mu),        R(mu) = E[P(mu + Z/eps)],
        X = lam L + (L^2 - theta^2)/(2 eps^2),
        phase = lam (phi - 2 pi k) + L theta/eps^2,
        mu = lam + L/eps^2 + i theta/eps^2,   theta = phi + tau0 - 2 pi k,

    Z standard normal.  On the unit circle (L = 0, phi = 2 pi turn) e^X is
    the window's chi(tau) = exp(-theta^2/(2 eps^2)) at the period tau = 2 pi
    (k - turn) and the phase is -lam tau.  R(mu) = sum_k b_k mu^k, b_k =
    sum_j C_j C(j, k) eps^(k - j) E[Z^(j - k)] (`_mu_polynomial`; the
    Hermite polynomials He_m(x) = E[(x + iZ)^m]), by Horner's rule over the
    grid.  With the coefficient majorants Cbar and E|Z|^i its majorant
    Rbar(x) = sum_k bbar_k x^k bounds |R|, every |b_k| and every partial
    Horner sum at |mu| <= x, so M = 2 pi e^X Rbar(|mu|) bounds the term.
    The aliases within exp(-`_GAUSS_FAR`^2/2) of the largest are summed
    (`_alias_walk`); past them consecutive majorants fall by at least (1 + 2
    pi/|theta|)^deg e^{-2 pi (|theta| + pi)/eps^2}, deg = deg P, a geometric
    bound that never underflows to 0 (`_floored`).

    **Exact inputs.**  theta is formed at `_DECIMAL_DIGITS` digits, within
    e_theta <= e_pole + 5 v (2 + |tau0| + |theta|) (v = `_DECIMAL_UNIT`,
    e_pole the pole's error in L and phi: 2 pi v from the turn's decimal, a
    unit of 2 pi |k - turn| for each of three roundings, one of |theta|),
    and theta/eps^2 from it, rounded once.  For a pole with an exact turn
    (every trace pole) chi is formed from theta and rounded once, and the
    phase is `_period_phase` at the exact turn k - turn: lam is reduced
    exactly, half and quarter turns are exact, and the rest is one
    exponential of a correctly rounded turn.  For any other pole X, the
    phase c phi + f (phi - 2 pi k) + L theta/eps^2 (c = round(lam), f = lam
    - c, so 2 pi k c drops exactly) reduced mod 2 pi, and Re mu are formed
    per row (`_row_inputs`), X and the phase split into a double and the
    double of its rounding error: e^X is e^{X_hi} (1 + X_lo) and the rotor
    cis(phase_hi) (1 + i phase_lo), so no term loses digits to |X|, lam,
    tau0 or k.

    **Rounding** (first order, u = 2^-53; N. J. Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, ch. 3).  A term is off by at
    most u M times: 2 for C_j, whose decimal error Cbar carries; 2 deg + 6
    for forming b_k (the eps powers, the products and the sum of at most
    deg + 1 parts); 5 deg + 2 for Horner's rule in complex arithmetic; deg
    for mu, whose parts are rounded once (|R'(mu)| |dmu| <= deg M u); 13
    for e^X and the phase (an exact turn rounded once, 2 pi and the product
    twice more, |2 pi r| <= pi, cos and sin within a unit each, and chi
    rounded once; else exp, cos and sin a unit each, the two corrections
    and their products 5 more, leaving u X^2, second order, charged); 6 for
    the products 2 pi e^X e^{i phase} R; and ``count``.  A pole with no
    exact turn adds its decimal errors: X and the phase are off by e_dec <=
    (2 |lam| + 1 + (|L| + |theta|)/eps^2) e_pole + (|L| + |theta|)
    e_theta/eps^2 plus 16 decimal units of the moduli of their parts,
    charged e_dec/u, and mu by e_mu <= (e_pole + e_theta)/eps^2 + 4 v (|lam|
    + (|L| + |theta|)/eps^2), charged 2 pi e^X e_mu Rbar'(|mu| + e_mu)/u,
    as |R(mu + dmu) - R(mu)| <= |dmu| Rbar'(|mu| + |dmu|).  So

        units = (8 deg + 29 + count) M  [+ (u X^2 + e_dec/u) M + 2 pi e^X e_mu Rbar'/u].
    """
    eps, u = win.eps, 2.0**-53
    top = max(len(pole.coeffs) for pole, _, _ in items)
    polys, terms, sides = [], [], []  # per item; per alias and per omitted side
    for i, (pole, (kept, beyond), rows) in enumerate(items):
        signed, absolute = _normal_moments(len(pole.coeffs) - 1)
        b = _mu_polynomial(pole.coeffs, eps, signed)
        bbar = _mu_polynomial(pole.majorants, eps, absolute)
        slope = [k * c for k, c in enumerate(bbar)][1:]
        polys.append([x + [0.0] * (top - len(x)) for x in (b, bbar, slope)] + [len(b) - 1])
        at = lam[rows]
        if pole.turn is None:
            centre, inputs = _row_inputs(pole, win, at, kept)
            L = float(pole.log_modulus)
            grow = L * at + 0.5 * L * L / eps**2
        else:
            centre, grow = at, None
            peaks = [2.0 * math.pi * float(chi) for _, _, _, chi in kept]
            inputs = [(p * _period_phase(k - pole.turn, at), p, 0.0, 0.0) for p, (k, *_) in zip(peaks, kept)]
        terms += [(i, rows, centre, float(y), *row) for (_, _, y, _), row in zip(kept, inputs)]
        for theta in beyond:  # consecutive omitted majorants fall by at least q
            q = (1.0 + 2.0 * math.pi / abs(theta)) ** polys[-1][3]
            q *= math.exp(-2.0 * math.pi * (abs(theta) + math.pi) / eps**2)
            expo = -0.5 * (theta / eps) ** 2
            scale = math.exp(expo) if grow is None else math.exp(expo) * np.exp(grow)
            exponent = expo if grow is None else expo + grow
            sides.append((i, rows, np.abs(centre) + abs(theta) / eps**2, q, exponent, scale))
    coeffs = [np.array(x) for x in zip(*polys)]  # b, bbar, slope rows and degrees, by item

    def flat(parts):  # one entry per (alias or side, row); a column is all scalars or all arrays
        sizes = [len(part[1]) for part in parts]
        return [np.concatenate(column) if isinstance(column[0], np.ndarray)
                else np.array(column).repeat(sizes) for column in zip(*parts)]

    item, rows, x, q, expo, scale = flat(sides)
    size = _horner(coeffs[1][item].T, x)
    far = _floored(expo, scale, size)
    np.add.at(sums[3], rows, np.where(q < 1.0, 2.0 * math.pi * far / (1.0 - q), np.inf))
    item, rows, centre, y, weight, peak, extra, e_mu = flat(terms)
    modulus = np.hypot(centre, y)
    size = peak * _horner(coeffs[1][item].T, modulus)
    units = (8 * coeffs[3][item] + 29 + count) * size
    if e_mu.any():  # the decimal errors of poles with no exact turn (`_row_inputs`)
        units += extra * size + peak * e_mu * _horner(coeffs[2][item].T, modulus + e_mu) / u
    np.add.at(sums[0], rows, weight * _horner(coeffs[0][item].T, centre + 1j * y))
    np.add.at(sums[1], rows, size)
    np.add.at(sums[2], rows, units)


# ----------------------------------------------------------------------------
# kernel rows in closed form
# ----------------------------------------------------------------------------


def _merged_moments(weights, row) -> tuple:
    """One row's moments summed per distinct weight and divided by their
    total at `_DECIMAL_DIGITS` digits: ((w, c_w), ...) by increasing w.  A
    double is taken exactly, a decimal (`_chart_moments`) as it is."""
    with localcontext() as ctx:
        ctx.prec = _DECIMAL_DIGITS
        merged: dict = {}
        for w, x in zip(weights, row):
            merged[w] = merged.get(w, 0) + Decimal(x)
        total = sum(merged.values())
        return tuple((w, merged[w] / total) for w in sorted(merged))


def _sphere_moments(model: ProjectiveModel, points) -> np.ndarray:
    """|z_i|^2 of each point, one row per point: the pole path's input check
    refuses (InputError) a point with the wrong number of coordinates
    (`check_points`), points not given as one point or a list of them, and
    a zero or non-finite point, before any row is summed."""
    pts = np.atleast_2d(check_points(model, np.asarray(points, dtype=complex)))
    if pts.ndim != 2:
        raise InputError(f"kernel points must be one point or a list of points, got shape {pts.shape}")
    t = np.abs(pts) ** 2
    mass = t.sum(axis=1)
    if not (np.isfinite(mass) & (mass > 0)).all():
        raise InputError("a kernel point must be finite and nonzero")
    return t


def _negative_tail(d: int, win: Window, lam: float, poles: list, top: int):
    """sum over n <= -(d+1) ``top`` of F(n) chihat(lam - n), F(n) = sum over
    ``poles`` of rho^n P(n) continuing h_n; (d+1) top is the degree of Q =
    p_t^(d+1), the generating function's denominator.  Summed while lam - n
    <= `_GAUSS_FAR`/eps and bounded geometrically beyond: (value, sum of the
    majorants, sum of rounding units times majorant, remainder, number of
    terms), as `_closed_form_diagonal` charges them."""
    first_n = -(d + 1) * top
    first = min(first_n, math.floor(lam - _GAUSS_FAR / win.eps))  # the first n bounded
    n = np.arange(first_n, first - 1, -1, dtype=float)
    s = lam - n
    # one row per pole: log |rho| and arg rho, and the coefficients and majorants as columns
    L, arg = (np.array([[float(x)] for x in xs]) for xs in zip(*((p.log_modulus, p.arg) for p in poles)))
    coeffs, majorants = (np.array(xs).T[:, :, None] for xs in zip(*((p.coeffs, p.majorants) for p in poles)))
    with np.errstate(over="ignore", invalid="ignore"):
        power = np.exp(n * L)  # |rho|^n >= 1
        value = (power * np.exp(1j * n * arg) * _horner(coeffs, n)).sum(axis=0)
        size = (power * _horner(majorants, -n)).sum(axis=0) * win.fourier_envelope(s)
    # the majorant's ratio from n to n - 1: at most max 1/|rho| |n|/(|n| - d) exp(-eps^2 (2s + 1)/2)
    q = math.exp(-L.min() - 0.5 * win.eps**2 * (2.0 * s[-1] + 1.0)) * first / (first + d)
    if not (np.isfinite(size).all() and q < 1.0):
        raise OverflowError("the negative tail does not decay")
    remainder = float(size[-1] / (1.0 - q))
    n, s, value, size = n[:-1], s[:-1], value[:-1], size[:-1]
    total = complex(np.sum(value * win.fourier(s))) if n.size else 0j
    phase = float((np.abs(L) + np.abs(arg)).max()) + max(p.error for p in poles)
    units = (4 * d + 18 + 2.0 * np.abs(n) * phase + 4.0 * (win.eps * s) ** 2
             + 2.0 * abs(win.tau0) * s)
    return total, float(size.sum()), float((units * size).sum()), remainder, n.size


def _closed_form_diagonal(model: ProjectiveModel, win: Window, lams, t):
    """Kernel rows in closed form for the gaussian window, on any weights:
    values, remainders, rounding bounds and sums of the term majorants, all
    scaled by d!/pi^d, and the mask of rows whose poles and negative tail it
    formed, for `_closed_form_verdict` to judge.

    ``t`` holds each row's moments, doubles |z_i|^2 or the decimals of
    `_chart_moments`.  The closed form evaluates the kernel at the sphere
    point: `_merged_moments` sums them per weight and divides by their total
    at `_DECIMAL_DIGITS` digits, so sum_w c_w = 1 holds in the formula, while
    the eigen-sum sums the series of t as given (h_n grows like (sum t)^n).
    Rows at the same moments (a parity pair, or every row at the chart
    centre) share their poles and are summed together.

    **Derivation.**  G(x) = sum_n h_n x^n = p_t(x)^-(d+1) with p_t(x) = 1 -
    sum_w c_w x^w = prod_rho (1 - rho x): rho = 1 and the other roots
    (`_poles`, all with |rho| <= 1).  Partial fractions at each (d+1)-fold
    pole give h_n = sum_rho rho^n P_rho(n) for n >= 0, deg P_rho <= d.  G is
    proper with a denominator of degree (d+1) D, D the largest weight with
    c_w > 0, so the continuation F(n) of that formula vanishes for -(d+1) D
    < n < 0 (R. P. Stanley, Enumerative Combinatorics 1, Prop. 4.2.3), and
    the row is d!/pi^d times each pole's Poisson sum (`_pole_sum`) less the
    n <= -(d+1) D, summed while lam - n <= `_GAUSS_FAR`/eps and bounded
    geometrically beyond (`_negative_tail`).  The omitted aliases and that
    bound make the row's remainder.  A row costs O(D d^2) per alias and
    O(1/eps) tail terms at any lam, and no table of h_n.

    **Rounding.**  A subtracted term carries (4d + 18 + 2 |n| (|L| + |phi| +
    e_pole) + 8x + 2 |tau0| s) units over the poles, as in
    `_rounding_bounds`: 2 for its coefficients, 2d for Horner's rule at n,
    and the phase n phi, |rho|^n and the gaussian as there.  Summing the N
    terms and the factor d!/pi^d add N + 2d + 4 units per term; a factor 2
    takes up the sqrt(2) of complex sums and the second-order terms:

        rho = 2u (sum_terms units + (N + 2d + 4) sum_terms M).

    **Scope and fallback.**  A row is formed when the window is gaussian,
    its poles are separated (`_ROOT_SEPARATION`, with disjoint enclosures)
    and its negative tail decays; the chooser judges it
    (`_closed_form_verdict`).  Its kappa counts the subtracted tail, so rows
    whose poles cancel each other or the tail (a pole of modulus well below
    1 at small lam) are not taken: the eigen-sum, whose terms may not cancel
    at all, can keep more digits (a (1, 2, 2) row at tau0 = 0, lam = 0 with
    kappa 840 was 8.7e-14 off), and the row keeps the better certified
    value (`_chosen_rows`).
    """
    sums = value, magnitude, units, remainder = np.zeros(lams.size, dtype=complex), *np.zeros((3, lams.size))
    n_terms, formed = np.zeros(lams.size), np.zeros(lams.size, dtype=bool)
    if win.shape != "gaussian":
        return value, remainder, units, magnitude, formed  # zeros, no row formed
    d, u = model.dim, 2.0**-53
    groups: dict = {}
    for i, row in enumerate(t):
        groups.setdefault(_merged_moments(model.weights, row), []).append(i)
    items, tails = [], []  # every pole of every row; each group's rows, poles, D and term count
    for moments, rows in groups.items():
        try:
            poles = _poles(d, moments)
        except (OverflowError, ValueError):  # a pole underflows double
            continue
        if poles is None:
            continue
        walks = [_alias_walk(pole, win.tau0, win.eps) for pole in poles]
        items += [(pole, walk, np.array(rows)) for pole, walk in zip(poles, walks)]
        count = sum(len(kept) for kept, _ in walks) + 2 * d + 4
        tails.append((rows, poles, max(w for w, c in moments if c > 0), count))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if items:
            _pole_sum(items, win, lams, 0, sums)
    for rows, poles, top, count in tails:
        for row in rows:
            try:
                tail = _negative_tail(d, win, float(lams[row]), poles, top)
            except OverflowError:
                continue
            value[row] -= tail[0]
            magnitude[row] += tail[1]
            units[row] += tail[2]
            remainder[row] += tail[3]
            n_terms[row] = count + tail[4]
            formed[row] = True
    scale = math.factorial(d) / math.pi**d
    bound = 2.0 * u * (units + n_terms * magnitude)
    return value * scale, remainder * scale, bound * scale, magnitude * scale, formed


def _diagonal_values(model: ProjectiveModel, win: Window, lams, points, tail_tol: float, moments=None):
    """Exact diagonal at paired (lam_i, point_i): the values, their
    remainders and rounding bounds, and each row's arithmetic, from
    `_closed_form_diagonal` or `_eigen_sum_diagonal` as `_chosen_rows`
    picks.  ``moments``, when given, holds each point's decimal moments
    (`_chart_moments`) for the closed form; the eigen-sum reads the points.
    A malformed point (`_sphere_moments`) refuses before either runs."""
    t = _sphere_moments(model, points)
    columns, precision = _chosen_rows(
        win, lams, tail_tol, t.shape[0],
        lambda lams: _closed_form_diagonal(model, win, lams, t if moments is None else moments),
        lambda lams, rows: _eigen_sum_diagonal(model, win, lams, t[rows]),
    )
    return (*columns, precision)


def _eigen_sum_diagonal(model: ProjectiveModel, win: Window, lams: np.ndarray, t: np.ndarray):
    """Exact diagonal at paired (lam_i, moments t_i) as window-cut
    eigen-sums: values, remainders, rounding bounds and sum |terms|."""
    d, scale = model.dim, math.factorial(model.dim) / np.pi**model.dim
    lo, hi, remainders = _window_cut(win, model, lams)
    remainders = remainders * scale
    h = _h_table(t, model.weights, int(hi.max(initial=-1)))
    values, moments = _window_sums(win, lams, h, lo, hi, scale)
    sums = (values, moments, remainders, lo, hi)
    bounds = _rounding_bounds(win, model, lams, sums, 0.0, (d + 4) / min(model.weights))
    return values, remainders, bounds, moments[0]


def smoothed_kernel_diagonal(
    model: ProjectiveModel,
    win: Window,
    lam: float,
    points: np.ndarray,
    tail_tol: float = 1e-10,
) -> tuple[np.ndarray, float]:
    """Exact smoothed kernel on the diagonal at the given sphere points.

    Returns (values, remainder): one complex value per point and the largest
    window-cut remainder among them.  The sum runs over every degree; only
    the window cut truncates it (see the module docstring).
    """
    values, remainders, _, _ = _diagonal_values(model, win, lam, points, tail_tol)
    return values, float(remainders.max(initial=0.0))


# ----------------------------------------------------------------------------
# traces in closed form: the poles of sum_n d(n) x^n
# ----------------------------------------------------------------------------

# the most poles `_unit_poles` builds (about 0.25 s at the cap); each trace
# row sums at least one alias per pole, so past it, eigen-sums
_UNIT_POLES_MAX = 1 << 12
# a closed-form trace row takes |lam| below this: past 2^52 the doubles are
# spaced 1 or more apart, so a double lam no longer resolves n
_CLOSED_FORM_LAMBDA = 2.0**52


@functools.lru_cache(maxsize=16)
def _unit_poles(weights: tuple) -> tuple | None:
    """The poles of sum_n d(n) x^n on the unit circle, with the coefficients
    of their polynomials; None past `_UNIT_POLES_MAX` poles (before they are
    listed when one weight passes it).  Built once per weight vector
    (``weights`` sorted), in O(R) for R poles.

    prod_i (1 - x^{w_i})^-1 = prod_zeta (1 - zeta x)^-m(zeta) over the
    roots of unity zeta = e^(2 pi i turn) with m(zeta) = #{i : zeta^{w_i} =
    1} > 0, so d(n) = sum_zeta zeta^n P_zeta(n), each P_zeta from the
    factors 1 - x^w, w a weight of multiplicity M, z = [zeta^w = 1]
    (`_pole_record`).  The scaled coefficient zeta^-w is `_cis` at the
    exact turn -w turn, exact on quarter turns and else within 404 decimal
    units (v = `_DECIMAL_UNIT`): the angle 2 pi k/p rounds three times, 1.5
    v of |angle| <= pi, each part is within `_sin_cos`' 280 v, and 285
    sqrt(2) < 404; 2 v more covers `_laurent`'s sums.  A pole with turn <=
    1/2 is expanded, and the pole at 1 - turn is its conjugate
    (`_conjugate`).
    """
    if max(weights) > _UNIT_POLES_MAX:
        return None
    # distinct turns k/w, w <= 2^12, differ by more than 2^-24, so their doubles sort them
    turns = sorted({Fraction(k, w) for w in weights for k in range(w)}, key=float)
    if len(turns) > _UNIT_POLES_MAX:
        return None
    counts, poles, v = {w: weights.count(w) for w in weights}, [], _DECIMAL_UNIT
    with localcontext() as ctx:
        ctx.prec = _DECIMAL_DIGITS
        for turn in turns[: len(turns) // 2 + 1]:  # the turns in [0, 1/2]; the others are 1 - turn
            factors = [(M, int(w % turn.denominator == 0), [(w, _cis(-w * turn), (404 * (4 * w * turn % 1 != 0) + 2) * v)])
                       for w, M in counts.items()]
            arg = 2 * _PI * turn.numerator / turn.denominator
            poles.append(_pole_record(factors, Decimal(0), arg, turn, 0.0))
            if 0 < 2 * turn < 1:
                poles.append(_conjugate(poles[-1]))
    return tuple(poles)


def _cis(turn: Fraction) -> tuple[Decimal, Decimal]:
    """(cos, sin) of 2 pi turn at the context's precision, exact on quarter
    turns, else `_sin_cos` of the angle reduced to [-pi, pi]."""
    k, p = turn.numerator % turn.denominator, turn.denominator
    if 4 * k % p == 0:
        return ((1, 0), (0, 1), (-1, 0), (0, -1))[4 * k // p]
    sin, cos = _sin_cos(2 * _PI * (k if 2 * k <= p else k - p) / p)
    return cos, sin


def _closed_form_trace(model: ProjectiveModel, win: Window, lams: np.ndarray, tail_tol: float):
    """Trace rows in closed form for the gaussian window, on any weights:
    values, remainders, rounding bounds, sums of the term majorants and term
    counts, and the mask of rows whose poles and ghost it formed, for
    `_closed_form_verdict` to judge, vectorised over the grid.

    **Derivation.**  With d(n) = sum_zeta zeta^n P_zeta(n) over the poles of
    `_unit_poles` for n >= 0, the quasi-polynomial Q(n) of the right side
    vanishes for -sum w < n < 0 and equals (-1)^d d(-n - sum w) for n <=
    -sum w (reciprocity; R. P. Stanley, Enumerative Combinatorics 1, Prop.
    4.2.3).  So the trace is each pole's Poisson sum over all integers
    (`_pole_sum`: its periods tau = 2 pi (k - turn) near tau0, each a
    gaussian chi(tau) times e^{-i lam tau} and a Hermite polynomial in lam)
    less the ghost part (-1)^d sum_{m >= 0} d(m) chihat(lam + sum w + m):
    on every row `_eigen_sum_trace` at lam' = -lam - sum w, conjugated
    (chihat(s) and chihat(-s) are conjugate), whose cut is empty once lam +
    sum w passes `_GAUSS_FAR`/eps and whose remainder is then the whole
    part.  The omitted periods and the ghost's remainder make the row's.
    The ghost's rounding is `_rounding_bounds`' over its kept terms; summing
    the N period terms and the ghost adds N + 2 units per term, and a factor
    2 takes up the sqrt(2) of complex sums and second-order terms:

        rho = 2u sum_terms (8 deg + 31 + N) M + ghost's bound.

    **Cancelling rows.**  Period terms can cancel past double: on (1, 3) at
    tau0 = pi (the double, pi - 1.2e-16) the terms at tau = 2 pi/3 and
    4 pi/3 are conjugates but for that 1.2e-16, so at integer lam = 1 mod 3
    two terms near 3e-11 leave 3.6e-25, below their rounding.  So a row
    that stands but is not taken (`_closed_form_verdict`), and whose period
    terms alone, with nothing left out, are not taken either (where only the
    ghost cancels them, 40 digits would gain a constant factor), has its
    period sum formed again at `_DECIMAL_DIGITS` digits and rounded once
    (`_exact_periods`): from the decimal coefficients of `_unit_poles`, chi
    and y = theta/eps^2, with the phase cis(-2 pi r), r = lam (k - turn)
    reduced mod 1 in exact Fractions (`_cis`, exact on quarter turns); the
    ghost stays in double.  With v = `_DECIMAL_UNIT` and theta off by
    e_theta <= 5 v (2 + |tau0| + |theta|) (`_pole_sum`), y is off by
    e_y = e_theta/eps^2 + 2 v |y|, and chi relatively by
    v (4 a + 1) + |theta| e_theta/eps^2, a = theta^2/(2 eps^2).  A term is
    off by at most v M times 2 deg + 8 for b_k, 5 deg + 2 for Horner's
    rule, 420 for the phase (`_sin_cos`' 280 units per part at |2 pi r| <=
    pi, its argument within 3 units), chi's share, 6 for the products and
    N + 2 for the sum; and by 2 pi chi (Ebar(|mu|) + e_y Rbar'(|mu| + e_y))
    for the coefficients' own errors (Ebar: `_mu_polynomial` of ``errors``)
    and for mu (Rbar': the derivative of the majorant's polynomial, which
    bounds |R(mu + dmu) - R(mu)| <= |dmu| Rbar'(|mu| + |dmu|)).  Rounding
    the sum to double and subtracting the ghost add at most u (|sum| +
    sum |ghost terms|) each; with the factor 2 on the terms,

        rho = 2 sum_terms [v (7 deg + 440 + N + 4a + |theta| e_theta/(v eps^2)) M
              + 2 pi chi (Ebar + e_y Rbar')] + 2u (|sum| + sum |ghost terms|)
              + ghost's bound.

    **Scope and fallback.**  A row is formed when the window is gaussian,
    `_unit_poles` forms the poles and -sum w < lam < `_CLOSED_FORM_LAMBDA`
    (for lam <= -sum w the ghost holds the terms nearest the window's peak);
    the chooser judges it (`_closed_form_verdict`), its M summing the ghost's
    |terms| too.  Small and negative lam, where the ghost cancels the
    Poisson side, and the cancelling period terms above are not taken, and
    the row keeps the better certified value (`_chosen_rows`).
    """
    values = np.zeros(lams.size, dtype=complex)
    remainders, bounds, majorants, terms = np.zeros((4, lams.size))
    formed = np.zeros(lams.size, dtype=bool)
    poles = _unit_poles(tuple(sorted(model.weights))) if win.shape == "gaussian" else None
    total_w = sum(model.weights)
    rows = np.flatnonzero((lams > -total_w) & (np.abs(lams) < _CLOSED_FORM_LAMBDA))
    if poles is None or not rows.size:
        return values, remainders, bounds, majorants, terms, formed
    lam, u = lams[rows], 2.0**-53
    walks = [(pole, _alias_walk(pole, win.tau0, win.eps)) for pole in poles]
    n_terms = sum(len(kept) for _, (kept, _) in walks)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        sums = periods, magnitude, units, remainder = (np.zeros(lam.size, dtype=complex),
                                                       *np.zeros((3, lam.size)))
        step = -(-_POLE_BLOCK // n_terms)  # rows per call: about `_POLE_BLOCK` terms at a time
        for start in range(0, lam.size, step):
            part = np.arange(start, min(start + step, lam.size))
            _pole_sum([(pole, walk, part) for pole, walk in walks], win, lam, n_terms + 2, sums)
        ghost, ghost_rem, ghost_bound, ghost_size, ghost_terms = _eigen_sum_trace(model, win, -lam - total_w)
        ghost = (-1) ** model.dim * np.conj(ghost)
        value, total, bound = periods - ghost, magnitude + ghost_size, 2.0 * u * units + ghost_bound
        remainder += ghost_rem
        ok, calm = _closed_form_verdict((value, remainder, bound, total), True, tail_tol)
        zero = np.zeros(lam.size)  # the period terms alone, with nothing left out
        _, alone = _closed_form_verdict((periods, zero, zero, magnitude), ok, tail_tol)
        fine = np.flatnonzero(ok & ~calm & ~alone)
        if fine.size:  # a row whose period terms cancel: their sum at 40 digits
            exact, exact_bound = _exact_periods(walks, win, lam[fine], n_terms)
            value[fine] = exact - ghost[fine]
            bound[fine] = exact_bound + ghost_bound[fine] + 2.0 * u * (np.abs(exact) + ghost_size[fine])
    values[rows], remainders[rows], bounds[rows], majorants[rows] = value, remainder, bound, total
    terms[rows] = n_terms + ghost_terms
    formed[rows] = True
    return values, remainders, bounds, majorants, terms, formed


def _exact_periods(walks: list, win: Window, lams: np.ndarray, n_terms: int):
    """The period sums of `_closed_form_trace` at ``lams`` formed at
    `_DECIMAL_DIGITS` digits and rounded once to complex, and the bounds on
    their decimal rounding derived there."""
    eps, v = win.eps, _DECIMAL_UNIT
    values, bounds, terms = np.zeros(lams.size, dtype=complex), np.zeros(lams.size), []
    with localcontext() as ctx:
        ctx.prec = _DECIMAL_DIGITS
        two_pi, eps_d = 2 * _PI, Decimal(eps)
        for pole, (kept, _) in walks:
            signed, absolute = _normal_moments(len(pole.coeffs) - 1)
            moments = [Decimal(m) for m in signed]
            parts = (_mu_polynomial([c[i] for c in pole.exact], eps_d, moments) for i in (0, 1))
            b = list(zip(*parts))  # (re, im) of each b_k
            bbar = _mu_polynomial(pole.majorants, eps, absolute)
            ebar = _mu_polynomial(pole.errors, eps, absolute)
            slope = [k * c for k, c in enumerate(bbar)][1:] or [0.0]
            for k, _, y, chi in kept:
                terms.append((two_pi * chi, y, k - pole.turn, b))
                theta, scale = float(y) * eps**2, 2.0 * math.pi * float(chi)
                tilt = 5.0 * (2.0 + abs(win.tau0) + abs(theta)) / eps**2  # e_theta/(v eps^2)
                e_y = v * (tilt + 2.0 * abs(float(y)))
                mod = np.hypot(lams, float(y))
                units = 7 * (len(b) - 1) + 440 + n_terms + 2.0 * (theta / eps) ** 2
                bounds += v * (units + abs(theta) * tilt) * scale * _horner(bbar, mod)
                bounds += scale * (_horner(ebar, mod) + e_y * _horner(slope, mod + e_y))
        phases: dict = {}  # cis(2 pi r) by the exact turn r, shared across rows
        for i, lam in enumerate(lams.tolist()):
            x, exact_lam, re, im = Decimal(lam), Fraction(lam), Decimal(0), Decimal(0)
            for f, y, turn, b in terms:
                r = exact_lam * turn
                r -= round(r)
                if r not in phases:
                    phases[r] = _cis(r)
                cos, sin = phases[r]
                h = b[-1]
                for c in b[-2::-1]:  # Horner's rule at mu = lam + i y
                    h = _cmul(h, (x, y))
                    h = h[0] + c[0], h[1] + c[1]
                term = _cmul((cos, -sin), h)
                re, im = re + f * term[0], im + f * term[1]
            values[i] = complex(float(re), float(im))
    return values, 2.0 * bounds


# ----------------------------------------------------------------------------
# scans
# ----------------------------------------------------------------------------


def _chart_moments(chart: HeisenbergChart, direction, radii: list) -> list | None:
    """The moments |z_i|^2 of the chart points at normal displacement r
    u/|u| (u = ``direction``, a normal vector) for each r of ``radii``
    (decimals), at `_DECIMAL_DIGITS` digits: cos^2 r on the centre's
    coordinate, sin^2 r |u_j|^2/|u|^2 on the coordinate of normal frame row
    j and 0 elsewhere, the great-circle chart's point exactly.  That holds
    when the centre is a coordinate point and the normal rows are coordinate
    vectors, as on every chart `harness._default_chart` builds; otherwise
    None, and the rows take the moments of their double points.  A radius
    of pi/2 or more, where the chart is not exact, refuses (InputError)."""
    if max(radii) >= _PI / 2:
        raise InputError(f"the chart radius {float(max(radii)):.3g} must be below pi/2, where the chart is exact")
    rows = np.abs(np.vstack([chart.center, chart.frame[chart.n_tangent :]]))
    axes = rows.argmax(axis=1)
    if not np.array_equal(rows, np.eye(rows.shape[1])[axes]):
        return None
    with localcontext() as ctx:
        ctx.prec = _DECIMAL_DIGITS
        sizes = [Decimal(x.real) ** 2 + Decimal(x.imag) ** 2 for x in np.ravel(direction).tolist()]
        total = sum(sizes)
        shares = [x / total if total else x for x in sizes]
        by_radius: dict = {}  # a radius met again (a parity pair's) is formed once
        for r in radii:
            if r not in by_radius:
                sin, cos = _sin_cos(r)
                row = [Decimal(0)] * rows.shape[1]
                row[axes[0]] = cos * cos
                for j, share in zip(axes[1:].tolist(), shares):
                    row[j] = sin * sin * share
                by_radius[r] = tuple(row)
    return [by_radius[r] for r in radii]


def _displacement_radii(u, lams) -> list:
    """|u|/sqrt(lam) per lam at `_DECIMAL_DIGITS` digits, the chart radius
    of the scaled scans (u finite, every lam positive: `_scan_inputs`)."""
    with localcontext() as ctx:
        ctx.prec = _DECIMAL_DIGITS
        norm2 = sum(Decimal(x.real) ** 2 + Decimal(x.imag) ** 2 for x in np.ravel(u).tolist())
        return [(norm2 / Decimal(lam)).sqrt() for lam in lams.tolist()]


def _offlocus_radii(C: float, lams) -> list:
    """2 C lam^(-7/18) per lam at `_DECIMAL_DIGITS` digits: from the double
    power, two Newton steps y <- y (1 + (lam^-7 y^-18 - 1)/18) (quadratic,
    error about 8.5 e^2: 3e-16 -> 1e-30 -> past 1e-40)."""
    with localcontext() as ctx:
        ctx.prec = _DECIMAL_DIGITS
        out = []
        for lam in lams.tolist():
            x = Decimal(lam)
            target, y = x**-7, Decimal(lam ** (-7.0 / 18.0))
            for _ in range(2):
                y += y * (target / y**18 - 1) / 18
            out.append(2 * Decimal(C) * y)
        return out


def _scan_inputs(chart, lambda_grid, sign: int = 1, u=None, C: float | None = None):
    """A scan's grid and normal vector ``u``, refused (InputError) before any
    point is built unless the grid is nonempty, finite and of the sign
    ``sign`` (lam > 0 for the kernel scans' charts), ``u`` (when given) has
    the chart's normal dimension of finite components and C (when given) is
    positive and finite."""
    lams = _check_lambdas(lambda_grid)
    if not (lams.size and (sign * lams > 0).all()):
        raise InputError(f"grid must be nonempty and strictly {'positive' if sign > 0 else 'negative'}")
    if u is not None:
        u = np.asarray(u, dtype=complex)
        if u.shape != (chart.normal_dim,) or not np.isfinite(u).all():
            raise InputError(f"a normal vector has {chart.normal_dim} finite components, got {u!r}")
    if C is not None and not (isinstance(C, Real) and 0 < C < math.inf):
        raise InputError(f"C must be positive and finite, got {C!r}")
    return lams, u


def _chart_rows(model, win, chart: HeisenbergChart, lams, vectors, direction, radii, tail_tol):
    """The exact diagonal (`_diagonal_values`) at the chart points
    chart.normal_point(v), one double normal vector v of ``vectors`` per
    lam of the checked grid ``lams``; the closed form reads the
    `_DECIMAL_DIGITS`-digit moments of the points at ``radii`` along
    ``direction`` (`_chart_moments`), formed before any point is built."""
    moments = _chart_moments(chart, direction, radii)
    points = np.array([chart.normal_point(v) for v in vectors])
    return _diagonal_values(model, win, lams, points, tail_tol, moments)


def _chart_scan_meta(chart: HeisenbergChart, remainders, bounds, precision) -> dict:
    """The meta every kernel scan writes: tau0, the chart centre and its
    fixed component, which the rows alone do not name, and each row's
    budgets (`_row_budgets`)."""
    return {
        "tau0": chart.tau0,
        "chart_center": chart.center,
        "index_set": list(chart.component.index_set),
        "normal_dim": chart.component.normal_dim,
        **_row_budgets(remainders, bounds, precision),
    }


def scaled_diagonal_scan(model: ProjectiveModel, win: Window, chart: HeisenbergChart, u: np.ndarray,
                         lambda_grid: np.ndarray, tail_tol: float = 1e-10) -> ScanReport:
    """Exact vs predicted scaled diagonal at normal displacement u/sqrt(lam).

    For each lambda in the grid the kernel diagonal is evaluated at
    chart.normal_point(u/sqrt(lam)) and compared with the local leading term
    at fixed u.  Ratios converging to 1 along the grid verify the local
    asymptotics; their deviation from 1 carries the correction ladder.
    """
    lams, u = _scan_inputs(chart, lambda_grid, u=u)
    pred = local_prediction(model, chart, win)
    vectors = [u / math.sqrt(l) for l in lams]
    exact, *budgets = _chart_rows(model, win, chart, lams, vectors, u, _displacement_radii(u, lams), tail_tol)
    predicted = predict_local(pred, u, lams)
    meta = {
        "kind_detail": "scaled diagonal vs local leading term",
        "weights": list(map(int, model.weights)),
        "u": u,
        "window": {"shape": win.shape, "eps": win.eps},
        **_chart_scan_meta(chart, *budgets),
    }
    return ScanReport("local", lams, exact, np.asarray(predicted), meta=meta)


def offlocus_decay_scan(model: ProjectiveModel, win: Window, chart: HeisenbergChart, C: float,
                        lambda_grid: np.ndarray, tail_tol: float = 1e-10,
                        direction: np.ndarray | None = None) -> ScanReport:
    """Decay of the normalised diagonal just outside the shrinking locus zone.

    Samples the diagonal at normal distance 2C*lam^{-7/18} (twice the
    exclusion radius), normalises by (lam/pi)^d, and fits the log-log slope
    over the top octave of the grid.  Rapid decay (faster than any fixed
    power in the regime the bound covers) shows up as a steep negative slope.
    The prediction column holds the (lam/pi)^d normalisation so ratio_abs is
    the normalised modulus being fit.
    """
    given = np.eye(chart.normal_dim)[0] if direction is None else direction
    lams, given = _scan_inputs(chart, lambda_grid, u=given, C=C)
    if not 0 < (norm := np.linalg.norm(given)) < math.inf:
        raise InputError(f"a direction must be nonzero with a finite norm, got {given!r}")
    direction, dist = given / norm, 2.0 * C * lams ** (-7.0 / 18.0)
    vectors = [r * direction for r in dist]
    exact, *budgets = _chart_rows(model, win, chart, lams, vectors, given, _offlocus_radii(C, lams), tail_tol)
    predicted = ((lams / np.pi) ** model.dim).astype(complex)
    ratios = np.abs(exact) / np.abs(predicted)
    top = lams >= lams.max() / 2.0
    fits = {}
    if top.sum() >= 3 and (ratios[top] > 0).all():
        slope, intercept = np.polyfit(np.log(lams[top]), np.log(ratios[top]), 1)
        fits = {
            "decay_exponent": float(slope),
            "octave_start": float(lams[top].min()),
            "n_octave_points": int(top.sum()),
        }
    meta = {
        "kind_detail": "off-locus diagonal decay, distance 2C*lam^(-7/18)",
        "C": float(C),
        "direction": direction,
        "normalisation": "(lam/pi)^d",
        **_chart_scan_meta(chart, *budgets),
    }
    return ScanReport("offlocus", lams, exact, predicted, meta=meta, fits=fits)


def negative_lambda_scan(
    model: ProjectiveModel,
    win: Window,
    lambda_grid: np.ndarray,
    tail_tol: float = 1e-10,
) -> ScanReport:
    """Smoothed trace on a negative-lambda grid (spectrum-free side).

    All eigenvalues are positive, so every window argument lies at distance
    >= |lam| from the spectrum and the trace inherits the transform's decay.
    The prediction column is identically 1 (no asymptotic term exists on this
    side); the fitted slope of log|trace| against log|lam| documents the
    super-polynomial falloff.
    """
    lams, _ = _scan_inputs(None, lambda_grid, sign=-1)
    res = smoothed_trace(model, win, lams, tail_tol)
    exact = res.value
    predicted = np.ones_like(exact)
    mags = np.abs(exact)
    fits = {}
    good = mags > 1e-280
    if good.sum() >= 3:
        slope = float(np.polyfit(np.log(np.abs(lams[good])), np.log(mags[good]), 1)[0])
        fits["decay_exponent"] = slope
    fits["max_abs"] = float(mags.max())
    meta = {
        "kind_detail": "smoothed trace at negative lambda",
        "window": {"shape": win.shape, "eps": win.eps, "tau0": win.tau0},
        **_row_budgets(res.cut_remainder, res.rounding_bound, res.precision),
    }
    return ScanReport("negative", lams, exact, predicted, meta=meta, fits=fits)


@dataclass(eq=False, repr=False)
class ParitySplit:
    """Even and odd parts of the diagonal at +-u/sqrt(lam), with the cut remainder."""

    even: complex
    odd: complex
    cut_remainder: float


def parity_split(model: ProjectiveModel, win: Window, chart: HeisenbergChart, u: np.ndarray,
                 lam: float, tail_tol: float = 1e-10) -> ParitySplit:
    """Even/odd parts of the scaled diagonal in the normal displacement.

    Evaluates at +-u/sqrt(lam) and returns ((S+ + S-)/2, (S+ - S-)/2) with
    the larger of the two window-cut remainders.  The leading term is even;
    the odd part isolates half-power corrections.
    """
    _, even, odd, remainders, _, _ = _parity_parts(model, win, chart, u, [lam], tail_tol)
    return ParitySplit(complex(even[0]), complex(odd[0]), float(remainders[0]))


def _parity_parts(model, win, chart, u, lams, tail_tol):
    """The checked grid (`_scan_inputs`), and even and odd parts,
    remainders, rounding bounds and arithmetic along it, from the chart rows
    at +-u/sqrt(lam) (`_chart_rows`).  Each part takes the larger remainder
    and bound of its two rows, and is "double" if either row is."""
    lams, u = _scan_inputs(chart, lams, u=u)
    vectors = [u / math.sqrt(lam) for lam in lams] + [-u / math.sqrt(lam) for lam in lams]
    values, remainders, bounds, precision = _chart_rows(
        model, win, chart, np.concatenate([lams, lams]), vectors, u,
        _displacement_radii(u, lams) * 2, tail_tol,
    )
    n = len(lams)
    plus, minus = values[:n], values[n:]
    arithmetic = np.where(precision[n:] == "double", "double", precision[:n])
    return (lams, (plus + minus) / 2.0, (plus - minus) / 2.0, np.maximum(remainders[:n], remainders[n:]),
            np.maximum(bounds[:n], bounds[n:]), arithmetic)


def parity_scan(model: ProjectiveModel, win: Window, chart: HeisenbergChart, u: np.ndarray,
                lambda_grid: np.ndarray, tail_tol: float = 1e-10) -> ScanReport:
    """`parity_split` along a grid: exact column = odd part, predicted = even part."""
    lams, even, odd, *budgets = _parity_parts(model, win, chart, u, lambda_grid, tail_tol)
    meta = {
        "kind_detail": "exact column = odd part, predicted column = even part",
        "u": np.asarray(u, dtype=complex),
        **_chart_scan_meta(chart, *budgets),
    }
    return ScanReport("parity", lams, odd, even, meta=meta)


def _row_budgets(remainders, bounds, precision) -> dict:
    """Each row's remainder, rounding bound and arithmetic, for the JSONs."""
    return {
        "window_cut_remainders": remainders,
        "rounding_bounds": bounds,
        "precision": [str(p) for p in np.atleast_1d(precision)],
    }
