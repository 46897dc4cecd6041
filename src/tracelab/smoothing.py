"""Exact smoothed spectral quantities: traces, kernel diagonals, and scans.

Everything here is an *exact* computation over the integer spectrum
n = <alpha, w> of a weight model; no asymptotics enter and no degree is
truncated.  Traces and kernel diagonals are one window-cut sum

    scale * sum_n c_n chihat(lam - n)

with two choices of coefficients and scale.  For the trace, c_n is the
denumerant d(n) = [x^n] prod_i (1 - x^{w_i})^{-1}, the multiplicity of n over
all degrees, an exact int64, and the scale is 1.  For the kernel diagonal at
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

A trace row for the gaussian window is first formed in closed form
(`_closed_form_trace`), on any weights: d(n) is a quasi-polynomial whose
poles are roots of unity (`_unit_poles`, exact Fractions, built once per
weight vector), and Poisson summation turns it into a few period terms
near tau0, each a gaussian times a Hermite polynomial in lam, with the
phase e^{-i lam tau} taken from an exact reduction of lam (`_period_phase`),
less a ghost part from n <= -sum w (reciprocity).  Such a row costs O(1)
in lam, is labelled "closed-form", and reports the omitted periods and
the ghost tail as its remainder.

A kernel row for the gaussian window is first formed in closed form
(`_closed_form_diagonal`), on any weights: the generating function
(1 - sum_i t_i x^{w_i})^{-(d+1)} has one (d+1)-fold pole rho per root of
p_t, rho = 1 and the Newton-polished roots of a deflated polynomial
(`_poles`), and Poisson summation turns each pole's rho^n P(n) into a few
gaussian moment sums, so a row costs O(1) in lam and needs no h_n.  Each
input of a pole's exponent (the moments, exact from the chart radius on a
coordinate chart; the roots; log |rho|, arg rho, and the exponent, turn and
centre themselves) is formed at `_DECIMAL_DIGITS` digits and rounded once.
Such a row is kept when its poles are separated, it does not cancel (its
own kappa is at most `_CLOSED_FORM_KAPPA`) and its remainder (the omitted
aliases and the negative-n tail, both bounded in closed form) meets the cut
target; it is labelled "closed-form".

Every other row (bump windows, rows that cancel, trace rows past 2^52) is
an eigen-sum, and one routine, `_conditioned_sums`, picks its arithmetic.
Near a period the phases alternate and the sum cancels: kappa = sum
|terms| / |sum| is 5e7 to 2e12 on the off-locus diagonal scans and grows
like lam^d on a trace at tau0 = pi.  Each row is summed in double, and a
row that double would leave fewer than 13 digits is summed again over the
same cut in 40-digit decimal, with exact integer d(n) for traces.  Both
passes take their phases from one table of cis(k tau0), |k| <= K, built
once per call at 40 digits (`_phase_table`): with c = round(lam) and f =
lam - c a row is e^{-i f tau0} sum_k c_{c+k} chihat_0(f - k) cis(k tau0),
so no phase argument grows with |lam - n| and a row takes one complex
exponential.  Each row reports its arithmetic and a rounding bound
(`_rounding_bounds`, or the closed form's own) next to its remainder; the
bound charges each term's rounding at its own distance |lam - n|.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction

import numpy as np

from .asymptotics import _period_phase, local_prediction, predict_local
from .errors import CoverageError, InputError
from .geometry import HeisenbergChart, ProjectiveModel
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
# double keeps about 13 digits of a sum whose condition number kappa
# satisfies kappa * 2^-53 <= 1e-13 (kappa up to about 900); rows past it are
# summed again in decimal
_DOUBLE_KAPPA_BOUND = 1e-13
# the decimal path: 40 significant digits, at least the 38 of x86
# double-length long double, and the rounding unit its window cut meets
_DECIMAL_DIGITS = 40
_DECIMAL_UNIT = 1e-39
# the decimal path's Gaussian factors step at this many digits more
_STEP_DIGITS = 10
# the double pass sums its rows in blocks of at most this many terms
_BLOCK_TERMS = 1 << 13
_BUMP_REFUSAL = (
    "the bump transform's envelope decays like exp(-sqrt(eps*s)), so the geometric "
    "far-tail bound does not cover it"
)
# a closed-form row is kept only if it does not cancel: sum of its term
# majorants over |value| at most this (every acceptance row reads <= 2.2)
_CLOSED_FORM_KAPPA = 16.0
_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")


@dataclass(frozen=True)
class TraceResult:
    """Smoothed traces (scalars, or arrays along a grid) with their error budgets.

    ``precision`` names each row's arithmetic: "closed-form"
    (`_closed_form_trace`), or "double" or "decimal" for an eigen-sum row.
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
    """d(n) = #{alpha : <alpha, w> = n}, n = 0..n_max, exact in int64: per
    weight w, a cumulative sum along each residue class mod w (the factor
    1/(1 - x^w)).  Every partial table is at most d(n), and d(n) at most the
    walk majorant, so a table whose top majorant passes 2^63 is refused
    rather than wrapped."""
    size = max(n_max, 0) + 1
    d, min_w = len(weights) - 1, min(weights)
    if math.comb((size - 1) // min_w + d, d) >= 2**63:
        raise CoverageError(f"denumerants up to n = {size - 1} may pass the int64 range")
    counts = np.zeros(size, dtype=np.int64)
    counts[0] = 1
    for w in weights:
        padded = np.zeros(-(-size // w) * w, dtype=np.int64)
        padded[:size] = counts
        counts = np.cumsum(padded.reshape(-1, w), axis=0).ravel()[:size]
    return counts


def smoothed_trace(
    model: ProjectiveModel, win: Window, lam, tail_tol: float = 1e-10
) -> TraceResult:
    """Exact smoothed trace sum_n d(n) transform(lam - n) over every degree.

    ``lam`` is a number or a grid.  Each row is first formed in closed form
    from the quasi-polynomial of d(n) (`_closed_form_trace`); the rows it
    does not take are eigen-sums over their own window cut
    (`_eigen_sum_trace`).  A tau0 past `_check_tau0`'s limit or a non-finite
    lam refuses before either runs.
    """
    _check_tau0(win)
    lams = _check_lambdas(np.atleast_1d(np.asarray(lam, dtype=float)))
    values, remainders, bounds, terms, taken = _closed_form_trace(model, win, lams, tail_tol)
    precision = np.full(lams.size, "closed-form", dtype=object)
    rest = np.flatnonzero(~taken)
    if rest.size:
        values[rest], remainders[rest], bounds[rest], decimal, terms[rest] = _eigen_sum_trace(
            model, win, lams[rest], tail_tol
        )
        precision[rest] = _arithmetic(decimal)
    if np.ndim(lam) == 0:
        return TraceResult(
            complex(values[0]), float(remainders[0]), int(terms[0]), float(bounds[0]),
            str(precision[0]),
        )
    return TraceResult(values, remainders, int(terms.sum()), bounds, precision)


def _eigen_sum_trace(model: ProjectiveModel, win: Window, lams: np.ndarray, tail_tol: float):
    """The trace rows at ``lams`` as window-cut eigen-sums (`_conditioned_sums`):
    values, remainders, rounding bounds, the mask of decimal rows and each
    row's count of eigenvalues inside its cut."""

    def table(n_max):
        counts = _denumerants(model.weights, n_max).astype(float)
        return np.broadcast_to(counts[:, None], (counts.size, lams.size))

    def exact(rows, hi):
        return [_denumerants(model.weights, int(hi.max())).tolist()] * rows.size

    sums = _conditioned_sums(win, model, lams, tail_tol, lambda x, pi: x, table, exact)
    values, _, remainders, decimal, lo, hi = sums
    # d(n) is exact in decimal and rounded once to double
    bounds = _rounding_bounds(win, model, lams, sums, np.where(decimal, 0.0, 1.0))
    return values, remainders, bounds, decimal, _cut_counts(model, lo, hi)


def _cut_counts(model: ProjectiveModel, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The eigenvalues, with multiplicity, in each cut lo..hi (0 if empty),
    as doubles: d(n) passes int64 on large cuts."""
    counts = _denumerants(model.weights, int(hi.max(initial=-1)))
    below = np.concatenate([[0.0], np.cumsum(counts, dtype=float)])
    return below[hi + 1] - below[lo]


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
    n, so the terms from n0 = hi + 1 on sum to at most b(n0) envelope(n0 -
    lam)/(1 - q(n0)).  To the left (lo > 0) b does not grow as n falls and
    the envelope ratio from n to n - 1 is at most exp(-eps^2 (2s+1)/2), s =
    lam - n, so the terms from n1 = lo - 1 down sum to at most b(n1)
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
        # 0/0 arises only in a left tail that lo = 0 masks
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(q < 1.0, size / (1.0 - q), np.inf)

    right = tail(hi + 1, hi + 1 - lams, 1.0 + d / ((hi + 1) // min_w + 1))
    left = np.where(lo > 0, tail(lo - 1, lams - lo + 1, 1.0), 0.0)
    return lo, hi, right + left


def _check_tau0(win: Window) -> None:
    """Refuse (CoverageError) a window whose |tau0| is not below 2^52
    eps/`_GAUSS_FAR`, 1.8e13 at eps 0.15.

    A cut keeps |s| = |lam - n| <= `_GAUSS_FAR`/eps, and the phase table
    |k| <= K, so below the limit every phase argument is under about 2^52
    radians: `_negative_tail`, which still forms s*tau0 in double, keeps it to
    a radian, and the 40-digit reduction of tau0 in `_cis` leaves the table
    more than 20 digits, as it leaves the closed forms' angles theta = tau0
    - tau (`_aliases`, `_unit_aliases`).  Far beyond it that reduction loses
    every digit (near |tau0| = 1e40), and at tau0 = 1e300 the closed form's
    alias loop did not return within a minute.
    """
    limit = 2.0**52 * win.eps / _GAUSS_FAR
    if not abs(win.tau0) < limit:
        raise CoverageError(
            f"|tau0| must be below 2^52 eps/sqrt(1400) = {limit:.3g} to resolve the phases "
            f"across the window cut, got {win.tau0:.6g}"
        )


def _check_lambdas(lams: np.ndarray) -> np.ndarray:
    """``lams``, refused (InputError) unless every lam is finite."""
    if not np.isfinite(lams).all():
        raise InputError(f"lambda must be finite, got {lams[~np.isfinite(lams)][0]}")
    return lams


def _final_cut_target(tail_tol: float, unit, magnitudes: np.ndarray) -> np.ndarray:
    """What a cut must meet: min(tail_tol, unit * sum |terms|), above the floor."""
    return np.maximum(np.minimum(tail_tol, unit * magnitudes), _CUT_FLOOR)


# ----------------------------------------------------------------------------
# the conditioned sum: one arithmetic decision for traces and kernels
# ----------------------------------------------------------------------------


def _conditioned_sums(win, model, lams, tail_tol, scale, table, exact):
    """scale * sum_n c_n chihat(lam - n) per lam, each row in the arithmetic
    its conditioning needs.

    ``scale(x, pi)`` applies the constant factor with each arithmetic's pi;
    ``table(n_max)`` gives c_0..c_{n_max} in double, one column per lam, and
    ``exact(rows, hi)`` the exact c_n (ints or decimals) of the lams indexed
    by ``rows``, one sequence per row up to its ``hi``.  One window cut and
    one phase table (`_phase_table`) serve both passes: each row is summed in
    double, and one with kappa * 2^-53 > `_DOUBLE_KAPPA_BOUND` again in
    decimal (`_decimal_sums`).  A tau0 past `_check_tau0`'s limit, or a row
    whose remainder exceeds `_final_cut_target` in its arithmetic, refuses.
    Returns (values, moments, remainders, decimal-row mask, lo, hi), the
    moments as `_window_sums` gives them, with each decimal row's sum |terms|.
    """
    dbl_scale = scale(1.0, np.pi)
    lo, hi, remainders = _window_cut(win, model, lams)
    remainders = remainders * dbl_scale
    _check_tau0(win)
    phases = _phase_table(win)
    h = table(int(hi.max(initial=-1)))
    values, moments = _window_sums(win, lams, h, lo, hi, dbl_scale, phases)
    decimal = moments[0] * 2.0**-53 > _DOUBLE_KAPPA_BOUND * np.abs(values)
    rows = np.flatnonzero(decimal)
    if rows.size:
        values[rows], moments[0, rows] = _decimal_sums(
            win, lams[rows], exact(rows, hi[rows]), scale, lo[rows], hi[rows], phases
        )
    units = np.where(decimal, _DECIMAL_UNIT, float(np.finfo(np.float64).eps))
    targets = _final_cut_target(tail_tol, units, moments[0])
    short = np.flatnonzero(~(remainders <= targets))
    if short.size:
        i = short[0]
        raise CoverageError(
            f"window cut remainder {remainders[i]:.2e} cannot reach {targets[i]:.2e} "
            f"at lambda={lams[i]}"
        )
    return values, moments, remainders, decimal, lo, hi


def _rounding_bounds(win, model, lams, sums, fixed_units, units_per_n=0.0) -> np.ndarray:
    """First-order bounds on the rounding error of each row of ``sums``, the
    result of `_conditioned_sums`.

    With u the unit of the row's arithmetic (2^-53, or `_DECIMAL_UNIT`) and
    N kept terms, c = round(lam) and f = lam - c (|f| <= 1/2), the term at
    n = c + k, s = lam - n = f - k and x = (eps s)^2 / 2, carries a relative
    error of at most u times the sum of (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2002, ch. 3-4):

    - C = ``fixed_units`` + ``units_per_n`` n for its coefficient: 0 for
      d(n) exact in decimal, 1 for d(n) rounded to double, (d + 4) n/min_w
      for h_n, whose positive recurrence rounds d + 4 times a step along at
      most n/min_w steps; n = lam - s <= max(lam, 0) + |s|;
    - 8x + 2 for the gaussian factor, whose exponent double computes to 8u;
      a decimal row keeps that margin for its product c_n E_k and adds G for
      its stepped factor E_k (`_gaussian_steps`), at most (k^2 + |k| + 1 +
      8 h (|f| + |k| + 1)^2) u' off with h = eps^2/2 and u' =
      10^-_STEP_DIGITS u.  As |k| <= |s| + |f| <= |s| + 1/2, G =
      10^-_STEP_DIGITS (1 + 4 eps^2) (|s| + 2)^2 (0 for double rows);
    - P |s| + Q for cis(k tau0) from the phase table (`_phase_table`).  A
      double entry is the rounding of the 40-digit value, within one unit: P
      = 0, Q = 1 (0 at tau0 = 0, where every entry is exactly 1).  A decimal
      cos/sin (`_sin_cos` after reduction to |r| <= pi: Horner steps S_k =
      1 - S_{k+1} a_k, a_k = r^2/(2k(2k -+ 1)) <= 4.94, each rounding 3 times
      on numbers below 5, its error reaching the result times the product
      of the later a_j, which sums to less than 12 over the steps) is off by
      < 100 units, charged 280, so cis by < 400u plus (|theta| + 5)u for the
      reduction; cis(tau0) is stepped |k| <= |s| + |f| times at 3u more
      each: P = |tau0| + 408, Q = |f| (|tau0| + 408);
    - 2d + 10 for eps sqrt(2 pi), d!/pi^d and the joining products.

    Summing N complex terms adds sqrt(2) (N - 1) u per |term| (the double
    pass's zeros outside the cut add nothing); a factor 2 takes up the
    sqrt(2) and the second-order terms.  The turn e^{-i f tau0} multiplies
    the row's sum once, so its error is relative to |value|, R units: in
    double f tau0 is rounded once (|f| |tau0| units), cos and sin are within
    2 units and the complex product within 3, R = |f| |tau0| + 5 (0 at tau0
    = 0, where the turn is exactly 1); in decimal f tau0 is rounded once and
    reduced as above, R = 2 |f| |tau0| + 408.  So with the moments M_j = sum
    |t| |s|^j of the kept terms t (`_window_sums`),

        rho = 2 u (sum_terms |t| (N + C + 8x + G + P |s| + Q + 2d + 12) + R |value|)

    is charged exactly against M_0, M_1 and M_2 (a polynomial in |s| of
    degree 2); a decimal row sums the same cut, so it reads M_1 and M_2 of
    the double pass.  A decimal row adds 2^-52 |value| for its rounding to
    double.  rho passes |value| once kappa passes about 1 / (2 u N), near
    1e36 in decimal: such a row is unresolved, and its bound says so.
    """
    values, (m0, m1, m2), _, decimal, lo, hi = sums
    u = np.where(decimal, _DECIMAL_UNIT, 2.0**-53)
    tau = abs(win.tau0)
    f = np.abs(lams - np.rint(lams))
    p = np.where(decimal, tau + 408, 0.0)
    q = np.where(decimal, f * (tau + 408), 1.0 if tau else 0.0)
    turn = np.where(decimal, 2 * f * tau + 408, f * tau + 5 if tau else 0.0)
    g = np.where(decimal, 10.0**-_STEP_DIGITS * (1 + 4 * win.eps**2), 0.0)  # times (|s| + 2)^2
    n_terms = np.maximum(hi - lo + 1, 0)
    fixed = n_terms + fixed_units + units_per_n * np.maximum(lams, 0.0) + q + 2 * model.dim + 12
    units = (fixed + 4 * g) * m0 + (units_per_n + p + 4 * g) * m1 + (4 * win.eps**2 + g) * m2
    magnitude = np.abs(values)
    return 2.0 * u * (units + turn * magnitude) + np.where(decimal, 2.0**-52 * magnitude, 0.0)


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


def _phase_table(win: Window) -> tuple[tuple, np.ndarray, np.ndarray]:
    """cis(k tau0) out to K = ceil(`_GAUSS_FAR`/eps) + 1, as (exact, cos,
    sin): ``exact`` the (cos, sin) of k = 0..K at `_DECIMAL_DIGITS` digits,
    stepped from cis(tau0) (`_cis_powers`), and ``cos`` and ``sin`` their
    roundings to double for k = -K..K, read-only.  With c = round(lam), every
    n of a row's cut has |n - c| <= |lam - n| + 1/2 <= K.  Built once per
    (tau0, eps) and shared by every later call."""
    return _phase_table_at(float(win.tau0), float(win.eps))


@functools.lru_cache(maxsize=8)
def _phase_table_at(tau0: float, eps: float) -> tuple[tuple, np.ndarray, np.ndarray]:
    with localcontext() as ctx:
        ctx.prec = _DECIMAL_DIGITS
        exact = _cis_powers(Decimal(tau0), math.ceil(_GAUSS_FAR / eps) + 1)
    cos = np.array([float(c) for c, _ in exact])
    sin = np.array([float(s) for _, s in exact])
    cos, sin = np.concatenate([cos[:0:-1], cos]), np.concatenate([-sin[:0:-1], sin])
    cos.flags.writeable = sin.flags.writeable = False
    return tuple(exact), cos, sin


def _window_sums(
    win: Window, lams, h: np.ndarray, lo, hi, scale, phases
) -> tuple[np.ndarray, np.ndarray]:
    """Kept sums sum_n h_n chihat(lam - n) over lo..hi per point, and the
    moments sum |t| |s|^j, j = 0, 1, 2, of their terms t at s = lam - n (rows
    of a (3, points) array).

    With c = round(lam) and f = lam - c, chihat(lam - n) = e^{-i f tau0}
    chihat_0(f - k) cis(k tau0) at n = c + k, so a row is

        e^{-i f tau0} sum_{|k| <= K} h_{c+k} chihat_0(f - k) cis(k tau0)

    over the fixed window |k| <= K, masked to lo..hi, with cis(k tau0)
    read from the double entries of ``phases`` (`_phase_table`): one complex
    exponential per row.  The window's width does not depend on the grid, so
    neither does a row's value; rows go in blocks of at most `_BLOCK_TERMS`
    terms.
    """
    values = np.zeros(len(lams), dtype=complex)
    moments = np.zeros((3, len(lams)))
    _, cos, sin = phases
    reach = (cos.size - 1) // 2
    ks = np.arange(-reach, reach + 1)
    rows = np.flatnonzero(hi >= lo)
    centres = np.rint(lams)
    step = max(1, _BLOCK_TERMS // ks.size)
    for first in range(0, rows.size, step):
        i = rows[first : first + step]
        f = lams[i] - centres[i]
        n = centres[i, None].astype(np.int64) + ks
        kept = (n >= lo[i, None]) & (n <= hi[i, None])
        s = f[:, None] - ks
        g = np.where(kept, h[np.clip(n, 0, h.shape[0] - 1), i[:, None]], 0.0) * win.fourier_base(s)
        sums = (g * cos).sum(axis=1) + 1j * (g * sin).sum(axis=1)
        turns = np.array([complex(math.cos(x), -math.sin(x)) for x in (f * win.tau0).tolist()])
        values[i] = sums * turns * scale
        size, dist = np.abs(g) * scale, np.abs(s)
        moments[:, i] = size.sum(axis=1), (size * dist).sum(axis=1), (size * dist * dist).sum(axis=1)
    return values, moments


def _decimal_sums(
    win: Window, lams, coefficients, scale, lo, hi, phases
) -> tuple[np.ndarray, np.ndarray]:
    """`_window_sums` at ``_DECIMAL_DIGITS`` significant digits.

    ``coefficients`` yields one row c_0..c_hi per lam (exact ints, or
    decimals from `_decimal_h`); ``scale(x, pi)`` applies the constant with
    the decimal pi.  As in `_window_sums`, with c = round(lam) and f = lam -
    c the term at n = c + k is

        c_n eps sqrt(2 pi) exp(-eps^2 (f - k)^2 / 2) exp(-i f tau0) exp(i k tau0),

    where exp(i k tau0) is read from the decimal entries of ``phases``
    (`_phase_table`), so no argument
    is large, the Gaussian factors step outward from k = 0
    (`_gaussian_steps`), four exponentials per row, and exp(-i f tau0) turns
    the row's sum once.  Each result is rounded to complex once.
    """
    values = np.zeros(len(lams), dtype=complex)
    magnitudes = np.zeros(len(lams))
    with localcontext() as ctx:
        ctx.prec = _DECIMAL_DIGITS
        eps, tau0 = Decimal(win.eps), Decimal(win.tau0)
        peak = scale(eps * (2 * _PI).sqrt(), _PI)
        powers = phases[0]
        rows = zip(map(float, lams), map(int, lo), map(int, hi), coefficients)
        for i, (lam, a, b, row) in enumerate(rows):
            if b < a:
                continue
            c = round(lam)
            f = Decimal(lam) - c
            gauss = _gaussian_steps(eps, Decimal(lam), c, c - a, b - c)
            re = im = mag = Decimal(0)
            for n in range(a, b + 1):
                k = n - c
                g = row[n] * gauss[n - a]
                cos_k, sin_k = powers[abs(k)]
                re += g * cos_k
                im += g * sin_k if k >= 0 else -g * sin_k
                mag += g
            cos_f, sin_f = _cis(-f * tau0)
            values[i] = complex(
                float(peak * (re * cos_f - im * sin_f)), float(peak * (re * sin_f + im * cos_f))
            )
            magnitudes[i] = float(peak * mag)
    return values, magnitudes


def _gaussian_steps(eps: Decimal, lam: Decimal, c: int, left: int, right: int) -> list:
    """exp(-h (f - k)^2), h = eps^2/2 and f = lam - c, for k = -left..right
    (a range that need not hold 0: the steps start from k = 0 either way).

    Stepped outward from k = 0 at ``_DECIMAL_DIGITS + _STEP_DIGITS``
    digits: with E_k the factor at k,

        E_{k+1} = E_k r_k,  r_k = e^{-h(1 - 2f)} (e^{-2h})^k,
        E_{k-1} = E_k s_k,  s_k = e^{-h(1 + 2f)} (e^{-2h})^|k|,

    so a row takes the four exponentials E_0, r_0, s_0 and e^{-2h}.  With
    u' = 10^-_STEP_DIGITS `_DECIMAL_UNIT`, the unit of that precision, E_k
    is off by at most (k^2 + |k| + 1) u' from its roundings (r_k is off by
    (2|k| + 1) u', and each step adds r_k's error and one rounding), plus
    the error of its exponent: h f^2 is taken to 6u' relative, h(1 -+ 2f)
    to 6u' h (1 + 2|f|) absolute and 2h to 3u' relative, used once, |k|
    times and k(k - 1)/2 times, in all at most 8 h (|f| + |k| + 1)^2 u'.
    `_rounding_bounds` charges both.
    """
    with localcontext() as ctx:
        ctx.prec = _DECIMAL_DIGITS + _STEP_DIGITS
        h = eps * eps / 2
        f = lam - c
        step = (-2 * h).exp()
        centre = (-h * f * f).exp()
        sides = []
        for count, ratio in ((right, (-h * (1 - 2 * f)).exp()), (left, (-h * (1 + 2 * f)).exp())):
            e, side = centre, []
            for _ in range(count):
                e *= ratio
                ratio *= step
                side.append(e)
            sides.append(side)
    first = len(sides[1]) - left  # the index of k = -left
    return (sides[1][::-1] + [centre] + sides[0])[first : first + left + right + 1]


def _decimal_h(t_row, weights, n_max: int) -> list:
    """`_h_table` for one point, in ``_DECIMAL_DIGITS``-digit decimal, at the
    sphere point: the moments are divided by their sum first, which double
    rounds to 1 while the series grows like (sum t)^n.

    h_n = sum over i with n >= w_i of t_i (n + d w_i) h_{n - w_i}, divided
    by n; the sum starts from its first term (an empty one is 0)."""
    d = len(weights) - 1
    h = [Decimal(1)]
    with localcontext() as ctx:
        ctx.prec = _DECIMAL_DIGITS
        moments = [Decimal(float(tw)) for tw in t_row]
        mass = sum(moments)
        coeffs = [(tw / mass, w, d * w) for tw, w in zip(moments, weights)]
        for n in range(1, n_max + 1):
            acc = None
            for tw, w, dw in coeffs:
                if n >= w:
                    term = tw * (n + dw) * h[n - w]
                    acc = term if acc is None else acc + term
            h.append((Decimal(0) if acc is None else acc) / n)
    return h


def _sin_cos(x: Decimal) -> tuple[Decimal, Decimal]:
    """sin x and cos x, |x| <= 4, at the context's precision: both Taylor
    series in Horner form, cut after the first term below 10^-(prec + 2)
    (about 30 terms at |x| = pi and 40 digits)."""
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


def _cis(theta: Decimal) -> tuple[Decimal, Decimal]:
    """(cos theta, sin theta) by `_sin_cos` after reduction to |r| <= pi."""
    two_pi = 2 * _PI
    sin, cos = _sin_cos(theta - two_pi * (theta / two_pi).to_integral_value())
    return cos, sin


def _cis_powers(theta: Decimal, k_max: int) -> list:
    """(cos k theta, sin k theta) for k = 0..k_max, by stepping cis(theta)."""
    step_c, step_s = _cis(theta)
    powers = [(Decimal(1), Decimal(0))]
    for _ in range(k_max):
        c, s = powers[-1]
        powers.append((c * step_c - s * step_s, c * step_s + s * step_c))
    return powers


# ----------------------------------------------------------------------------
# kernel rows in closed form: the poles of the generating function
# ----------------------------------------------------------------------------

# two poles closer than this, relative to the larger modulus, are not
# separated: their partial fractions would cancel, and the row is summed by
# the eigen-sum instead
_ROOT_SEPARATION = 1e-3
# Newton steps polishing each double root of p_t at `_DECIMAL_DIGITS` digits:
# the error goes about 1e-13 -> 1e-26 -> 1e-40 at the separation above
_NEWTON_STEPS = 3


@dataclass(frozen=True)
class _Pole:
    """One pole rho = e^(log_modulus + i arg) of sum_n h_n x^n: it adds

        rho^n sum_j weights[j] C(n + d - j, d - j)

    to h_n for every integer n.  ``log_modulus`` (<= 0) and ``arg`` (in
    [-pi, pi]) are `_DECIMAL_DIGITS`-digit decimals, each within ``error``;
    ``weights`` are the partial-fraction weights rounded once to complex, and
    before that rounding each was within ``spread`` times its majorant
    (``majorants[j]``, a bound on its modulus)."""

    log_modulus: Decimal
    arg: Decimal
    weights: tuple
    majorants: tuple
    error: float
    spread: float


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


def _cdiv(a: tuple, b: tuple) -> tuple:
    n = b[0] * b[0] + b[1] * b[1]
    return (a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n


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
            if step < _NEWTON_STEPS:
                dy = _cdiv((s0, s1), (t0, t1))
                y0, y1 = y0 - dy[0], y1 - dy[1]
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


def _laurent(d: int, r: int, roots: list, centres: list) -> tuple[tuple, tuple, float]:
    """The partial-fraction weights of pole r of G = prod_s (1 - rho_s x)^-(d+1).

    With y = 1 - rho_r x and q_s = rho_s/rho_r, each other factor is
    (1 - q_s + q_s y)^-(d+1) = (1 - q_s)^-(d+1) sum_m C(d+m, m) (-beta_s)^m y^m,
    beta_s = q_s/(1 - q_s), so the coefficient phi_m of y^m in their product,
    m = 0..d, weighs (1 - rho_r x)^-(d+1-m), which adds C(n + d - m, d - m)
    rho_r^n to h_n: the Laurent expansion of the (d+1)-fold pole, formed at
    the context's precision from ``roots`` and rounded once.  Returns
    (weights, majorants, spread): the majorants are the same product with
    every term's modulus, taken from the double ``centres``.  A root moved by
    its radius moves q_s by dq_s <= (radius_s + |q_s| radius_r)/|rho_r|, and
    so each product term by at most (2d + 1) dq_s (1/|1 - q_s| + 1/|q_s|) of
    its modulus to first order; the spread adds 8 (D + d)(d + 1) decimal
    units for the arithmetic, D the number of poles.
    """
    (r0, r1), one = roots[r][:2], (Decimal(1), Decimal(0))
    norm = r0 * r0 + r1 * r1
    series, bounds = None, [1.0] + [0.0] * d
    spread = 8.0 * (len(roots) + d) * (d + 1) * _DECIMAL_UNIT
    for s, (re, im, radius) in enumerate(roots):
        if s == r:
            continue
        q = (re * r0 + im * r1) / norm, (im * r0 - re * r1) / norm  # rho_s/rho_r
        i0, i1 = t0, t1 = _cdiv(one, (1 - q[0], -q[1]))
        b0, b1 = _cmul(q, (i0, i1))
        for _ in range(d):
            t0, t1 = t0 * i0 - t1 * i1, t0 * i1 + t1 * i0
        terms = [(t0, t1)]
        for m in range(1, d + 1):
            t0, t1 = t0 * b0 - t1 * b1, t0 * b1 + t1 * b0
            t0, t1 = -t0 * (d + m) / m, -t1 * (d + m) / m
            terms.append((t0, t1))
        if series is None:
            series = terms
        else:  # the product's coefficients of y^0..y^d, summed from 0 as sum() would
            product = []
            for m in range(d + 1):
                p0 = p1 = 0
                for (a0, a1), (c0, c1) in zip(series[: m + 1], terms[m::-1]):
                    p0, p1 = p0 + (a0 * c0 - a1 * c1), p1 + (a0 * c1 + a1 * c0)
                product.append((p0, p1))
            series = product
        q_f = centres[s] / centres[r]
        a_q, a_inv = abs(q_f), 1.0 / abs(1.0 - q_f)
        sizes = [a_inv ** (d + 1) * math.comb(d + m, m) * (a_q * a_inv) ** m for m in range(d + 1)]
        bounds = [sum(bounds[i] * sizes[m - i] for i in range(m + 1)) for m in range(d + 1)]
        dq = (radius + a_q * roots[r][2]) / abs(centres[r])
        spread += (2 * d + 1) * dq * (a_inv + 1.0 / a_q)
    weights = tuple(complex(float(re), float(im)) for re, im in series or [one] + [(0, 0)] * d)
    return weights, tuple(bounds), spread


def _poles(d: int, moments: tuple) -> list | None:
    """The poles of G(x) = sum_n h_n x^n = p_t(x)^-(d+1), p_t(x) = 1 - sum_w
    c_w x^w, for ``moments`` ((w, c_w), ...) as `_merged_moments` gives them.

    With D the largest w whose c_w > 0, p_t(x) = (1 - x) sum_{m<D} Q_m x^m,
    Q_m = sum_{w>m} c_w (sums of positive moments, no cancellation), so p_t
    = prod_rho (1 - rho x) over rho = 1 and the D - 1 roots of S(y) =
    sum_m Q_m y^(D-1-m) (`_polished_roots`), all with |rho| <= 1.  The root
    1 is exact for moments that sum to 1; the decimal moments sum to 1
    within 2 D decimal units, which moves it by at most that (p_t'(1) <= -1).
    The coefficients are real, so the conjugate of a complex pole has the
    conjugate log, arg and weights: each conjugate pair is formed once.
    None when two poles are closer than `_ROOT_SEPARATION` or their discs
    meet.
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
        poles, formed = [], {}
        for r, (re, im, radius) in enumerate(roots):
            if (re, im.copy_negate()) in formed:  # the conjugate pole: conjugate log, arg, weights
                p = formed[re, im.copy_negate()]
                weights = tuple(x.conjugate() for x in p.weights)
                poles.append(_Pole(p.log_modulus, p.arg.copy_negate(), weights, p.majorants,
                                   p.error, p.spread))
                continue
            log_modulus, arg = _log_polar(re, im) if r else (Decimal(0), Decimal(0))
            weights, majorants, spread = _laurent(d, r, roots, centres)
            # |d log rho| <= |d rho|/(|rho| - |d rho|), and the decimal steps
            error = radius / (abs(centres[r]) - radius)
            error += 8 * _DECIMAL_UNIT * (1 + abs(float(log_modulus)) + abs(float(arg)))
            poles.append(_Pole(log_modulus, arg, weights, majorants, error, spread))
            if im:
                formed[re, im] = poles[-1]
    return poles


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
    refuses (InputError) a point with the wrong number of coordinates, and a
    zero or non-finite one, before any row is summed."""
    pts = np.atleast_2d(np.asarray(points, dtype=complex))
    if pts.ndim != 2 or pts.shape[1] != model.dim + 1:
        raise InputError(
            f"a point of the weights {model.weights} has {model.dim + 1} coordinates, "
            f"got an array of shape {np.shape(points)}"
        )
    t = np.abs(pts) ** 2
    mass = t.sum(axis=1)
    if not (np.isfinite(mass) & (mass > 0)).all():
        raise InputError("a kernel point must be finite and nonzero")
    return t


def _normal_moments(d: int) -> tuple[list, list]:
    """E[Z^i] and E[|Z|^i], i = 0..d, for Z standard normal."""
    absolute = [1.0, math.sqrt(2.0 / math.pi)]
    for i in range(2, d + 1):
        absolute.append((i - 1) * absolute[i - 2])
    absolute = absolute[: d + 1]
    return [m if i % 2 == 0 else 0.0 for i, m in enumerate(absolute)], absolute


def _binomial_moments(weights, mu, sigma: float, moments):
    """sum_j weights[j] sum_i e_i sigma^i moments[i], with e_i the coefficients
    of y in C(mu + y + m, m) = prod_{l <= m} (mu + l + y)/m!, m = d - j.  With
    moments[i] = E[Z^i] this is E[sum_j weights[j] C(mu + sigma Z + m, m)]."""
    d = len(weights) - 1
    coeffs, total = [1.0], weights[d]
    for m in range(1, d + 1):
        coeffs = [(mu + m) * x + y for x, y in zip(coeffs + [0.0], [0.0] + coeffs)]
        expect = sum(e * sigma**i * moments[i] for i, e in enumerate(coeffs))
        total += weights[d - m] * expect / math.factorial(m)
    return total


def _aliases(pole: _Pole, win: Window, lam: float) -> tuple[list, list]:
    """The aliases theta_k = phi + tau0 - 2 pi k of ``pole`` (phi its arg):
    every k whose gaussian factor exp(-theta_k^2/(2 eps^2)) lies within
    exp(-`_GAUSS_FAR`^2/2) of the largest, the reach of the window cut's
    factors, and the first theta_k beyond on each side.

    For each kept alias the inputs of its term are formed at
    `_DECIMAL_DIGITS` digits from the decimal log |rho| = L and phi: with c =
    round(lam) and f = lam - c (exact),

        X    = lam L + (L^2 - theta^2)/(2 eps^2),
        turn = c phi + f (phi - 2 pi k) + L theta/eps^2   (mod 2 pi; 2 pi k c drops),
        mu   = lam + L/eps^2 + i theta/eps^2,

    and each is rounded once, X and turn as a double and the double of what
    that rounding left.  Returns the kept (theta, X, X_lo, turn, turn_lo, mu,
    size), size the sum of the moduli of their parts, and the theta beyond."""
    with localcontext() as ctx:
        ctx.prec = _DECIMAL_DIGITS
        two_pi, log_modulus, phi = 2 * _PI, pole.log_modulus, pole.arg
        eps2, c = Decimal(win.eps) ** 2, round(lam)
        lam_d = Decimal(lam)
        f, spin = lam_d - c, c * phi
        grow, shift = lam_d * log_modulus + log_modulus * log_modulus / (2 * eps2), log_modulus / eps2
        theta0 = phi + Decimal(win.tau0)
        centre = float(lam_d + shift)
        L, arg, inv, f_f = float(log_modulus), float(phi), 1.0 / win.eps**2, lam - c

        def alias(k, theta, th):
            x = grow - theta * theta / (2 * eps2)
            turn = spin + f * (phi - two_pi * k) + shift * theta
            turn -= two_pi * (turn / two_pi).to_integral_value()
            x_hi, turn_hi = float(x), float(turn)
            size = (abs(lam * L) + 0.5 * (L * L + th * th) * inv + abs(c * arg)
                    + abs(f_f) * abs(arg - 2.0 * math.pi * k) + abs(L * th) * inv)
            lows = float(x - Decimal(x_hi)), float(turn - Decimal(turn_hi))
            return th, x_hi, lows[0], turn_hi, lows[1], complex(centre, float(theta / eps2)), size

        k0 = int((theta0 / two_pi).to_integral_value())
        reach = float(theta0 - two_pi * k0) ** 2 + (win.eps * _GAUSS_FAR) ** 2
        kept, beyond = [], []
        for k, step in ((k0, 1), (k0 - 1, -1)):
            while (th := float(theta := theta0 - two_pi * k)) ** 2 <= reach:
                kept.append(alias(k, theta, th))
                k += step
            beyond.append(th)
    return kept, beyond


def _pole_sum(d: int, win: Window, lam: float, pole: _Pole):
    """One pole's Poisson terms: (value, parts, remainder), ``parts`` the
    (majorant, rounding units) of each kept term (`_closed_form_diagonal`)."""
    u, eps = 2.0**-53, win.eps
    inv = 1.0 / eps**2
    signed, absolute = _normal_moments(d)
    L = float(pole.log_modulus)
    centre = lam + L * inv

    def majorant(theta, slack=0.0):
        """A bound on the modulus of the alias at theta, 2 pi e^{Re X} times E
        of P with the majorant weights and |mu| + |Z|/eps + l in every factor;
        ``slack`` widens |Im mu| eps^2 by its error."""
        grow = lam * L + 0.5 * (L * L - theta * theta) * inv
        base = abs(centre) + (abs(theta) + slack) * inv
        return 2.0 * math.pi * math.exp(grow) * _binomial_moments(pole.majorants, base, 1 / eps, absolute)

    kept, beyond = _aliases(pole, win, lam)
    remainder = 0.0
    for theta in beyond:  # the ratio of consecutive omitted majorants is at most q
        q = (1.0 + 2.0 * math.pi / abs(theta)) ** d
        q *= math.exp(-2.0 * math.pi * (abs(theta) + math.pi) * inv)
        if not q < 1.0:
            raise OverflowError("the omitted aliases do not decay")
        remainder += majorant(theta) / (1.0 - q)
    value, parts = 0j, []
    for theta, x, x_lo, turn, turn_lo, mu, size in kept:
        poly = _binomial_moments(pole.weights, mu, 1 / eps, signed)
        rotor = complex(math.cos(turn), math.sin(turn)) * complex(1.0, turn_lo)
        value += 2.0 * math.pi * math.exp(x) * (1.0 + x_lo) * rotor * poly
        # the decimal errors of X and turn: from L and phi (the pole's error)
        # and from the steps that formed them
        e_dec = (2.0 * abs(lam) + 1.0 + 2.0 * (abs(L) + abs(theta)) * inv) * pole.error
        e_dec += 16 * _DECIMAL_UNIT * size
        e_mu = u * (abs(mu.real) + abs(mu.imag)) + 2.0 * pole.error * inv
        e_mu += 4 * _DECIMAL_UNIT * (abs(lam) + (abs(L) + abs(theta)) * inv)
        slack = e_mu * eps**2
        base = abs(centre) + (abs(theta) + slack) * inv
        units = (8 * d + 34 + u * x * x + (e_dec + pole.spread) / u
                 + (d * e_mu / base / u if base else 0.0))
        parts.append((majorant(theta, slack), units))
    return value, parts, remainder


def _negative_tail(d: int, win: Window, lam: float, poles: list, top: int):
    """sum over n <= -(d+1) ``top`` of F(n) chihat(lam - n), F(n) = sum over
    ``poles`` of rho^n P(n) continuing h_n; (d+1) top is the degree of Q =
    p_t^(d+1), the generating function's denominator.  Summed while lam - n
    <= `_GAUSS_FAR`/eps and bounded geometrically beyond: (value, parts,
    remainder) as `_pole_sum` returns them."""
    first_n = -(d + 1) * top
    first = min(first_n, math.floor(lam - _GAUSS_FAR / win.eps))  # the first n bounded
    n = np.arange(first_n, first - 1, -1, dtype=float)
    s = lam - n
    binomials = [np.ones_like(n)]
    for m in range(1, d + 1):
        binomials.append(binomials[-1] * (n + m) / m)
    value, size = np.zeros(n.size, dtype=complex), np.zeros(n.size)
    logs = [(float(p.log_modulus), float(p.arg), p) for p in poles]
    with np.errstate(over="ignore", invalid="ignore"):
        for L, arg, pole in logs:
            power = np.exp(n * L)  # |rho|^n >= 1
            value += power * np.exp(1j * n * arg) * sum(
                a * binomials[d - j] for j, a in enumerate(pole.weights)
            )
            size += power * sum(m * np.abs(binomials[d - j]) for j, m in enumerate(pole.majorants))
        size = size * win.fourier_envelope(s)
    # the majorant's ratio from n to n - 1: at most max 1/|rho| |n|/(|n| - d) exp(-eps^2 (2s + 1)/2)
    lowest = min(L for L, _, _ in logs)
    q = math.exp(-lowest - 0.5 * win.eps**2 * (2.0 * s[-1] + 1.0)) * first / (first + d)
    if not (np.isfinite(size).all() and q < 1.0):
        raise OverflowError("the negative tail does not decay")
    remainder = float(size[-1] / (1.0 - q))
    n, s, value, size = n[:-1], s[:-1], value[:-1], size[:-1]
    total = complex(np.sum(value * win.fourier(s))) if n.size else 0j
    phase = max(abs(L) + abs(arg) + pole.error for L, arg, pole in logs)
    spread = max(pole.spread for pole in poles)
    units = (4 * d + 16 + 2.0 * np.abs(n) * phase + spread / 2.0**-53
             + 4.0 * (win.eps * s) ** 2 + 2.0 * abs(win.tau0) * s)
    return total, list(zip(size.tolist(), units.tolist())), remainder


def _closed_form_diagonal(model: ProjectiveModel, win: Window, lams, t, tail_tol: float):
    """Kernel rows in closed form for the gaussian window, on any weights:
    values, remainders and rounding bounds, and the mask of rows taken.

    ``t`` holds each row's moments, doubles |z_i|^2 or the decimals of
    `_chart_moments`.  The closed form evaluates the kernel at the sphere
    point: `_merged_moments` sums them per weight and divides by their total
    at `_DECIMAL_DIGITS` digits, so sum_w c_w = 1 holds in the formula, while
    the eigen-sum sums the series of t as given (h_n grows like (sum t)^n).

    **Derivation.**  G(x) = sum_n h_n x^n = p_t(x)^-(d+1) with p_t(x) = 1 -
    sum_w c_w x^w = prod_rho (1 - rho x): rho = 1 and the other roots
    (`_poles`, all with |rho| <= 1).  Partial fractions at each
    (d+1)-fold pole (`_laurent`) give h_n = sum_rho rho^n P_rho(n) for n >=
    0, deg P_rho <= d.  G is proper with a denominator of degree (d+1) D, D
    the largest weight with c_w > 0, so the continuation F(n) of that formula
    vanishes for -(d+1) D < n < 0 (R. P. Stanley, Enumerative Combinatorics
    1, Prop. 4.2.3), and the row is the sum of F(n) chihat(lam - n) over all
    integers less the n <= -(d+1) D.  Poisson summation against chihat(s) =
    eps sqrt(2 pi) exp(-eps^2 s^2/2 - i s tau0) turns a pole's rho^n P(n),
    log rho = L + i phi, into aliases

        2 pi e^{lam (L + i phi - 2 pi i k)} e^{a^2/(2 eps^2)} E[P(lam + a/eps^2 + Z/eps)],
        a = L + i theta_k,   theta_k = phi + tau0 - 2 pi k,

    by completing the square and shifting the contour; Z is standard normal
    and E a gaussian moment sum of degree d (`_binomial_moments`).  The
    aliases within exp(-`_GAUSS_FAR`^2/2) of a pole's largest are summed
    (`_aliases`); beyond, consecutive majorants (below) fall by at least
    (1 + 2 pi/|theta|)^d e^{-2 pi (|theta| + pi)/eps^2}, a geometric bound.
    The subtracted n are summed while lam - n <= `_GAUSS_FAR`/eps and bounded
    geometrically beyond (`_negative_tail`).  Both bounds make the row's
    remainder.  A row costs O(D d^2) per alias and O(1/eps) tail terms at any
    lam, no table of h_n and no decimal pass.

    **Accuracy rules.**  Every input of a term's exponent is formed past
    double and rounded once: the moments (exactly from the chart radius on a
    coordinate chart, `_chart_moments`), the roots (Newton-polished, with an
    enclosure), L and phi, and then X = lam L + (L^2 - theta^2)/(2 eps^2),
    the turn c phi + f (phi - 2 pi k) + L theta/eps^2 reduced mod 2 pi (c =
    round(lam), f = lam - c, so 2 pi k c drops exactly) and the centre mu,
    all at `_DECIMAL_DIGITS` digits (`_aliases`).  X and the turn are split
    into a double and the double of its rounding error, so e^X is e^{X_hi}
    (1 + X_lo) and the rotor cis(turn_hi) (1 + i turn_lo): no term loses
    digits to |X|, lam, tau0 or k.

    **Rounding** (first order, u = 2^-53; N. J. Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, ch. 3).  A kept alias is 2 pi
    e^{X_hi} (1 + X_lo) rotor E.  exp, cos and sin are within a unit each,
    the first-order corrections and the four products within 14 more, and
    the corrections leave u X^2 (second order, charged).  The decimal inputs
    are off by e_dec <= (2 |lam| + 1 + 2 (|L| + |theta|)/eps^2) e_pole (e_pole
    the pole's error in L and phi) plus 16 decimal units of the moduli of
    their parts, charged e_dec/u.  mu is off by e_mu <= u (|Re mu| + |Im mu|)
    plus its decimal error.  E multiplies out d linear factors mu + l + y and
    sums against the moments, each operation off by u and each factor by e_mu
    + u |mu + l|, so E is off by ((8d + 20) u + d e_mu/|mu|_+) Ebar, Ebar
    being E with the majorant weights, |mu|_+ + l in every factor and the
    moments E|Z|^i: the term's majorant, which also bounds its modulus; the
    weights add one unit for their rounding and the pole's spread.  A
    subtracted term carries (4d + 16 + 2 |n| (|L| + |phi| + e_pole) + 8x + 2
    |tau0| s + spread/u) u over the poles, as in `_rounding_bounds`.  Summing
    N terms and the factor d!/pi^d add (N + 2d + 4) u per term; a factor 2
    takes up the sqrt(2) of complex sums and the second-order terms:

        rho = 2u sum_terms (units + N + 2d + 4) majorant.

    **Scope and fallback.**  A row is taken when the window is gaussian, its
    poles are separated (`_ROOT_SEPARATION`, with disjoint enclosures),
    nothing overflows, the negative tail decays, the closed form's own kappa
    = sum majorants / |value|, the subtracted tail included, is at most
    `_CLOSED_FORM_KAPPA`, and the remainder meets min(tail_tol, u sum
    majorants).  That turns away rows whose poles cancel each other or the
    tail (a pole of modulus well below 1 at small lam), where a kappa near
    `_DOUBLE_KAPPA_BOUND`'s 900 would keep only 13 digits while the
    eigen-sum, whose terms may not cancel at all, keeps more: a (1, 2, 2) row
    at tau0 = 0, lam = 0 with kappa 840 was 8.7e-14 off.  Every row it does
    not take is summed by `_eigen_sum_diagonal`.
    """
    values = np.zeros(lams.size, dtype=complex)
    remainders, bounds = np.zeros(lams.size), np.zeros(lams.size)
    taken = np.zeros(lams.size, dtype=bool)
    if win.shape != "gaussian":
        return values, remainders, bounds, taken
    d, u = model.dim, 2.0**-53
    scale = math.factorial(d) / math.pi**d
    known: dict = {}  # rows at the same moments (a parity pair) share their poles
    for i, (lam, row) in enumerate(zip(lams.tolist(), t)):
        try:
            moments = _merged_moments(model.weights, row)
            if moments not in known:
                known[moments] = _poles(d, moments)
            poles = known[moments]
            if poles is None:
                continue
            sums = [_pole_sum(d, win, lam, pole) for pole in poles]
            tail = _negative_tail(d, win, lam, poles, max(w for w, c in moments if c > 0))
        except (OverflowError, ValueError):  # a term overflows, or a pole underflows double
            continue
        value = sum(v for v, _, _ in sums) - tail[0]
        parts = [p for _, ps, _ in sums for p in ps] + tail[1]
        magnitude = sum(m for m, _ in parts)
        remainder = sum(r for _, _, r in sums) + tail[2]
        bound = 2.0 * u * sum(m * (units + len(parts) + 2 * d + 4) for m, units in parts)
        if not (math.isfinite(magnitude) and math.isfinite(bound) and math.isfinite(remainder)):
            continue
        if not magnitude <= _CLOSED_FORM_KAPPA * abs(value):
            continue
        if remainder > _final_cut_target(tail_tol, u, magnitude * scale) / scale:
            continue
        values[i], remainders[i], bounds[i] = value * scale, remainder * scale, bound * scale
        taken[i] = True
    return values, remainders, bounds, taken


def _diagonal_values(
    model: ProjectiveModel,
    win: Window,
    lams: np.ndarray,
    points: np.ndarray,
    tail_tol: float,
    moments: list | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact diagonal at paired (lam_i, point_i): the values, their
    remainders and rounding bounds, and each row's arithmetic: "closed-form"
    (`_closed_form_diagonal`), else "double" or "decimal" from
    `_eigen_sum_diagonal`.  ``moments``, when given, holds each point's
    decimal moments (`_chart_moments`) for the closed form; the eigen-sum
    reads the points.  A tau0 past `_check_tau0`'s limit, a non-finite lam
    and a malformed point (`_sphere_moments`) refuse before either runs."""
    _check_tau0(win)
    t = _sphere_moments(model, points)
    lams = _check_lambdas(np.broadcast_to(np.asarray(lams, dtype=float), (t.shape[0],)))
    values, remainders, bounds, taken = _closed_form_diagonal(
        model, win, lams, t if moments is None else moments, tail_tol
    )
    precision = np.full(lams.size, "closed-form", dtype=object)
    rest = np.flatnonzero(~taken)
    if rest.size:
        values[rest], remainders[rest], bounds[rest], decimal = _eigen_sum_diagonal(
            model, win, lams[rest], t[rest], tail_tol
        )
        precision[rest] = _arithmetic(decimal)
    return values, remainders, bounds, precision


# a row's arithmetic, cheapest first
_ARITHMETICS = ("closed-form", "double", "decimal")


def _arithmetic(decimal_rows) -> np.ndarray:
    """The eigen-sum arithmetic of each row: "decimal" or "double"."""
    return np.where(decimal_rows, "decimal", "double").astype(object)


def _eigen_sum_diagonal(
    model: ProjectiveModel, win: Window, lams: np.ndarray, t: np.ndarray, tail_tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact diagonal at paired (lam_i, moments t_i) as a window-cut
    eigen-sum: the values, their window-cut remainders and rounding bounds,
    and the mask of rows summed in decimal (`_conditioned_sums`)."""
    weights, d = model.weights, model.dim

    def exact(rows, hi):
        return (_decimal_h(t[i], weights, int(b)) for i, b in zip(rows, hi))

    def scale(x, pi):
        return x * math.factorial(d) / pi**d

    sums = _conditioned_sums(
        win, model, lams, tail_tol, scale, lambda n_max: _h_table(t, weights, n_max), exact
    )
    values, _, remainders, decimal, _, _ = sums
    bounds = _rounding_bounds(win, model, lams, sums, 0.0, (d + 4) / min(weights))
    return values, remainders, bounds, decimal


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
    pts = np.atleast_2d(np.asarray(points, dtype=complex))
    values, remainders, _, _ = _diagonal_values(model, win, float(lam), pts, tail_tol)
    return values, float(remainders.max(initial=0.0))


# ----------------------------------------------------------------------------
# traces in closed form: the quasi-polynomial of d(n)
# ----------------------------------------------------------------------------

# the largest lcm(w) (d + 1) whose quasi-polynomial a trace tabulates; models
# past it keep the eigen-sum
_QUASI_TABLE_MAX = 1 << 16
# a closed-form trace row takes |lam| below this: past 2^52 the doubles are
# spaced 1 or more apart, so a double lam no longer resolves n
_CLOSED_FORM_LAMBDA = 2.0**52


@dataclass(frozen=True)
class _UnitPole:
    """One pole zeta = e^(2 pi i turn) of prod_i (1 - x^{w_i})^-1, a root of
    unity: it adds zeta^n sum_j coeffs[j] n^j to d(n).  ``coeffs`` are
    rounded once from `_DECIMAL_DIGITS`-digit sums, and ``majorants[j]`` is
    |coeffs[j]| plus their error over 2^-53."""

    turn: Fraction
    coeffs: tuple
    majorants: tuple


@functools.lru_cache(maxsize=16)
def _unit_poles(weights: tuple) -> tuple | None:
    """The poles of sum_n d(n) x^n on the unit circle, with the coefficients
    of their polynomials; None when lcm(w) (d + 1) passes `_QUASI_TABLE_MAX`.
    Built once per weight vector (``weights`` sorted).

    d(n) is a quasi-polynomial of degree d and period L = lcm(w) (M. Beck
    and S. Robins, *Computing the Continuous Discretely*, ch. 1-2): d(n) =
    sum_j c_j(n mod L) n^j for every n >= 0.  Each c_j(r) is an exact
    Fraction, interpolated from the exact d(r + t L), t = 0..d (Newton's
    forward differences in t, then t = (n - r)/L).  A root of unity zeta of
    order o is a pole of order m(o) = #{i : o | w_i}, so its polynomial
    P_zeta has degree below m(o), and zeta = e^(2 pi i a/L) contributes
    sum_r c_j(r) zeta^-r / L to the n^j coefficient.  That sum is taken
    only where it can be nonzero: for j < m(o), over c_j's own exact period
    P_j (the least divisor of L that c_j repeats with) and only at the a
    that P_j allows, at `_DECIMAL_DIGITS` digits with exact quarter turns,
    and rounded once; conjugate poles take conjugate coefficients.  Before
    that rounding a coefficient is off by at most (P_j + 284) decimal units
    of max_r |c_j(r)|: the quotients and the sum round P_j + 4 times, and a
    `_sin_cos` value is within the 280 units `_rounding_bounds` charges.  A
    pole that does not exist is an exact zero, not a rounding residue (a
    double DFT over all L residues left spurious lam^3 terms in the zeta =
    -1 row of (1, 1, 1, 2)).
    """
    d, period = len(weights) - 1, math.lcm(*weights)
    if period * (d + 1) > _QUASI_TABLE_MAX:
        return None
    counts = [1] + [0] * (period * (d + 1) - 1)
    for w in weights:
        for v in range(w, len(counts)):
            counts[v] += counts[v - w]
    falling = [[Fraction(1)]]  # C(t, k) in powers of t
    for k in range(1, d + 1):
        step = [Fraction(0)] * (k + 1)
        for i, a in enumerate(falling[-1]):
            step[i + 1] += a / k
            step[i] -= a * (k - 1) / k
        falling.append(step)
    c = [[Fraction(0)] * period for _ in range(d + 1)]
    for r in range(period):
        diffs = [counts[r + t * period] for t in range(d + 1)]
        in_t = [Fraction(0)] * (d + 1)
        for k in range(d + 1):
            for i, a in enumerate(falling[k]):
                in_t[i] += diffs[0] * a
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        for i, a in enumerate(in_t):
            a /= period**i
            for j in range(i + 1):
                c[j][r] += a * math.comb(i, j) * (-r) ** (i - j)
    own = [next(p for p in range(1, period + 1) if period % p == 0
                and all(x == row[k % p] for k, x in enumerate(row))) for row in c]
    cis: dict = {}
    poles = []
    with localcontext() as ctx:
        ctx.prec = _DECIMAL_DIGITS
        for a in range(period // 2 + 1):
            order = period // math.gcd(a, period)
            degree = sum(w % order == 0 for w in weights) - 1
            coeffs, majorants = [], []
            for j in range(degree + 1):
                p = own[j]
                if a * p % period:  # zeta is not an own frequency of c_j
                    coeffs.append(0j)
                    majorants.append(0.0)
                    continue
                if p not in cis:
                    cis[p] = [_unit_cis(k, p) for k in range(p)]
                q, re, im = a * p // period, Decimal(0), Decimal(0)
                for r in range(p):
                    x = Decimal(c[j][r].numerator) / c[j][r].denominator
                    cos, sin = cis[p][q * r % p]
                    re, im = re + x * cos, im - x * sin
                value = complex(float(re / p), float(im / p))
                error = (p + 284) * _DECIMAL_UNIT * float(max(abs(x) for x in c[j][:p]))
                coeffs.append(value)
                majorants.append(abs(value) + error * 2.0**53)
            if any(coeffs):
                poles.append(_UnitPole(Fraction(a, period), tuple(coeffs), tuple(majorants)))
                if 0 < 2 * a < period:
                    poles.append(_UnitPole(
                        Fraction(period - a, period), tuple(x.conjugate() for x in coeffs),
                        tuple(majorants),
                    ))
    return tuple(poles)


def _unit_cis(k: int, p: int) -> tuple[Decimal, Decimal]:
    """(cos, sin) of 2 pi k/p at the context's precision, exact on quarter turns."""
    if 4 * k % p == 0:
        return ((1, 0), (0, 1), (-1, 0), (0, -1))[4 * k // p]
    sin, cos = _sin_cos(2 * _PI * (k if 2 * k <= p else k - p) / p)
    return cos, sin


def _closed_form_trace(model: ProjectiveModel, win: Window, lams: np.ndarray, tail_tol: float):
    """Trace rows in closed form for the gaussian window, on any weights:
    values, remainders, rounding bounds, term counts and the mask of rows
    taken, vectorised over the grid.

    **Derivation.**  With d(n) = sum_zeta zeta^n P_zeta(n) over the poles of
    `_unit_poles` for n >= 0, the quasi-polynomial Q(n) of the right side
    vanishes for -sum w < n < 0 and equals (-1)^d d(-n - sum w) for n <=
    -sum w (reciprocity; R. P. Stanley, Enumerative Combinatorics 1, Prop.
    4.2.3).  So the trace is sum over all integers of Q(n) chihat(lam - n)
    less the ghost part (-1)^d sum_{m >= 0} d(m) chihat(lam + sum w + m).
    Poisson summation, with n^j e^{i n tau} = (-i d/dtau)^j e^{i n tau} and
    integration by parts, turns the pole zeta = e^{-i tau} into periods

        2 pi e^{-i lam tau} ((lam + i d/dtau)^j chi)(tau),  tau = 2 pi (k - turn),

    and for the gaussian (lam + i d/dtau)^j chi = chi E[(mu + Z/eps)^j], mu =
    lam + i theta/eps^2, theta = tau0 - tau, Z standard normal (the Hermite
    polynomials He_m(x) = E[(x + iZ)^m]).  So each period term is 2 pi
    chi(tau) e^{-i lam tau} R(mu), R(mu) = sum_k b_k mu^k with b_k = sum_j
    C_j C(j, k) eps^(k - j) E[Z^(j - k)], evaluated over the whole grid by
    Horner's rule.  The periods of each pole within exp(-`_GAUSS_FAR`^2/2)
    of its largest chi are summed, as `_aliases` keeps a kernel pole's; past
    them consecutive majorants fall by at least (1 + 2 pi/|theta|)^deg
    e^{-2 pi (|theta| + pi)/eps^2}, a geometric bound.  The ghost part is
    the eigen-sum at lam' = -lam - sum w, conjugated (chihat(s) and
    chihat(-s) are conjugate): its window cut is empty once lam + sum w
    passes `_GAUSS_FAR`/eps, and its geometric remainder is the whole part.
    Both remainders make the row's.

    **Exact phases.**  theta = tau0 - 2 pi (k - turn) is formed at
    `_DECIMAL_DIGITS` digits (exact for every tau0 below `_check_tau0`'s
    limit), and chi(tau) = exp(-theta^2/(2 eps^2)) and theta/eps^2 from it,
    each rounded once.  e^{-i lam tau} is `_period_phase` at the exact turn k
    - turn: lam is reduced exactly, half and quarter turns are exact, and
    the rest is one exponential of a correctly rounded turn.

    **Rounding** (first order, u = 2^-53; N. J. Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, ch. 3).  With deg the degree
    of a pole's polynomial, a period term is off by at most u times its
    majorant M = 2 pi chi(tau) sum_j Cbar_j E[(|mu| + |Z|/eps)^j] (Cbar the
    coefficient majorants, which also bound every |b_k|, so M bounds the
    term and every partial Horner sum) times: 2 for C_j, whose decimal error
    Cbar carries; 2 deg + 6 for forming b_k (the eps powers, the products
    and the sum of at most deg + 1 parts); 5 deg + 2 for Horner's rule in
    complex arithmetic; deg for mu, whose imaginary part is rounded once
    (|R'(mu)| |dmu| <= deg M u); 12 for the phase (the turn rounded once,
    2 pi and the product twice more, |2 pi r| <= pi, and cos and sin within
    a unit each); 1 for chi; 6 for the products 2 pi chi e^{-i lam tau} R.
    The ghost's rounding is `_rounding_bounds`' over its kept terms.
    Summing the N period terms and the ghost adds N + 2 units per term; a
    factor 2 takes up the sqrt(2) of complex sums and the second-order
    terms:

        rho = 2u sum_terms (8 deg + 29 + N + 2) M + ghost's bound.

    **Scope and fallback.**  A row is taken when the window is gaussian,
    lcm(w) (d + 1) <= `_QUASI_TABLE_MAX`, -sum w < lam < `_CLOSED_FORM_LAMBDA`
    (for lam <= -sum w the ghost holds the terms nearest the window's peak),
    nothing overflows, kappa = (sum M + sum |ghost terms|)/|value| is at most
    `_CLOSED_FORM_KAPPA` (small and negative lam, where the ghost cancels the
    Poisson side, fail it), and the remainder meets min(tail_tol, u sum M).
    """
    values = np.zeros(lams.size, dtype=complex)
    remainders, bounds, terms = np.zeros(lams.size), np.zeros(lams.size), np.zeros(lams.size)
    taken = np.zeros(lams.size, dtype=bool)
    poles = _unit_poles(tuple(sorted(model.weights))) if win.shape == "gaussian" else None
    total_w = sum(model.weights)
    rows = np.flatnonzero((lams > -total_w) & (np.abs(lams) < _CLOSED_FORM_LAMBDA))
    if poles is None or not rows.size:
        return values, remainders, bounds, terms, taken
    lam, eps, u = lams[rows], win.eps, 2.0**-53
    signed, absolute = _normal_moments(model.dim)
    aliases = [(pole, *_unit_aliases(pole, win)) for pole in poles]
    n_terms = sum(len(kept) for _, kept, _ in aliases)
    with np.errstate(over="ignore", invalid="ignore"):
        value, magnitude = np.zeros(lam.size, dtype=complex), np.zeros(lam.size)
        units, remainder = np.zeros(lam.size), np.zeros(lam.size)
        for pole, kept, beyond in aliases:
            b, bbar = _mu_polynomial(pole, eps, signed, absolute)
            deg = len(b) - 1
            for theta in beyond:  # consecutive omitted majorants fall by at least q
                q = (1.0 + 2.0 * math.pi / abs(theta)) ** deg
                q *= math.exp(-2.0 * math.pi * (abs(theta) + math.pi) / eps**2)
                far = math.exp(-0.5 * (theta / eps) ** 2)
                far *= _horner(bbar, np.abs(lam) + abs(theta) / eps**2)
                remainder += 2.0 * math.pi * far / (1.0 - q) if q < 1.0 else np.inf
            for chi, y, turn in kept:
                term = 2.0 * math.pi * chi * _period_phase(turn, lam) * _horner(b, lam + 1j * y)
                size = 2.0 * math.pi * chi * _horner(bbar, np.hypot(lam, y))
                value += term
                magnitude += size
                units += (8 * deg + 29 + n_terms + 2) * size
        # the whole ghost part is at most envelope(s0)/(1 - q0), s0 = lam + sum w
        # (the ratio bound of `_window_cut`'s right tail from m = 0); a ghost
        # below 2^-20 units of the row is left to the remainder
        s0 = lam + total_w
        q0 = (1.0 + model.dim) * np.exp(-0.5 * eps**2 * (2.0 * s0 + 1.0))
        whole = np.where(q0 < 1.0, win.fourier_envelope(s0) / (1.0 - q0), np.inf)
        small = whole <= 2.0**-20 * u * magnitude
        remainder += np.where(small, whole, 0.0)
        bound, ghost_terms = 2.0 * u * units, np.zeros(lam.size)
        summed = np.flatnonzero(~small)
        if summed.size:
            ghost = _ghost_trace(model, win, lam[summed])
            value[summed] -= ghost[0]
            magnitude[summed] += ghost[1]
            remainder[summed] += ghost[2]
            bound[summed] += ghost[3]
            ghost_terms[summed] = ghost[4]
        ok = np.isfinite([value, magnitude, bound, remainder]).all(axis=0)
        ok &= magnitude <= _CLOSED_FORM_KAPPA * np.abs(value)
        ok &= remainder <= _final_cut_target(tail_tol, u, magnitude)
    kept = rows[ok]
    values[kept], remainders[kept], bounds[kept] = value[ok], remainder[ok], bound[ok]
    terms[kept] = n_terms + ghost_terms[ok]
    taken[kept] = True
    return values, remainders, bounds, terms, taken


def _unit_aliases(pole: _UnitPole, win: Window) -> tuple[list, list]:
    """The periods tau = 2 pi (k - turn) of ``pole`` whose chi(tau) lies within
    exp(-`_GAUSS_FAR`^2/2) of the largest, as `_aliases` keeps a kernel
    pole's, each as (chi(tau), theta/eps^2, k - turn), theta = tau0 - tau
    formed at `_DECIMAL_DIGITS` digits; and the first theta beyond on each
    side."""
    kept, beyond = [], []
    with localcontext() as ctx:
        ctx.prec = _DECIMAL_DIGITS
        tau0, eps2, two_pi = Decimal(win.tau0), Decimal(win.eps) ** 2, 2 * _PI
        turn = Decimal(pole.turn.numerator) / pole.turn.denominator
        k0 = int((tau0 / two_pi + turn).to_integral_value())
        reach = float(tau0 - two_pi * (k0 - turn)) ** 2 + (win.eps * _GAUSS_FAR) ** 2
        for k, step in ((k0, 1), (k0 - 1, -1)):
            while float(theta := tau0 - two_pi * (k - turn)) ** 2 <= reach:
                chi = float((-theta * theta / (2 * eps2)).exp())
                kept.append((chi, float(theta / eps2), k - pole.turn))
                k += step
            beyond.append(float(theta))
    return kept, beyond


def _mu_polynomial(pole: _UnitPole, eps: float, signed: list, absolute: list) -> tuple[list, list]:
    """The coefficients b_k of R(mu) = E[P(mu + Z/eps)] = sum_j C_j E[(mu +
    Z/eps)^j], and bbar_k, the same with the coefficient majorants and
    E|Z|^i: sum_k bbar_k x^k = E[Pbar(x + |Z|/eps)] bounds |R| and every
    partial Horner sum at |mu| <= x (`_closed_form_trace`)."""
    degree = len(pole.coeffs) - 1
    b, bbar = [], []
    for k in range(degree + 1):
        b.append(sum(pole.coeffs[j] * math.comb(j, k) * eps ** (k - j) * signed[j - k]
                     for j in range(k, degree + 1)))
        bbar.append(sum(pole.majorants[j] * math.comb(j, k) * eps ** (k - j) * absolute[j - k]
                        for j in range(k, degree + 1)))
    return b, bbar


def _horner(coeffs: list, x):
    """sum_k coeffs[k] x^k by Horner's rule, batched over x."""
    out = coeffs[-1] * np.ones_like(x)
    for c in coeffs[-2::-1]:
        out = out * x + c
    return out


def _ghost_trace(model: ProjectiveModel, win: Window, lams: np.ndarray):
    """The ghost part (-1)^d sum_{m >= 0} d(m) chihat(lam + sum w + m) of
    each row (`_closed_form_trace`), as the conjugate of the eigen-sum at
    lam' = -lam - sum w, summed in double: (values, sum |terms|,
    remainders, rounding bounds, kept eigenvalues)."""
    mirror = -lams - sum(model.weights)
    lo, hi, remainders = _window_cut(win, model, mirror)
    counts = _denumerants(model.weights, int(hi.max(initial=-1))).astype(float)
    table = np.broadcast_to(counts[:, None], (counts.size, mirror.size))
    values, moments = _window_sums(win, mirror, table, lo, hi, 1.0, _phase_table(win))
    sums = (values, moments, remainders, np.zeros(mirror.size, dtype=bool), lo, hi)
    bounds = _rounding_bounds(win, model, mirror, sums, 1.0)
    sign = (-1) ** model.dim
    return sign * np.conj(values), moments[0], remainders, bounds, _cut_counts(model, lo, hi)


# ----------------------------------------------------------------------------
# scans
# ----------------------------------------------------------------------------


def _chart_meta(chart: HeisenbergChart) -> dict:
    """The chart centre and its fixed component; the rows alone do not name them."""
    return {
        "chart_center": chart.center,
        "index_set": list(chart.component.index_set),
        "normal_dim": chart.component.normal_dim,
    }


def _chart_moments(chart: HeisenbergChart, direction, radii: list | None) -> list | None:
    """The moments |z_i|^2 of the chart points at normal displacement r
    u/|u| (u = ``direction``, a normal vector) for each r of ``radii``
    (decimals), at `_DECIMAL_DIGITS` digits: cos^2 r on the centre's
    coordinate, sin^2 r |u_j|^2/|u|^2 on the coordinate of normal frame row
    j and 0 elsewhere, the great-circle chart's point exactly.  That holds
    when the centre is a coordinate point and the normal rows are coordinate
    vectors, as on every chart `harness._default_chart` builds.  Otherwise,
    or when ``radii`` is None, u is not finite or some r > 2 (`_sin_cos`),
    None: the rows take the moments of their double points."""
    if radii is None or not np.isfinite(direction).all() or max(radii, default=0) > 2:
        return None
    rows = np.abs(np.vstack([chart.center, chart.frame[chart.n_tangent :]]))
    axes = rows.argmax(axis=1)
    if not np.array_equal(rows, np.eye(rows.shape[1])[axes]):
        return None
    with localcontext() as ctx:
        ctx.prec = _DECIMAL_DIGITS
        sizes = [Decimal(x.real) ** 2 + Decimal(x.imag) ** 2 for x in np.ravel(direction).tolist()]
        total = sum(sizes)
        shares = [x / total if total else x for x in sizes]
        out = []
        for r in radii:
            sin, cos = _sin_cos(r)
            row = [Decimal(0)] * rows.shape[1]
            row[axes[0]] = cos * cos
            for j, share in zip(axes[1:].tolist(), shares):
                row[j] = sin * sin * share
            out.append(tuple(row))
    return out


def _displacement_radii(u, lams) -> list | None:
    """|u|/sqrt(lam) per lam at `_DECIMAL_DIGITS` digits, the chart radius
    of the scaled scans; None unless u is finite and every lam positive and
    finite."""
    lams = np.ravel(lams)
    if not (np.isfinite(u).all() and np.isfinite(lams).all() and (lams > 0).all()):
        return None
    with localcontext() as ctx:
        ctx.prec = _DECIMAL_DIGITS
        norm2 = sum(Decimal(x.real) ** 2 + Decimal(x.imag) ** 2 for x in np.ravel(u).tolist())
        return [(norm2 / Decimal(lam)).sqrt() for lam in lams.tolist()]


def _offlocus_radii(C: float, lams) -> list | None:
    """2 C lam^(-7/18) per lam at `_DECIMAL_DIGITS` digits: from the double
    power, two Newton steps y <- y (1 + (lam^-7 y^-18 - 1)/18) (quadratic,
    error about 8.5 e^2: 3e-16 -> 1e-30 -> past 1e-40).
    None unless C and every lam are finite and every lam positive."""
    lams = np.ravel(lams)
    if not (math.isfinite(C) and np.isfinite(lams).all() and (lams > 0).all()):
        return None
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


def scaled_diagonal_scan(
    model: ProjectiveModel,
    win: Window,
    chart: HeisenbergChart,
    u: np.ndarray,
    lambda_grid: np.ndarray,
    tail_tol: float = 1e-10,
) -> ScanReport:
    """Exact vs predicted scaled diagonal at normal displacement u/sqrt(lam).

    For each lambda in the grid the kernel diagonal is evaluated at
    chart.normal_point(u/sqrt(lam)) and compared with the local leading term
    at fixed u.  Ratios converging to 1 along the grid verify the local
    asymptotics; their deviation from 1 carries the correction ladder.
    """
    lams = np.asarray(lambda_grid, dtype=float)
    u = np.asarray(u, dtype=complex)
    pred = local_prediction(model, chart, win)
    points = np.array([chart.normal_point(u / math.sqrt(l)) for l in lams])
    moments = _chart_moments(chart, u, _displacement_radii(u, lams))
    exact, remainders, bounds, precision = _diagonal_values(
        model, win, lams, points, tail_tol, moments
    )
    predicted = predict_local(pred, u, lams)
    meta = {
        "kind_detail": "scaled diagonal vs local leading term",
        "weights": list(map(int, model.weights)),
        "tau0": chart.tau0,
        **_chart_meta(chart),
        "u": u,
        "window": {"shape": win.shape, "eps": win.eps},
        **_row_budgets(remainders, bounds, precision),
    }
    return ScanReport("local", lams, exact, np.asarray(predicted), meta=meta)


def offlocus_decay_scan(
    model: ProjectiveModel,
    win: Window,
    chart: HeisenbergChart,
    C: float,
    lambda_grid: np.ndarray,
    tail_tol: float = 1e-10,
    direction: np.ndarray | None = None,
) -> ScanReport:
    """Decay of the normalised diagonal just outside the shrinking locus zone.

    Samples the diagonal at normal distance 2C*lam^{-7/18} (twice the
    exclusion radius), normalises by (lam/pi)^d, and fits the log-log slope
    over the top octave of the grid.  Rapid decay (faster than any fixed
    power in the regime the bound covers) shows up as a steep negative slope.
    The prediction column holds the (lam/pi)^d normalisation so ratio_abs is
    the normalised modulus being fit.
    """
    lams = np.asarray(lambda_grid, dtype=float)
    given = np.eye(chart.normal_dim)[0] if direction is None else direction
    direction = np.asarray(given, dtype=complex) / np.linalg.norm(given)
    dist = 2.0 * C * lams ** (-7.0 / 18.0)
    points = np.array([chart.normal_point(r * direction) for r in dist])
    moments = _chart_moments(chart, given, _offlocus_radii(C, lams))
    exact, remainders, bounds, precision = _diagonal_values(
        model, win, lams, points, tail_tol, moments
    )
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
        **_row_budgets(remainders, bounds, precision),
        "tau0": chart.tau0,
        **_chart_meta(chart),
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
    lams = np.asarray(lambda_grid, dtype=float)
    if (lams >= 0).any():
        raise ValueError("grid must be strictly negative")
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


@dataclass(frozen=True)
class ParitySplit:
    """Even and odd parts of the diagonal at +-u/sqrt(lam), with the cut remainder."""

    even: complex
    odd: complex
    cut_remainder: float


def parity_split(
    model: ProjectiveModel,
    win: Window,
    chart: HeisenbergChart,
    u: np.ndarray,
    lam: float,
    tail_tol: float = 1e-10,
) -> ParitySplit:
    """Even/odd parts of the scaled diagonal in the normal displacement.

    Evaluates at +-u/sqrt(lam) and returns ((S+ + S-)/2, (S+ - S-)/2) with
    the larger of the two window-cut remainders.  The leading term is even;
    the odd part isolates half-power corrections.
    """
    even, odd, remainders, _, _ = _parity_parts(model, win, chart, u, np.array([lam]), tail_tol)
    return ParitySplit(complex(even[0]), complex(odd[0]), float(remainders[0]))


def _parity_parts(model, win, chart, u, lams, tail_tol):
    """Even and odd parts, remainders, rounding bounds and arithmetic along a
    grid: one `_diagonal_values` call over all points +-u/sqrt(lam).  Each
    part takes the larger remainder and bound of its two rows, and the
    costlier arithmetic of the two (closed-form < double < decimal)."""
    u = np.asarray(u, dtype=complex)
    pts = [chart.normal_point(u / math.sqrt(lam)) for lam in lams]
    pts += [chart.normal_point(-u / math.sqrt(lam)) for lam in lams]
    moments = _chart_moments(chart, u, _displacement_radii(u, lams))
    values, remainders, bounds, precision = _diagonal_values(
        model, win, np.concatenate([lams, lams]), np.array(pts), tail_tol,
        None if moments is None else moments * 2,
    )
    n = len(lams)
    plus, minus = values[:n], values[n:]
    return (
        (plus + minus) / 2.0,
        (plus - minus) / 2.0,
        np.maximum(remainders[:n], remainders[n:]),
        np.maximum(bounds[:n], bounds[n:]),
        [max(a, b, key=_ARITHMETICS.index) for a, b in zip(precision[:n], precision[n:])],
    )


def parity_scan(
    model: ProjectiveModel,
    win: Window,
    chart: HeisenbergChart,
    u: np.ndarray,
    lambda_grid: np.ndarray,
    tail_tol: float = 1e-10,
) -> ScanReport:
    """`parity_split` along a grid: exact column = odd part, predicted = even part."""
    lams = np.asarray(lambda_grid, dtype=float)
    even, odd, remainders, bounds, precision = _parity_parts(model, win, chart, u, lams, tail_tol)
    meta = {
        "kind_detail": "exact column = odd part, predicted column = even part",
        "u": np.asarray(u, dtype=complex),
        "tau0": chart.tau0,
        **_chart_meta(chart),
        **_row_budgets(remainders, bounds, precision),
    }
    return ScanReport("parity", lams, odd, even, meta=meta)


def _row_budgets(remainders, bounds, precision) -> dict:
    """Each row's remainder, rounding bound and arithmetic, for the JSONs."""
    return {
        "window_cut_remainders": remainders,
        "rounding_bounds": bounds,
        "precision": [str(p) for p in np.atleast_1d(precision)],
    }
