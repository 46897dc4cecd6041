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
the ghost tail as its remainder.  Where its period terms cancel each
other past `_CLOSED_FORM_KAPPA` their sum is formed again at
`_DECIMAL_DIGITS` digits, as its inputs already are (`_exact_periods`).

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

Every other row (bump windows, colliding poles, trace rows past 2^52, rows
whose terms overflow) is an eigen-sum over its window cut (`_eigen_sums`),
in double.  Near a period the phases alternate and the sum cancels: kappa =
sum |terms| / |sum| is 5e7 to 2e12 on the off-locus diagonal scans and grows
like lam^d on a trace at tau0 = pi.  A row the closed form formed but turned
away only for its own kappa is summed as an eigen-sum too, and keeps
whichever value reports the smaller remainder plus rounding bound
(`_keep_certified`); no eigen-sum is summed past double.  The eigen-sum
takes its phases from one table of cis(k tau0), |k| <= K, each entry
rounded once from 40 digits and built once per (tau0, eps)
(`_phase_table`): with c = round(lam) and f = lam - c
a row is e^{-i f tau0} sum_k c_{c+k} chihat_0(f - k) cis(k tau0), so no
phase argument grows with |lam - n| and a row takes one complex
exponential.  Each row reports its arithmetic, "closed-form" or "double",
and a rounding bound (`_rounding_bounds`, or the closed form's own) next to
its remainder; the eigen-sum's bound charges each term's rounding at its
own distance |lam - n|, and passes |value| on a row that cancels past what
double resolves.
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
# the closed forms' roots, angles and moments and the phase table are formed
# at 40 significant digits, with this rounding unit, and rounded once
_DECIMAL_DIGITS = 40
_DECIMAL_UNIT = 1e-39
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
    (`_eigen_sum_trace`), and one it turned away for its kappa keeps the
    better certified of the two (`_keep_certified`).  A tau0 past
    `_check_tau0`'s limit or a non-finite lam refuses before either runs.
    """
    _check_tau0(win)
    lams = _check_lambdas(np.atleast_1d(np.asarray(lam, dtype=float)))
    *columns, taken, formed = _closed_form_trace(model, win, lams, tail_tol)
    values, remainders, bounds, terms = columns
    precision = np.full(lams.size, "closed-form", dtype=object)
    rest = np.flatnonzero(~taken)
    if rest.size:
        eigen = _eigen_sum_trace(model, win, lams[rest], tail_tol)
        _keep_certified(rest, formed, columns, eigen, precision)
    if np.ndim(lam) == 0:
        return TraceResult(
            complex(values[0]), float(remainders[0]), int(terms[0]), float(bounds[0]),
            str(precision[0]),
        )
    return TraceResult(values, remainders, int(terms.sum()), bounds, precision)


def _eigen_sum_trace(model: ProjectiveModel, win: Window, lams: np.ndarray, tail_tol: float):
    """The trace rows at ``lams`` as window-cut eigen-sums (`_eigen_sums`):
    values, remainders, rounding bounds and each row's count of eigenvalues
    inside its cut."""

    def table(n_max):
        counts = _denumerants(model.weights, n_max).astype(float)
        return np.broadcast_to(counts[:, None], (counts.size, lams.size))

    sums = _eigen_sums(win, model, lams, tail_tol, 1.0, table)
    values, _, remainders, lo, hi = sums
    # d(n) is an exact int64 rounded once to double
    bounds = _rounding_bounds(win, model, lams, sums, 1.0)
    return values, remainders, bounds, _cut_counts(model, lo, hi)


def _keep_certified(rows, formed, columns, eigen, precision) -> None:
    """Fill ``rows`` of ``columns`` (values, remainders, rounding bounds, and
    for traces term counts) from the eigen-sum's ``eigen`` columns of those
    rows, labelled "double", except where the closed form formed the row
    (``formed``) and reports a smaller remainder plus rounding bound: that
    row keeps its closed form."""
    closed = columns[1][rows] + columns[2][rows]
    use = ~(formed[rows] & (closed < eigen[1] + eigen[2]))
    for column, new in zip(columns, eigen):
        column[rows[use]] = new[use]
    precision[rows[use]] = "double"


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
# the eigen-sum: one window-cut sum for traces and kernels
# ----------------------------------------------------------------------------


def _eigen_sums(win, model, lams, tail_tol, scale: float, table):
    """scale * sum_n c_n chihat(lam - n) per lam in double over its window
    cut (`_window_cut`), with the phases of `_phase_table`.

    ``table(n_max)`` gives c_0..c_{n_max} in double, one column per lam.  A
    tau0 past `_check_tau0`'s limit, or a row whose remainder exceeds
    `_final_cut_target`, refuses.  Returns (values, moments, remainders, lo,
    hi), the moments as `_window_sums` gives them.
    """
    lo, hi, remainders = _window_cut(win, model, lams)
    remainders = remainders * scale
    _check_tau0(win)
    h = table(int(hi.max(initial=-1)))
    values, moments = _window_sums(win, lams, h, lo, hi, scale, _phase_table(win))
    targets = _final_cut_target(tail_tol, 2.0**-52, moments[0])
    short = np.flatnonzero(~(remainders <= targets))
    if short.size:
        i = short[0]
        raise CoverageError(
            f"window cut remainder {remainders[i]:.2e} cannot reach {targets[i]:.2e} "
            f"at lambda={lams[i]}"
        )
    return values, moments, remainders, lo, hi


def _rounding_bounds(win, model, lams, sums, fixed_units, units_per_n=0.0) -> np.ndarray:
    """First-order bounds on the rounding error of each row of ``sums``, the
    result of `_eigen_sums`.

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


def _window_sums(
    win: Window, lams, h: np.ndarray, lo, hi, scale, phases
) -> tuple[np.ndarray, np.ndarray]:
    """Kept sums sum_n h_n chihat(lam - n) over lo..hi per point, and the
    moments sum |t| |s|^j, j = 0, 1, 2, of their terms t at s = lam - n (rows
    of a (3, points) array).

    With c = round(lam) and f = lam - c, chihat(lam - n) = e^{-i f tau0}
    chihat_0(f - k) cis(k tau0) at n = c + k, so a row is

        e^{-i f tau0} sum_{|k| <= K} h_{c+k} chihat_0(f - k) cis(k tau0)

    over the fixed window |k| <= K, masked to lo..hi, with cis(k tau0) read
    from ``phases`` (`_phase_table`): one complex exponential per row.  The
    window's width does not depend on the grid, so neither does a row's
    value; rows go in blocks of at most `_BLOCK_TERMS` terms.
    """
    values = np.zeros(len(lams), dtype=complex)
    moments = np.zeros((3, len(lams)))
    cos, sin = phases
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


def _floored(exponent: float, size):
    """e^exponent size (size > 0), a bound on omitted terms that never reads
    0: where e^exponent or the product leaves the normal range it is taken
    as e^(exponent + log size), rounded up to the smallest subnormal."""
    scale = math.exp(exponent)
    direct = scale * size
    with np.errstate(divide="ignore", over="ignore"):
        low = np.maximum(np.exp(exponent + np.log(size)), math.ulp(0.0))
    return np.where((direct >= 2.0**-1022) & (scale >= 2.0**-1022), direct, low)


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

    def majorant(theta, slack=0.0, omitted=False):
        """A bound on the modulus of the alias at theta, 2 pi e^{Re X} times E
        of P with the majorant weights and |mu| + |Z|/eps + l in every factor;
        ``slack`` widens |Im mu| eps^2 by its error, and an ``omitted``
        alias's bound never underflows (`_floored`)."""
        grow = lam * L + 0.5 * (L * L - theta * theta) * inv
        base = abs(centre) + (abs(theta) + slack) * inv
        moments = _binomial_moments(pole.majorants, base, 1 / eps, absolute)
        if omitted:
            return float(_floored(grow, 2.0 * math.pi * moments))
        return 2.0 * math.pi * math.exp(grow) * moments

    kept, beyond = _aliases(pole, win, lam)
    remainder = 0.0
    for theta in beyond:  # the ratio of consecutive omitted majorants is at most q
        q = (1.0 + 2.0 * math.pi / abs(theta)) ** d
        q *= math.exp(-2.0 * math.pi * (abs(theta) + math.pi) * inv)
        if not q < 1.0:
            raise OverflowError("the omitted aliases do not decay")
        remainder += majorant(theta, omitted=True) / (1.0 - q)
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
        units = 8 * d + 34 + u * x * x + (e_dec + pole.spread) / u + d * e_mu / (base + 1.0) / u
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
    values, remainders and rounding bounds, the mask of rows taken and the
    mask of rows formed (taken, or turned away only for their kappa).

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
    + u |mu + l|, so E is off by ((8d + 20) u + d e_mu/(|mu|_+ + 1)) Ebar,
    Ebar being E with the majorant weights, |mu|_+ + l + |y| in every factor
    and the moments E|Z|^i: the term's majorant, which also bounds its
    modulus.  (The factors of C(mu + y + m, m) are mu + l + y with l >= 1,
    so moving mu by e_mu moves each majorant factor by e_mu, at most
    e_mu/(|mu|_+ + 1) of it, and Ebar's product of at most d of them by d
    e_mu/(|mu|_+ + 1) of Ebar to first order; that holds at mu = 0 too.)
    The weights add one unit for their rounding and the pole's spread.  A
    subtracted term carries (4d + 16 + 2 |n| (|L| + |phi| + e_pole) + 8x + 2
    |tau0| s + spread/u) u over the poles, as in `_rounding_bounds`.  Summing
    N terms and the factor d!/pi^d add (N + 2d + 4) u per term; a factor 2
    takes up the sqrt(2) of complex sums and the second-order terms:

        rho = 2u sum_terms (units + N + 2d + 4) majorant.

    **Scope and fallback.**  A row is formed when the window is gaussian,
    its poles are separated (`_ROOT_SEPARATION`, with disjoint enclosures),
    nothing overflows, the negative tail decays and the remainder meets
    min(tail_tol, u sum majorants); it is taken when, besides, its own kappa
    = sum majorants / |value|, the subtracted tail included, is at most
    `_CLOSED_FORM_KAPPA`.  That turns away rows whose poles cancel each
    other or the tail (a pole of modulus well below 1 at small lam), where
    the eigen-sum, whose terms may not cancel at all, can keep more digits:
    a (1, 2, 2) row at tau0 = 0, lam = 0 with kappa 840 was 8.7e-14 off.
    Every row it does not take is summed by `_eigen_sum_diagonal`, and a
    formed row keeps the value with the smaller remainder plus bound.
    """
    values = np.zeros(lams.size, dtype=complex)
    remainders, bounds = np.zeros(lams.size), np.zeros(lams.size)
    taken, formed = np.zeros(lams.size, dtype=bool), np.zeros(lams.size, dtype=bool)
    if win.shape != "gaussian":
        return values, remainders, bounds, taken, formed
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
        if not all(map(math.isfinite, (abs(value), magnitude, bound, remainder))):
            continue
        if remainder > _final_cut_target(tail_tol, u, magnitude * scale) / scale:
            continue
        values[i], remainders[i], bounds[i] = value * scale, remainder * scale, bound * scale
        formed[i] = True
        taken[i] = magnitude <= _CLOSED_FORM_KAPPA * abs(value)
    return values, remainders, bounds, taken, formed


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
    (`_closed_form_diagonal`), else "double" from `_eigen_sum_diagonal`,
    the better certified of the two where the closed form turned a row away
    for its kappa (`_keep_certified`).  ``moments``, when given, holds each
    point's decimal moments (`_chart_moments`) for the closed form; the
    eigen-sum reads the points.  A tau0 past `_check_tau0`'s limit, a
    non-finite lam and a malformed point (`_sphere_moments`) refuse before
    either runs."""
    _check_tau0(win)
    t = _sphere_moments(model, points)
    lams = _check_lambdas(np.broadcast_to(np.asarray(lams, dtype=float), (t.shape[0],)))
    *columns, taken, formed = _closed_form_diagonal(
        model, win, lams, t if moments is None else moments, tail_tol
    )
    precision = np.full(lams.size, "closed-form", dtype=object)
    rest = np.flatnonzero(~taken)
    if rest.size:
        eigen = _eigen_sum_diagonal(model, win, lams[rest], t[rest], tail_tol)
        _keep_certified(rest, formed, columns, eigen, precision)
    return (*columns, precision)


# a row's arithmetic, cheapest first
_ARITHMETICS = ("closed-form", "double")


def _eigen_sum_diagonal(
    model: ProjectiveModel, win: Window, lams: np.ndarray, t: np.ndarray, tail_tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact diagonal at paired (lam_i, moments t_i) as a window-cut
    eigen-sum (`_eigen_sums`): the values, their window-cut remainders and
    rounding bounds."""
    weights, d = model.weights, model.dim
    scale = math.factorial(d) / np.pi**d
    sums = _eigen_sums(win, model, lams, tail_tol, scale, lambda n: _h_table(t, weights, n))
    values, _, remainders, _, _ = sums
    return values, remainders, _rounding_bounds(win, model, lams, sums, 0.0, (d + 4) / min(weights))


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
    rounded once from the `_DECIMAL_DIGITS`-digit sums ``exact`` (re, im),
    which are within ``errors[j]`` of the true coefficients, and
    ``majorants[j]`` is |coeffs[j]| plus errors[j] over 2^-53."""

    turn: Fraction
    coeffs: tuple
    majorants: tuple
    exact: tuple
    errors: tuple


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
    `_sin_cos` value is within the 280 units it is charged.  A
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
            coeffs, majorants, exact, errors = [], [], [], []
            for j in range(degree + 1):
                p = own[j]
                if a * p % period:  # zeta is not an own frequency of c_j
                    coeffs.append(0j)
                    majorants.append(0.0)
                    exact.append((Decimal(0), Decimal(0)))
                    errors.append(0.0)
                    continue
                if p not in cis:
                    cis[p] = [_unit_cis(k, p) for k in range(p)]
                q, re, im = a * p // period, Decimal(0), Decimal(0)
                for r in range(p):
                    x = Decimal(c[j][r].numerator) / c[j][r].denominator
                    cos, sin = cis[p][q * r % p]
                    re, im = re + x * cos, im - x * sin
                exact.append((re / p, im / p))
                value = complex(float(exact[-1][0]), float(exact[-1][1]))
                errors.append((p + 284) * _DECIMAL_UNIT * float(max(abs(x) for x in c[j][:p])))
                coeffs.append(value)
                majorants.append(abs(value) + errors[-1] * 2.0**53)
            if any(coeffs):
                fields = tuple(majorants), tuple(exact), tuple(errors)
                poles.append(_UnitPole(Fraction(a, period), tuple(coeffs), *fields))
                if 0 < 2 * a < period:
                    poles.append(_UnitPole(
                        Fraction(period - a, period), tuple(x.conjugate() for x in coeffs),
                        fields[0], tuple((re, -im) for re, im in exact), fields[2],
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
    values, remainders, rounding bounds, term counts, the mask of rows taken
    and the mask of rows formed (taken, or turned away only for their
    kappa), vectorised over the grid.

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
    e^{-2 pi (|theta| + pi)/eps^2}, a geometric bound that never underflows
    to 0 (`_floored`).  The ghost part is
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

    **Cancelling rows.**  Period terms can cancel past double: on (1, 3) at
    tau0 = pi (the double, pi - 1.2e-16) the terms at tau = 2 pi/3 and 4 pi/3
    are conjugates but for that 1.2e-16, so at integer lam = 1 mod 3 two
    terms near 3e-11 leave 3.6e-25, below their rounding.  So a formed row
    whose kappa passes `_CLOSED_FORM_KAPPA`, and whose period terms alone
    cancel past it too (sum M > `_CLOSED_FORM_KAPPA` |their sum|; where
    only the ghost cancels them its double rounding stays, and 40 digits
    would gain a constant factor), has its period sum formed again at
    `_DECIMAL_DIGITS` digits and rounded once (`_exact_periods`): from
    the decimal coefficients of `_unit_poles`, chi and y = theta/eps^2, with
    the phase cis(-2 pi r), r = lam (k - turn) reduced mod 1 in exact
    Fractions (`_unit_cis`, exact on quarter turns); the ghost stays in
    double.  With v = `_DECIMAL_UNIT`, theta is off by e_theta <= 5 v (2 +
    |tau0| + |theta|) (2 pi v from the turn's decimal, a unit of 2 pi |k -
    turn| for each of three roundings, one of |theta|), y by e_y =
    e_theta/eps^2 + 2 v |y|, and chi relatively by v (4 a + 1) + |theta|
    e_theta/eps^2, a = theta^2/(2 eps^2).  A term is off by
    at most v M times 2 deg + 8 for b_k, 5 deg + 2 for Horner's rule, 420
    for the phase (`_sin_cos`' 280 units per part at |2 pi r| <= pi, its
    argument within 3 units), chi's share, 6 for the products and N + 2 for
    the sum; and by 2 pi chi (Ebar(|mu|) + e_y Rbar'(|mu| + e_y)) for the
    coefficients' own errors (Ebar: `_mu_polynomial` of ``errors``) and for
    mu (Rbar': the derivative of the majorant's polynomial, which bounds
    |R(mu + dmu) - R(mu)| <= |dmu| Rbar'(|mu| + |dmu|)).  Rounding the sum
    to double and subtracting the ghost add at most u (|sum| + sum |ghost
    terms|) each; with the factor 2 on the terms,

        rho = 2 sum_terms [v (7 deg + 440 + N + 4a + |theta| e_theta/(v eps^2)) M
              + 2 pi chi (Ebar + e_y Rbar')] + 2u (|sum| + sum |ghost terms|)
              + ghost's bound.

    **Scope and fallback.**  A row is formed when the window is gaussian,
    lcm(w) (d + 1) <= `_QUASI_TABLE_MAX`, -sum w < lam < `_CLOSED_FORM_LAMBDA`
    (for lam <= -sum w the ghost holds the terms nearest the window's peak),
    nothing overflows and the remainder meets min(tail_tol, u sum M); it is
    taken when, besides, kappa = (sum M + sum |ghost terms|)/|value| of the
    double evaluation is at most `_CLOSED_FORM_KAPPA` (small and negative
    lam, where the ghost cancels the Poisson side, and the cancelling period
    terms above fail it).  A formed row that is not taken, with its period
    sum at 40 digits where those terms cancel, is compared with the
    eigen-sum (`_keep_certified`).
    """
    values = np.zeros(lams.size, dtype=complex)
    remainders, bounds, terms = np.zeros(lams.size), np.zeros(lams.size), np.zeros(lams.size)
    taken, formed = np.zeros(lams.size, dtype=bool), np.zeros(lams.size, dtype=bool)
    poles = _unit_poles(tuple(sorted(model.weights))) if win.shape == "gaussian" else None
    total_w = sum(model.weights)
    rows = np.flatnonzero((lams > -total_w) & (np.abs(lams) < _CLOSED_FORM_LAMBDA))
    if poles is None or not rows.size:
        return values, remainders, bounds, terms, taken, formed
    lam, eps, u = lams[rows], win.eps, 2.0**-53
    signed, absolute = _normal_moments(model.dim)
    aliases = [(pole, *_unit_aliases(pole, win)) for pole in poles]
    n_terms = sum(len(kept) for _, kept, _ in aliases)
    with np.errstate(over="ignore", invalid="ignore"):
        periods, magnitude = np.zeros(lam.size, dtype=complex), np.zeros(lam.size)
        units, remainder = np.zeros(lam.size), np.zeros(lam.size)
        for pole, kept, beyond in aliases:
            b = _mu_polynomial(pole.coeffs, eps, signed)
            bbar = _mu_polynomial(pole.majorants, eps, absolute)
            deg = len(b) - 1
            for theta in beyond:  # consecutive omitted majorants fall by at least q
                q = (1.0 + 2.0 * math.pi / abs(theta)) ** deg
                q *= math.exp(-2.0 * math.pi * (abs(theta) + math.pi) / eps**2)
                size = _horner(bbar, np.abs(lam) + abs(theta) / eps**2)
                far = _floored(-0.5 * (theta / eps) ** 2, size)
                remainder += 2.0 * math.pi * far / (1.0 - q) if q < 1.0 else np.inf
            for chi, y, turn in kept:
                chi, y = float(chi), float(y)
                term = 2.0 * math.pi * chi * _period_phase(turn, lam) * _horner(b, lam + 1j * y)
                size = 2.0 * math.pi * chi * _horner(bbar, np.hypot(lam, y))
                periods += term
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
        ghosts, ghost_size = np.zeros(lam.size, dtype=complex), np.zeros(lam.size)
        ghost_bound, ghost_terms = np.zeros(lam.size), np.zeros(lam.size)
        summed = np.flatnonzero(~small)
        if summed.size:
            ghost = _ghost_trace(model, win, lam[summed])
            ghosts[summed], ghost_size[summed] = ghost[0], ghost[1]
            remainder[summed] += ghost[2]
            ghost_bound[summed], ghost_terms[summed] = ghost[3], ghost[4]
        value, total = periods - ghosts, magnitude + ghost_size
        bound = 2.0 * u * units + ghost_bound
        ok = np.isfinite([value, total, bound, remainder]).all(axis=0)
        ok &= remainder <= _final_cut_target(tail_tol, u, total)
        calm = total <= _CLOSED_FORM_KAPPA * np.abs(value)
        fine = np.flatnonzero(ok & ~calm & (magnitude > _CLOSED_FORM_KAPPA * np.abs(periods)))
        if fine.size:  # a row whose period terms cancel: their sum at 40 digits
            exact, exact_bound = _exact_periods(aliases, win, lam[fine], n_terms, signed, absolute)
            value[fine] = exact - ghosts[fine]
            bound[fine] = exact_bound + ghost_bound[fine]
            bound[fine] += 2.0 * u * (np.abs(exact) + ghost_size[fine])
    kept = rows[ok]
    values[kept], remainders[kept], bounds[kept] = value[ok], remainder[ok], bound[ok]
    terms[kept] = n_terms + ghost_terms[ok]
    formed[kept] = True
    taken[kept] = calm[ok]
    return values, remainders, bounds, terms, taken, formed


def _exact_periods(aliases: list, win: Window, lams: np.ndarray, n_terms: int, signed, absolute):
    """The period sums of `_closed_form_trace` at ``lams`` formed at
    `_DECIMAL_DIGITS` digits and rounded once to complex, and the bounds on
    their decimal rounding derived there."""
    eps, v = win.eps, _DECIMAL_UNIT
    values, bounds, terms = np.zeros(lams.size, dtype=complex), np.zeros(lams.size), []
    with localcontext() as ctx:
        ctx.prec = _DECIMAL_DIGITS
        two_pi, eps_d, moments = 2 * _PI, Decimal(eps), [Decimal(m) for m in signed]
        for pole, kept, _ in aliases:
            parts = (_mu_polynomial([c[i] for c in pole.exact], eps_d, moments) for i in (0, 1))
            b = list(zip(*parts))  # (re, im) of each b_k
            bbar = _mu_polynomial(pole.majorants, eps, absolute)
            ebar = _mu_polynomial(pole.errors, eps, absolute)
            slope = [k * c for k, c in enumerate(bbar)][1:] or [0.0]
            for chi, y, turn in kept:
                terms.append((two_pi * chi, y, turn, b))
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
                    phases[r] = _unit_cis(r.numerator, r.denominator)
                cos, sin = phases[r]
                h = b[-1]
                for c in b[-2::-1]:  # Horner's rule at mu = lam + i y
                    h = _cmul(h, (x, y))
                    h = h[0] + c[0], h[1] + c[1]
                term = _cmul((cos, -sin), h)
                re, im = re + f * term[0], im + f * term[1]
            values[i] = complex(float(re), float(im))
    return values, 2.0 * bounds


def _unit_aliases(pole: _UnitPole, win: Window) -> tuple[list, list]:
    """The periods tau = 2 pi (k - turn) of ``pole`` whose chi(tau) lies within
    exp(-`_GAUSS_FAR`^2/2) of the largest, as `_aliases` keeps a kernel
    pole's, each as (chi(tau), theta/eps^2, k - turn), theta = tau0 - tau,
    chi and theta/eps^2 as `_DECIMAL_DIGITS`-digit decimals; and the first
    theta beyond on each side."""
    kept, beyond = [], []
    with localcontext() as ctx:
        ctx.prec = _DECIMAL_DIGITS
        tau0, eps2, two_pi = Decimal(win.tau0), Decimal(win.eps) ** 2, 2 * _PI
        turn = Decimal(pole.turn.numerator) / pole.turn.denominator
        k0 = int((tau0 / two_pi + turn).to_integral_value())
        reach = float(tau0 - two_pi * (k0 - turn)) ** 2 + (win.eps * _GAUSS_FAR) ** 2
        for k, step in ((k0, 1), (k0 - 1, -1)):
            while float(theta := tau0 - two_pi * (k - turn)) ** 2 <= reach:
                kept.append(((-theta * theta / (2 * eps2)).exp(), theta / eps2, k - pole.turn))
                k += step
            beyond.append(float(theta))
    return kept, beyond


def _mu_polynomial(coeffs, eps, moments: list) -> list:
    """The coefficients b_k of R(mu) = E[P(mu + Z/eps)] = sum_j C_j E[(mu +
    Z/eps)^j], P = sum_j coeffs[j] n^j and ``moments`` E[Z^i], in the
    arithmetic of ``coeffs`` and ``eps`` (double or decimal).  With the
    coefficient majorants and E|Z|^i, sum_k bbar_k x^k = E[Pbar(x + |Z|/eps)]
    bounds |R| and every partial Horner sum at |mu| <= x (`_closed_form_trace`)."""
    degree = len(coeffs) - 1
    return [sum(coeffs[j] * math.comb(j, k) * eps ** (k - j) * moments[j - k]
                for j in range(k, degree + 1)) for k in range(degree + 1)]


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
    sums = (values, moments, remainders, lo, hi)
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
        raise InputError("grid must be strictly negative")
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
    costlier arithmetic of the two (closed-form < double)."""
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
