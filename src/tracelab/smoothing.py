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

A kernel row for the gaussian window on a model whose weights are all 1 or
2 is first formed in closed form (`_closed_form_diagonal`): there the
generating function has two poles, x = 1 and x = -1/T (T the weight-2
moment sum), and Poisson summation turns each into a few gaussian moment
sums, so a row costs O(1) in lam and needs no h_n.  Such a row is kept
when it does not cancel (its own kappa is at most `_CLOSED_FORM_KAPPA`) and
its remainder (the omitted aliases and the negative-n tail, both bounded in
closed form) meets the cut target; it is labelled "closed-form".

Every other row, traces included, is an eigen-sum, and one routine,
`_conditioned_sums`, picks its arithmetic.  Near a period the phases
alternate and the sum cancels: kappa = sum |terms| / |sum| is 5e7 to 2e12
on the off-locus diagonal scans and grows like lam^d on a trace at tau0 =
pi.  Each row is summed in double, and a row that double would leave fewer
than 13 digits is summed again over the same cut in 40-digit decimal, with
exact integer d(n) for traces.  Both passes take their phases from one
table of cis(k tau0), |k| <= K, built once per call at 40 digits
(`_phase_table`): with c = round(lam) and f = lam - c a row is
e^{-i f tau0} sum_k c_{c+k} chihat_0(f - k) cis(k tau0), so no phase
argument grows with |lam - n| and a row takes one complex exponential.
Each row reports its arithmetic and a rounding bound (`_rounding_bounds`,
or the closed form's own) next to its remainder; the bound charges each
term's rounding at its own distance |lam - n|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

from .asymptotics import local_prediction, predict_local
from .errors import CoverageError
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

    ``cut_remainder`` bounds the window cut, ``rounding_bound`` the rounding
    of the kept sum (`_rounding_bounds`), and ``decimal`` marks the rows
    summed in decimal.  ``n_eigenvalues`` counts the eigenvalues, with
    multiplicity, inside the kept cuts (summed over a grid).
    """

    value: complex | np.ndarray
    cut_remainder: float | np.ndarray
    n_eigenvalues: int
    rounding_bound: float | np.ndarray
    decimal: bool | np.ndarray


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

    ``lam`` is a number or a grid, each lam with its own window cut.
    """
    lams = np.atleast_1d(np.asarray(lam, dtype=float))

    def table(n_max):
        counts = _denumerants(model.weights, n_max).astype(float)
        return np.broadcast_to(counts[:, None], (counts.size, lams.size))

    def exact(rows, hi):
        return [_denumerants(model.weights, int(hi.max())).tolist()] * rows.size

    sums = _conditioned_sums(win, model, lams, tail_tol, lambda x, pi: x, table, exact)
    values, _, remainders, decimal, lo, hi = sums
    # d(n) is exact in decimal and rounded once to double
    bounds = _rounding_bounds(win, model, lams, sums, np.where(decimal, 0.0, 1.0))
    counts = _denumerants(model.weights, int(hi.max(initial=-1)))
    below = np.concatenate([[0.0], np.cumsum(counts, dtype=float)])
    kept = int(np.sum(below[hi + 1] - below[lo]))
    if np.ndim(lam) == 0:
        return TraceResult(
            complex(values[0]), float(remainders[0]), kept, float(bounds[0]), bool(decimal[0])
        )
    return TraceResult(values, remainders, kept, bounds, decimal)


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
    more than 20 digits.  Far beyond it that reduction loses every digit
    (near |tau0| = 1e40), and at tau0 = 1e300 the closed form's alias loop
    did not return within a minute.
    """
    limit = 2.0**52 * win.eps / _GAUSS_FAR
    if not abs(win.tau0) < limit:
        raise CoverageError(
            f"|tau0| must be below 2^52 eps/sqrt(1400) = {limit:.3g} to resolve the phases "
            f"across the window cut, got {win.tau0:.6g}"
        )


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
      Taylor cos/sin (at most 60 terms after reduction to |r| <= pi, term k
      off by 2k u, partial sums at most 1 plus the tail) is off by < 3 pi
      e^pi + 60 < 280 units, so cis by < 400u plus (|theta| + 5)u for the
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


def _phase_table(win: Window) -> tuple[list, np.ndarray, np.ndarray]:
    """cis(k tau0) out to K = ceil(`_GAUSS_FAR`/eps) + 1, as (exact, cos,
    sin): ``exact`` the (cos, sin) of k = 0..K at `_DECIMAL_DIGITS` digits,
    stepped from cis(tau0) (`_cis_powers`), and ``cos`` and ``sin`` their
    roundings to double for k = -K..K.  With c = round(lam), every n of a
    row's cut has |n - c| <= |lam - n| + 1/2 <= K."""
    with localcontext() as ctx:
        ctx.prec = _DECIMAL_DIGITS
        exact = _cis_powers(Decimal(win.tau0), math.ceil(_GAUSS_FAR / win.eps) + 1)
    cos = np.array([float(c) for c, _ in exact])
    sin = np.array([float(s) for _, s in exact])
    return exact, np.concatenate([cos[:0:-1], cos]), np.concatenate([-sin[:0:-1], sin])


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


def _cis(theta: Decimal) -> tuple[Decimal, Decimal]:
    """(cos theta, sin theta) by the Taylor series after reduction to |r| <= pi."""
    two_pi = 2 * _PI
    r = theta - two_pi * (theta / two_pi).to_integral_value()
    c, s, term_c, term_s, k = Decimal(0), Decimal(0), Decimal(1), Decimal(0), 0
    while k < 4 or abs(term_c) + abs(term_s) > Decimal(10) ** -(_DECIMAL_DIGITS + 2):
        # the terms of exp(i r) = sum (i r)^k / k!
        c, s, k = c + term_c, s + term_s, k + 1
        term_c, term_s = -term_s * r / k, term_c * r / k
    return c, s


def _cis_powers(theta: Decimal, k_max: int) -> list:
    """(cos k theta, sin k theta) for k = 0..k_max, by stepping cis(theta)."""
    step_c, step_s = _cis(theta)
    powers = [(Decimal(1), Decimal(0))]
    for _ in range(k_max):
        c, s = powers[-1]
        powers.append((c * step_c - s * step_s, c * step_s + s * step_c))
    return powers


# ----------------------------------------------------------------------------
# kernel rows in closed form: the gaussian window on weights in {1, 2}
# ----------------------------------------------------------------------------


def _pole_weights(d: int, T: float) -> tuple[list, list]:
    """Partial-fraction weights (a_j), (b_j), j = 0..d, of (1 - x)^-(d+1)
    (1 + T x)^-(d+1): h_n = sum_j (a_j + (-T)^n b_j) C(n + d - j, d - j)."""
    r = 1.0 / (1.0 + T)
    a = [math.comb(d + j, j) * r ** (d + 1) * (T * r) ** j for j in range(d + 1)]
    b = [math.comb(d + j, j) * (T * r) ** (d + 1) * r**j for j in range(d + 1)]
    return a, b


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


def _aliases(half_turns: int, tau0: float, eps: float, f: float) -> tuple[list, list]:
    """The aliases theta_k = phi + tau0 - 2 pi k of a pole at arg phi =
    ``half_turns`` pi: every (k, theta_k, turn_k) whose gaussian factor
    exp(-theta_k^2/(2 eps^2)) lies within exp(-`_GAUSS_FAR`^2/2) of the
    largest, the reach of the window cut's factors, and the first theta_k
    beyond on each side.  theta_k and turn_k = (phi - 2 pi k) f, reduced to
    [-pi, pi], are formed in ``_DECIMAL_DIGITS``-digit decimal with `_PI` and
    rounded once, so neither loses digits to a large tau0 or k."""
    with localcontext() as ctx:
        ctx.prec = _DECIMAL_DIGITS
        phi, two_pi = half_turns * _PI, 2 * _PI
        theta0 = phi + Decimal(tau0)

        def alias(k):
            turn = (phi - two_pi * k) * Decimal(f)
            turn -= two_pi * (turn / two_pi).to_integral_value()
            return k, float(theta0 - two_pi * k), float(turn)

        k0 = int((theta0 / two_pi).to_integral_value())
        reach = alias(k0)[1] ** 2 + (eps * _GAUSS_FAR) ** 2
        kept, beyond = [], []
        for k, step in ((k0, 1), (k0 - 1, -1)):
            while (term := alias(k))[1] ** 2 <= reach:
                kept.append(term)
                k += step
            beyond.append(term[1])
    return kept, beyond


def _pole_sum(d: int, win: Window, lam: float, pole):
    """One pole's Poisson terms: (value, parts, remainder), ``parts`` the
    (majorant, rounding units) of each kept term (`_closed_form_diagonal`)."""
    L, half_turns, weights, sign = pole
    u, eps = 2.0**-53, win.eps
    inv = 1.0 / eps**2
    signed, absolute = _normal_moments(d)
    centre = lam + L * inv
    f = lam - round(lam)

    def majorant(theta, slack=0.0):
        """A bound on the modulus of the alias at theta, 2 pi e^{Re X} times E
        of P with |mu| + |Z|/eps + l in every factor; ``slack`` widens
        |Im mu| eps^2 by its rounding error."""
        grow = lam * L + 0.5 * (L * L - theta * theta) * inv
        base = abs(centre) + (abs(theta) + slack) * inv
        return 2.0 * math.pi * math.exp(grow) * _binomial_moments(weights, base, 1 / eps, absolute)

    kept, beyond = _aliases(half_turns, win.tau0, eps, f)
    remainder = 0.0
    for theta in beyond:  # the ratio of consecutive omitted majorants is at most q
        q = (1.0 + 2.0 * math.pi / abs(theta)) ** d
        q *= math.exp(-2.0 * math.pi * (abs(theta) + math.pi) * inv)
        if not q < 1.0:
            raise OverflowError("the omitted aliases do not decay")
        remainder += majorant(theta) / (1.0 - q)
    value, parts = 0j, []
    for k, theta, reduced in kept:
        grow = lam * L + 0.5 * (L * L - theta * theta) * inv
        turn = reduced + L * theta * inv
        poly = _binomial_moments(weights, complex(centre, theta * inv), 1 / eps, signed)
        rotor = complex(math.cos(turn), math.sin(turn))
        value += sign * 2.0 * math.pi * math.exp(grow) * rotor * poly
        e_theta = u * abs(theta) + 4 * _DECIMAL_UNIT * (abs(win.tau0) + 2.0 * math.pi * abs(k) + 7)
        e_mu = 4.0 * u * (abs(lam) + abs(L) * inv) + (3.0 * u * abs(theta) + e_theta) * inv
        size = (abs(lam * L) + 0.5 * (L * L + theta * theta) * inv
                + abs(reduced) + abs(L * theta) * inv)
        slack = e_theta + e_mu * eps**2
        base = abs(centre) + (abs(theta) + slack) * inv
        units = (8.0 * size + (abs(theta) + abs(L)) * e_theta * inv / u
                 + (d * e_mu / base / u if base else 0.0) + 8 * d + 20)
        parts.append((majorant(theta, slack), units))
    return value, parts, remainder


def _negative_tail(d: int, win: Window, lam: float, a_w, b_w, log_t: float):
    """sum over n <= -deg Q of F(n) chihat(lam - n), F(n) = sum_j (a_j +
    (-T)^n b_j) C(n + d - j, d - j) continuing h_n; Q, the denominator of
    the generating function, has degree 2(d+1), or d+1 when T = 0 (``b_w``
    None).  Summed while lam - n <= `_GAUSS_FAR`/eps and bounded
    geometrically beyond: (value, parts, remainder) as `_pole_sum` returns them."""
    top = -(d + 1) * (1 if b_w is None else 2)
    first = min(top, math.floor(lam - _GAUSS_FAR / win.eps))  # the first n bounded
    n = np.arange(top, first - 1, -1, dtype=float)
    s = lam - n
    binomials = [np.ones_like(n)]
    for m in range(1, d + 1):
        binomials.append(binomials[-1] * (n + m) / m)
    growth = n * log_t  # log T^n >= 0
    with np.errstate(over="ignore", invalid="ignore"):
        power = np.exp(growth)
        value = sum(a * binomials[d - j] for j, a in enumerate(a_w))
        size = sum(a * np.abs(binomials[d - j]) for j, a in enumerate(a_w))
        if b_w is not None:
            value = value + np.where(n % 2, -power, power) * sum(
                b * binomials[d - j] for j, b in enumerate(b_w)
            )
            size = size + power * sum(b * np.abs(binomials[d - j]) for j, b in enumerate(b_w))
        size = size * win.fourier_envelope(s)
    # the majorant's ratio from n to n - 1: at most (1/T) |n|/(|n| - d) exp(-eps^2 (2s + 1)/2)
    q = math.exp(-log_t - 0.5 * win.eps**2 * (2.0 * s[-1] + 1.0)) * first / (first + d)
    if not (np.isfinite(size).all() and q < 1.0):
        raise OverflowError("the negative tail does not decay")
    remainder = float(size[-1] / (1.0 - q))
    n, s, value, size, growth = n[:-1], s[:-1], value[:-1], size[:-1], growth[:-1]
    total = complex(np.sum(value * win.fourier(s))) if n.size else 0j
    units = 4 * d + 14 + 2.0 * growth + 4.0 * (win.eps * s) ** 2 + 2.0 * abs(win.tau0) * s
    return total, list(zip(size.tolist(), units.tolist())), remainder


def _closed_form_diagonal(model: ProjectiveModel, win: Window, lams, t, tail_tol: float):
    """Kernel rows in closed form, for a gaussian window on weights in {1, 2}:
    values, remainders and rounding bounds, and the mask of rows taken.

    ``t`` holds each row's moments |z_i|^2.  The closed form evaluates the
    kernel at the sphere point z/|z|: t1 and T = t2 are the moment sums over
    the coordinates of weight 1 and 2 divided by |z|^2, and T = 1 - t1 holds
    exactly in the formula, while the eigen-sum sums the series of t as given,
    whose moments sum to 1 only up to rounding (h_n grows like (sum t)^n).

    **Derivation.**  With t1 + T = 1, 1 - t1 x - T x^2 = (1 - x)(1 + T x), so
    G(x) = sum_n h_n x^n = (1 - x)^-(d+1) (1 + T x)^-(d+1) has two poles, and
    partial fractions (`_pole_weights`) give h_n = A(n) + (-T)^n B(n), n >= 0:

        A(n) = sum_j C(d+j, j) (1+T)^-(d+1) (T/(1+T))^j C(n+d-j, d-j),
        B(n) = sum_j C(d+j, j) (T/(1+T))^(d+1) (1+T)^-j C(n+d-j, d-j).

    G is proper with a denominator Q of degree 2(d+1) (d+1 when T = 0), so
    the continuation F(n) of that formula vanishes for -deg Q < n < 0 (R. P.
    Stanley, Enumerative Combinatorics 1, Prop. 4.2.3), and the row is the
    sum of F(n) chihat(lam - n) over all integers less the n <= -deg Q.
    Poisson summation against chihat(s) = eps sqrt(2 pi) exp(-eps^2 s^2/2 -
    i s tau0) turns a pole's rho^n P(n) (rho = 1 with A; log rho = log T +
    i pi with B) into aliases

        2 pi e^{lam (log rho - 2 pi i k)} e^{a^2/(2 eps^2)} E[P(lam + a/eps^2 + Z/eps)],
        a = log rho + i theta_k,   theta_k = arg rho + tau0 - 2 pi k,

    by completing the square and shifting the contour; Z is standard normal
    and E a gaussian moment sum of degree d (`_binomial_moments`).  The
    aliases within exp(-`_GAUSS_FAR`^2/2) of a pole's largest are summed
    (`_aliases`); beyond, consecutive majorants (below) fall by at least
    (1 + 2 pi/|theta|)^d e^{-2 pi (|theta| + pi)/eps^2}, a geometric bound.
    The subtracted n are summed while lam - n <= `_GAUSS_FAR`/eps and bounded
    geometrically beyond (`_negative_tail`).  Both bounds make the row's
    remainder.  A row costs O(d^2) per alias and O(1/eps) tail terms at any
    lam, no table of h_n and no decimal pass.

    **Accuracy rules.**  log T is log1p(-t1) while t1 <= 1/2, never the log
    of a rounded T near 1 (else log T).  The phase is reduced exactly: with
    c = round(lam) and f = lam - c (exact), e^{i lam (arg rho - 2 pi k)} =
    (rho/|rho|)^c e^{i f (arg rho - 2 pi k)}, so no argument grows with lam,
    and `_aliases` forms theta_k and f (arg rho - 2 pi k) mod 2 pi in
    decimal, so none grows with tau0 or k.

    **Rounding** (first order, u = 2^-53; N. J. Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, ch. 3).  A kept alias is 2 pi
    (+-1) e^X E with X formed from lam, log T, theta and f in a few
    operations: X is off by 8u |X|_+ (|X|_+ the sum of the moduli of its
    parts, log T's own error included) plus (|theta| + |log T|) e_theta/eps^2,
    theta being off by e_theta <= u |theta| (its rounding to double) plus
    four decimal roundings of numbers below |tau0| + 2 pi |k| + 7;
    exp, cos, sin and the products add a few u.  E's centre mu is off by
    e_mu <= 4u (|lam| + |log T|/eps^2) + (3u |theta| + e_theta)/eps^2.  E
    multiplies out d linear factors mu + l + y and sums against the moments,
    each operation off by u and each factor by e_mu + u |mu + l|, so E is off
    by ((8d + 20) u + d e_mu/|mu|_+) Ebar, Ebar being E with |mu|_+ + l in
    every factor and the moments E|Z|^i: the term's majorant, which also
    bounds its modulus.  A subtracted term carries (4d + 14 + 2 |n log T| +
    8x + 2 |tau0| s) u, as in `_rounding_bounds`.  Summing N terms and the
    factor d!/pi^d add (N + 2d + 4) u per term; a factor 2 takes up the
    sqrt(2) of complex sums and the second-order terms:

        rho = 2u sum_terms (units + N + 2d + 4) majorant.

    **Scope and fallback.**  A row is taken when the window is gaussian,
    every weight is 1 or 2, nothing overflows, the negative tail decays, the
    closed form's own kappa = sum majorants / |value|, the subtracted tail
    included, is at most `_CLOSED_FORM_KAPPA`, and the remainder meets
    min(tail_tol, u sum majorants).  That turns away rows whose B-pole centre
    lam + log T/eps^2 lies below 0 (T well below 1 at small lam), where the
    Poisson sum cancels against the tail.  `_DOUBLE_KAPPA_BOUND` (kappa up to
    about 900) would let such a row keep only 13 digits where its eigen-sum,
    whose terms may not cancel at all, keeps more: a (1, 2, 2) row at tau0 =
    0, lam = 0 with kappa 840 was 8.7e-14 off.  Every row it does not take is
    summed by `_eigen_sum_diagonal`.
    """
    values = np.zeros(lams.size, dtype=complex)
    remainders, bounds = np.zeros(lams.size), np.zeros(lams.size)
    taken = np.zeros(lams.size, dtype=bool)
    weights = np.asarray(model.weights)
    if win.shape != "gaussian" or not np.isin(weights, (1, 2)).all():
        return values, remainders, bounds, taken
    d, u = model.dim, 2.0**-53
    scale = math.factorial(d) / math.pi**d
    mass = t.sum(axis=1)
    t1 = t[:, weights == 1].sum(axis=1) / mass
    t2 = t[:, weights == 2].sum(axis=1) / mass
    for i, (lam, x1, x2) in enumerate(zip(lams.tolist(), t1.tolist(), t2.tolist())):
        a_w, b_w = _pole_weights(d, x2)
        log_t = (math.log1p(-x1) if x1 <= 0.5 else math.log(x2)) if x2 > 0.0 else 0.0
        try:
            # per pole: log |rho|, arg rho in half turns, weights and (rho/|rho|)^round(lam)
            poles = [(0.0, 0, a_w, 1.0)]
            if x2 > 0.0:
                poles.append((log_t, 1, b_w, -1.0 if round(lam) % 2 else 1.0))
            sums = [_pole_sum(d, win, lam, pole) for pole in poles]
            tail = _negative_tail(d, win, lam, a_w, b_w if x2 > 0.0 else None, log_t)
        except (OverflowError, ValueError):  # a term overflows, or lam is not finite
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact diagonal at paired (lam_i, point_i): the values, their
    remainders and rounding bounds, and each row's arithmetic: "closed-form"
    (`_closed_form_diagonal`), else "double" or "decimal" from
    `_eigen_sum_diagonal`.  A tau0 past `_check_tau0`'s limit refuses
    before either runs."""
    _check_tau0(win)
    t = np.abs(np.atleast_2d(np.asarray(points, dtype=complex))) ** 2
    lams = np.broadcast_to(np.asarray(lams, dtype=float), (t.shape[0],))
    values, remainders, bounds, taken = _closed_form_diagonal(model, win, lams, t, tail_tol)
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
    values, remainders, _, _ = _diagonal_values(
        model, win, np.full(pts.shape[0], float(lam)), pts, tail_tol
    )
    return values, float(remainders.max(initial=0.0))


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
    exact, remainders, bounds, precision = _diagonal_values(model, win, lams, points, tail_tol)
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
    direction = np.eye(chart.normal_dim)[0] if direction is None else direction
    direction = np.asarray(direction, dtype=complex) / np.linalg.norm(direction)
    dist = 2.0 * C * lams ** (-7.0 / 18.0)
    points = np.array([chart.normal_point(r * direction) for r in dist])
    exact, remainders, bounds, precision = _diagonal_values(model, win, lams, points, tail_tol)
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
        **_row_budgets(res.cut_remainder, res.rounding_bound, _arithmetic(res.decimal)),
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
    values, remainders, bounds, precision = _diagonal_values(
        model, win, np.concatenate([lams, lams]), np.array(pts), tail_tol
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
