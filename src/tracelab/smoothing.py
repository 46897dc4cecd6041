"""Exact smoothed spectral quantities: traces, kernel diagonals, and scans.

Everything here is an *exact* computation over the integer spectrum
n = <alpha, w> of a weight model; no asymptotics enter and no degree is
truncated.  Traces and kernel diagonals are one window-cut sum
sum_n c_n chihat(lam - n) with two choices of coefficients.  For the trace,
c_n is the denumerant d(n) = [x^n] prod_i (1 - x^{w_i})^{-1}, the
multiplicity of n over all degrees.  For the kernel diagonal at a sphere
point with moment coordinates t_i = |z_i|^2 (so sum_i t_i = 1),

    K(lam, z) = (d!/pi^d) sum_n h_n(t) chihat(lam - n),
    sum_n h_n x^n = (1 - sum_i t_i x^{w_i})^{-(d+1)},

and the coefficients follow from the positive recurrence

    n h_n = sum_i t_i (n + d w_i) h_{n - w_i},   h_0 = 1,

which has no cancellation, vectorised over the points of a scan.  The only
truncation is the window cut to the eigenvalues n nearest lam, and its
remainder is proven: h_n = sum_k C(k+d, d) P(S_k = n) for the walk S_k
whose steps are w_i with probabilities t_i; steps are >= 1, so the walk
hits n at most once and then after k <= n/min_w steps, which gives
h_n <= C(floor(n/min_w) + d, d).  Fixing one coordinate of minimal weight,
the other d determine it, so d(n) obeys the same bound, and the trace
remainder is the kernel's without the factor d!/pi^d.  The Gaussian
majorant terms are summed out to a far edge and bounded by a geometric
series beyond it.  The cut is the narrowest whose remainder lies below both
``tail_tol`` and the rounding level u * sum |terms| of the kept sum, so it
costs no digits; it is built for a whole lambda grid at once.  The bump
window has no proven transform envelope yet, so its sums refuse with
CoverageError.

Near a half-integer period the window phases alternate in sign and the
off-locus diagonal cancels by seven to twelve orders of magnitude, which
double does not resolve: rounding noise in the terms survives the
cancellation.  Every kernel row is therefore summed in double first, and a
row whose measured condition number kappa = sum |terms| / |sum| would leave
double fewer than 13 digits is cut again and summed in 40-digit decimal
(`_decimal_sums`).  No option selects the arithmetic, and it does not depend
on the platform's long double; the scans report the arithmetic of each row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

from .asymptotics import local_prediction, predict_local
from .errors import CoverageError
from .geometry import FixedComponent, HeisenbergChart, ProjectiveModel, fixed_components
from .reports import ScanReport
from .spectral import SpectralPackage, section_dimension
from .windows import Window

# smallest remainder a window cut is asked for; keeps the cut finite when the
# kept sum underflows (far below the spectrum)
_CUT_FLOOR = 1e-290
# the Gaussian majorant is summed term by term out to where exp(-(eps s)^2/2)
# is about 1e-304, and by a geometric series beyond
_GAUSS_FAR = math.sqrt(1400.0)
# entries per array of one block of lambda rows in a window cut: 64 kB
_CUT_BLOCK = 1 << 13
# double keeps about 13 digits of a sum whose condition number kappa
# satisfies kappa * 2^-53 <= 1e-13 (kappa up to about 900); kernel rows past
# it are summed again in decimal
_DOUBLE_KAPPA_BOUND = 1e-13
# the decimal path: 40 significant digits, at least the 38 of x86
# double-length long double, and the rounding unit its window cut meets
_DECIMAL_DIGITS = 40
_DECIMAL_UNIT = 1e-39
_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")


@dataclass(frozen=True)
class TraceResult:
    """Smoothed traces (scalars, or arrays along a grid) with their cut remainders.

    ``n_eigenvalues`` counts the eigenvalues, with multiplicity, inside the
    kept cuts (summed over a grid).
    """

    value: complex | np.ndarray
    cut_remainder: float | np.ndarray
    n_eigenvalues: int


def spectral_tail_bound(pkg: SpectralPackage, win: Window, lam: float) -> float:
    """Bound the contribution of degrees beyond k_max to a degree-truncated trace.

    sum_{k>k_max} dim_k * envelope(k*min_w - lam), summed term by term until
    the terms fall below 1e-4 of the sum and bounded by a geometric series
    beyond.  The trace itself is untruncated; this certifies sums over a
    package's eigenvalues, such as the oracle sums of the tests.
    """
    if win.shape != "gaussian":
        raise CoverageError("the bump transform has no proven envelope to bound a degree tail with")
    d = pkg.model.dim
    m = int(pkg.model.weight_array.min())
    total = 0.0
    k = pkg.k_max + 1
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
    """d(n) = #{alpha : <alpha, w> = n}, n = 0..n_max: per weight w, a
    cumulative sum along each residue class mod w (the factor 1/(1 - x^w))."""
    size = max(n_max, 0) + 1
    counts = np.zeros(size)
    counts[0] = 1.0
    for w in weights:
        padded = np.zeros(-(-size // w) * w)
        padded[:size] = counts
        counts = np.cumsum(padded.reshape(-1, w), axis=0).ravel()[:size]
    return counts


def smoothed_trace(
    model: ProjectiveModel, win: Window, lam, tail_tol: float = 1e-10
) -> TraceResult:
    """Exact smoothed trace sum_n d(n) transform(lam - n) over every degree.

    ``lam`` is a number or a grid; one window cut serves the whole grid.
    """
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    counts = np.zeros(0)

    def evaluate(lo, hi):
        nonlocal counts
        counts = _denumerants(model.weights, int(hi.max(initial=-1)))
        columns = np.broadcast_to(counts[:, None], (counts.size, lams.size))
        return _window_sums(win, lams, columns, lo, hi, 1.0)

    unit = float(np.finfo(np.float64).eps)
    values, _, remainders, lo, hi = _cut_sums(win, model, lams, tail_tol, unit, 1.0, evaluate)
    below = np.concatenate([[0.0], np.cumsum(counts)])
    kept = int(np.sum(below[hi + 1] - below[lo]))
    if np.ndim(lam) == 0:
        return TraceResult(complex(values[0]), float(remainders[0]), kept)
    return TraceResult(values, remainders, kept)


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
    win: Window, model: ProjectiveModel, lams: np.ndarray, targets: np.ndarray, scale: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Narrowest cuts n_lo..n_hi, one per lam, whose remainder is <= its target.

    n = 0, 1, ... enter by increasing |lam - n| (ties: smaller n first), so a
    cut is a run of integers (empty: n_hi = n_lo - 1).  Its remainder bounds
    sum |c_n chihat(lam - n)| outside it: the majorant sum times ``scale``
    (d!/pi^d for kernels, 1 for traces).  Rows go in blocks of about
    ``_CUT_BLOCK`` entries; n beyond a row's far edge enter with term zero.
    """
    if win.shape != "gaussian":
        raise CoverageError("the bump transform has no proven envelope to cut its sums with")
    d, min_w = model.dim, int(min(model.weights))
    n_far = np.maximum(0, np.floor(lams + _GAUSS_FAR / win.eps)).astype(np.int64)
    # terms beyond n_far: the majorant ratio b(n+1)/b(n) is at most
    # (1 + d/(m+1)) exp(-eps^2 (2s+1)/2), decreasing in n, so the tail is
    # at most b(n0)/(1 - q) with q the ratio bound at n0 = n_far + 1
    s0 = n_far + 1 - lams
    q = (1.0 + d / ((n_far + 1) // min_w + 1)) * np.exp(-0.5 * win.eps**2 * (2.0 * s0 + 1.0))
    b0 = _walk_majorant(n_far + 1, d, min_w) * win.fourier_envelope(s0)
    with np.errstate(divide="ignore"):
        beyond = np.where(q < 1.0, b0 / (1.0 - q), np.inf)
    lo = np.zeros(lams.size, dtype=np.int64)
    hi = np.full(lams.size, -1, dtype=np.int64)
    remainder = np.empty(lams.size)
    rows = max(1, _CUT_BLOCK // (int(n_far.max(initial=0)) + 2))
    for start in range(0, lams.size, rows):
        blk = slice(start, start + rows)
        n = np.arange(int(n_far[blk].max()) + 1)
        dist = np.abs(lams[blk, None] - n)
        inside = n <= n_far[blk, None]
        terms = np.where(inside, _walk_majorant(n, d, min_w) * win.fourier_envelope(dist), 0.0)
        order = np.argsort(dist, axis=1, kind="stable")
        outside = np.cumsum(np.take_along_axis(terms, order, axis=1)[:, ::-1], axis=1)[:, ::-1]
        outside = (np.pad(outside, ((0, 0), (0, 1))) + beyond[blk, None]) * scale
        ok = outside <= targets[blk, None]
        if not ok.any(axis=1).all():
            i = int(np.argmin(ok.any(axis=1)))
            raise CoverageError(
                f"window cut remainder cannot reach {targets[blk][i]:.2e} "
                f"(best {outside[i, -1]:.2e}) at lambda={lams[blk][i]}"
            )
        j = np.argmax(ok, axis=1)
        rowid = np.arange(j.size)
        # the j-th nearest n ends the run of the j nearest, on its own side of lam
        last = order[rowid, np.maximum(j - 1, 0)]
        right = last >= lams[blk]
        lo[blk] = np.where(j == 0, 0, np.where(right, last - j + 1, last))
        hi[blk] = np.where(j == 0, -1, np.where(right, last, last + j - 1))
        remainder[blk] = outside[rowid, j]
    return lo, hi, remainder


def _cut_sums(win, model, lams, tail_tol, unit, scale, evaluate, targets=None):
    """Sums ``evaluate(lo, hi)`` -> (values, sum |terms|) cut within
    min(tail_tol, unit * sum |terms|).  The first cut meets ``targets``
    (default `_first_cut_target`); only points it does not serve are cut
    again, wider.  Returns (values, magnitudes, remainders, lo, hi).
    """
    if targets is None:
        targets = np.full(lams.size, _first_cut_target(tail_tol, unit))
    lo, hi, remainders = _window_cut(win, model, lams, targets, scale)
    while True:
        values, magnitudes = evaluate(lo, hi)
        final = _final_cut_target(tail_tol, unit, magnitudes)
        wider = remainders > final
        if not wider.any():
            return values, magnitudes, remainders, lo, hi
        lo[wider], hi[wider], remainders[wider] = _window_cut(
            win, model, lams[wider], final[wider], scale
        )


def _final_cut_target(tail_tol: float, unit: float, magnitudes: np.ndarray) -> np.ndarray:
    """What a cut must meet: min(tail_tol, unit * sum |terms|), above the floor."""
    return np.maximum(np.minimum(tail_tol, unit * magnitudes), _CUT_FLOOR)


def _first_cut_target(tail_tol: float, unit: float) -> float:
    """First-pass cut target: final whenever |kept sum| >= tail_tol.

    A cut within unit * tail_tol meets the final target unless the kept sum
    is smaller than tail_tol, and only those points need a second, wider
    pass.
    """
    return max(unit * tail_tol, _CUT_FLOOR)


def _h_table(t: np.ndarray, weights, n_max: int) -> np.ndarray:
    """h_n(t) for n = 0..n_max (rows), one column per row of t."""
    d = len(weights) - 1
    coeffs: dict = {}
    for tw, w in zip(np.asarray(t, dtype=float).T, weights):
        coeffs[w] = coeffs[w] + tw if w in coeffs else tw
    h = np.zeros((max(n_max, 0) + 1, t.shape[0]))
    h[0] = 1
    for n in range(1, n_max + 1):
        acc = np.zeros(t.shape[0])
        for w, tw in coeffs.items():
            if n >= w:
                acc += (n + d * w) * tw * h[n - w]
        h[n] = acc / n
    return h


def _window_sums(win: Window, lams, h: np.ndarray, lo, hi, scale) -> tuple[np.ndarray, np.ndarray]:
    """Kept sums sum_n h_n chihat(lam - n) over lo..hi and their absolute sums, per point."""
    values = np.zeros(len(lams), dtype=complex)
    magnitudes = np.zeros(len(lams))
    for i, (lam, a, b) in enumerate(zip(lams, lo, hi)):
        if b < a:
            continue
        terms = h[a : b + 1, i] * win.fourier(lam - np.arange(a, b + 1, dtype=float))
        values[i] = complex(terms.sum() * scale)
        magnitudes[i] = float(np.abs(terms).sum() * scale)
    return values, magnitudes


def _decimal_sums(
    win: Window, lams, t: np.ndarray, weights, lo, hi
) -> tuple[np.ndarray, np.ndarray]:
    """Kernel sums (d!/pi^d) sum_n h_n chihat(lam - n) over lo..hi in decimal.

    Per point the h_n recurrence and the kept gaussian window sum run at
    ``_DECIMAL_DIGITS`` significant digits.  Phases are taken relative to
    the integer c nearest lam inside the cut: with f = lam - c the term at
    n = c + k is

        h_n eps sqrt(2 pi) exp(-eps^2 (f - k)^2 / 2) exp(-i f tau0) exp(i k tau0),

    where exp(i k tau0) steps from one Taylor cos/sin of tau0, so no
    argument is large.  Each result is rounded to complex once.  Returns
    the values and their absolute sums, as `_window_sums` does.
    """
    d = len(weights) - 1
    values = np.zeros(len(lams), dtype=complex)
    magnitudes = np.zeros(len(lams))
    with localcontext() as ctx:
        ctx.prec = _DECIMAL_DIGITS
        eps, tau0 = Decimal(win.eps), Decimal(win.tau0)
        half_eps2 = eps * eps / 2
        peak = eps * (2 * _PI).sqrt() * math.factorial(d) / _PI**d
        for i, (lam, a, b) in enumerate(zip(map(float, lams), map(int, lo), map(int, hi))):
            if b < a:
                continue
            c = min(max(round(lam), a), b)
            h, powers = _decimal_h(t[i], weights, b), _cis_powers(tau0, max(b - c, c - a))
            f = Decimal(lam) - c
            re = im = mag = Decimal(0)
            for n in range(a, b + 1):
                k = n - c
                g = h[n] * (-half_eps2 * (f - k) ** 2).exp()
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


def _decimal_h(t_row, weights, n_max: int) -> list:
    """`_h_table` for one point in the current decimal context."""
    d = len(weights) - 1
    coeffs = [(Decimal(float(tw)), w) for tw, w in zip(t_row, weights)]
    h = [Decimal(1)]
    for n in range(1, n_max + 1):
        h.append(sum((tw * (n + d * w) * h[n - w] for tw, w in coeffs if n >= w), Decimal(0)) / n)
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


def _diagonal_values(
    model: ProjectiveModel,
    win: Window,
    lams: np.ndarray,
    points: np.ndarray,
    tail_tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact diagonal at paired (lam_i, point_i), the window-cut remainder of
    each, and a mask of the rows summed in decimal.

    Every row is summed in double first.  A row whose measured condition
    number kappa = sum |terms| / |sum| passes ``_DOUBLE_KAPPA_BOUND`` is cut
    again at the decimal rounding unit and summed by `_decimal_sums`.
    """
    t = np.abs(np.atleast_2d(np.asarray(points, dtype=complex))) ** 2
    lams = np.broadcast_to(np.asarray(lams, dtype=float), (t.shape[0],))
    scale = math.factorial(model.dim) / np.pi**model.dim

    def evaluate(lo, hi):
        h = _h_table(t, model.weights, int(hi.max(initial=-1)))
        return _window_sums(win, lams, h, lo, hi, scale)

    unit = float(np.finfo(np.float64).eps)
    values, magnitudes, remainders, _, _ = _cut_sums(
        win, model, lams, tail_tol, unit, scale, evaluate
    )
    cancels = magnitudes * 2.0**-53 > _DOUBLE_KAPPA_BOUND * np.abs(values)
    if cancels.any():
        sub_lams, sub_t = lams[cancels], t[cancels]

        def evaluate_decimal(lo, hi):
            return _decimal_sums(win, sub_lams, sub_t, model.weights, lo, hi)

        targets = _final_cut_target(tail_tol, _DECIMAL_UNIT, magnitudes[cancels])
        values[cancels], _, remainders[cancels], _, _ = _cut_sums(
            win, model, sub_lams, tail_tol, _DECIMAL_UNIT, scale, evaluate_decimal, targets
        )
    return values, remainders, cancels


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
    values, remainders, _ = _diagonal_values(
        model, win, np.full(pts.shape[0], float(lam)), pts, tail_tol
    )
    return values, float(remainders.max(initial=0.0))


def integrate_diagonal(
    model: ProjectiveModel,
    win: Window,
    lam: float,
    t_degree: int | None = None,
    phase_degree: int = 1,
    tail_tol: float = 1e-10,
) -> complex:
    """Quadrature of the smoothed kernel diagonal over the sphere.

    Cross-checks the trace: integrating the diagonal must reproduce
    smoothed_trace because the eigensections are orthonormal.  The diagonal
    depends on the moment coordinates only, as a polynomial of degree
    n_hi/min_w with n_hi the top of the window cut; the default ``t_degree``
    makes the rule exact for it.
    """
    from .quadrature import sphere_rule

    if t_degree is None:
        target = _first_cut_target(tail_tol, float(np.finfo(np.float64).eps))
        units = math.factorial(model.dim) / np.pi**model.dim
        _, n_hi, _ = _window_cut(win, model, np.array([float(lam)]), np.array([target]), units)
        t_degree = int(n_hi[0]) // min(model.weights) + 1
    nodes, wts = sphere_rule(model.dim, t_degree, phase_degree)
    vals, _ = smoothed_kernel_diagonal(model, win, lam, nodes, tail_tol)
    return complex(np.dot(wts, vals))


# ----------------------------------------------------------------------------
# scans
# ----------------------------------------------------------------------------


def _chart_component(model: ProjectiveModel, chart: HeisenbergChart) -> FixedComponent:
    comps = [
        c
        for c in fixed_components(model, chart.tau0)
        if not c.m_only and c.normal_dim == chart.normal_dim
    ]
    for comp in comps:
        idx = np.abs(chart.center) > 1e-9
        if set(np.nonzero(idx)[0]) <= set(comp.index_set):
            return comp
    raise ValueError("chart center does not sit on a sphere fixed component")


def _chart_meta(model: ProjectiveModel, chart: HeisenbergChart) -> dict:
    """The chart centre and its fixed component; the rows alone do not name them."""
    comp = _chart_component(model, chart)
    return {
        "chart_center": chart.center,
        "index_set": list(comp.index_set),
        "normal_dim": comp.normal_dim,
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
    comp = _chart_component(model, chart)
    pred = local_prediction(model, comp, chart.center, win)
    points = np.array([chart.normal_point(u / math.sqrt(l)) for l in lams])
    exact, remainders, decimal_rows = _diagonal_values(model, win, lams, points, tail_tol)
    predicted = predict_local(pred, u, lams)
    meta = {
        "kind_detail": "scaled diagonal vs local leading term",
        "weights": list(map(int, model.weights)),
        "tau0": chart.tau0,
        **_chart_meta(model, chart),
        "u": u,
        "window": {"shape": win.shape, "eps": win.eps},
        "window_cut_remainders": remainders,
        "precision": _arithmetic(decimal_rows),
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
    c = chart.normal_dim
    if direction is None:
        direction = np.zeros(c, dtype=complex)
        direction[0] = 1.0
    direction = np.asarray(direction, dtype=complex)
    direction = direction / np.linalg.norm(direction)
    dist = 2.0 * C * lams ** (-7.0 / 18.0)
    points = np.array([chart.normal_point(r * direction) for r in dist])
    exact, remainders, decimal_rows = _diagonal_values(model, win, lams, points, tail_tol)
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
        "window_cut_remainders": remainders,
        "precision": _arithmetic(decimal_rows),
        "tau0": chart.tau0,
        **_chart_meta(model, chart),
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
        "window_cut_remainders": res.cut_remainder,
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
    even, odd, remainders, _ = _parity_parts(model, win, chart, u, np.array([lam]), tail_tol)
    return ParitySplit(complex(even[0]), complex(odd[0]), float(remainders[0]))


def _parity_parts(model, win, chart, u, lams, tail_tol):
    """Even and odd parts, remainders and decimal-row mask along a grid: one
    `_diagonal_values` call over all points +-u/sqrt(lam)."""
    u = np.asarray(u, dtype=complex)
    pts = [chart.normal_point(u / math.sqrt(lam)) for lam in lams]
    pts += [chart.normal_point(-u / math.sqrt(lam)) for lam in lams]
    values, remainders, decimal_rows = _diagonal_values(
        model, win, np.concatenate([lams, lams]), np.array(pts), tail_tol
    )
    n = len(lams)
    plus, minus = values[:n], values[n:]
    return (
        (plus + minus) / 2.0,
        (plus - minus) / 2.0,
        np.maximum(remainders[:n], remainders[n:]),
        decimal_rows[:n] | decimal_rows[n:],
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
    even, odd, remainders, decimal_rows = _parity_parts(model, win, chart, u, lams, tail_tol)
    meta = {
        "kind_detail": "exact column = odd part, predicted column = even part",
        "u": np.asarray(u, dtype=complex),
        "tau0": chart.tau0,
        **_chart_meta(model, chart),
        "window_cut_remainders": remainders,
        "precision": _arithmetic(decimal_rows),
    }
    return ScanReport("parity", lams, odd, even, meta=meta)


def _arithmetic(decimal_rows: np.ndarray) -> list:
    """The arithmetic each row was summed in, for the scan JSONs."""
    return ["decimal" if row else "double" for row in decimal_rows]
