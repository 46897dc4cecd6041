"""Exact smoothed spectral quantities: traces, kernel diagonals, and scans.

Everything here is an *exact* computation over the integer spectrum
n = <alpha, w> of a weight model; no asymptotics enter.

Traces sum m_n * chihat(lam - n) over the distinct eigenvalues of a spectral
package, m_n the degree-<=k_max multiplicity.  The neglected degrees
k > k_max contribute at most sum_k dim_k * envelope(k*min_w - lam), with
envelope a monotone majorant of |window transform|; when that bound exceeds
the requested tolerance the trace refuses with CoverageError instead of
silently truncating.

Kernel diagonals are untruncated in degree.  At a sphere point with moment
coordinates t_i = |z_i|^2 (so sum_i t_i = 1),

    K(lam, z) = (d!/pi^d) sum_n h_n(t) chihat(lam - n),
    sum_n h_n x^n = (1 - sum_i t_i x^{w_i})^{-(d+1)},

and the coefficients follow from the positive recurrence

    n h_n = sum_i t_i (n + d w_i) h_{n - w_i},   h_0 = 1,

which has no cancellation, vectorised over the points of a scan.  The only
truncation is the window cut to the eigenvalues n nearest lam, and its
remainder is proven: h_n = sum_k C(k+d, d) P(S_k = n) for the walk S_k
whose steps are w_i with probabilities t_i; steps are >= 1, so the walk
hits n at most once and then after k <= n/min_w steps, which gives
h_n <= C(floor(n/min_w) + d, d).  For the Gaussian window the majorant
terms are summed out to a far edge and bounded by a geometric series beyond
it.  The cut is the narrowest whose remainder lies below both ``tail_tol``
and the rounding level u * sum |terms| of the kept sum, so it costs no
digits.  The bump window's stretched-exponential transform has no such
closed form yet: its majorant sum stops at the first negligible term.

Near a half-integer period the window phases alternate in sign and the
off-locus diagonal cancels by about twelve orders of magnitude, which
neither double nor plain long double resolves: rounding noise in the terms
survives the cancellation and the surviving digits change from one lambda
to the next.  ``precision="longdouble"`` (gaussian window) therefore runs
the recurrence and the kept sum in double-length long double (see
extended.py), after factoring out of each point the part of the window
transform common to all its terms; the terms then carry about 38 digits and
the value keeps the digits its inputs carry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import extended
from .asymptotics import local_prediction, predict_local
from .errors import CoverageError
from .geometry import HeisenbergChart, ProjectiveModel, fixed_components
from .reports import ScanReport
from .spectral import SpectralPackage, section_dimension
from .windows import Window

# smallest remainder a window cut is asked for; keeps the cut finite when the
# kept sum underflows (far below the spectrum)
_CUT_FLOOR = 1e-290
# the Gaussian majorant is summed term by term out to where exp(-(eps s)^2/2)
# is about 1e-304, and by a geometric series beyond
_GAUSS_FAR = math.sqrt(1400.0)


@dataclass(frozen=True)
class TraceResult:
    """A smoothed trace value with its truncation certificate."""

    lam: float
    value: complex
    tail_bound: float
    n_eigenvalues: int


def spectral_tail_bound(pkg: SpectralPackage, win: Window, lam: float) -> float:
    """Bound the contribution of degrees beyond k_max to the trace.

    sum_{k>k_max} dim_k * envelope(k*min_w - lam); 0 for synthetic packages
    with no stated coverage.
    """
    if not np.isfinite(pkg.coverage_max):
        return 0.0
    d = pkg.model.dim
    min_w = float(pkg.model.weight_array.min())
    total = 0.0
    k = pkg.k_max + 1
    while True:
        s = max(k * min_w - lam, 0.0)
        term = section_dimension(d, k) * float(win.fourier_envelope(s))
        total += term
        # the envelope is eventually monotone decreasing and dim_k is
        # polynomial in k, so once terms are negligible the rest of the sum is
        if term < 1e-4 * max(total, 1e-300) and term < 1e-18:
            break
        k += 1
        if k > pkg.k_max + 100000:
            raise CoverageError("tail bound did not converge within 1e5 degrees")
    return total


def _require_coverage(bound: float, tol: float, lam, what: str) -> None:
    if bound > tol:
        raise CoverageError(
            f"{what} tail bound {bound:.3e} exceeds tolerance {tol:.1e} at "
            f"lambda={lam}; increase k_max or loosen the window"
        )


def smoothed_trace(
    pkg: SpectralPackage, win: Window, lam: float, tail_tol: float = 1e-10
) -> TraceResult:
    """Exact smoothed trace sum_n m_n transform(lam - n) over the package."""
    bound = spectral_tail_bound(pkg, win, float(lam))
    _require_coverage(bound, tail_tol, lam, "trace")
    value = complex(np.sum(pkg.multiplicities * win.fourier(float(lam) - pkg.values)))
    return TraceResult(float(lam), value, bound, pkg.n_eigenvalues)


# ----------------------------------------------------------------------------
# kernel diagonals by the generating-function recurrence
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class _WindowCut:
    """Bounds on the kernel terms left out when only the n nearest lam are kept.

    ``nearest`` lists n = 0, 1, ... by increasing |lam - n| (ties: smaller n
    first), so every prefix is a run of consecutive integers.
    ``remainder[j]`` bounds, in kernel units, the sum of
    |h_n chihat(lam - n)| over all n >= 0 outside ``nearest[:j]``.
    """

    nearest: np.ndarray
    remainder: np.ndarray

    def keep(self, target: float) -> tuple[int, int, float]:
        """Narrowest cut n_lo..n_hi whose remainder is <= target."""
        ok = self.remainder <= target
        if not ok.any():
            raise CoverageError(
                f"window cut remainder cannot reach {target:.2e} "
                f"(best {self.remainder[-1]:.2e})"
            )
        j = int(np.argmax(ok))
        if j == 0:
            return 0, -1, float(self.remainder[0])
        kept = self.nearest[:j]
        return int(kept.min()), int(kept.max()), float(self.remainder[j])


def _walk_majorant(n: np.ndarray, d: int, min_w: int) -> np.ndarray:
    """C(floor(n/min_w) + d, d), the bound on h_n(t) over the whole sphere."""
    m = n // min_w
    out = np.ones(n.shape)
    for j in range(1, d + 1):
        out *= (m + j) / j
    return out


def _window_cut(win: Window, lam: float, model: ProjectiveModel) -> _WindowCut:
    d = model.dim
    min_w = int(min(model.weights))
    if win.shape == "gaussian":
        n_far = max(0, math.floor(lam + _GAUSS_FAR / win.eps))
        n = np.arange(n_far + 1)
        # terms beyond n_far: the majorant ratio b(n+1)/b(n) is at most
        # (1 + d/(m+1)) exp(-eps^2 (2s+1)/2), decreasing in n, so the tail
        # is at most b(n0)/(1 - q) with q the ratio bound at n0 = n_far + 1
        n0 = n_far + 1
        s0 = n0 - lam
        q = (1.0 + d / (n0 // min_w + 1)) * math.exp(-0.5 * win.eps**2 * (2.0 * s0 + 1.0))
        b0 = float(_walk_majorant(np.array([n0]), d, min_w)[0] * win.fourier_envelope(s0))
        beyond = b0 / (1.0 - q) if q < 1.0 else np.inf
    else:
        n, beyond = _stopped_majorant_range(win, lam, d, min_w), 0.0
    terms = _walk_majorant(n, d, min_w) * win.fourier_envelope(np.abs(lam - n))
    order = np.argsort(np.abs(lam - n), kind="stable")
    outside = np.concatenate([np.cumsum(terms[order][::-1])[::-1], [0.0]]) + beyond
    return _WindowCut(n[order], outside * (math.factorial(d) / np.pi**d))


def _stopped_majorant_range(win: Window, lam: float, d: int, min_w: int) -> np.ndarray:
    """n = 0..n_far with n_far the first n > lam whose majorant term is negligible."""
    start = max(0, math.ceil(lam))
    total = 0.0
    while True:
        n = np.arange(start, start + 256)
        terms = _walk_majorant(n, d, min_w) * win.fourier_envelope(n - lam)
        running = total + np.cumsum(terms)
        small = (terms < 1e-4 * np.maximum(running, 1e-300)) & (terms < 1e-18)
        if small.any():
            return np.arange(int(n[np.argmax(small)]) + 1)
        total, start = float(running[-1]), start + 256


def _first_cut_target(tail_tol: float, unit: float) -> float:
    """First-pass cut target: final whenever |kept sum| >= tail_tol.

    The cut must end below min(tail_tol, unit * sum |terms|), unit the
    rounding level of the arithmetic; a cut within unit * tail_tol meets that
    unless the kept sum is smaller than tail_tol, and only those points need
    a second, wider pass.
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


def _window_sums(win: Window, lams, h: np.ndarray, cuts, scale) -> tuple[np.ndarray, np.ndarray]:
    """Kept sums sum_n h_n chihat(lam - n) and their absolute sums, per point."""
    values = np.zeros(len(cuts), dtype=complex)
    magnitudes = np.zeros(len(cuts))
    for i, (lam, (lo, hi, _)) in enumerate(zip(lams, cuts)):
        if hi < lo:
            continue
        terms = h[lo : hi + 1, i] * win.fourier(lam - np.arange(lo, hi + 1, dtype=float))
        values[i] = complex(terms.sum() * scale)
        magnitudes[i] = float(np.abs(terms).sum() * scale)
    return values, magnitudes


def _h_table_extended(t: np.ndarray, weights, n_max: int):
    """`_h_table` in double-length long double: (hi, lo) arrays."""
    d = len(weights) - 1
    coeffs: dict = {}
    for tw, w in zip(np.asarray(t, dtype=float).T, weights):
        tw = (tw.astype(np.longdouble), np.zeros(tw.shape, dtype=np.longdouble))
        coeffs[w] = extended.add(coeffs[w], tw) if w in coeffs else tw
    hi = np.zeros((max(n_max, 0) + 1, t.shape[0]), dtype=np.longdouble)
    lo = np.zeros_like(hi)
    hi[0] = 1
    for n in range(1, n_max + 1):
        acc = None
        for w, tw in coeffs.items():
            if n >= w:
                term = extended.mul_int(extended.mul(tw, (hi[n - w], lo[n - w])), n + d * w)
                acc = term if acc is None else extended.add(acc, term)
        hi[n], lo[n] = extended.div_int(acc, n)
    return hi, lo


def _gaussian_sums_extended(win: Window, lams, h, cuts, scale):
    """`_window_sums` for the gaussian window in double-length long double.

    With c the integer nearest lam inside the cut and f = lam - c, the term
    at n = c + k factors as

        h_n chihat(lam - n) = common * h_n u^k exp(-eps^2 k^2 / 2),
        common = eps sqrt(2 pi) exp(-eps^2 f^2 / 2 - i f tau0),
        u = exp(eps^2 f + i tau0).

    ``common`` scales a whole point and is applied once, in long double.
    The rest runs by double-length products from full-length seeds
    (u^{k+1} B^{(k+1)^2} = u^k B^{k^2} * u B^{2k+1}, B = exp(-eps^2/2)), so
    when alternating phases cancel the sum to a tiny fraction of its terms,
    the value keeps the double-length rounding level of those terms.
    """
    if win.shape != "gaussian":
        raise CoverageError("the long double kernel path needs the gaussian window")
    h_hi, h_lo = h
    n_top = h_hi.shape[0] - 1
    npts = len(cuts)
    eps2 = Fraction(win.eps) ** 2
    tau0 = Fraction(win.tau0)
    lo = np.array([c[0] for c in cuts])
    hi = np.array([c[1] for c in cuts])
    empty = hi < lo
    center = np.where(empty, 0, np.clip(np.rint(np.asarray(lams, dtype=float)), lo, hi)).astype(int)
    f = [Fraction(float(lam)) - int(c) for lam, c in zip(lams, center)]
    phases = [extended.exp_cis(-eps2 * fi**2 / 2, -fi * tau0) for fi in f]
    peak = np.longdouble(win.eps) * np.sqrt(8 * np.arctan(np.longdouble(1))) * scale
    common = peak * np.array(
        [extended.to_longdouble(re) + 1j * extended.to_longdouble(im) for re, im in phases],
        dtype=np.clongdouble,
    )
    step_sq = extended.exp_real(-eps2)
    cols = np.arange(npts)
    zero = np.zeros(npts, dtype=np.longdouble)
    total = ((zero, zero), (zero, zero))
    magnitude = np.zeros(npts, dtype=np.longdouble)
    for sign in (1, -1):
        # rho = u^{sign k} B^{k^2} steps by gamma = u^{sign} B^{2k+1}
        seeds = [extended.exp_cis(sign * eps2 * fi - eps2 / 2, sign * tau0) for fi in f]
        gamma = (extended.stack([g[0] for g in seeds]), extended.stack([g[1] for g in seeds]))
        rho = ((zero + 1, zero), (zero, zero))
        k = 0
        while True:
            n = center + sign * k
            inside = ~empty & (n >= lo) & (n <= hi)
            if not inside.any():
                break
            if sign == 1 or k > 0:  # n = c is summed once
                idx = np.clip(n, 0, n_top)
                hn = extended.where(inside, (h_hi[idx, cols], h_lo[idx, cols]), (zero, zero))
                term = extended.cscale(rho, hn)
                total = extended.add(total[0], term[0]), extended.add(total[1], term[1])
                magnitude += np.abs(hn[0]) * np.hypot(rho[0][0], rho[1][0])
            rho, gamma = extended.cmul(rho, gamma), extended.cscale(gamma, step_sq)
            k += 1
    sums = extended.to_longdouble(total[0]) + 1j * extended.to_longdouble(total[1])
    return (sums * common).astype(complex), (magnitude * np.abs(common)).astype(float)


def _diagonal_values(
    pkg: SpectralPackage,
    win: Window,
    lams: np.ndarray,
    points: np.ndarray,
    tail_tol: float,
    precision: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact diagonal at paired (lam_i, point_i) and the window-cut remainder of each."""
    if pkg.model is None:
        raise CoverageError("toy package has no eigensections, only eigenvalues")
    model = pkg.model
    long = precision == "longdouble"
    unit = extended.UNIT if long else float(np.finfo(np.float64).eps)
    t = np.abs(np.atleast_2d(np.asarray(points, dtype=complex))) ** 2
    lams = np.broadcast_to(np.asarray(lams, dtype=float), (t.shape[0],))
    # a set, not np.unique: its first call imports numpy.ma (~30 ms)
    by_lam = {lam: _window_cut(win, lam, model) for lam in set(lams.tolist())}
    dtype = np.longdouble if long else np.float64
    scale = dtype(math.factorial(model.dim)) / (4 * np.arctan(dtype(1))) ** model.dim
    targets = np.full(t.shape[0], _first_cut_target(tail_tol, unit))
    while True:
        cuts = [by_lam[lam].keep(target) for lam, target in zip(lams, targets)]
        n_max = max(hi for _, hi, _ in cuts)
        if long:
            h = _h_table_extended(t, model.weights, n_max)
            values, magnitudes = _gaussian_sums_extended(win, lams, h, cuts, scale)
        else:
            h = _h_table(t, model.weights, n_max)
            values, magnitudes = _window_sums(win, lams, h, cuts, scale)
        remainders = np.array([rem for *_, rem in cuts])
        final = np.maximum(np.minimum(tail_tol, unit * magnitudes), _CUT_FLOOR)
        wider = remainders > final
        if not wider.any():
            return values, remainders
        targets = np.where(wider, final, targets)


def smoothed_kernel_diagonal(
    pkg: SpectralPackage,
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
    values, remainders = _diagonal_values(
        pkg, win, np.full(pts.shape[0], float(lam)), pts, tail_tol, "double"
    )
    return values, float(remainders.max(initial=0.0))


def integrate_diagonal(
    pkg: SpectralPackage,
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

    model = pkg.model
    if t_degree is None:
        target = _first_cut_target(tail_tol, float(np.finfo(np.float64).eps))
        _, n_hi, _ = _window_cut(win, float(lam), model).keep(target)
        t_degree = n_hi // min(model.weights) + 1
    nodes, wts = sphere_rule(model.dim, t_degree, phase_degree)
    vals, _ = smoothed_kernel_diagonal(pkg, win, lam, nodes, tail_tol)
    return complex(np.dot(wts, vals))


# ----------------------------------------------------------------------------
# scans
# ----------------------------------------------------------------------------


def _chart_component(pkg: SpectralPackage, chart: HeisenbergChart):
    comps = [
        c
        for c in fixed_components(pkg.model, chart.tau0)
        if not c.m_only and c.normal_dim == chart.normal_dim
    ]
    for comp in comps:
        idx = np.abs(chart.center) > 1e-9
        if set(np.nonzero(idx)[0]) <= set(comp.index_set):
            return comp
    raise ValueError("chart center does not sit on a sphere fixed component")


def scaled_diagonal_scan(
    pkg: SpectralPackage,
    win: Window,
    chart: HeisenbergChart,
    u: np.ndarray,
    lambda_grid: np.ndarray,
    tail_tol: float = 1e-10,
    precision: str = "double",
) -> ScanReport:
    """Exact vs predicted scaled diagonal at normal displacement u/sqrt(lam).

    For each lambda in the grid the kernel diagonal is evaluated at
    chart.normal_point(u/sqrt(lam)) and compared with the local leading term
    at fixed u.  Ratios converging to 1 along the grid verify the local
    asymptotics; their deviation from 1 carries the correction ladder.
    """
    lams = np.asarray(lambda_grid, dtype=float)
    u = np.asarray(u, dtype=complex)
    comp = _chart_component(pkg, chart)
    pred = local_prediction(pkg.model, comp, chart.center, win)
    points = np.array([chart.normal_point(u / math.sqrt(l)) for l in lams])
    exact, remainders = _diagonal_values(pkg, win, lams, points, tail_tol, precision)
    predicted = predict_local(pred, u, lams)
    meta = {
        "kind_detail": "scaled diagonal vs local leading term",
        "weights": list(map(int, pkg.model.weights)),
        "tau0": chart.tau0,
        "u": u,
        "window": {"shape": win.shape, "eps": win.eps},
        "window_cut_remainders": remainders,
        "precision": precision,
    }
    return ScanReport("local", lams, exact, np.asarray(predicted), meta=meta)


def offlocus_decay_scan(
    pkg: SpectralPackage,
    win: Window,
    chart: HeisenbergChart,
    C: float,
    lambda_grid: np.ndarray,
    tail_tol: float = 1e-10,
    precision: str = "longdouble",
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
    exact, remainders = _diagonal_values(pkg, win, lams, points, tail_tol, precision)
    predicted = ((lams / np.pi) ** pkg.model.dim).astype(complex)
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
        "precision": precision,
        "tau0": chart.tau0,
    }
    return ScanReport("offlocus", lams, exact, predicted, meta=meta, fits=fits)


def negative_lambda_scan(
    pkg: SpectralPackage,
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
    values = []
    bounds = []
    for lam in lams:
        res = smoothed_trace(pkg, win, float(lam), tail_tol)
        values.append(res.value)
        bounds.append(res.tail_bound)
    exact = np.array(values)
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
        "tail_bounds": bounds,
    }
    return ScanReport("negative", lams, exact, predicted, meta=meta, fits=fits)


@dataclass(frozen=True)
class ParitySplit:
    """Even and odd parts of the diagonal at +-u/sqrt(lam), with the cut remainder."""

    even: complex
    odd: complex
    cut_remainder: float


def parity_split(
    pkg: SpectralPackage,
    win: Window,
    chart: HeisenbergChart,
    u: np.ndarray,
    lam: float,
    tail_tol: float = 1e-10,
    precision: str = "double",
) -> ParitySplit:
    """Even/odd parts of the scaled diagonal in the normal displacement.

    Evaluates at +-u/sqrt(lam) and returns ((S+ + S-)/2, (S+ - S-)/2) with
    the larger of the two window-cut remainders.  The leading term is even;
    the odd part isolates half-power corrections.
    """
    u = np.asarray(u, dtype=complex)
    lams = np.array([lam, lam], dtype=float)
    pts = np.array(
        [
            chart.normal_point(u / math.sqrt(lam)),
            chart.normal_point(-u / math.sqrt(lam)),
        ]
    )
    (plus, minus), remainders = _diagonal_values(pkg, win, lams, pts, tail_tol, precision)
    return ParitySplit((plus + minus) / 2.0, (plus - minus) / 2.0, float(remainders.max()))


def parity_scan(
    pkg: SpectralPackage,
    win: Window,
    chart: HeisenbergChart,
    u: np.ndarray,
    lambda_grid: np.ndarray,
    tail_tol: float = 1e-10,
    precision: str = "double",
) -> ScanReport:
    """`parity_split` along a grid: exact column = odd part, predicted = even part."""
    lams = np.asarray(lambda_grid, dtype=float)
    splits = [parity_split(pkg, win, chart, u, float(lam), tail_tol, precision) for lam in lams]
    meta = {
        "kind_detail": "exact column = odd part, predicted column = even part",
        "u": np.asarray(u, dtype=complex),
        "tau0": chart.tau0,
        "window_cut_remainders": [s.cut_remainder for s in splits],
    }
    return ScanReport(
        "parity",
        lams,
        np.array([s.odd for s in splits]),
        np.array([s.even for s in splits]),
        meta=meta,
    )
