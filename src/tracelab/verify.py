"""Acceptance suite: eleven numbered criteria with measured tolerances.

Each criterion is a standalone function taking the shared resources and
returning a CriterionResult; ``run_all`` executes them in order, prints one
pass/fail line per criterion, and writes a JSON manifest.  Exit code is
nonzero when any criterion fails.

Criterion 8's slope clause is *expected* to fail on every model this
laboratory can build: the time-tau0 flow element acts as -1 on the chart's
normal directions while fixing the base point and commuting with the kernel,
so the diagonal is exactly even in u and no odd fractional-power term exists
to fit.  The suite reports that failure honestly rather than weakening the
check; the even-part and u=0 clauses still run.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .asymptotics import (
    fit_expansion,
    gaussian_normal_integral,
    local_prediction,
    predict_global_component,
    predict_local,
    psi2,
    stationary_point_check,
    unitary_eigenbasis,
)
from .errors import DegenerateDirectionError
from .geometry import make_model, random_sphere_point
from .harness import _default_chart
from .oracles import poisson_trace
from .quadrature import fubini_study_volume, gaussian_line_rule
from .smoothing import (
    _diagonal_values,
    negative_lambda_scan,
    offlocus_decay_scan,
    parity_scan,
    parity_split,
    scaled_diagonal_scan,
    smoothed_trace,
)
from .spectral import eigendata, multi_indices, szego_diagonal, toeplitz_matrix, toeplitz_rule
from .windows import Window

SIGMA = 0.15
# criterion 10 draws covectors until 20 are admissible; the cap stops a
# stream of inadmissible draws from spinning forever
_CRIT10_MAX_ATTEMPTS = 200
# criterion 11 evaluates its n*n slice grid this many rows at a time
_SLICE_ROWS = 16


@dataclasses.dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    measured: dict
    tolerance: str
    detail: str = ""
    seconds: float = 0.0  # wall time, set by run_all

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        nums = ", ".join(f"{k}={v:.3g}" for k, v in self.measured.items())
        return f"[{self.index:2d}/11] {status} {self.name}: {nums} ({self.seconds:.1f}s)"


class _Shared:
    """Lazily built resources shared between criteria."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.model = make_model((1, 2))

    @functools.cached_property
    def model112(self):
        """The (1, 1, 2) model, built (and its contact field checked) once."""
        return make_model((1, 1, 2))

    @functools.cached_property
    def chart(self):
        return _default_chart(self.model, np.pi, None)


# ----------------------------------------------------------------------------


def crit_01_spectral_structure(sh: _Shared) -> CriterionResult:
    """Quadrature-assembled operators are diagonal with affine eigenvalue law."""
    t0 = time.perf_counter()
    model, degree = sh.model, 60
    off_max = 0.0
    rows, vals = [], []
    for k, op in enumerate(toeplitz_matrix(model, degree)):
        off_max = max(off_max, float(np.abs(op - np.diag(np.diag(op))).max()))
        rows.append(multi_indices(model.dim, k))
        vals.append(np.diag(op).real)
    design = np.vstack(rows).astype(float)
    design = np.column_stack([design, np.ones(len(design))])
    coeffs, *_ = np.linalg.lstsq(design, np.concatenate(vals), rcond=None)
    resid = float(np.abs(design @ coeffs - np.concatenate(vals)).max())
    dt = time.perf_counter() - t0
    return CriterionResult(
        1,
        f"spectral structure (k <= {degree}, quadrature route)",
        off_max < 1e-8 and resid < 1e-8 and dt < 60.0,
        {"off_diag_max": off_max, "affine_residual": resid, "runtime_s": dt},
        "off-diag < 1e-8, residual < 1e-8, runtime < 60 s",
        detail=(
            f"affine law coefficients {np.round(coeffs, 12).tolist()}; "
            f"{toeplitz_rule(model, degree).size} field evaluations"
        ),
    )


def crit_02_normalization_anchors(sh: _Shared) -> CriterionResult:
    """Section dimensions, Szego diagonal constancy, Fubini-Study volumes."""
    rng = np.random.default_rng(sh.seed + 2)
    dims_ok = all(
        len(multi_indices(1, k)) == math.comb(k + 1, 1) for k in range(61)
    ) and all(len(multi_indices(2, k)) == math.comb(k + 2, 2) for k in range(21))
    szego_dev = 0.0
    for model, k in ((sh.model, 40), (sh.model112, 12)):
        pkg = eigendata(model, k)
        pts = np.array([random_sphere_point(model, rng) for _ in range(50)])
        diag = szego_diagonal(pkg, k, pts)
        szego_dev = max(szego_dev, float(np.abs(diag / diag.mean() - 1.0).max()))
    vol_err = 0.0
    for d in (1, 2):
        vol_err = max(
            vol_err,
            abs(fubini_study_volume(d) - np.pi**d / math.factorial(d)),
        )
    return CriterionResult(
        2,
        "normalization anchors (dims, Szego diagonal, volumes)",
        dims_ok and szego_dev < 1e-6 and vol_err < 1e-8,
        {"szego_rel_dev": szego_dev, "volume_abs_err": vol_err, "dims_exact": float(dims_ok)},
        "dims exact, Szego < 1e-6 rel, vol < 1e-8 (d = 1, 2)",
    )


def crit_03_negative_lambda(sh: _Shared) -> CriterionResult:
    """Smoothed trace decays super-polynomially as lambda -> -infinity."""
    win = Window("gaussian", 0.0, SIGMA)
    at50 = abs(smoothed_trace(sh.model, win, -50.0).value)
    rep = negative_lambda_scan(sh.model, win, np.geomspace(-200.0, -20.0, 12))
    slope = rep.fits.get("decay_exponent", 0.0)
    return CriterionResult(
        3,
        "negative-lambda decay",
        at50 < 1e-8 and slope < -6.0,
        {"abs_at_-50": at50, "loglog_slope": slope},
        "|trace(-50)| < 1e-8, slope < -6 on [-200, -20]",
    )


def crit_04_global_trace_trivial_period(sh: _Shared) -> CriterionResult:
    """Trace at tau0 = 0 matches pi*lambda with a 1 + c/lambda correction."""
    win = Window("gaussian", 0.0, SIGMA)
    grid = np.linspace(150.0, 400.0, 26)
    exact = smoothed_trace(sh.model, win, grid).value
    ratios = exact / (np.pi * grid)
    in_band = float(np.abs(ratios - 1.0).max())
    fit = fit_expansion((grid, ratios), half_powers=False, n_terms=1)
    cross = abs(
        smoothed_trace(sh.model, win, 300.5).value - poisson_trace((1, 2), win, 300.5)
    ) / abs(poisson_trace((1, 2), win, 300.5))
    return CriterionResult(
        4,
        "global trace, trivial period (tau0 = 0)",
        in_band < 0.05 and fit.residuals[-1] < 1e-3,
        {
            "max_ratio_dev": in_band,
            "fit_residual": fit.residuals[-1],
            "c_coefficient": fit.leading.real,
            "poisson_rel": cross,
        },
        "ratio in [0.95, 1.05] on [150, 400], 1 + c/lambda residual < 1e-3",
        detail="denominator pi*lambda*chi(0) from the lattice-density oracle",
    )


def crit_05_global_trace_pi_period(sh: _Shared) -> CriterionResult:
    """Oscillatory trace component at tau0 = pi has the predicted magnitude."""
    win = Window("gaussian", np.pi, SIGMA)
    target = (np.pi / 2.0) * win.value(np.pi)
    lams = np.array([299.75, 300.25, 300.5, 301.0])
    vals = smoothed_trace(sh.model, win, lams).value
    refs = np.array([poisson_trace((1, 2), win, lam) for lam in lams])
    rel_mag = float(np.max(np.abs(np.abs(vals) - target)) / target)
    rel_poisson = float(np.max(np.abs(vals - refs) / np.abs(refs)))
    return CriterionResult(
        5,
        "global trace, nontrivial period (tau0 = pi)",
        rel_mag < 0.10 and rel_poisson < 0.01,
        {"magnitude_rel_err": rel_mag, "poisson_rel_err": rel_poisson},
        "|trace| vs (pi/2) chi(pi) < 10%, Poisson cross-check < 1%",
    )


def crit_06_local_scaling(sh: _Shared) -> CriterionResult:
    """Scaled diagonal matches the local prediction with half-power ladder."""
    win = Window("gaussian", np.pi, SIGMA)
    chart = sh.chart
    grid = np.geomspace(100.0, 560.0, 12)
    i300 = int(np.argmin(np.abs(grid - 300.0)))
    reports = {}
    for uval in (0.0, 0.5, 1.0):
        u = np.array([uval], dtype=complex)
        reports[uval] = scaled_diagonal_scan(sh.model, win, chart, u, grid)
    ratio_dev = max(abs(abs(rep.ratios[i300]) - 1.0) for rep in reports.values())
    pred = local_prediction(sh.model, chart, win)
    profile_err = 0.0
    s0 = abs(reports[0.0].exact[i300])
    for uval in (0.5, 1.0):
        u = np.array([uval], dtype=complex)
        expected = math.exp(psi2(pred.normal_map @ u, u).real / pred.f_center)
        got = abs(reports[uval].exact[i300]) / s0
        profile_err = max(profile_err, abs(got / expected - 1.0))
    fit = fit_expansion(reports[0.0], half_powers=True, n_terms=2)
    slope = fit.measured_slope
    rung_dist = abs(slope - round(2.0 * slope) / 2.0)
    ladder_ok = slope < -0.35 and rung_dist < 0.15
    return CriterionResult(
        6,
        "local scaling at x0 = [0:1]",
        ratio_dev < 0.10 and profile_err < 0.10 and ladder_ok,
        {
            "ratio_dev_300": ratio_dev,
            "gaussian_profile_rel": profile_err,
            "correction_slope": slope,
            "halfpower_rung_dist": rung_dist,
        },
        "ratio -> 1 (10% at 300), u-profile 10%, slope on the lambda^{-1/2} ladder",
        detail="odd rungs vanish by parity; measured slope sits on an integer rung",
    )


def crit_07_offlocus_decay(sh: _Shared) -> CriterionResult:
    """Fixed-distance suppression and shrinking-radius super-polynomial decay."""
    win = Window("gaussian", np.pi, SIGMA)
    chart = sh.chart
    pt = chart.normal_point(np.array([0.5 + 0j]))
    val, _, bound, _ = _diagonal_values(sh.model, win, np.array([300.0]), pt[None, :], 1e-10)
    fixed_ratio = float(abs(val[0]) / (300.0 / np.pi) ** sh.model.dim)
    rep = offlocus_decay_scan(
        sh.model, win, chart, C=1.3, lambda_grid=np.geomspace(75.0, 600.0, 12)
    )
    slope = rep.fits.get("decay_exponent", 0.0)
    # the error bar of both numbers: the largest rounding bound over |value|
    rel = np.append(rep.meta["rounding_bounds"], bound) / np.abs(np.append(rep.exact, val))
    return CriterionResult(
        7,
        "off-locus decay",
        fixed_ratio < 1e-6 and slope < -5.0,
        {"fixed_dist_ratio": fixed_ratio, "shrinking_slope": slope, "rounding_rel_max": rel.max()},
        "|S|/(lambda/pi)^d < 1e-6 at fixed distance, scan exponent < -5",
        detail="scan at distance 2C lambda^{-7/18}, C = 1.3; rows in closed form",
    )


def crit_08_parity(sh: _Shared) -> CriterionResult:
    """Odd part vanishes at u = 0; the odd/even slope clause cannot pass."""
    win = Window("gaussian", np.pi, SIGMA)
    chart = sh.chart
    odd0 = parity_split(sh.model, win, chart, np.array([0.0 + 0j]), 300.0).odd
    vanishes = odd0 == 0.0
    grid = np.geomspace(100.0, 560.0, 8)
    rep = parity_scan(sh.model, win, chart, np.array([0.7 + 0j]), grid)
    ratios = np.abs(rep.exact) / np.abs(rep.predicted)  # |odd| / |even|
    if (ratios > 0).all():
        slope = float(np.polyfit(np.log(grid), np.log(ratios), 1)[0])
        slope_ok = abs(slope + 0.5) < 0.1
    else:
        slope = float("nan")
        slope_ok = False
    return CriterionResult(
        8,
        "parity structure of the scaled diagonal",
        bool(vanishes and slope_ok),
        {"odd_at_0": float(abs(odd0)), "max_odd_over_even": float(ratios.max()), "slope": slope},
        "odd(0) exactly 0; |odd/even| slope -1/2 +- 0.1",
        detail=(
            "u = 0 clause passes; the slope clause fails structurally: a torus "
            "element (the time-pi flow itself) fixes x0, commutes with the "
            "kernel, and acts as -1 on the normal line, so S(u) = S(-u) "
            "exactly and the odd part is identically zero — no slope exists "
            "to fit on weighted projective models"
        ),
    )


def crit_09_gaussian_integral(sh: _Shared) -> CriterionResult:
    """Closed form pi^c/det(id - A) against the rotated quadrature oracle."""
    rng = np.random.default_rng(sh.seed + 9)
    worst = {1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0}
    for c in (1, 2, 3, 4):
        for _ in range(20):
            g = rng.normal(size=(c, c)) + 1j * rng.normal(size=(c, c))
            Q = np.linalg.qr(g)[0]
            phases = rng.uniform(0.2, 2.0 * np.pi - 0.2, size=c)
            A = (Q * np.exp(1j * phases)) @ Q.conj().T
            res = gaussian_normal_integral(A, seed=sh.seed)
            worst[c] = max(worst[c], res.quadrature_rel_error)
    ok = worst[1] < 1e-5 and worst[2] < 1e-5 and worst[3] < 1e-3 and worst[4] < 1e-3
    return CriterionResult(
        9,
        "Gaussian normal integral closed form",
        ok,
        {
            "rel_c1": worst[1],
            "rel_c2": worst[2],
            "rel_c3": worst[3],
            "rel_c4": worst[4],
        },
        "20 random A per c: < 1e-5 (c = 1, 2), < 1e-3 (c = 3, 4)",
        detail="scored against rotated tensor quadrature",
    )


def crit_10_stationary_phase(sh: _Shared) -> CriterionResult:
    """Closed-form critical point and Hessian determinant of the trace phase."""
    rng = np.random.default_rng(sh.seed + 10)
    x_fixed = sh.chart.center
    worst_grad = 0.0
    worst_det = 0.0
    count = attempts = 0
    while count < 20 and attempts < _CRIT10_MAX_ATTEMPTS:
        attempts += 1
        x0 = x_fixed if count < 10 else random_sphere_point(sh.model, rng)
        omega = np.concatenate([[rng.uniform(0.2, 2.0)], rng.normal(size=2)])
        try:
            chk = stationary_point_check(sh.model, x0, omega)
        except DegenerateDirectionError:
            continue
        worst_grad = max(worst_grad, chk.grad_norm_at_seed)
        worst_det = max(worst_det, chk.det_rel_error)
        count += 1
    detail = ""
    if count < 20:
        detail = f"only {count} admissible covectors in {attempts} draws"
    return CriterionResult(
        10,
        "stationary point of the trace phase",
        count == 20 and worst_grad < 1e-10 and worst_det < 1e-6,
        {"grad_at_seed": worst_grad, "hessian_det_rel": worst_det},
        "gradient < 1e-10, det vs pairing^2 < 1e-6, 20 admissible covectors",
        detail=detail,
    )


def crit_11_local_global_consistency(sh: _Shared) -> CriterionResult:
    """Integrating the local prediction over the normal slice gives the global term."""
    lam = 300.5
    worst = 0.0
    details = []
    for model in (sh.model, sh.model112):
        win = Window("gaussian", np.pi, SIGMA)
        chart = _default_chart(model, np.pi, None)
        pred = local_prediction(model, chart, win)
        num = _slice_integral(pred, lam) * lam ** (-pred.normal_dim)
        ref = predict_global_component(model, chart.component, win, lam)
        rel = abs(num - ref) / abs(ref)
        worst = max(worst, float(rel))
        details.append(f"w={model.weights}: rel={rel:.2e}")
    return CriterionResult(
        11,
        "local -> global consistency",
        worst < 1e-4,
        {"worst_rel": worst},
        "normal-slice integral of predict_local vs predict_global < 1e-4",
        detail="; ".join(details),
    )


def _slice_integral(pred, lam: float) -> complex:
    """Numerically integrate predict_local(u, lam) over the normal slice C^c.

    Rotates to a unitary eigenbasis of the normal map (`unitary_eigenbasis`;
    Lebesgue-invariant), where the integrand factorises over eigenlines, and
    on each line evaluates predict_local itself on the literal n*n grid of
    the square tensor Gauss-Legendre rule from `gaussian_line_rule`.  The
    grid goes through predict_local `_SLICE_ROWS` rows (nodes x_i + i*x_j at
    fixed i) at a time; each block is summed against w along its rows, and
    the n row sums against w once all are in, so no n*n array is held.
    """
    c = pred.normal_dim
    base = complex(predict_local(pred, np.zeros(c, dtype=complex), lam))
    if c == 0:
        return base
    eigs, U = unitary_eigenbasis(pred.normal_map)
    total = base
    f = pred.f_center
    for j in range(c):
        mu = complex(eigs[j])
        x, w = gaussian_line_rule((1.0 - mu.real) / f, abs(mu.imag) / f)
        row_sums = np.empty(w.size, dtype=complex)
        for lo in range(0, w.size, _SLICE_ROWS):
            V = (x[lo : lo + _SLICE_ROWS, None] + 1j * x[None, :]).ravel()
            vals = predict_local(pred, np.outer(V, U[:, j]), lam) / base
            row_sums[lo : lo + _SLICE_ROWS] = vals.reshape(-1, w.size).dot(w)
        total *= complex(row_sums.dot(w))
    return total


# ----------------------------------------------------------------------------


CRITERIA = (
    crit_01_spectral_structure,
    crit_02_normalization_anchors,
    crit_03_negative_lambda,
    crit_04_global_trace_trivial_period,
    crit_05_global_trace_pi_period,
    crit_06_local_scaling,
    crit_07_offlocus_decay,
    crit_08_parity,
    crit_09_gaussian_integral,
    crit_10_stationary_phase,
    crit_11_local_global_consistency,
)


def _print_line(line: str) -> None:
    """Print one line at once.  Once the reader has quit (``| head -1``), later
    lines and the interpreter's flush at exit go to the null device instead."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())


def run_all(out_dir=None, seed: int = 0, echo=_print_line):
    """Run all acceptance criteria; return (results, manifest, exit_code)."""
    sh = _Shared(seed=seed)
    results = []
    for fn in CRITERIA:
        t0 = time.perf_counter()
        res = fn(sh)
        res.seconds = time.perf_counter() - t0
        results.append(res)
        echo(res.line())
    all_passed = bool(all(r.passed for r in results))
    for r in results:
        r.passed = bool(r.passed)
        r.measured = {k: float(v) for k, v in r.measured.items()}
    manifest = {
        "criteria": [dataclasses.asdict(r) for r in results],
        "all_passed": all_passed,
        "n_passed": int(sum(r.passed for r in results)),
        "seed": seed,
        "artifacts": [],
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "verify_manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
        manifest["artifacts"] = ["verify_manifest.json"]
    return results, manifest, 0 if all_passed else 1
