"""Independent references and the correctness gate for tracelab's artifacts.

Every row a benchmarked invocation writes is checked here:

* ``spectrum.csv`` against the closed-form truncated multiplicities of the
  weight-(1, 2) model (exact integers);
* ``trace.csv`` exact columns against ``tracelab.oracles.poisson_trace``, the
  Poisson mode sum of the lattice trace;
* ``local.csv``, ``offlocus.csv`` and the even part of ``parity.csv`` against
  an mpmath evaluation of the generating-function diagonal

      K(lam, t) = (d!/pi^d) sum_n h_n(t) chihat(lam - n),
      sum_n h_n x^n = (1 - sum_i t_i x^{w_i})^{-(d+1)},
      n h_n = sum_i t_i (n + d w_i) h_{n - w_i},

  where t are the moment coordinates |z_i|^2 of the sample point.  The
  sample points are rebuilt here from the chart's closed form, not read
  from the program;
* ``verify``: exit code 1 with criterion 8 the only red one.

A row's accuracy is its number of correct significant digits,
-log10(|exact - ref| / |ref|), capped at 17.  A row fails the gate when it
falls below the floor of its kind (or a grid or ratio column is off).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import mpmath
import numpy as np

MAX_DIGITS = 17.0
# Digit floors: the trace and kernel sums certify a 1e-10 tail and run in
# double; the off-locus scan relies on the extended-precision path (double
# gives about 2.6 digits there, x86 long double about 5.4).
FLOORS = {"trace": 10.0, "local": 10.0, "parity": 10.0, "offlocus": 4.0}
# the odd part of the diagonal is exactly zero; allow rounding-level noise
ODD_TOL = 1e-10
REF_DPS = 40
# gaussian window terms are cut where exp(-x^2/2) < 1e-32, far below 1e-30
# of the kept sum even after the 1e11 cancellation seen off the locus
_CUT_X = math.sqrt(64.0 * math.log(10.0))


def rel_digits(rel: float) -> float:
    """Correct significant digits for a relative error (capped)."""
    return MAX_DIGITS if rel == 0.0 else min(MAX_DIGITS, -math.log10(rel))


def digits(exact, ref) -> float:
    """Correct significant digits of ``exact`` against ``ref``."""
    err = abs(complex(exact) - complex(ref))
    scale = abs(complex(ref))
    if scale == 0.0:
        return MAX_DIGITS if err == 0.0 else 0.0
    return rel_digits(err / scale)


# ----------------------------------------------------------------------------
# references
# ----------------------------------------------------------------------------


def truncated_multiplicities_12(k_max: int) -> np.ndarray:
    """Rows (n, #{(a, b): a + 2b = n, a + b <= k_max}) for weights (1, 2)."""
    n = np.arange(0, 2 * k_max + 1)
    counts = n // 2 - np.maximum(0, n - k_max) + 1
    return np.column_stack([n, counts]).astype(float)


def poisson_traces(tau0: float, eps: float, grid) -> np.ndarray:
    from tracelab.oracles import poisson_trace
    from tracelab.windows import Window

    win = Window("gaussian", tau0, eps)
    return np.array([poisson_trace((1, 2), win, float(lam)) for lam in grid])


def gf_diagonal(weights, t, lam, tau0: float, eps: float, dps: int = REF_DPS) -> complex:
    """Smoothed kernel diagonal by the generating-function recurrence.

    ``t`` are moment coordinates (mpmath or float), ``lam``, ``tau0`` and
    ``eps`` the doubles the program saw; the gaussian window transform is
    eps sqrt(2 pi) exp(-(eps s)^2 / 2) exp(-i s tau0).
    """
    with mpmath.workdps(dps):
        w = [int(x) for x in weights]
        d = len(w) - 1
        t = [mpmath.mpf(x) for x in t]
        lam = mpmath.mpf(lam)
        eps = mpmath.mpf(eps)
        tau0 = mpmath.mpf(tau0)
        reach = _CUT_X / eps
        n_lo = max(0, int(mpmath.floor(lam - reach)))
        n_hi = int(mpmath.ceil(lam + reach))
        h = [mpmath.mpf(1)]
        for n in range(1, n_hi + 1):
            acc = mpmath.mpf(0)
            for ti, wi in zip(t, w):
                if n >= wi:
                    acc += ti * (n + d * wi) * h[n - wi]
            h.append(acc / n)
        peak = eps * mpmath.sqrt(2 * mpmath.pi)
        total = mpmath.mpc(0)
        for n in range(n_lo, n_hi + 1):
            s = lam - n
            total += h[n] * peak * mpmath.exp(-((eps * s) ** 2) / 2) * mpmath.expjpi(-s * tau0 / mpmath.pi)
        total *= mpmath.factorial(d) / mpmath.pi**d
        return complex(total)


def normal_moments(u, lam: float, dps: int = REF_DPS):
    """Moment coordinates of the chart point at normal displacement u/sqrt(lam).

    The fixed point at tau0 = pi is the weight-2 coordinate (last); the
    normal frame is the remaining coordinate axes, so the great-circle chart
    point has |z_j|^2 = sin(r)^2 |u_j|^2/|u|^2 and |z_last|^2 = cos(r)^2 with
    r = |u|/sqrt(lam).
    """
    with mpmath.workdps(dps):
        u = [mpmath.mpf(abs(x)) for x in u]
        norm = mpmath.sqrt(sum(x * x for x in u))
        r = norm / mpmath.sqrt(mpmath.mpf(lam))
        return _chart_moments(u, norm, r)


def offlocus_moments(C: float, lam: float, dps: int = REF_DPS):
    """Moment coordinates at normal distance 2 C lam^(-7/18) along the first axis."""
    with mpmath.workdps(dps):
        r = 2 * mpmath.mpf(C) * mpmath.mpf(lam) ** (mpmath.mpf(-7) / 18)
        return _chart_moments([mpmath.mpf(1)], mpmath.mpf(1), r)


def _chart_moments(u, norm, r):
    s2 = mpmath.sin(r) ** 2
    return [s2 * x * x / (norm * norm) for x in u] + [mpmath.cos(r) ** 2]


# ----------------------------------------------------------------------------
# the gate
# ----------------------------------------------------------------------------


@dataclass
class Check:
    """Outcome of gating one invocation's artifacts."""

    ok: bool
    min_digits: float | None  # None when the kind carries no digit count
    message: str = ""


def read_rows(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def gate_spectrum(path: Path, reference: np.ndarray) -> Check:
    rows = read_rows(path)
    if rows.shape != reference.shape or not np.array_equal(rows, reference):
        return Check(False, None, "spectrum rows differ from the closed-form multiplicities")
    return Check(True, None)


def gate_scan(path: Path, kind: str, grid: np.ndarray, reference: np.ndarray) -> Check:
    """Gate a trace/local/offlocus/parity CSV against per-row references.

    For parity the exact columns hold the odd part (must vanish) and the
    predicted columns the even part (compared with ``reference``).
    """
    rows = read_rows(path)
    if rows.shape[0] != grid.size or not np.array_equal(rows[:, 0], grid):
        return Check(False, None, f"{kind}: grid column differs from the requested grid")
    exact = rows[:, 1] + 1j * rows[:, 2]
    pred = rows[:, 3] + 1j * rows[:, 4]
    if kind == "parity":
        odd = np.abs(exact)
        if (odd > ODD_TOL * np.abs(pred)).any():
            return Check(False, None, f"parity: odd part exceeds {ODD_TOL:g} of the even part")
        exact = pred
    else:
        ratio = np.abs(exact / pred)
        if not np.allclose(rows[:, 5], ratio, rtol=1e-12, atol=0.0):
            return Check(False, None, f"{kind}: ratio_abs column inconsistent with the values")
    row_digits = [digits(e, r) for e, r in zip(exact, reference)]
    worst = min(row_digits)
    floor = FLOORS[kind]
    if worst < floor:
        i = int(np.argmin(row_digits))
        return Check(
            False,
            worst,
            f"{kind}: {worst:.2f} correct digits at lambda={grid[i]:.6g} (floor {floor:g})",
        )
    return Check(True, worst)


# cross-check residuals in verify_manifest.json: (criterion, measured key)
VERIFY_ORACLE_KEYS = (
    (4, "poisson_rel"),
    (5, "poisson_rel_err"),
    (9, "rel_c1"),
    (9, "rel_c2"),
    (9, "rel_c3"),
    (9, "rel_c4"),
    (11, "worst_rel"),
)


def gate_verify(manifest_path: Path, exit_code: int) -> Check:
    """Expected outcome: exit 1 and criterion 8 the only failing criterion.

    The digit count is the fewest digits among the suite's own
    production-versus-oracle residuals (Poisson trace, Gaussian integral
    quadrature, local-global slice integral).
    """
    if exit_code != 1:
        return Check(False, None, f"verify: exit code {exit_code}, expected 1")
    manifest = json.loads(manifest_path.read_text())
    crit = {c["index"]: c for c in manifest.get("criteria", [])}
    red = sorted(i for i, c in crit.items() if not c["passed"])
    if sorted(crit) != list(range(1, 12)) or red != [8]:
        return Check(False, None, f"verify: failing criteria {red}, expected [8]")
    worst = min(rel_digits(crit[i]["measured"][key]) for i, key in VERIFY_ORACLE_KEYS)
    return Check(True, worst)
