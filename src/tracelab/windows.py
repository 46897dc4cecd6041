"""Cutoff windows and their Fourier transforms.

Two shapes.  The conformant default is the compactly supported bump

    chi(tau) = exp(1 - 1/(1 - t^2)),   t = (tau - tau0)/eps,  |t| < 1,

normalised so chi(tau0) = 1; its transform is evaluated by Gauss-Legendre
panels and cached on a dense spline table.  The Gaussian shape
exp(-(tau-tau0)^2/(2 eps^2)) trades compact support for a closed-form,
super-exponentially decaying transform; it is the practical choice whenever
an eigen-sum needs certified 1e-10 tails at desk-scale truncations (the
period under study must be isolated, which the callers check).

Transform convention, fixed package-wide:  chihat(s) = int chi(tau)
exp(-i s tau) dtau,  so a window centered at tau0 has chihat(s) =
exp(-i s tau0) * chihat_centered(s).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CoverageError
from .quadrature import gauss_legendre

SHAPES = ("bump", "gaussian")
_TABLE_SMAX = 1600.0
# cubic-interpolation error goes like step^4; 1/64 keeps the off-grid error
# of the cached transform near 1e-11 (verified against direct quadrature)
_TABLE_STEP = 1.0 / 64.0


@dataclass(eq=False)
class Window:
    """A cutoff of given shape, center tau0 and width eps.

    For the bump shape ``eps`` is the support halfwidth; for the Gaussian it
    is the standard deviation.  Both shapes have value exactly 1 at tau0.
    """

    shape: str
    tau0: float
    eps: float

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise ValueError(f"unknown window shape {self.shape!r}")
        if self.eps <= 0:
            raise ValueError("window width must be positive")

    # -- time side ---------------------------------------------------------

    def value(self, tau) -> np.ndarray:
        """chi(tau), batched."""
        t = (np.asarray(tau, dtype=float) - self.tau0) / self.eps
        if self.shape == "gaussian":
            return np.exp(-0.5 * t * t)
        inside = np.abs(t) < 1.0
        ts = np.where(inside, t, 0.0)
        return np.where(inside, np.exp(1.0 - 1.0 / (1.0 - ts * ts)), 0.0)

    def support(self) -> tuple:
        """Interval outside which chi vanishes (infinite for the Gaussian)."""
        if self.shape == "bump":
            return (self.tau0 - self.eps, self.tau0 + self.eps)
        return (-np.inf, np.inf)

    # -- frequency side ------------------------------------------------------

    def fourier_base(self, s) -> np.ndarray:
        """Transform of the centered window (real, even); batched."""
        if self.shape == "gaussian":
            s = np.asarray(s, dtype=float)
            return self.eps * math.sqrt(2.0 * math.pi) * np.exp(-0.5 * (self.eps * s) ** 2)
        table = _bump_table(self.eps)
        s_abs = np.abs(np.atleast_1d(np.asarray(s, dtype=float)))
        out = np.empty(s_abs.shape, dtype=float)
        small = s_abs <= _TABLE_SMAX
        if np.any(small):
            out[small] = table["spline"](s_abs[small])
        if np.any(~small):
            out[~small] = _bump_ft_direct(self.eps, s_abs[~small])
        return out.reshape(np.shape(s)) if np.ndim(s) else out[0]

    def fourier(self, s) -> np.ndarray:
        """chihat(s) = exp(-i s tau0) * fourier_base(s); batched."""
        s = np.asarray(s, dtype=float)
        return np.exp(-1j * s * self.tau0) * self.fourier_base(s)

    def fourier_envelope(self, s) -> np.ndarray:
        """Monotone bound: envelope(s) >= sup_{|s'| >= s} |chihat(s')|.

        Analytic for the Gaussian; a suffix-maximum over the cached table for
        the bump.  Beyond the table range the bump envelope is unknown and
        the request fails rather than guessing.
        """
        s = np.abs(np.asarray(s, dtype=float))
        if self.shape == "gaussian":
            return np.asarray(self.fourier_base(s), dtype=float)
        table = _bump_table(self.eps)
        if np.any(s > _TABLE_SMAX):
            raise CoverageError(
                f"bump transform envelope is tabulated only to |s| <= {_TABLE_SMAX:g}"
            )
        idx = np.minimum(
            np.searchsorted(table["grid"], s, side="right") - 1, table["suffix"].size - 1
        )
        return table["suffix"][np.maximum(idx, 0)]


@functools.lru_cache(maxsize=8)
def _bump_table(eps: float) -> dict:
    """Spline and suffix-maximum table of the centered bump transform.

    The table depends on eps only (tau0 enters via the phase), so windows
    with the same width share one build.
    """
    from scipy.interpolate import CubicSpline  # only the bump window needs it

    grid = np.arange(0.0, _TABLE_SMAX + _TABLE_STEP, _TABLE_STEP)
    vals = _bump_ft_direct(eps, grid)
    suffix = np.maximum.accumulate(np.abs(vals)[::-1])[::-1]
    return {"grid": grid, "spline": CubicSpline(grid, vals), "suffix": suffix}


def _bump_ft_direct(eps: float, s: np.ndarray, extra_nodes: int = 0) -> np.ndarray:
    """2 * int_0^eps chi0 cos(s tau) dtau by Gauss-Legendre, vectorised over s."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    out = np.empty(s.shape, dtype=float)
    for lo in range(0, s.size, 4096):  # bound the outer-product size
        blk = s[lo : lo + 4096]
        max_arg = float(blk.max()) * eps if blk.size else 0.0
        n = int(0.8 * max_arg) + 120 + extra_nodes
        t, w = gauss_legendre(n, 0.0, 1.0)
        chi0 = np.exp(1.0 - 1.0 / (1.0 - t * t))
        out[lo : lo + 4096] = 2.0 * eps * (chi0 * w) @ np.cos(np.outer(t, blk) * eps)
    return out
