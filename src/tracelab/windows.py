"""Cutoff windows and their Fourier transforms.

Two shapes.  The conformant default is the compactly supported bump

    chi(tau) = exp(1 - 1/(1 - t^2)),   t = (tau - tau0)/eps,  |t| < 1,

normalised so chi(tau0) = 1; its transform is a Gauss-Legendre sum at every
frequency, with a proven closed-form envelope.  The Gaussian shape
exp(-(tau-tau0)^2/(2 eps^2)) trades compact support for a closed-form,
super-exponentially decaying transform; it is the practical choice whenever
an eigen-sum needs certified 1e-10 tails (the period under study must be
isolated, which the callers check).

Transform convention, fixed package-wide:  chihat(s) = int chi(tau)
exp(-i s tau) dtau,  so a window centered at tau0 has chihat(s) =
exp(-i s tau0) * chihat_centered(s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .quadrature import gauss_legendre

SHAPES = ("bump", "gaussian")


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
            raise InputError(f"unknown window shape {self.shape!r}")
        if not 0 < self.eps < math.inf:
            raise InputError("window width must be positive and finite")
        if not math.isfinite(self.tau0):
            raise InputError("window center must be finite")

    # -- time side ---------------------------------------------------------

    def value(self, tau) -> np.ndarray:
        """chi(tau), batched."""
        t = (np.asarray(tau, dtype=float) - self.tau0) / self.eps
        if self.shape == "gaussian":
            return np.exp(-0.5 * t * t)
        inside = np.abs(t) < 1.0
        ts = np.where(inside, t, 0.0)
        return np.where(inside, np.exp(1.0 - 1.0 / (1.0 - ts * ts)), 0.0)

    @property
    def halfwidth(self) -> float:
        """Half-width of the effective support: eps for the bump, 4 eps for the gaussian."""
        return self.eps if self.shape == "bump" else 4.0 * self.eps

    # -- frequency side ------------------------------------------------------

    def fourier_base(self, s) -> np.ndarray:
        """Transform of the centered window (real, even); batched."""
        s = np.asarray(s, dtype=float)
        if self.shape == "gaussian":
            return self.eps * math.sqrt(2.0 * math.pi) * np.exp(-0.5 * (self.eps * s) ** 2)
        return _bump_ft_direct(self.eps, np.abs(s).ravel()).reshape(s.shape)[()]

    def fourier(self, s) -> np.ndarray:
        """chihat(s) = exp(-i s tau0) * fourier_base(s); batched."""
        s = np.asarray(s, dtype=float)
        return np.exp(-1j * s * self.tau0) * self.fourier_base(s)

    def fourier_envelope(self, s) -> np.ndarray:
        """Monotone bound: envelope(s) >= sup_{|s'| >= s} |chihat(s')|.

        The gaussian transform is its own envelope.  The bump's is
        eps * min(2, `_bump_envelope`(eps |s|)): chihat(s) = eps rhohat(eps s)
        for the unit bump rho, |rhohat| <= int rho <= 2, and the elementary
        bound of `_bump_envelope` decreases in s, so both are suffix maxima.
        """
        s = np.abs(np.asarray(s, dtype=float))
        if self.shape == "gaussian":
            return np.asarray(self.fourier_base(s), dtype=float)
        return self.eps * np.minimum(2.0, _bump_envelope(self.eps * s))


def _bump_envelope(sigma) -> np.ndarray:
    """Proven bound on |rhohat(sigma)| for the unit bump rho(t) = exp(1 - 1/(1 - t^2)):

        2 sqrt(2) e K_1(sqrt(sigma))/sqrt(sigma)
            <= 2 e sqrt(pi) sigma^(-3/4) exp(-sqrt(sigma)) (1 + 3/(8 sqrt(sigma))).

    For sigma > 0 deform [-1, 1] into the V-shaped path -1 -> -i -> 1, where
    exp(-i sigma t) decays; rho is even and real, so both arms contribute
    alike.  On the right arm t = 1 - u(1 + i), u in [0, 1]:
    Re 1/(1 - t^2) = 1/(2u(1 + (1 - u)^2)) >= 1/(4u), |exp(-i sigma t)| =
    exp(-sigma u) and |dt| = sqrt(2) du, so with u extended to infinity

        |rhohat(sigma)| <= 2 sqrt(2) e int_0^inf exp(-1/(4u) - sigma u) du
                         = 2 sqrt(2) e K_1(sqrt(sigma))/sqrt(sigma),

    by int_0^inf exp(-a/u - s u) du = 2 sqrt(a/s) K_1(2 sqrt(a s)).  For
    real x > 0 the Hankel expansion of K_1 cut after its first term leaves a
    remainder of the sign and at most the size of the first neglected term
    (DLMF 10.40(ii)), so K_1(x) <= sqrt(pi/(2x)) exp(-x) (1 + 3/(8x)), which
    gives the elementary form.  It decreases in sigma and is infinite at 0.
    """
    sigma = np.asarray(sigma, dtype=float)
    with np.errstate(divide="ignore"):
        root = np.sqrt(sigma)
        tail = np.exp(-root) * (1.0 + 0.375 / root)
        return 2.0 * math.e * math.sqrt(math.pi) * sigma**-0.75 * tail


def _bump_ft_direct(eps: float, s: np.ndarray) -> np.ndarray:
    """2 * int_0^eps chi0 cos(s tau) dtau by Gauss-Legendre, vectorised over s."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    out = np.empty(s.shape, dtype=float)
    for lo in range(0, s.size, 4096):  # bound the outer-product size
        blk = s[lo : lo + 4096]
        max_arg = float(blk.max()) * eps if blk.size else 0.0
        n = int(0.8 * max_arg) + 120
        t, w = gauss_legendre(n, 0.0, 1.0)
        chi0 = np.exp(1.0 - 1.0 / (1.0 - t * t))
        out[lo : lo + 4096] = 2.0 * eps * (chi0 * w) @ np.cos(np.outer(t, blk) * eps)
    return out
