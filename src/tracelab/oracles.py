"""Independent references: brute-force lattice sums and Poisson mode formulas.

Nothing here touches the operator or kernel machinery — the point is to cross
old-fashioned enumeration and hand-derived mode sums against the spectral
pipeline.  The eigenvalue lattice of a weight model is {<alpha, w> : alpha in
N^{d+1}}, so multiplicities are coin-counting numbers and smoothed traces are
explicit lattice sums that Poisson summation turns into a handful of window
evaluations.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .windows import Window

_POISSON_MODES = 6  # `poisson_trace` sums the periods 2*pi*k, |k| <= this


def brute_spectrum(weights, k_max: int) -> list[tuple[float, int]]:
    """Sorted (eigenvalue, multiplicity) pairs by direct lattice enumeration."""
    weights = tuple(int(w) for w in weights)
    counter: Counter = Counter()

    def rec(prefix_sum: int, remaining: int, pos: int):
        if pos == len(weights) - 1:
            counter[prefix_sum + weights[pos] * remaining] += 1
            return
        for a in range(remaining + 1):
            rec(prefix_sum + weights[pos] * a, remaining - a, pos + 1)

    for k in range(k_max + 1):
        rec(0, k, 0)
    return sorted((float(v), m) for v, m in counter.items())


def eigenvalue_multiplicity(weights, value: int) -> int:
    """Number of lattice points alpha in N^{d+1} with <alpha, w> = value.

    Classic coin-counting dynamic programme over the weights; exact integers.
    """
    weights = [int(w) for w in weights]
    if value < 0:
        return 0
    table = [0] * (value + 1)
    table[0] = 1
    for w in weights:
        for v in range(w, value + 1):
            table[v] += table[v - w]
    return table[value]


def counting_function(weights, lam: float) -> int:
    """Number of eigenvalues (with multiplicity) <= lam, by enumeration."""
    total = 0
    for v in range(int(math.floor(lam)) + 1):
        total += eigenvalue_multiplicity(weights, v)
    return total


def _window_slope(win: Window, tau: float) -> float:
    """d/dtau of the window profile, analytic per shape (oracle-side only)."""
    t = (tau - win.tau0) / win.eps
    if win.shape == "gaussian":
        return float(-t / win.eps * win.value(tau))
    if abs(t) >= 1.0:
        return 0.0
    return float(win.value(tau) * (-2.0 * t / (1.0 - t * t) ** 2) / win.eps)


def poisson_trace(weights, win: Window, lam: float) -> complex:
    """Smoothed trace by Poisson summation of the exact lattice sum.

    Implemented for the weight vectors (1, 2) and (1, 1), whose
    multiplicities have closed forms:

        (1, 2): c(n) = floor(n/2) + 1 = (2n+3)/4 + (-1)^n / 4
        (1, 1): c(n) = n + 1

    Poisson summation over n turns the polynomial piece into window values at
    times 2*pi*k (with a d/dtau term from the linear factor) and the
    alternating piece into window values at 2*pi*k - pi, |k| <=
    `_POISSON_MODES`.  Valid for lam a few window widths above 0 (the
    negative-n ghost terms are then negligible).  The phases are formed from
    lam reduced mod 1 (e^{-2 pi i k lam}) and mod 2 (e^{i (pi - 2 pi k)
    lam}) by `math.fmod`, which is exact, so no phase argument grows with
    lam.
    """
    weights = tuple(sorted(int(w) for w in weights))
    out = 0.0 + 0.0j
    ks = range(-_POISSON_MODES, _POISSON_MODES + 1)
    lam1, lam2 = math.fmod(lam, 1.0), math.fmod(lam, 2.0)
    if weights == (1, 2):
        for k in ks:
            tau = 2.0 * np.pi * k
            chi = float(win.value(tau))
            dchi = _window_slope(win, tau)
            out += np.exp(-2j * np.pi * k * lam1) * (
                (2.0 * lam + 3.0) / 4.0 * 2.0 * np.pi * chi + 1j * np.pi * dchi
            )
            tau_a = 2.0 * np.pi * k - np.pi
            out += (
                (np.pi / 2.0)
                * np.exp(1j * (np.pi - 2.0 * np.pi * k) * lam2)
                * float(win.value(tau_a))
            )
        return complex(out)
    if weights == (1, 1):
        for k in ks:
            tau = 2.0 * np.pi * k
            chi = float(win.value(tau))
            dchi = _window_slope(win, tau)
            out += np.exp(-2j * np.pi * k * lam1) * (
                (lam + 1.0) * 2.0 * np.pi * chi + 2j * np.pi * dchi
            )
        return complex(out)
    raise NotImplementedError(f"no Poisson mode formula for weights {weights}")


def brute_smoothed_trace(weights, win: Window, lam: float, n_max: int) -> complex:
    """Direct lattice sum sum_n c(n) transform(lam - n) up to eigenvalue n_max.

    A slow, structure-free reference for the spectral-package trace.  Only
    valid when the window transform is negligible beyond n_max - lam.
    """
    total = 0.0 + 0.0j
    for n in range(n_max + 1):
        mult = eigenvalue_multiplicity(weights, n)
        if mult:
            total += mult * complex(win.fourier(lam - n))
    return complex(total)
