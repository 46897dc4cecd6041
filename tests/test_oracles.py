import numpy as np
import pytest

from tracelab.geometry import make_model
from tracelab.oracles import (
    brute_smoothed_trace,
    brute_spectrum,
    counting_function,
    eigenvalue_multiplicity,
    poisson_trace,
)
from tracelab.spectral import eigendata
from tracelab.windows import Window


def test_multiplicity_closed_forms():
    for n in range(60):
        assert eigenvalue_multiplicity((1, 2), n) == n // 2 + 1
        assert eigenvalue_multiplicity((1, 1), n) == n + 1
    assert eigenvalue_multiplicity((1, 2), -3) == 0


def test_brute_spectrum_matches_package():
    model = make_model((1, 2))
    pkg = eigendata(model, 30)
    brute = dict(brute_spectrum((1, 2), 30))
    from collections import Counter

    package_counts = Counter(pkg.lambda_all.tolist())
    for value, mult in brute.items():
        # restrict to eigenvalues fully covered by degree <= 30
        if value <= 30:
            assert package_counts[value] >= mult
    # every covered eigenvalue (below the coverage edge) agrees exactly
    for value in range(int(pkg.coverage_max)):
        assert package_counts[float(value)] == eigenvalue_multiplicity((1, 2), value)


@pytest.mark.parametrize("weights", [(1, 2), (1, 1, 2), (2, 3), (1, 2, 3)])
def test_package_multiplicities_match_brute_spectrum(weights):
    """The degree/value table gives the lattice multiplicities over the whole
    truncated range, above the coverage edge included."""
    pkg = eigendata(make_model(weights), 12)
    brute = brute_spectrum(weights, 12)
    assert pkg.values.tolist() == [v for v, _ in brute]
    assert pkg.multiplicities.tolist() == [m for _, m in brute]
    assert pkg.values.max() > pkg.coverage_max


def test_counting_function():
    total = 0
    for n in range(21):
        total += eigenvalue_multiplicity((1, 2), n)
    assert counting_function((1, 2), 20.5) == total


@pytest.mark.parametrize("weights", [(1, 2), (1, 1)])
def test_poisson_matches_brute_lattice_sum(weights):
    win = Window("gaussian", 0.0, 0.3)
    for lam in (40.3, 55.0):
        ref = brute_smoothed_trace(weights, win, lam, n_max=160)
        val = poisson_trace(weights, win, lam)
        assert abs(val - ref) < 1e-10 * abs(ref)


def test_poisson_pi_window():
    # window centered at pi picks out the alternating component
    win = Window("gaussian", np.pi, 0.15)
    lam = 120.5
    ref = brute_smoothed_trace((1, 2), win, lam, n_max=300)
    val = poisson_trace((1, 2), win, lam)
    assert abs(val - ref) < 1e-10 * abs(ref)
    assert abs(abs(val) - np.pi / 2) < 0.02


def test_poisson_unknown_weights():
    with pytest.raises(NotImplementedError):
        poisson_trace((1, 3), Window("gaussian", 0.0, 0.3), 10.0)


def test_poisson_trace_phases_keep_full_accuracy():
    # (1, 2) at tau0 = pi, eps 0.15, on 41 points of [150, 400]: the phases
    # are taken at turns reduced exactly (k lam mod 1, (1 - 2k) lam mod 2),
    # and these lam, multiples of 1/4, put every turn on a quarter turn,
    # where the phase is exact.  So every row is the 40-digit sum rounded,
    # the worst 9.3e-45 off (the sum's imaginary part); with cos and sin of
    # pi s there it was 1.22e-16, reduced in double by fmod 5e-16, and
    # unreduced the median was 3.9e-14 and the max 1.5e-13
    mpmath = pytest.importorskip("mpmath")
    tau0, eps = 3.141592653589793, 0.15
    win = Window("gaussian", tau0, eps)
    worst = 0.0
    with mpmath.workdps(40):
        e, t = mpmath.mpf(eps), mpmath.mpf(tau0)
        for lam in np.linspace(150.0, 400.0, 41):
            x = mpmath.mpf(lam)
            # d(n) = n // 2 + 1; beyond |lam - n| = 80 the terms are below 1e-28
            terms = [(n // 2 + 1) * mpmath.exp(-((e * (x - n)) ** 2) / 2) * mpmath.expj(-(x - n) * t)
                     for n in range(int(lam) - 80, int(lam) + 81)]
            ref = complex(e * mpmath.sqrt(2 * mpmath.pi) * mpmath.fsum(terms))
            worst = max(worst, abs(poisson_trace((1, 2), win, float(lam)) - ref) / abs(ref))
    assert worst <= 1e-40
