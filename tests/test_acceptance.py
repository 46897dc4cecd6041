"""Acceptance suite: one test per numbered criterion, at the stated tolerances.

Each test prints the criterion's one-line pass/fail summary (visible with
``pytest -v -s`` and in the failure report) and asserts it passed.

Criterion 8 is marked as an expected failure: its slope clause cannot hold on
weighted projective models.  The time-tau0 flow element itself fixes the
chart center, commutes with the smoothed kernel, and acts as -1 on the
normal directions, so the diagonal is exactly even in the displacement and
the odd part is identically zero — there is no odd/even ratio to fit a slope
to.  The u = 0 vanishing clause does hold and is asserted separately below.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tracelab import verify
from tracelab.asymptotics import local_prediction, predict_local, unitary_eigenbasis
from tracelab.harness import _default_chart
from tracelab.quadrature import gaussian_line_rule, sphere_rule
from tracelab.windows import Window

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def shared():
    return verify._Shared(seed=0)


def _check(result):
    print()
    print(result.line())
    assert result.passed, result.line() + ("; " + result.detail if result.detail else "")


def test_criterion_09_asks_for_few_legendre_sizes(shared, monkeypatch):
    from tracelab import quadrature

    sizes = set()
    reference = quadrature._legendre_reference

    def recording(n):
        sizes.add(n)
        return reference(n)

    monkeypatch.setattr(quadrature, "_legendre_reference", recording)
    assert verify.crit_09_gaussian_integral(shared).passed
    assert 0 < len(sizes) <= 5, sorted(sizes)


def test_criterion_01_asks_for_one_legendre_size(shared, monkeypatch):
    """Every degree block is assembled over the k = 60 rule: one simplex rule, one size."""
    from tracelab import quadrature

    sizes = set()
    reference = quadrature._legendre_reference

    def recording(n):
        sizes.add(n)
        return reference(n)

    monkeypatch.setattr(quadrature, "_legendre_reference", recording)
    assert verify.crit_01_spectral_structure(shared).passed
    assert sizes == {33}, sorted(sizes)  # (62 + 1)//2 + 2 nodes on the moment axis


def test_criterion_01_spectral_structure(shared):
    result = verify.crit_01_spectral_structure(shared)
    _check(result)
    # the assembly sums the rule in another order; its rounding stays far below the tolerance
    assert result.measured["off_diag_max"] < 1e-13
    assert result.measured["affine_residual"] < 1e-10
    nodes = len(sphere_rule(1, 62, 62)[1])  # toeplitz_rule(model, 60): 33 moment nodes x 63^2 angles
    assert nodes == 130977
    assert result.detail.endswith(f"; {nodes} field evaluations")


def test_criterion_02_normalization_anchors(shared):
    _check(verify.crit_02_normalization_anchors(shared))


def test_criterion_03_negative_lambda(shared):
    _check(verify.crit_03_negative_lambda(shared))


def test_criterion_04_global_trace_trivial_period(shared):
    _check(verify.crit_04_global_trace_trivial_period(shared))


def test_criterion_05_global_trace_pi_period(shared):
    _check(verify.crit_05_global_trace_pi_period(shared))


def test_criterion_06_local_scaling(shared):
    _check(verify.crit_06_local_scaling(shared))


def test_criterion_07_offlocus_decay(shared):
    _check(verify.crit_07_offlocus_decay(shared))


def test_criterion_07_rows_are_resolved(shared):
    # its rows are in closed form: each rounding bound is a small fraction of
    # its value (0.63 when the fixed-distance row, kappa ~ 1e33, was a
    # decimal eigen-sum)
    assert verify.crit_07_offlocus_decay(shared).measured["rounding_rel_max"] < 1e-10


@pytest.mark.xfail(
    strict=True,
    reason="odd part is identically zero on torus-symmetric models; "
    "the odd/even slope clause has nothing to fit (see module docstring)",
)
def test_criterion_08_parity(shared):
    _check(verify.crit_08_parity(shared))


def test_criterion_08_parity_vanishing_clause(shared):
    """The attainable half of criterion 8: odd part vanishes at u = 0 exactly,
    and in fact for every displacement on these models."""
    res = verify.crit_08_parity(shared)
    print()
    print(res.line())
    assert res.measured["odd_at_0"] == 0.0
    assert res.measured["max_odd_over_even"] == 0.0


def test_criterion_09_gaussian_integral(shared):
    res = verify.crit_09_gaussian_integral(shared)
    _check(res)
    # exactly the keys perfbench/reference.py gates on
    assert sorted(res.measured) == ["rel_c1", "rel_c2", "rel_c3", "rel_c4"]


def test_criterion_10_stationary_phase(shared):
    _check(verify.crit_10_stationary_phase(shared))


def test_criterion_11_local_global_consistency(shared):
    _check(verify.crit_11_local_global_consistency(shared))


def _slice_integral_one_shot(pred, lam):
    """`verify._slice_integral` with each line's whole n*n grid in one
    predict_local call, summed against w along rows and then columns."""
    c = pred.normal_dim
    base = complex(predict_local(pred, np.zeros(c, dtype=complex), lam))
    eigs, U = unitary_eigenbasis(pred.normal_map)
    total = base
    f = pred.f_center
    for j in range(c):
        mu = complex(eigs[j])
        x, w = gaussian_line_rule((1.0 - mu.real) / f, abs(mu.imag) / f)
        V = (x[:, None] + 1j * x[None, :]).ravel()
        vals = predict_local(pred, np.outer(V, U[:, j]), lam) / base
        total *= complex(vals.reshape(w.size, w.size).dot(w).dot(w))
    return total


@pytest.mark.parametrize("rows", [5, verify._SLICE_ROWS])
@pytest.mark.parametrize("which", ["model", "model112"])
def test_row_blocked_slice_integral_matches_the_one_shot_grid(shared, monkeypatch, which, rows):
    """Criterion 11's row blocks (a ragged last block too) sum the same grid."""
    model = getattr(shared, which)
    win = Window("gaussian", np.pi, verify.SIGMA)
    pred = local_prediction(model, _default_chart(model, np.pi, None), win)
    assert pred.normal_dim > 0
    monkeypatch.setattr(verify, "_SLICE_ROWS", rows)
    got = verify._slice_integral(pred, 300.5)
    ref = _slice_integral_one_shot(pred, 300.5)
    assert abs(got - ref) <= 1e-15 * abs(ref)


def test_manifest_and_exit_code(tmp_path, monkeypatch):
    """The aggregate runner reports 10/11 and a nonzero exit code honestly.

    It builds each of its two models once.
    """
    built = []
    make_model = verify.make_model
    monkeypatch.setattr(
        verify, "make_model", lambda weights: built.append(weights) or make_model(weights)
    )
    results, manifest, code = verify.run_all(out_dir=tmp_path, echo=lambda s: None)
    assert built == [(1, 2), (1, 1, 2)]
    assert manifest["n_passed"] == 10
    assert code == 1
    failed = [c for c in manifest["criteria"] if not c["passed"]]
    assert len(failed) == 1 and failed[0]["index"] == 8
    assert (tmp_path / "verify_manifest.json").exists()


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_verify_survives_a_closed_stdout(tmp_path, unbuffered):
    """``tracelab verify --out DIR | head -1``: once the reader has quit, the
    run still finishes every criterion, writes its manifest and exits 1,
    with no traceback, not even from the interpreter's flush at exit."""
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first line
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "tracelab.cli", "verify", "--seed", "5", "--out", str(tmp_path)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=300,
            env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED=unbuffered),
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr, proc.stderr
    manifest = json.loads((tmp_path / "verify_manifest.json").read_text())
    assert len(manifest["criteria"]) == 11
    assert [c["index"] for c in manifest["criteria"] if not c["passed"]] == [8]


def test_criterion_10_caps_inadmissible_draws(shared, monkeypatch):
    from tracelab.errors import DegenerateDirectionError

    def degenerate(*args, **kwargs):
        raise DegenerateDirectionError("pairing must be negative")

    monkeypatch.setattr(verify, "stationary_point_check", degenerate)
    res = verify.crit_10_stationary_phase(shared)
    assert not res.passed
    assert "admissible" in res.detail


def test_criterion_10_does_not_mask_errors(shared, monkeypatch):
    def broken(*args, **kwargs):
        raise FloatingPointError("not a degenerate direction")

    monkeypatch.setattr(verify, "stationary_point_check", broken)
    with pytest.raises(FloatingPointError):
        verify.crit_10_stationary_phase(shared)
