"""Self-tests of the benchmark: references, the gate and the span wrapper.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from tracelab.geometry import heisenberg_chart, make_model  # noqa: E402
from tracelab.reports import ScanReport  # noqa: E402
from tracelab.smoothing import smoothed_kernel_diagonal  # noqa: E402
from tracelab.spectral import eigendata  # noqa: E402
from tracelab.windows import Window  # noqa: E402

PI = float(run.PI)
EPS = float(run.EPS)


def test_generating_function_matches_kernel_diagonal_within_tail_bound():
    # lambda close enough to the k_max = 80 coverage edge that the certified
    # tail bound is not negligible
    model = make_model((1, 2))
    pkg = eigendata(model, 80)
    win = Window("gaussian", PI, EPS)
    chart = heisenberg_chart(model, np.array([0.0, 1.0], dtype=complex), PI)
    lam, u = 26.0, 0.5
    point = chart.normal_point(np.array([u / np.sqrt(lam)], dtype=complex))
    values, bound = smoothed_kernel_diagonal(pkg, win, lam, point[None, :])
    ref = reference.gf_diagonal((1, 2), reference.normal_moments([u], lam), lam, PI, EPS)
    assert bound > 1e-14
    # rounding of a double sum of ~3000 terms of size <= |ref| adds 1e-13 relative
    assert abs(values[0] - ref) <= bound + 1e-13 * abs(ref)


def test_spectrum_reference_matches_enumeration():
    from tracelab.oracles import brute_spectrum

    rows = reference.truncated_multiplicities_12(12)
    assert [(v, m) for v, m in rows] == [(v, float(m)) for v, m in brute_spectrum((1, 2), 12)]


def _trace_csv(tmp_path, grid, values) -> Path:
    path = tmp_path / "trace.csv"
    ScanReport("trace", grid, values, np.pi * grid).to_csv(path)
    return path


def test_gate_accepts_reference_rows_and_rejects_a_perturbed_row(tmp_path):
    grid = np.linspace(150.0, 160.0, 5)
    ref = reference.poisson_traces(0.0, EPS, grid)
    good = reference.gate_scan(_trace_csv(tmp_path, grid, ref), "trace", grid, ref)
    assert good.ok and good.min_digits >= 15
    bad_values = ref.copy()
    bad_values[2] *= 1.0 + 1e-9
    bad = reference.gate_scan(_trace_csv(tmp_path, grid, bad_values), "trace", grid, ref)
    assert not bad.ok and bad.min_digits < reference.FLOORS["trace"]
    shifted = reference.gate_scan(_trace_csv(tmp_path, grid + 1e-9, ref), "trace", grid, ref)
    assert not shifted.ok


def test_gate_rejects_nonzero_odd_part(tmp_path):
    grid = np.array([100.0, 200.0])
    even = np.array([3.0 + 1.0j, 5.0 - 2.0j])
    path = tmp_path / "parity.csv"
    ScanReport("parity", grid, np.array([0.0, 1e-6]), even).to_csv(path)
    assert not reference.gate_scan(path, "parity", grid, even).ok
    ScanReport("parity", grid, np.zeros(2), even).to_csv(path)
    assert reference.gate_scan(path, "parity", grid, even).ok


def _manifest(tmp_path, red) -> Path:
    measured = {key: 1e-13 for _, key in reference.VERIFY_ORACLE_KEYS}
    crit = [{"index": i, "passed": i not in red, "measured": measured} for i in range(1, 12)]
    path = tmp_path / "verify_manifest.json"
    path.write_text(json.dumps({"criteria": crit}))
    return path


def test_verify_gate_wants_exactly_criterion_8_red(tmp_path):
    assert reference.gate_verify(_manifest(tmp_path, {8}), 1).ok
    assert reference.gate_verify(_manifest(tmp_path, {8}), 1).min_digits == pytest.approx(13.0)
    assert not reference.gate_verify(_manifest(tmp_path, {8}), 0).ok
    assert not reference.gate_verify(_manifest(tmp_path, {7, 8}), 1).ok
    assert not reference.gate_verify(_manifest(tmp_path, set()), 1).ok


def test_span_wrapper_returns_result_and_records_self_time():
    tracer = spans.Tracer()
    marker = object()
    inner = tracer.wrap("inner", lambda: marker, lambda a, k, r: {"n": 3})
    outer = tracer.wrap("outer", lambda x: (inner(), x))
    assert outer(7) == (marker, 7)
    assert [s[0] for s in tracer.spans] == ["outer", "inner"]
    assert tracer.spans[1][3] == 0 and tracer.spans[0][3] == -1
    times = spans.self_times([tracer.spans])
    total = tracer.spans[0][2] - tracer.spans[0][1]
    assert times["outer"]["s"] + times["inner"]["s"] == pytest.approx(total)
    assert times["inner"]["work"]["n"] == 3


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _ in spans.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [unit for _, unit in spans.PER_LAYER]
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "run_s", "peak_rss_mb", "pass_ratio", "min_digits"
    }
