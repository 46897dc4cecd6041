"""Layer spans for a traced tracelab invocation, and the per-layer metrics.

`Tracer.install` wraps public functions of tracelab's modules.  Each wrapped
call records a span (name, start, end, parent span, work counts) in memory;
`Tracer.dump` writes them as JSON when the invocation ends.  A wrapper is
installed in the defining module or class and in every tracelab module that
re-binds the name (``from .x import y``), including tuples of function
references such as ``verify.CRITERIA``.

`layer_metrics` turns the spans of one workload pass into the
per-layer metrics: self time (a span's duration minus the part covered by
its child spans) per layer name, call counts and work counts.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

MODULES = (
    "tracelab",
    "tracelab.asymptotics",
    "tracelab.cli",
    "tracelab.geometry",
    "tracelab.harness",
    "tracelab.oracles",
    "tracelab.quadrature",
    "tracelab.reports",
    "tracelab.smoothing",
    "tracelab.spectral",
    "tracelab.verify",
    "tracelab.windows",
)


def _size(path) -> int:
    return os.path.getsize(path)


# (layer name, defining module, attribute path, work counter or None); a
# counter maps (args, kwargs, result) to {work key: amount}
TARGETS = [
    ("geometry.calibrate", "tracelab.geometry", "calibrate", None),
    ("spectral.eigendata", "tracelab.spectral", "eigendata",
     lambda a, k, r: {"eigenvalues": int(r.lambda_all.size)}),
    ("spectral.package_save", "tracelab.spectral", "SpectralPackage.save",
     lambda a, k, r: {"bytes": _size(a[1])}),
    ("spectral.package_load", "tracelab.spectral", "SpectralPackage.load",
     lambda a, k, r: {"bytes": _size(a[0])}),
    ("spectral.toeplitz_matrix", "tracelab.spectral", "toeplitz_matrix", None),
    ("quadrature.sphere_rule", "tracelab.quadrature", "sphere_rule",
     lambda a, k, r: {"nodes": int(r[0].shape[0])}),
    ("smoothing.smoothed_trace", "tracelab.smoothing", "smoothed_trace",
     lambda a, k, r: {"terms": int(r.n_eigenvalues)}),
    ("smoothing.spectral_tail_bound", "tracelab.smoothing", "spectral_tail_bound", None),
    ("smoothing.smoothed_kernel_diagonal", "tracelab.smoothing", "smoothed_kernel_diagonal", None),
    ("smoothing.scaled_diagonal_scan", "tracelab.smoothing", "scaled_diagonal_scan", None),
    ("smoothing.offlocus_decay_scan", "tracelab.smoothing", "offlocus_decay_scan", None),
    ("smoothing.parity_split", "tracelab.smoothing", "parity_split", None),
    ("windows.fourier", "tracelab.windows", "Window.fourier",
     lambda a, k, r: {"evals": int(getattr(r, "size", 1))}),
    ("windows.fourier_envelope", "tracelab.windows", "Window.fourier_envelope", None),
    ("asymptotics.predict", "tracelab.asymptotics", "local_prediction", None),
    ("asymptotics.predict", "tracelab.asymptotics", "predict_local", None),
    ("asymptotics.predict", "tracelab.asymptotics", "predict_global_component", None),
    ("asymptotics.predict", "tracelab.asymptotics", "component_f_integral", None),
    ("asymptotics.gaussian_normal_integral", "tracelab.asymptotics", "gaussian_normal_integral", None),
    ("asymptotics.fit_expansion", "tracelab.asymptotics", "fit_expansion", None),
    ("oracles.poisson_trace", "tracelab.oracles", "poisson_trace", None),
    ("reports.write", "tracelab.reports", "ScanReport.to_csv",
     lambda a, k, r: {"bytes": _size(a[1])}),
    ("reports.write", "tracelab.reports", "ScanReport.to_json",
     lambda a, k, r: {"bytes": _size(a[1])}),
    ("harness.config", "tracelab.harness", "ExperimentConfig.from_dict", None),
    ("harness.obtain_package", "tracelab.harness", "obtain_package",
     lambda a, k, r: {"hits": int(r[1] == "cache")}),
] + [
    (f"verify.crit_{i:02d}", "tracelab.verify", name, None)
    for i, name in enumerate(
        (
            "crit_01_spectral_structure",
            "crit_02_normalization_anchors",
            "crit_03_negative_lambda",
            "crit_04_global_trace_trivial_period",
            "crit_05_global_trace_pi_period",
            "crit_06_local_scaling",
            "crit_07_offlocus_decay",
            "crit_08_parity",
            "crit_09_gaussian_integral",
            "crit_10_stationary_phase",
            "crit_11_local_global_consistency",
        ),
        start=1,
    )
]

# per-layer metrics reported by the benchmark: (name, unit)
PER_LAYER = (
    [("geometry.calibrate.s", "s"), ("geometry.calibrate.calls", "count"),
     ("spectral.eigendata.s", "s"), ("spectral.eigendata.calls", "count"),
     ("spectral.eigendata.eigenvalues", "count"),
     ("spectral.package_save.s", "s"), ("spectral.package_load.s", "s"),
     ("spectral.package_bytes", "bytes"), ("harness.cache_hit_ratio", "1"),
     ("smoothing.smoothed_trace.s", "s"), ("smoothing.smoothed_trace.terms", "count"),
     ("windows.fourier.s", "s"), ("windows.fourier.evals", "count"),
     ("smoothing.spectral_tail_bound.s", "s"), ("smoothing.spectral_tail_bound.calls", "count"),
     ("windows.fourier_envelope.calls", "count"),
     ("smoothing.scaled_diagonal_scan.s", "s"), ("smoothing.offlocus_decay_scan.s", "s"),
     ("smoothing.parity_split.s", "s"), ("smoothing.smoothed_kernel_diagonal.s", "s"),
     ("spectral.toeplitz_matrix.s", "s"), ("spectral.toeplitz_matrix.calls", "count"),
     ("quadrature.sphere_rule.s", "s"), ("quadrature.sphere_rule.nodes", "count"),
     ("asymptotics.gaussian_normal_integral.s", "s"), ("asymptotics.predict.s", "s"),
     ("asymptotics.fit_expansion.s", "s"), ("oracles.poisson_trace.s", "s"),
     ("reports.write.s", "s"), ("reports.write.bytes", "bytes"),
     ("harness.config.s", "s"), ("harness.obtain_package.s", "s")]
    + [(f"verify.crit_{i:02d}.s", "s") for i in range(1, 12)]
    + [("tracing.overhead_s", "s")]
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if counter is not None:
                spans[idx][4] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for name, modname, attr, counter in TARGETS:
            owner = importlib.import_module(modname)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            if isinstance(owner, type):
                raw = owner.__dict__[leaf]
                if isinstance(raw, (staticmethod, classmethod)):
                    setattr(owner, leaf, type(raw)(self.wrap(name, raw.__func__, counter)))
                else:
                    setattr(owner, leaf, self.wrap(name, raw, counter))
                continue
            original = getattr(owner, leaf)
            traced = self.wrap(name, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
                    elif isinstance(value, tuple) and any(v is original for v in value):
                        setattr(mod, key, tuple(traced if v is original else v for v in value))

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


def self_times(span_lists) -> dict:
    """Per-name self seconds, calls and summed work counts over span lists."""
    out: dict = defaultdict(lambda: {"s": 0.0, "calls": 0, "work": defaultdict(int)})
    for spans in span_lists:
        covered = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _, work), inner in zip(spans, covered):
            entry = out[name]
            entry["s"] += (end - start) - inner
            entry["calls"] += 1
            for key, amount in (work or {}).items():
                entry["work"][key] += amount
    return out


def layer_metrics(span_lists) -> dict:
    """Per-layer metric values for one pass (all its invocations).

    The tracing overhead is not a span figure; the caller supplies it.
    """
    agg = self_times(span_lists)
    obtain = agg["harness.obtain_package"]
    values = {
        "harness.cache_hit_ratio": obtain["work"]["hits"] / obtain["calls"] if obtain["calls"] else 0.0,
        "spectral.package_bytes": agg["spectral.package_save"]["work"]["bytes"]
        + agg["spectral.package_load"]["work"]["bytes"],
    }
    for metric, _ in PER_LAYER:
        if metric in values or metric == "tracing.overhead_s":
            continue
        layer, _, field = metric.rpartition(".")
        entry = agg[layer]
        if field == "s":
            values[metric] = entry["s"]
        elif field == "calls":
            values[metric] = entry["calls"]
        else:
            values[metric] = entry["work"][field]
    return values


def main(argv) -> int:
    """Run ``tracelab.cli`` on argv with spans written to $PERFBENCH_SPANS."""
    tracer = Tracer()
    tracer.install()
    cli = sys.modules["tracelab.cli"]
    try:
        return cli.main(argv)
    finally:
        tracer.dump(os.environ["PERFBENCH_SPANS"])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
