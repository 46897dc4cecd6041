#!/usr/bin/env python3
"""tracelab benchmark: time at fixed accuracy for the command-line program.

    python3 perfbench/run.py --workload trace-scan --seed 1 --seconds 24 --trace 0

Run from the repository root.  Each workload is a fixed sequence of
``tracelab`` invocations, run one at a time, each in a fresh interpreter
(``python -m tracelab.cli`` with ``src`` on the path), as a user would: a
closed loop with one client.  The sequence is repeated back to back while
the measured time stays within ``--seconds``.  The seed jitters the lambda
grids and displacements; the program sees only the generated arguments.

Workloads:
  trace-scan    spectrum, trace at tau0 = pi, trace at tau0 = 0 on weights
                (1, 2), k_max 460, sharing one fresh spectral cache
  kernel-scan   local, offlocus (long double) and parity on (1, 2) at k_max
                660, and local on (1, 1, 2) at k_max 120; no cache
  verify-suite  ``tracelab verify --seed S``, S drawn from the workload seed
                (exit code 1 with only criterion 8 red)

After the timed region every artifact row is checked against an independent
reference (see reference.py), and every ``<kind>.csv``/``<kind>.json`` must
be byte-identical across the repetitions of one run.

--trace 0 prints the end-to-end metrics: setup_s (median of three fresh
``import tracelab``), run_s (median wall time of one workload pass),
peak_rss_mb (largest of any invocation), pass_ratio
(invocations with the expected exit code, gated rows and reproduced
artifacts, over those attempted; the JSON's ``failed``/``attempted`` is the
fail ratio) and min_digits (fewest correct digits of any gated row).
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of spans.py together with the tracing overhead.  The last line of
standard output is one JSON object.

Self-tests of the references, the gate and the span wrapper:
``python3 -m pytest -q perfbench/test_perfbench.py``.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import glob
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from reference import (
    Check,
    gate_scan,
    gate_spectrum,
    gate_verify,
    gf_diagonal,
    normal_moments,
    offlocus_moments,
    poisson_traces,
    truncated_multiplicities_12,
)
from spans import PER_LAYER, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

PI = "3.141592653589793"
EPS = "0.15"
# grid sizes: one pass of trace-scan or kernel-scan takes 10-20 s on a
# 2-core x86 host, so a 24 s run makes two passes (one once the host slows a
# pass past 16 s), and 70 runs stay well inside an hour
TRACE_POINTS = 400
KERNEL_POINTS = 10
SETUP_REPEATS = 3
RUN_DEADLINE_S = 160.0


@dataclass
class Invocation:
    label: str
    kind: str
    args: list
    grid: np.ndarray | None = None
    reference: Callable[[], np.ndarray] | None = None  # computes the row references
    expected_exit: int = 0
    cache: bool = False


@dataclass
class Outcome:
    rc: int
    seconds: float
    rss_mb: float
    ok: bool = True
    digits: float | None = None
    message: str = ""


@dataclass
class Iteration:
    where: Path
    traced: bool
    seconds: float
    outcomes: dict = field(default_factory=dict)


# ----------------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------------


def _grid(start: float, stop: float, count: int):
    """CLI text and the grid the program builds from it (np.linspace)."""
    return f"{start!r}:{stop!r}:{count}", np.linspace(start, stop, count)


def trace_scan(rng: random.Random) -> list:
    text, grid = _grid(150.0 + rng.uniform(0.0, 1.0), 400.0 - rng.uniform(0.0, 1.0), TRACE_POINTS)
    model = ["--weights", "1,2", "--kmax", "460"]
    window = ["--shape", "gaussian", "--eps", EPS, "--lambda-grid", text]
    return [
        Invocation("spectrum", "spectrum", model,
                   reference=lambda: truncated_multiplicities_12(460), cache=True),
        Invocation("trace-pi", "trace", model + window + ["--tau0", PI], grid,
                   reference=lambda: poisson_traces(float(PI), float(EPS), grid), cache=True),
        Invocation("trace-0", "trace", model + window + ["--tau0", "0"], grid,
                   reference=lambda: poisson_traces(0.0, float(EPS), grid), cache=True),
    ]


def kernel_scan(rng: random.Random) -> list:
    # the 1e-10 kernel tail bound covers lambda up to about 605 at k_max 660
    # and about 62 for (1, 1, 2) at k_max 120
    text, grid = _grid(75.0 + rng.uniform(0.0, 2.0), 600.0 - rng.uniform(0.0, 1.0), KERNEL_POINTS)
    text3, grid3 = _grid(20.0 + rng.uniform(0.0, 1.0), 60.0 - rng.uniform(0.0, 1.0), KERNEL_POINTS)
    u_local = 0.5 + rng.uniform(-0.05, 0.05)
    u_parity = 0.7 + rng.uniform(-0.05, 0.05)
    u3 = (0.5 + rng.uniform(-0.05, 0.05), 0.25 + rng.uniform(-0.05, 0.05))
    C = 1.3
    tau0, eps = float(PI), float(EPS)
    model = ["--weights", "1,2", "--kmax", "660"]
    window = ["--shape", "gaussian", "--tau0", PI, "--eps", EPS, "--lambda-grid", text]

    def diag(weights, moments, lams):
        return lambda: np.array([gf_diagonal(weights, moments(l), l, tau0, eps) for l in lams])

    return [
        Invocation("local", "local", model + window + ["--u", repr(u_local)], grid,
                   reference=diag((1, 2), lambda l: normal_moments([u_local], l), grid)),
        Invocation("offlocus", "offlocus",
                   model + window + ["--C", repr(C), "--precision", "longdouble"], grid,
                   reference=diag((1, 2), lambda l: offlocus_moments(C, l), grid)),
        Invocation("parity", "parity", model + window + ["--u", repr(u_parity)], grid,
                   reference=diag((1, 2), lambda l: normal_moments([u_parity], l), grid)),
        Invocation("local-112", "local",
                   ["--weights", "1,1,2", "--kmax", "120", "--shape", "gaussian", "--tau0", PI,
                    "--eps", EPS, "--lambda-grid", text3, "--u", f"{u3[0]!r},{u3[1]!r}"], grid3,
                   reference=diag((1, 1, 2), lambda l: normal_moments(u3, l), grid3)),
    ]


def verify_suite(rng: random.Random) -> list:
    return [Invocation("verify", "verify", ["--seed", str(rng.randrange(10**6))], expected_exit=1)]


WORKLOADS = {"trace-scan": trace_scan, "kernel-scan": kernel_scan, "verify-suite": verify_suite}


# ----------------------------------------------------------------------------
# running invocations
# ----------------------------------------------------------------------------


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "TRACELAB_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(cmd, env, log: Path, deadline: float) -> tuple[int, float, float]:
    """Run cmd to completion; return (exit code, wall seconds, peak RSS in MB)."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0


def run_pass(plan, where: Path, traced: bool, env, deadline: float) -> Iteration:
    where.mkdir(parents=True)
    outcomes = {}
    start = time.perf_counter()
    for inv in plan:
        argv = [inv.kind, *inv.args, "--out", str(where / inv.label)]
        if inv.cache:
            argv += ["--cache", str(where / "cache")]
        if traced:
            cmd = [sys.executable, str(HERE / "spans.py"), *argv]
            env = dict(env, PERFBENCH_SPANS=str(where / f"{inv.label}.spans.json"))
        else:
            cmd = [sys.executable, "-m", "tracelab.cli", *argv]
        rc, seconds, rss = spawn(cmd, env, where / f"{inv.label}.log", deadline)
        outcomes[inv.label] = Outcome(rc, seconds, rss)
    return Iteration(where, traced, time.perf_counter() - start, outcomes)


def measure_setup(env, work: Path, deadline: float) -> list:
    compileall.compile_dir(str(SRC / "tracelab"), quiet=1)
    times = []
    for i in range(SETUP_REPEATS):
        rc, seconds, _ = spawn(
            [sys.executable, "-c", "import tracelab"], env, work / f"setup{i}.log", deadline
        )
        if rc != 0:
            raise RuntimeError(f"import tracelab failed (exit {rc}); see {work / f'setup{i}.log'}")
        times.append(seconds)
    return times


# ----------------------------------------------------------------------------
# correctness and artifact identity (outside the timed region)
# ----------------------------------------------------------------------------


def _digests(inv: Invocation, out: Path) -> dict:
    found = {}
    for suffix in (".csv", ".json"):
        path = out / f"{inv.kind}{suffix}"
        if path.exists():
            found[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return found


def check_outputs(plan, iterations) -> None:
    """Gate every invocation of every pass; mark failures on its Outcome."""
    references = {inv.label: inv.reference() for inv in plan if inv.reference is not None}
    first_digests: dict = {}
    for it in iterations:
        for inv in plan:
            res = it.outcomes[inv.label]
            out = it.where / inv.label
            try:
                if inv.kind == "verify":
                    check = gate_verify(out / "verify_manifest.json", res.rc)
                elif res.rc != inv.expected_exit:
                    check = Check(False, None, f"exit code {res.rc}, expected {inv.expected_exit}")
                elif inv.kind == "spectrum":
                    check = gate_spectrum(out / "spectrum.csv", references[inv.label])
                else:
                    check = gate_scan(out / f"{inv.kind}.csv", inv.kind, inv.grid, references[inv.label])
            except (OSError, ValueError, KeyError) as exc:
                check = Check(False, None, f"unreadable artifact: {exc}")
            res.ok, res.digits, res.message = check.ok, check.min_digits, check.message
            if inv.kind != "verify" and res.ok:
                digests = _digests(inv, out)
                expected = first_digests.setdefault(inv.label, digests)
                if digests != expected:
                    res.ok = False
                    res.message = "artifacts differ from the first pass of this run"


# ----------------------------------------------------------------------------
# platform facts and reporting
# ----------------------------------------------------------------------------


def blas_threads():
    """OpenBLAS thread count of the numpy in use, or 'unknown'."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                get = getattr(handle, symbol)
                get.argtypes, get.restype = [], ctypes.c_int
                return get()
    return "unknown"


def platform_facts() -> dict:
    import mpmath
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "longdouble_nmant": int(np.finfo(np.longdouble).nmant),
    }


def describe(values, unit: str) -> str:
    if len(values) < 2:
        return f"{values[0]:.4f} {unit} (1 sample)"
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (f"{med:.4f} {unit} (median of {len(values)}, "
            f"quartiles {q1:.4f}..{q3:.4f})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tracelab" / "cli.py").is_file():
        print(f"perfbench: no tracelab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # a terminated benchmark still kills and reaps the invocation it is waiting on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + RUN_DEADLINE_S

    plan = WORKLOADS[args.workload](random.Random(args.seed))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    env = child_env()
    facts = platform_facts()
    print("platform: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    if facts["longdouble_nmant"] <= np.finfo(np.float64).nmant:
        print("WARNING: long double is plain double here; --precision longdouble "
              "runs in double and off-locus rows lose about 3 digits")

    setup_times = [] if args.trace else measure_setup(env, work, deadline)
    modes = (False, True) if args.trace else (False,)
    iterations: list[Iteration] = []
    while True:
        for traced in modes:
            where = work / f"pass{len(iterations)}"
            iterations.append(run_pass(plan, where, traced, env, deadline))
        elapsed = sum(it.seconds for it in iterations)
        per_round = elapsed / (len(iterations) / len(modes))
        if elapsed + 0.5 * per_round >= args.seconds or time.monotonic() + per_round > deadline:
            break

    check_outputs(plan, iterations)

    for n, it in enumerate(iterations):
        tag = "traced" if it.traced else "untraced"
        print(f"pass {n} ({tag}): {it.seconds:.3f} s")
        for label, res in it.outcomes.items():
            digits = "" if res.digits is None else f"  digits {res.digits:.2f}"
            status = "ok" if res.ok else f"FAILED: {res.message}"
            print(f"  {label:10s} exit {res.rc}  {res.seconds:8.3f} s  {res.rss_mb:7.1f} MB{digits}  {status}")

    outcomes = [res for it in iterations for res in it.outcomes.values()]
    attempted = len(outcomes)
    failed = sum(not res.ok for res in outcomes)
    print(f"fail_ratio = {failed}/{attempted}")
    untraced = [it for it in iterations if not it.traced]
    if args.trace:
        traced = [it for it in iterations if it.traced]
        overhead = (statistics.median(it.seconds for it in traced)
                    - statistics.median(it.seconds for it in untraced))
        per_pass = [
            layer_metrics([json.loads(f.read_text())["spans"] for f in sorted(it.where.glob("*.spans.json"))])
            for it in traced
        ]
        for values in per_pass:
            values["tracing.overhead_s"] = overhead
        metrics = {name: {"value": statistics.median(p[name] for p in per_pass), "unit": unit}
                   for name, unit in PER_LAYER}
        print(f"tracing overhead: {overhead:.4f} s per pass "
              f"({describe([it.seconds for it in traced], 's')} traced vs "
              f"{describe([it.seconds for it in untraced], 's')} untraced)")
    else:
        run_times = [it.seconds for it in untraced]
        digits = [res.digits for res in outcomes if res.digits is not None]
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "run_s": {"value": statistics.median(run_times), "unit": "s"},
            "peak_rss_mb": {"value": max(res.rss_mb for res in outcomes), "unit": "MB"},
            "pass_ratio": {"value": (attempted - failed) / attempted, "unit": "1"},
            "min_digits": {"value": min(digits) if digits else 0.0, "unit": "digits"},
        }
        print(f"setup_s = {describe(setup_times, 's')}")
        print(f"run_s = {describe(run_times, 's')}")
    for name, m in metrics.items():
        if name not in ("setup_s", "run_s"):
            print(f"{name} = {m['value']} {m['unit']}")
    if failed == 0:
        shutil.rmtree(work)  # kept otherwise: logs and artifacts of the failure
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
