#!/usr/bin/env python3
"""Compare the artifacts of two checkouts row by row, against the parent's budgets.

    python3 bench/compare_rows.py --parent ../parent --change .

Runs a fixed list of ``tracelab`` invocations in both checkouts (each with
its own ``src`` on the path, in a fresh interpreter):

- the CLI arguments of perfbench's trace-scan and kernel-scan workloads for
  seeds 1-3 (built by the change's ``perfbench/run.py``);
- the general-weight trace, kernel and parity commands of the CI workflow;
- two (1,503) traces, whose 503 poles carry nontrivial Laurent coefficients;
- ``verify --seed 5``.

Per artifact (``<kind>.csv`` with its ``<kind>.json``, and
``verify_manifest.json``) it prints "byte-identical" or what moved:

- for a scan, the largest |change - parent| / (parent remainder + parent
  rounding bound) over its rows (the ``exact`` column, and a parity scan's
  even part in the prediction column, against the JSON's
  ``window_cut_remainders`` and ``rounding_bounds``), how many rows' budgets
  of each kind got tighter or looser than the parent's (a report only), and
  every row whose ``precision`` label moved;
- for verify, every measured number that moved and every criterion whose
  verdict moved.

It exits 1 if a ratio passes 1, a precision label or verdict moved, or
another column (grid, prediction) or the row count changed; else 0.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 2, 3)
TAU_THIRD = "2.0943951023931953"
CI_COMMANDS = [
    ("ci-trace-1112", ["trace", "--weights", "1,1,1,2", "--shape", "gaussian", "--tau0",
                       "3.141592653589793", "--eps", "0.15", "--lambda-grid", "1000:100000:4"]),
    ("ci-trace-1111", ["trace", "--weights", "1,1,1,1", "--shape", "gaussian", "--tau0",
                       "3.141592653589793", "--eps", "0.15", "--lambda-grid", "20:44:7"]),
    ("ci-trace-2357", ["trace", "--weights", "2,3,5,7", "--shape", "gaussian", "--tau0",
                       "1.2566370614359172", "--eps", "0.04", "--lambda-grid", "1e9:1.00000001e9:2"]),
    ("ci-trace-lcm", ["trace", "--weights", "11,13,17,19", "--shape", "gaussian", "--tau0", "0",
                      "--eps", "0.04", "--lambda-grid", "1000:2000:3"]),
    # 503 poles: the nontrivial Laurent coefficients, at tau0 = 0 and at the period 2 pi 251/503
    ("trace-1-503", ["trace", "--weights", "1,503", "--shape", "gaussian", "--tau0", "0",
                     "--eps", "0.001", "--lambda-grid", "1e6:2e6:3"]),
    ("trace-1-503-period", ["trace", "--weights", "1,503", "--shape", "gaussian", "--tau0",
                            "3.135346942548859", "--eps", "0.001", "--lambda-grid", "1e6:2e6:3"]),
    ("ci-local-12", ["local", "--weights", "1,2", "--shape", "gaussian", "--tau0",
                     "3.141592653589793", "--eps", "0.15", "--lambda-grid", "1e6:2e6:3"]),
    ("ci-offlocus-13", ["offlocus", "--weights", "1,3", "--shape", "gaussian", "--tau0", TAU_THIRD,
                        "--eps", "0.1", "--lambda-grid", "100:300:5", "--C", "1.3"]),
    ("ci-local-13", ["local", "--weights", "1,3", "--shape", "gaussian", "--tau0", TAU_THIRD,
                     "--eps", "0.1", "--lambda-grid", "1e6:2e6:3"]),
    ("ci-local-123", ["local", "--weights", "1,2,3", "--shape", "gaussian", "--tau0", TAU_THIRD,
                      "--eps", "0.1", "--lambda-grid", "1e6:2e6:3"]),
    ("ci-parity-112", ["parity", "--weights", "1,1,2", "--shape", "gaussian", "--tau0",
                       "3.141592653589793", "--eps", "0.15", "--lambda-grid", "100:400:4",
                       "--u", "0.5,0.25"]),
]


def invocations(change: Path) -> list:
    """(label, argv) of every run, perfbench's from the change's ``run.py``."""
    sys.path.insert(0, str(change / "perfbench"))
    import run  # noqa: PLC0415 (perfbench/run.py, importable only from its folder)

    out = []
    for seed in SEEDS:
        for plan in (run.trace_scan, run.kernel_scan):
            out += [(f"{inv.label}-s{seed}", [inv.kind, *inv.args])
                    for inv in plan(random.Random(seed))]
    return out + CI_COMMANDS + [("verify-5", ["verify", "--seed", "5"])]


def run_all(checkout: Path, runs: list, out: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    for label, argv in runs:
        cmd = [sys.executable, "-m", "tracelab.cli", *argv, "--out", str(out / label)]
        done = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if done.returncode not in (0, 1):
            raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {done.returncode}:\n{done.stderr}")


def compare_scan(old: Path, new: Path, kind: str) -> tuple[str, bool]:
    """The verdict on one run's artifacts (all but its manifest, which holds
    timings and paths), and whether it fails."""
    names = [sorted(p.name for p in d.iterdir() if p.name != "manifest.json") for d in (old, new)]
    if names[0] == names[1] and all((old / n).read_bytes() == (new / n).read_bytes()
                                    for n in names[0]):
        return "byte-identical", False
    rows = [list(csv.DictReader(open(d / f"{kind}.csv"))) for d in (old, new)]
    if names[0] != names[1] or "exact_re" not in rows[0][0]:
        return f"artifacts moved: {names[0]} -> {names[1]}", True
    metas = [json.load(open(d / f"{kind}.json"))["meta"] for d in (old, new)]
    if len(rows[0]) != len(rows[1]):
        return f"row count moved {len(rows[0])} -> {len(rows[1])}", True
    # a parity scan's prediction column is its even part, summed like the odd one
    summed = ("exact", "pred") if kind == "parity" else ("exact",)
    fixed = ["grid"] + [f"pred_{part}" for part in ("re", "im") if kind != "parity"]
    worst, others = 0.0, []
    for i, (a, b) in enumerate(zip(*rows)):
        if any(a[c] != b[c] for c in fixed):
            others.append(i)
        budget = metas[0]["window_cut_remainders"][i] + metas[0]["rounding_bounds"][i]
        for col in summed:
            moved = abs(complex(float(b[f"{col}_re"]), float(b[f"{col}_im"]))
                        - complex(float(a[f"{col}_re"]), float(a[f"{col}_im"])))
            if moved:
                worst = max(worst, moved / budget if budget else float("inf"))
    labels = [f"row {i}: {a} -> {b}" for i, (a, b)
              in enumerate(zip(metas[0]["precision"], metas[1]["precision"])) if a != b]
    text = f"worst |change - parent| / (remainder + bound) = {worst:.3g}"
    for key in ("window_cut_remainders", "rounding_bounds"):
        pairs = list(zip(metas[0][key], metas[1][key]))
        tighter, looser = sum(b < a for a, b in pairs), sum(b > a for a, b in pairs)
        text += f"; {key} tighter on {tighter}, looser on {looser} of {len(pairs)}"
    text += "".join(f"; precision {x}" for x in labels)
    text += f"; grid or prediction moved on rows {others}" if others else ""
    return text, worst > 1.0 or bool(labels or others)


def compare_verify(old: Path, new: Path) -> tuple[str, bool]:
    """The verdict on ``verify_manifest.json``: moved numbers and verdicts
    (timings are not compared; NaN matches NaN)."""
    name = "verify_manifest.json"
    crits = [json.load(open(d / name))["criteria"] for d in (old, new)]
    moved, verdicts = [], []
    for a, b in zip(*crits):
        if a["passed"] != b["passed"]:
            verdicts.append(f"criterion {a['index']} passed {a['passed']} -> {b['passed']}")
        moved += [f"{a['index']}:{key} {value!r} -> {b['measured'].get(key)!r}"
                  for key, value in a["measured"].items()
                  if key != "runtime_s" and repr(b["measured"].get(key)) != repr(value)]
    if not (moved or verdicts):
        return "identical but for timings", False
    return "; ".join(verdicts + moved), bool(verdicts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    args = parser.parse_args(argv)
    runs = invocations(args.change.resolve())
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        sides = {side: Path(tmp) / side for side in ("parent", "change")}
        run_all(args.parent.resolve(), runs, sides["parent"])
        run_all(args.change.resolve(), runs, sides["change"])
        for label, argv in runs:
            old, new = sides["parent"] / label, sides["change"] / label
            if argv[0] == "verify":
                verdict, bad = compare_verify(old, new)
            else:
                verdict, bad = compare_scan(old, new, argv[0])
            failed |= bad
            print(f"{label:22s} {verdict}")
    print("FAIL" if failed else "ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
