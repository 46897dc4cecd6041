#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, written as ``BENCH_<n>.json``.

    python3 bench/run_bench.py --parent ../parent --change . --seed0 501 \\
        --note "what the change does" --claim "verify-suite:run_s" --out BENCH_n.json

Run it with the parent commit and the change checked out side by side (for
example with ``git archive``).  For every workload of the change's
``BENCHMARK.json`` it runs ten pairs of

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once from each checkout's root, the side that goes first alternating per
pair; pair i uses seed ``seed0 + i``.  ``perfbench/`` is run as it is in each
checkout.  Per end-to-end metric the summary holds the median and quartiles
(``statistics.quantiles``, exclusive) of each side, the pairs the change won
or tied, and the median's relative worsening against the metric's bound.

Either way the report says ``met`` only if no end-to-end metric is worse in
the median than its bound.  ``--claim W:M`` names a claimed gain besides: the
change must also win at least 9 of the 10 pairs on it, and the medians must
differ by more than the parent's quartile spread.  ``--traced-seed S`` adds one
``--trace 1`` run of verify-suite per side with that seed and records its
per-layer metrics.  ``--tier1 N`` adds N alternating pairs of the tier-1
pytest run (``PYTHONPATH=src python -m pytest -q``) and records wall seconds;
a failing pytest run stops the script.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def perfbench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run; the JSON object on its last line of output."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {done.returncode}:\n{done.stderr}")
    return json.loads(lines[-1])


def tier1_seconds(checkout: Path) -> float:
    """Wall seconds of one tier-1 pytest run, which must pass."""
    env = dict(os.environ, PYTHONPATH="src")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                          cwd=checkout, env=env, capture_output=True, text=True)
    seconds = round(time.perf_counter() - start, 2)
    if done.returncode != 0:
        raise SystemExit(f"tier-1 pytest in {checkout} exited {done.returncode}:\n{done.stdout[-2000:]}")
    return seconds


def pairs(n: int, run) -> dict:
    """n alternating pairs of ``run(side, i)``: the parent goes first in even pairs."""
    out = {"parent": [], "change": []}
    for i in range(n):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            out[side].append(run(side, i))
            print(f"pair {i} {side} done", file=sys.stderr)
    return out


def spread(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": round(statistics.median(values), 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def compare(parent: list, change: list, lower_is_better: bool, bound: float) -> dict:
    sign = 1.0 if lower_is_better else -1.0
    gaps = [sign * (c - p) for p, c in zip(parent, change)]  # > 0: the change is worse
    p_med, c_med = statistics.median(parent), statistics.median(change)
    return {
        "parent": spread(parent),
        "change": spread(change),
        "change_wins": sum(g < 0 for g in gaps),
        "ties": sum(g == 0 for g in gaps),
        "pairs": len(gaps),
        "relative_worsening": round(sign * (c_med - p_med) / abs(p_med), 4) if p_med else 0.0,
        "bound": bound,
    }


def claim_result(workloads: dict, claim: str | None) -> str:
    """``met`` when no metric is worse than its bound and a claimed gain holds."""
    worst = max(((row["relative_worsening"] / row["bound"], f"{name} {metric}")
                 for name, rows in workloads.items() for metric, row in rows.items()
                 if isinstance(row, dict) and "bound" in row), default=(0.0, "none"))
    met = worst[0] <= 1.0
    text = f"the largest median worsening is {100 * worst[0]:.0f}% of its metric's bound ({worst[1]})"
    if claim:
        name, metric = claim.split(":")
        row = workloads[name][metric]
        wins, p, c = row["change_wins"], row["parent"], row["change"]
        gap, iqr = abs(c["median"] - p["median"]), p["q3"] - p["q1"]
        met = met and wins >= 9 and gap > iqr and row["relative_worsening"] < 0
        text = (f"{name} {metric} {p['median']} -> {c['median']} "
                f"({-100 * row['relative_worsening']:+.1f}% better), {wins} of {PAIRS} pairs, "
                f"median gap {gap:.4g} against a parent quartile spread of {iqr:.4g}; {text}")
    return f"{'met' if met else 'not met'}: {text}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, default=ROOT, help="checkout of the change")
    parser.add_argument("--seed0", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--note", default="", help="one line on what the change does")
    parser.add_argument("--claim", help="WORKLOAD:METRIC of a claimed gain")
    parser.add_argument("--traced-seed", type=int, help="seed of one traced verify-suite run per side")
    parser.add_argument("--tier1", type=int, default=0, help="alternating pairs of tier-1 pytest runs")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = f"{args.seed0}-{args.seed0 + PAIRS - 1}"
    report = {
        "change": args.note,
        "host": f"{os.cpu_count()}-core {platform.machine()}; Python {platform.python_version()}",
        "protocol": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0, "
                    f"run from a copy of the parent commit and of the change; {PAIRS} pairs per "
                    f"workload, seeds {seeds}, the side that runs first alternating per pair "
                    "(bench/run_bench.py)",
        "claim": (f"{args.claim} improves: the change wins >= 9 of 10 pairs and the medians differ by "
                  "more than the parent's quartile spread; no other end-to-end metric worse than its "
                  "bound" if args.claim else
                  "none: no end-to-end metric worse than the parent by more than its bound on any workload"),
        "workloads": {},
    }
    for name in (w["name"] for w in spec["workloads"]):
        runs = pairs(PAIRS, lambda side, i: perfbench(
            checkouts[side], name, args.seed0 + i, seconds, 0))
        rows = {}
        for metric in spec["end_to_end"]:
            key = metric["name"]
            values = {side: [r["metrics"][key]["value"] for r in runs[side]] for side in runs}
            rows[key] = compare(values["parent"], values["change"], metric["better"] == "lower",
                                metric["bound"])
        rows["failed_over_attempted"] = {
            side: f"{sum(r['failed'] for r in runs[side])}/{sum(r['attempted'] for r in runs[side])}"
            for side in runs}
        rows["run_s_by_pair"] = {
            side: [round(r["metrics"]["run_s"]["value"], 4) for r in runs[side]] for side in runs}
        report["workloads"][name] = rows
    report["claim_result"] = claim_result(report["workloads"], args.claim)
    if args.traced_seed is not None:
        traced = {side: perfbench(checkouts[side], "verify-suite", args.traced_seed, seconds, 1)
                  for side in checkouts}
        report["traced_verify_suite"] = {
            "protocol": f"one --trace 1 run per side, seed {args.traced_seed}, {seconds:g} s; "
                        "per-layer self seconds and calls, median over the traced passes of the run",
            "per_layer": {key: {side: round(traced[side]["metrics"][key]["value"], 4)
                                for side in traced}
                          for key in traced["change"]["metrics"]},
        }
    if args.tier1:
        walls = pairs(args.tier1, lambda side, i: tier1_seconds(checkouts[side]))
        report["tier1_wall_s"] = {"by_pair": walls,
                                  **{side: statistics.median(v) for side, v in walls.items()}}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(report["claim_result"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
