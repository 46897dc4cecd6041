#!/usr/bin/env python3
"""Per-criterion timings of ``tracelab verify`` in two checkouts, from fresh processes.

    python3 bench/verify_criteria.py --parent ../parent --change . -n 20 [--seed 5]

Run it with the parent commit and the change checked out side by side (for
example with ``git archive``).  Each of the n pairs runs

    python -m tracelab.cli verify --seed S --out <temporary directory>

once in each checkout, with ``PYTHONPATH=<checkout>/src``, the side that goes
first alternating per pair.  Both source trees are byte-compiled first, as
``perfbench/run.py`` does, so that neither side pays for compiling.  The
table printed (Markdown) holds the process wall time and each criterion's
``seconds`` from ``verify_manifest.json``: the median over the n runs of
each side and the change's difference.  Verify exits 1 (criterion 8 is a
strict expected failure); any other exit code stops the script.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def run_verify(checkout: Path, seed: int) -> list[float]:
    """Wall seconds of one verify process, then each criterion's own seconds."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    with tempfile.TemporaryDirectory() as out:
        cmd = [sys.executable, "-m", "tracelab.cli", "verify", "--seed", str(seed), "--out", out]
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
        wall = time.perf_counter() - start
        if done.returncode != 1:
            raise SystemExit(f"verify in {checkout} exited {done.returncode}:\n{done.stderr}")
        manifest = json.loads((Path(out) / "verify_manifest.json").read_text())
    return [wall] + [c["seconds"] for c in manifest["criteria"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("-n", type=int, default=20, help="pairs of verify processes")
    parser.add_argument("--seed", type=int, default=5, help="seed of every verify run")
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for checkout in checkouts.values():
        compileall.compile_dir(str(checkout / "src" / "tracelab"), quiet=1)
    runs = {"parent": [], "change": []}
    for i in range(args.n):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs[side].append(run_verify(checkouts[side], args.seed))
    medians = {side: [statistics.median(col) for col in zip(*rows)] for side, rows in runs.items()}
    names = ["process wall"] + [f"criterion {i}" for i in range(1, len(medians["parent"]))]
    print(f"verify --seed {args.seed}, {args.n} alternating pairs of fresh processes; median ms")
    print()
    print("| | parent | change | change - parent |")
    print("|---|---:|---:|---:|")
    for name, p, c in zip(names, medians["parent"], medians["change"]):
        print(f"| {name} | {1e3 * p:.1f} | {1e3 * c:.1f} | {1e3 * (c - p):+.1f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
