"""The package, its scan kinds and the verify suite load no scipy submodule.

scipy stays on demand: only the bump window's spline table imports it.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = ("integrate", "linalg", "special", "interpolate", "stats", "optimize")

SCRIPT = """
import sys
import tracelab
import tracelab.cli

out = sys.argv[1]
window = ["--shape", "gaussian", "--tau0", "3.141592653589793", "--eps", "0.15",
          "--lambda-grid", "20:40:5"]
assert tracelab.cli.main(["trace", "--weights", "1,2", "--kmax", "120", *window,
                          "--out", out + "/trace"]) == 0
assert tracelab.cli.main(["offlocus", "--weights", "1,2", "--kmax", "120", *window,
                          "--precision", "longdouble", "--out", out + "/offlocus"]) == 0
heavy = {"scipy." + name for name in %r}
print(sorted(name for name in sys.modules if ".".join(name.split(".")[:2]) in heavy))
"""


CRIT09_SCRIPT = """
import sys
from tracelab import verify

assert verify.crit_09_gaussian_integral(verify._Shared(seed=5)).passed
print(sorted(name for name in sys.modules if name.split(".")[:2] == ["scipy", "stats"]))
"""


VERIFY_SCRIPT = """
import sys
from tracelab import verify

results, manifest, code = verify.run_all(seed=5, echo=lambda line: None)
assert code == 1 and [r.index for r in results if not r.passed] == [8]
heavy = {"scipy." + name for name in %r}
print(sorted(name for name in sys.modules if ".".join(name.split(".")[:2]) in heavy))
"""


def _run(script: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_scan_kinds_do_not_import_scipy_submodules(tmp_path):
    assert _run(SCRIPT % (HEAVY,), str(tmp_path)) == "[]"


def test_criterion_9_does_not_import_scipy_stats():
    assert _run(CRIT09_SCRIPT) == "[]"


def test_verify_suite_does_not_import_scipy_submodules():
    assert _run(VERIFY_SCRIPT % (HEAVY,)) == "[]"
