"""tracelab runs on numpy alone: scans, the bump transform and the verify
suite complete in an interpreter where every ``import scipy`` fails, and
the verify suite's Gauss-Legendre rules need no ``numpy.polynomial``.  The
verify suite loads neither numpy.random, numpy.ma nor OpenSSL's hashlib
binding, and importing tracelab does not load the latter."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

BLOCK_SCIPY = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
"""

REPORT_SCIPY = """
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""

SCAN_SCRIPT = """
import numpy as np
import tracelab.cli
from tracelab.windows import Window

out = sys.argv[1]
window = ["--shape", "gaussian", "--tau0", "3.141592653589793", "--eps", "0.15",
          "--lambda-grid", "20:40:5"]
assert tracelab.cli.main(["spectrum", "--weights", "1,2", "--kmax", "40",
                          "--out", out + "/spectrum"]) == 0
assert tracelab.cli.main(["trace", "--weights", "1,2", *window, "--out", out + "/trace"]) == 0
assert tracelab.cli.main(["offlocus", "--weights", "1,2", *window,
                          "--out", out + "/offlocus"]) == 0
bump = Window("bump", 0.0, 0.3)
assert np.isfinite(bump.fourier(np.linspace(0.0, 2000.0, 9))).all()
assert np.isfinite(bump.fourier_envelope(1e4))
"""

CRIT09_SCRIPT = """
from tracelab import verify

assert verify.crit_09_gaussian_integral(verify._Shared(seed=5)).passed
"""

VERIFY_SCRIPT = """
from tracelab import verify

results, manifest, code = verify.run_all(seed=5, echo=lambda line: None)
assert code == 1 and [r.index for r in results if not r.passed] == [8]
assert "numpy.polynomial" not in sys.modules, "verify imported numpy.polynomial"
"""


def _run_without_scipy(script: str, *args: str) -> str:
    """Run ``script`` with scipy blocked; return the scipy modules it loaded."""
    proc = subprocess.run(
        [sys.executable, "-c", BLOCK_SCIPY + script + REPORT_SCIPY, *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_scan_kinds_do_not_import_scipy_submodules(tmp_path):
    assert _run_without_scipy(SCAN_SCRIPT, str(tmp_path)) == "['scipy']"


def test_criterion_9_does_not_import_scipy_stats():
    assert _run_without_scipy(CRIT09_SCRIPT) == "['scipy']"


def test_verify_suite_does_not_import_scipy_submodules():
    assert _run_without_scipy(VERIFY_SCRIPT) == "['scipy']"


FOOTPRINT_SCRIPT = """
import sys
import tracelab

assert "_hashlib" not in sys.modules, "import tracelab loaded _hashlib"
import tracelab.cli

assert tracelab.cli.main(["verify", "--seed", "5", "--out", sys.argv[1]]) == 1
print(sorted(name for name in ("numpy.random", "numpy.ma", "_hashlib") if name in sys.modules))
"""


def test_verify_loads_no_random_masked_or_openssl_modules(tmp_path):
    # seeded draws come from stdlib random, definiteness from one SVD, and
    # hashlib only where a digest is made
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_SCRIPT, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
