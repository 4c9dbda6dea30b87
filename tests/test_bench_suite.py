"""The benchmark's fast self-tests, run as part of the test suite.

They check, among other things, that the tracer still finds every lookup
site it wraps, so a change that drops one fails here and not only when the
benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_benchmark_fast_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "bench/test_bench.py", "-k", "not same_seed_repeats"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
