"""The benchmark's layer wrappers still reach every package function.

``bench/selftest.py`` counts the calls each wrapper records against a
profiler and lists the layer functions that no longer exist.  Running it
here makes a renamed function, or a binding site the wrappers miss, fail
the test suite and not only traced benchmark runs.  Nothing under
``bench/`` is written: bytecode caching is off for the child process.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 0, out
    assert "missing functions" not in out, out
