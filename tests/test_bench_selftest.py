"""The benchmark's layer wrappers still reach every package function.

``bench/selftest.py`` counts the calls each wrapper records against a
profiler and lists the layer functions that no longer exist.  Running it
here makes a renamed function, or a binding site the wrappers miss, fail
the test suite and not only traced benchmark runs.  Nothing under
``bench/`` is written: bytecode caching is off for the child process.

The benchmark still lists ``linalg.lp_feasible``, which the package no
longer has since the facet hull replaced the exact LP; that one may be
reported missing, and only that one.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALLOWED_MISSING = {"linalg.lp_feasible"}


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
    missing = [
        name
        for line in out.splitlines()
        if "missing functions:" in line
        for name in line.split("missing functions:", 1)[1].split(",")
    ]
    assert {name.strip() for name in missing} <= ALLOWED_MISSING, out
