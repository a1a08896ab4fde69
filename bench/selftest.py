"""Self-test of the layer wrappers: wrapped call counts against a profiler.

A function bound somewhere the tracer did not patch would still run, but
its calls would escape the wrapper and its time would be charged to the
caller's layer.  This test runs one small item of every workload with the
wrappers installed and, at the same time, counts with sys.setprofile every
call that reaches the original code objects.  The two counts must agree
for every wrapped function.

Run alone with ``python3 bench/selftest.py``; ``run.py --trace 1`` also
runs it and reports a mismatch as an incorrect result.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter
from pathlib import Path

from layers import Tracer


def _small_items():
    import workloads

    yield "ladder", workloads._run_ladder(1, [([(2,)], None), ([(3,)], 2)], (0,))
    yield "exact", workloads._run_exact_pair([(1, 0, 0), (0, 1, 0), (0, 0, 1)],
                                             [(1, 0, 0), (0, 2, 0), (0, 0, 1)], (0, 1, 2))
    yield "bodies", workloads._identity_item("line", 16, 0).run
    yield "bodies", workloads._minkowski_item(cutoff=4).run
    for key, argv in workloads.cli_argvs():
        if key in ("verify plane_pair.json", "example1"):
            yield "cli", workloads._cli_item(key, argv).run


def run(fm):
    """Return (ok, report lines)."""
    tracer = Tracer()
    tracer.install()
    codes = {fn.__code__: name for name, fn in tracer.wrapped.items()}
    seen: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call":
            name = codes.get(frame.f_code)
            if name is not None:
                seen[name] += 1

    errors = []
    sys.setprofile(profile)
    threading.setprofile(profile)  # the CLI's verify checks run on a worker thread
    try:
        for label, item in _small_items():
            try:
                item(fm)
            except Exception as exc:
                errors.append(f"{label} raised {type(exc).__name__}: {exc}")
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        tracer.uninstall()
    stats, _ = tracer.totals()
    bad = [
        f"{name}: wrapper {stats[name][0]} calls, profiler {seen[name]}"
        for name in sorted(tracer.wrapped)
        if stats[name][0] != seen[name]
    ]
    ok = not bad and not errors
    lines = [
        f"selftest: {len(tracer.wrapped)} wrapped functions, "
        f"{sum(seen.values())} profiled calls, {'ok' if ok else 'MISMATCH'}"
    ]
    lines += [f"  selftest: {msg}" for msg in bad + errors]
    if tracer.missing:
        lines.append(f"  selftest: missing functions: {', '.join(tracer.missing)}")
    return ok, lines


if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import filtmult
    import filtmult.cli  # noqa: F401

    ok, lines = run(filtmult)
    print("\n".join(lines))
    sys.exit(0 if ok else 1)
