"""filtmult benchmark: time to an exact answer, end to end and per layer.

Usage, from the repository root:

    python3 bench/run.py --workload ladder --seed 1 --seconds 28 --trace 0

Workloads are ladder, exact, bodies and cli (see workloads.py for why each
was chosen).  The run imports the package from ``src/``, generates its
inputs from the seed, then runs passes of items one after another in this
process, on one thread, until ``--seconds`` have gone by; a pass in
progress is cut at an item boundary.  Every output is checked: each item
has invariant checks, and its output must match the digest recorded in
golden.json.

Times are in reference seconds: each item's measured time divided by how
slowly the machine ran two fixed loops while the item ran and just before
and after it (see RefClock).  The measured pass times are printed next to
them.

--trace 0 reports the end-to-end metrics:
  wall_s         time of one pass: every pass runs the same items, and this
                 is the sum over them of each item's median time in the run
  latency_p50_s  median over the items of a pass of each item's median time
  latency_p90_s  90th percentile (nearest rank) of the same; the number of
                 samples beyond it is printed with it
  peak_rss_mb    peak resident memory of this process (ru_maxrss)
  setup_s        median of five timings of package import plus input
                 generation: this process and four fresh child processes
and prints failed_frac, the share of attempted items that raised or failed
a check.  --trace 1 first runs the wrapper self-test (selftest.py), then
runs half the time untraced and half with layer spans installed (whole
passes only), and reports per-layer metrics per completed traced pass in
measured seconds, plus trace.overhead_frac.

Human-readable lines go first; the last line of standard output is one
JSON object with keys correct, attempted, failed and metrics.  The exit
code is 0 when the run finished, whether or not outputs were correct, and
2 when the package or its configs cannot be found.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 4
MIN_TAIL = 10  # samples that should lie beyond the reported tail percentile
# Nominal times of the two reference loops; they fix the unit of the
# reported times and must not change once figures have been recorded.
TUPLES_NOMINAL_S = 0.0007
INTEGER_NOMINAL_S = 0.001
REF_INTERVAL_S = 0.2  # at most this much measured time between two readings


def _shortest(work, repeats=5) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - t0)
    return best


def _tuples_and_fractions():
    pts = {(i * 7919 % 1009, i % 37, i % 11) for i in range(1000)}
    kept = [p for p in sorted(pts) if p[1] <= p[2]]
    acc = Fraction(0)
    for i in range(1, 150):
        acc += Fraction(len(kept) % i + 1, i)


def _integer_loop():
    x = 0
    for i in range(10_000):
        x = (x * 33 + i) % 65521


def reference_work() -> float:
    """How slowly the machine runs right now; 1.0 at the nominal speed.

    Two fixed pieces of pure-Python work, each timed five times with gc
    paused: one builds, hashes and sorts small tuples and adds Fractions,
    as the package does, the other is an integer loop.  The shortest timing
    of each drops the ones hit by an interruption, which on a shared
    machine are frequent at this millisecond scale.  Averaging the two
    tracked the speed of ladder and exact items better than either alone.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return (_shortest(_tuples_and_fractions) / TUPLES_NOMINAL_S
                + _shortest(_integer_loop) / INTEGER_NOMINAL_S) / 2
    finally:
        if enabled:
            gc.enable()


class RefClock:
    """Turns measured seconds into reference seconds.

    The CPU speed of a shared machine drifts by tens of percent within
    seconds, which swamps most changes to the program.  So the run reads
    reference_work() every REF_INTERVAL_S, from a SIGALRM handler while
    items run and between items otherwise, and divides each item's time by
    the mean of the readings taken during it and just before and after it.
    The handler's own time is taken out of the item's time.  A reported
    second is the time the item would take at the nominal speed.  Over
    repeated passes this cut the spread of a dim-4 exact item's time from
    14% to 5%; readings only between items left it at 14%.

    The handler skips its reading while another thread is alive (the CLI's
    verify command runs its checks on one), since the reading would then
    compete with that thread.  With sample=False there is no handler and
    items are bracketed by readings between them only; the traced run
    uses that, so that no reading lands inside a span.
    """

    def __init__(self, sample: bool) -> None:
        self.times: list[float] = []  # when each reading was taken
        self.readings: list[float] = []
        self.spent = 0.0  # seconds spent taking readings
        self.sample = sample
        self._reading = False

    def read(self) -> None:
        self._reading = True
        t0 = time.perf_counter()
        self.readings.append(reference_work())
        self.times.append(t0)
        self.spent += time.perf_counter() - t0
        self._reading = False

    def _on_alarm(self, signum, frame) -> None:
        if not self._reading and threading.active_count() == 1:
            self.read()

    def tick(self) -> None:
        """Read unless a reading is less than REF_INTERVAL_S old."""
        if not self.times or time.perf_counter() - self.times[-1] >= REF_INTERVAL_S:
            self.read()

    def __enter__(self):
        if self.sample:
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.read()

    def scale(self, t0: float, t1: float) -> float:
        """Factor for an item that ran from t0 to t1."""
        lo = max(0, bisect.bisect_left(self.times, t0) - 1)
        hi = bisect.bisect_right(self.times, t1) + 1
        return 1 / statistics.fmean(self.readings[lo:hi])


def timed_setup(workload: str, seed: int):
    """Set up and return (package, passes, setup time in reference seconds)."""
    before = [reference_work() for _ in range(3)]
    t0 = time.perf_counter()
    fm, passes = setup(workload, seed)
    raw = time.perf_counter() - t0
    after = [reference_work() for _ in range(3)]
    return fm, passes, raw / statistics.median(before + after)


def setup(workload: str, seed: int):
    """Import the package from this checkout and generate the inputs."""
    sys.path.insert(0, str(SRC))
    import filtmult
    import filtmult.cli  # noqa: F401  (the cli workload calls it; others pay the same import)

    if not Path(filtmult.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"filtmult imported from {filtmult.__file__}, not from {SRC}")
    return filtmult, workloads.WORKLOADS[workload](seed)


def nearest_rank(sorted_xs, q):
    return sorted_xs[max(0, math.ceil(q * len(sorted_xs)) - 1)]


class Outcome:
    """Item latencies, pass times and failures of one measured phase."""

    def __init__(self) -> None:
        self.item_times: dict[str, list[float]] = {}  # reference s, by item key
        # Completed passes only.
        self.pass_walls: list[float] = []  # reference seconds
        self.raw_walls: list[float] = []  # measured seconds
        self.attempted = 0
        self.failed = 0
        self.unrecorded = 0
        self.problems: list[str] = []

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(msg)


def measure(fm, passes, seconds, golden, tracer=None, whole_passes=False) -> Outcome:
    """Run passes in order until the time is up, checking every output.

    With whole_passes the time is only checked between passes; otherwise
    between items, and the pass in progress is dropped from pass_walls.
    At least one pass always completes.  Item times are kept as measured
    and converted to reference seconds at the end.
    """
    out = Outcome()
    timed: list[tuple[int, str, float, float, float]] = []  # (pass, key, start, end, net s)
    perf = time.perf_counter
    start = perf()
    p = done = 0
    with RefClock(sample=tracer is None) as clock:
        while True:
            complete = True
            for item in passes[p % len(passes)]:
                if not whole_passes and done and perf() - start >= seconds:
                    complete = False
                    break
                out.attempted += 1
                clock.tick()
                if tracer is not None:
                    tracer.tag = item.tag
                spent, t0 = clock.spent, perf()
                try:
                    res = item.run(fm) if tracer is None else tracer.item(item.run, fm)
                except Exception as exc:  # a crashed item is a failed item
                    out.fail(f"{item.tag} {item.key}: raised {type(exc).__name__}: {exc}")
                    continue
                t1 = perf()
                timed.append((p, item.key, t0, t1, t1 - t0 - (clock.spent - spent)))
                problems, text = item.check(res)
                want = golden.get(item.key)
                if want is None:
                    out.unrecorded += 1
                elif want != workloads.digest(text):
                    problems.append("output differs from the recorded output")
                if problems:
                    out.fail(f"{item.tag} {item.key}: {problems[0]}")
            if not complete:
                break
            done += 1
            p += 1
            gc.collect()
            if perf() - start >= seconds:
                break
    out.pass_walls = [0.0] * done
    out.raw_walls = [0.0] * done
    for q, key, t0, t1, dt in timed:
        t = dt * clock.scale(t0, t1)
        out.item_times.setdefault(key, []).append(t)
        if q < done:
            out.pass_walls[q] += t
            out.raw_walls[q] += dt
    return out


def setup_probe(workload: str, seed: int) -> float:
    """Setup time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, cwd=str(ROOT),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def end_to_end(args, fm, passes, golden, setup_s):
    res = measure(fm, passes, args.seconds, golden)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = [setup_s] + [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    # Every pass runs the same items, so each item's latency is its median
    # time over the run's repeats.  The time of a pass is the sum of those,
    # and the percentiles are taken over them: the rank of a percentile
    # then stays on the same item however many passes the run completed,
    # and one slow spell moves neither.
    medians = sorted((statistics.median(ts), len(ts)) for ts in res.item_times.values())
    lat = [m for m, _ in medians]
    p90_rank = math.ceil(0.9 * len(lat))
    beyond = sum(n for _, n in medians[p90_rank:])
    print(f"workload {args.workload}  seed {args.seed}  passes {len(res.pass_walls)}"
          f"  items {res.attempted}")
    metrics = {
        "wall_s": (sum(lat), "s"),
        "latency_p50_s": (nearest_rank(lat, 0.5), "s"),
        "latency_p90_s": (nearest_rank(lat, 0.9), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "latency_p90_s":
            note = (f"  ({len(lat)} items, {res.attempted - res.failed} samples,"
                    f" {beyond} beyond{'' if beyond >= MIN_TAIL else ', fewer than 10'})")
        if name == "wall_s":
            note = (f"  (passes: {' '.join(f'{w:.3f}' for w in res.pass_walls)};"
                    f" measured: {' '.join(f'{w:.3f}' for w in res.raw_walls)})")
        print(f"  {name:<16} {value:.6f} {unit}{note}")
    failed_frac = res.failed / res.attempted if res.attempted else 1.0
    print(f"  {'failed_frac':<16} {failed_frac:.6f} ratio  ({res.failed} of {res.attempted})")
    return res, metrics


def per_layer(args, fm, passes, golden):
    import selftest
    from layers import Tracer

    ok, lines = selftest.run(fm)
    for line in lines:
        print(line)
    half = args.seconds / 2
    plain = measure(fm, passes, half, golden, whole_passes=True)
    tracer = Tracer()
    tracer.install()
    try:
        traced = measure(fm, passes, half, golden, tracer=tracer, whole_passes=True)
    finally:
        tracer.uninstall()
    k = min(len(plain.pass_walls), len(traced.pass_walls))
    overhead = (statistics.median(traced.pass_walls[:k]) /
                statistics.median(plain.pass_walls[:k]) - 1)
    npass = len(traced.pass_walls)
    print(f"workload {args.workload}  seed {args.seed}  traced passes {npass}"
          f"  untraced passes {len(plain.pass_walls)}")
    if tracer.missing:
        print(f"  missing functions (metrics read 0): {', '.join(tracer.missing)}")
    tags = sorted({tag for tag, _ in tracer.stats})
    for tags_sel, label in [(None, "all items")] + [((t,), f"items {t}") for t in tags]:
        table = tracer.layer_table(tags_sel)
        total = sum(v[1] for v in table.values()) or 1.0
        print(f"  self time by layer, {label}, per pass:")
        for layer, (calls, self_s) in sorted(table.items(), key=lambda kv: -kv[1][1]):
            if self_s > 0:
                print(f"    {layer:<13} {self_s / npass:10.4f} s  {100 * self_s / total:5.1f}%"
                      f"  {calls / npass:12.1f} calls")
    metrics = tracer.metrics(npass)
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    print(f"  trace.overhead_frac {overhead:.4f}")
    merged = Outcome()
    for part in (plain, traced):
        merged.attempted += part.attempted
        merged.failed += part.failed
        merged.unrecorded += part.unrecorded
        merged.problems += part.problems
    return merged, metrics, ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("ladder", "exact", "bodies", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    try:
        fm, passes, setup_s = timed_setup(args.workload, args.seed)
    except (ImportError, OSError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(f"{setup_s!r}")
        return 0

    golden = json.loads((HERE / "golden.json").read_text()).get(args.workload, {})
    selftest_ok = True
    if args.trace:
        res, metrics, selftest_ok = per_layer(args, fm, passes, golden)
    else:
        res, metrics = end_to_end(args, fm, passes, golden, setup_s)
    if res.unrecorded:
        print(f"  {res.unrecorded} items have no recorded output; only their invariants were checked")
    for msg in res.problems:
        print(f"  FAILED {msg}")
    result = {
        "correct": res.failed == 0 and selftest_ok,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
