"""Every output the benchmark checks still matches bench/golden.json.

The benchmark compares each item's output with a recorded digest, but only
while a benchmark runs.  This test runs the items that
``bench/record_golden.py`` records, in process: the catalogue pass of
``ladder`` and ``exact``, every ``bodies`` item at every surd scale plus the
Minkowski check, and every ``cli`` command.  Each must pass its own
invariant checks and reproduce its recorded digest, and every recorded key
must be reached.  Nothing under ``bench/`` is written: the workloads module
is loaded with bytecode writing off.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import filtmult
import filtmult.cli  # noqa: F401  (the cli items call filtmult.cli.main)

BENCH = Path(__file__).resolve().parent.parent / "bench"
GOLDEN = json.loads((BENCH / "golden.json").read_text())


def _load_workloads():
    spec = importlib.util.spec_from_file_location("_bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


w = _load_workloads()


def _items(workload):
    """The items record_golden.py records for one workload."""
    if workload in ("ladder", "exact"):
        return w.WORKLOADS[workload](0)[0]
    if workload == "bodies":
        bodies = [
            w._identity_item(kind, cutoff, p)
            for kind in ("maximal", "parabola", "surd", "line")
            for cutoff in w.BODY_CUTOFFS
            for p in (w.SURDS if kind == "surd" else (0,))
        ]
        return bodies + [w._minkowski_item()]
    return w.cli_passes(0)[0]


@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_outputs_match_recorded_digests(workload):
    table = GOLDEN[workload]
    got = {}
    for item in _items(workload):
        problems, text = item.check(item.run(filtmult))
        assert not problems, f"{workload} {item.key}: {problems}"
        got[item.key] = w.digest(text)
    assert set(got) == set(table)
    wrong = sorted(key for key in table if got[key] != table[key])
    assert not wrong, f"{workload}: outputs differ from the recorded ones at {wrong}"


def test_ladder_inputs_stay_under_the_cli_caps():
    # the ladder workload calls the package directly; a mixed command on the
    # same ladders would read levels 64, 192 and 48 in dimensions 1 to 3
    depths = {d: (d + 1) * max(ladder) for d, (ladder, _) in w.LADDERS.items()}
    assert depths == {1: 64, 2: 192, 3: 48}
    assert all(depth <= filtmult.cli._LADDER_CAPS[d - 1] for d, depth in depths.items())
