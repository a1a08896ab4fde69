"""Record the outputs that run.py compares against (bench/golden.json).

    python3 bench/record_golden.py

Records a digest of every item output: the catalogue pass of ladder and
exact, every bodies item at every surd scale, and every cli command.  The
outputs do not depend on the seed or the pass (see workloads.py); the
script records seed 0 and confirms that seed 1 gives the same digests.
An item whose output fails its invariant checks is reported and the file
is not written.  Run it only on a commit whose outputs are known to be right; the recorded
table is what later commits are held to.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import filtmult  # noqa: E402
import filtmult.cli  # noqa: E402,F401

import workloads as w  # noqa: E402


def record(table, workload, items, problems):
    for item in items:
        found, text = item.check(item.run(filtmult))
        problems += [f"{workload} {item.key}: {p}" for p in found]
        if table.setdefault(item.key, w.digest(text)) != w.digest(text):
            problems.append(f"{workload} {item.key}: output depends on the seed")


def main() -> int:
    golden = {name: {} for name in w.WORKLOADS}
    problems: list[str] = []
    for name in ("ladder", "exact"):
        for seed in (0, 1):
            record(golden[name], name, w.WORKLOADS[name](seed)[0], problems)
        print(f"{name}: {len(golden[name])} outputs", flush=True)
    bodies = [w._identity_item(kind, cutoff, p)
              for kind in ("maximal", "parabola", "surd", "line")
              for cutoff in w.BODY_CUTOFFS
              for p in (w.SURDS if kind == "surd" else (0,))]
    record(golden["bodies"], "bodies", bodies + [w._minkowski_item()], problems)
    record(golden["cli"], "cli", w.cli_passes(0)[0], problems)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    (HERE / "golden.json").write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    print({k: len(v) for k, v in golden.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
