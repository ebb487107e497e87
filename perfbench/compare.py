"""Compare two result sets of the benchmark: the parent's and the change's.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file is what `run.py --workload all --runs N --out FILE` appended.
Runs with the same workload and seed on both sides form a pair; make at
least ten pairs, alternating which side runs first.  One row is printed per
workload and end-to-end metric: each side's median with its quartiles, the
share of pairs the change won, and the verdict of stats.verdict, using the
bound and direction BENCHMARK.json fixes for the metric.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import quartiles, verdict  # noqa: E402


def load(path):
    """workload -> {seed: result} for the untraced runs in a result file."""
    runs = {}
    with open(path) as fh:
        for line in fh:
            r = json.loads(line)
            if r["trace"] == 0:
                runs.setdefault(r["workload"], {})[r["seed"]] = r
    return runs


def _side(values):
    q1, med, q3 = quartiles(values)
    return f"{med:>11.5g} [{q1:.5g}, {q3:.5g}]"


def compare(parent, change, spec):
    """Rows of (workload, metric, unit, parent, change, won, verdict)."""
    rows = []
    for workload, prun in parent.items():
        crun = change.get(workload, {})
        if not crun:
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [r["metrics"][name]["value"] for r in prun.values()]
            cv = [r["metrics"][name]["value"] for r in crun.values()]
            pairs = [
                (prun[s]["metrics"][name]["value"], crun[s]["metrics"][name]["value"])
                for s in prun if s in crun
            ]
            v, won = verdict(pv, cv, pairs, m["better"], m["bound"])
            rows.append((workload, name, m["unit"], _side(pv), _side(cv), f"{won:.0%} of {len(pairs)}", v))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parent, change = load(argv[0]), load(argv[1])
    head = ("workload", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]",
            "change won", "verdict")
    widths = (9, 12, 5, 34, 34, 11, 10)
    print("  ".join(h.ljust(w) for h, w in zip(head, widths)))
    for row in compare(parent, change, spec):
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    for workload, prun in parent.items():
        crun = change.get(workload, {})
        pf = sum(r["failed"] for r in prun.values())
        cf = sum(r["failed"] for r in crun.values())
        if pf or cf:
            print(f"{workload}: failed calls, parent {pf}, change {cf}; "
                  "a gain does not count when the change fails more often")
    return 0


if __name__ == "__main__":
    sys.exit(main())
