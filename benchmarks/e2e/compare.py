"""Compare two result files of ``run.py --out``: parent first, change second.

    python3 benchmarks/e2e/compare.py A.json B.json

For every (workload, end-to-end metric) pair the medians are compared
against the metric's bound (``spec.py``; for the driver-facing metrics
the same numbers as ``BENCHMARK.json``).  A pair is

* ``regressed``  when B's median is worse than A's by more than the bound;
* ``unresolved`` when the spread of A's own runs (first to third quartile,
  as a share of the median) is wider than the bound, unless every run of
  B reads better than every run of A — the data cannot say "unchanged";
* ``ok`` otherwise.

One row per workload is printed, then one line per pair that is not ok.
The exit code is non-zero on any regression and on any rise in
``failed_ops_frac``.
"""

from __future__ import annotations

import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
    __package__ = "benchmarks.e2e"

import json
from statistics import median, quantiles
from typing import Dict, List, Tuple

from . import spec


def load(path: str) -> Dict[str, List[dict]]:
    """workload -> runs, from an all-workloads file or a single run's."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return data["runs"] if "runs" in data else {data["workload"]: [data]}


def spread(values: List[float]) -> float:
    """Quartile distance as a share of the median (0 for one run)."""
    mid = median(values)
    if len(values) < 2 or not mid:
        return 0.0
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / abs(mid)


def judge(metric: spec.Metric, parent: List[float], change: List[float]) -> Tuple[str, str]:
    """(status, why) for one metric on one workload."""
    a, b = median(parent), median(change)
    lower = metric.better == "lower"
    worse_by = (b - a) if lower else (a - b)
    if metric.absolute is not None:
        limit, unit = metric.absolute, ""
    else:
        limit, unit = metric.bound * abs(a), f" ({metric.bound:.0%} of {a:.6g})"
    detail = f"{a:.6g} -> {b:.6g}, allowed {limit:.6g}{unit}"
    if metric.name == "failed_ops_frac":
        return ("regressed", detail) if b > a else ("ok", detail)
    if metric.absolute is None and spread(parent) > metric.bound:
        wins = (max(change) < min(parent)) if lower else (min(change) > max(parent))
        if not wins:
            return "unresolved", f"{detail}; parent's own spread {spread(parent):.1%}"
    if worse_by > limit:
        return "regressed", detail
    return "ok", detail


def compare(parent: Dict[str, List[dict]], change: Dict[str, List[dict]]) -> int:
    regressions = 0
    for workload in spec.WORKLOADS:
        if workload not in parent or workload not in change:
            print(f"{workload:<18} not in both files")
            continue
        tally = {"ok": 0, "regressed": 0, "unresolved": 0}
        notes = []
        for name in spec.e2e_names(workload):
            values = [
                [run["end_to_end"][name][0] for run in side[workload]]
                for side in (parent, change)
            ]
            status, why = judge(spec.E2E_BY_NAME[name], *values)
            tally[status] += 1
            if status != "ok":
                notes.append(f"    {status:<10} {name:<28} {why}")
        regressions += tally["regressed"]
        print(
            f"{workload:<18} ok {tally['ok']:>2}   regressed {tally['regressed']:>2}   "
            f"unresolved {tally['unresolved']:>2}"
        )
        for note in notes:
            print(note)
    return 1 if regressions else 0


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    return compare(load(argv[0]), load(argv[1]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
