#!/usr/bin/env python
"""Schema-check every ``benchmarks/results/*.json`` export, and
optionally diff the exports against committed baselines.

The bench JSON schema (produced by :func:`benchmarks.common.export_json`,
documented in docs/OBSERVABILITY.md §5):

* top-level keys ``bench`` (str), ``params`` (object of scalars),
  ``metrics`` (object of numbers), ``paper_expected`` (object or null);
  ``title`` (str) and ``table`` ({headers, rows}) are optional extras;
* ``bench`` must match the file name stem.

With ``--baselines DIR`` each export is additionally compared against
the same-named JSON under *DIR* (``benchmarks/baselines`` holds the
committed reference run).  Regression-sensitive metrics — round trips,
latencies, byte counts (higher is worse) and throughput rates (lower is
worse) — may not regress by more than ``--tolerance`` (default 20%)
relative to the baseline; wall-time ``*_seconds`` metrics are gated
only by a generous ``SECONDS_SANITY_FACTOR`` (8x) bound that catches
order-of-magnitude measurement artifacts without tripping on normal
runner jitter; anything else is informational.  A bench
present in the baselines but missing from the results is a failure: a
perf regression must not hide by not running.

Exit status 0 when every file validates (and at least one exists when
``--require-any`` is passed) and no baseline regression exceeds the
tolerance; 1 otherwise.  Wired into CI (.github/workflows/ci.yml) after
the bench suite.

Usage::

    python benchmarks/validate_results.py [--dir DIR] [--require-any]
                                          [--baselines DIR] [--tolerance F]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

SCALAR = (str, int, float, bool, type(None))

# Metric-name patterns whose growth is a regression (protocol cost and
# latency)...
_HIGHER_IS_WORSE = ("round_trips", "bytes_sent", "elapsed_s", "_ms")
# ...and whose shrinkage is one (throughput rates).
_LOWER_IS_WORSE = ("_per_s",)
# Wall-time metrics ('*_seconds') stay informational at the normal
# tolerance — they jitter with the runner — but an order-of-magnitude
# jump is a measurement artifact (cold start, loaded machine) that must
# not land silently as the canonical result: gate those at a generous
# sanity multiple of the baseline instead.
_SECONDS_SANITY = ("_seconds",)
SECONDS_SANITY_FACTOR = 8.0


def regression_direction(name: str) -> Optional[str]:
    """'higher' / 'lower' / 'higher-sanity' = which movement of *name*
    is a regression ('higher-sanity' = gated only beyond the generous
    ``SECONDS_SANITY_FACTOR`` multiple of the baseline).

    None for metrics that are not regression-gated (cache statistics,
    hit ratios, plan-strategy counts — informational only).
    """
    for pattern in _HIGHER_IS_WORSE:
        if name.endswith(pattern):
            return "higher"
    for pattern in _LOWER_IS_WORSE:
        if name.endswith(pattern):
            return "lower"
    for pattern in _SECONDS_SANITY:
        if name.endswith(pattern):
            return "higher-sanity"
    return None


def validate_payload(payload: object, stem: str) -> List[str]:
    """All schema violations in one parsed JSON payload (empty = valid)."""
    errors: List[str] = []
    if not isinstance(payload, dict):
        return ["top level is not a JSON object"]
    for key in ("bench", "params", "metrics"):
        if key not in payload:
            errors.append(f"missing required key {key!r}")
    if "paper_expected" not in payload:
        errors.append("missing required key 'paper_expected'")

    bench = payload.get("bench")
    if not isinstance(bench, str) or not bench:
        errors.append("'bench' must be a non-empty string")
    elif bench != stem:
        errors.append(f"'bench' ({bench!r}) does not match file stem ({stem!r})")

    params = payload.get("params")
    if not isinstance(params, dict):
        errors.append("'params' must be an object")
    else:
        for key, value in params.items():
            if not isinstance(value, SCALAR):
                errors.append(f"params[{key!r}] is not a scalar")

    metrics = payload.get("metrics")
    if not isinstance(metrics, dict):
        errors.append("'metrics' must be an object")
    else:
        for key, value in metrics.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                errors.append(f"metrics[{key!r}] is not a number")

    expected = payload.get("paper_expected", None)
    if expected is not None and not isinstance(expected, dict):
        errors.append("'paper_expected' must be an object or null")

    table = payload.get("table")
    if table is not None:
        if not isinstance(table, dict):
            errors.append("'table' must be an object")
        else:
            if not isinstance(table.get("headers", []), list):
                errors.append("table.headers must be a list")
            if not isinstance(table.get("rows", []), list):
                errors.append("table.rows must be a list")
    return errors


def validate_file(path: str) -> List[str]:
    """Schema violations for one results file (empty list = valid)."""
    stem = os.path.splitext(os.path.basename(path))[0]
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"unreadable or invalid JSON: {exc}"]
    return validate_payload(payload, stem)


def diff_metrics(current: dict, baseline: dict, tolerance: float) -> List[str]:
    """Regressions of *current* vs *baseline* beyond *tolerance*.

    Only metrics present in both runs and carrying a regression
    direction are gated; a baseline value of 0 cannot be expressed as a
    ratio and is skipped (protocol counters start from 0 only in
    degenerate configurations).
    """
    regressions: List[str] = []
    for name in sorted(set(current) & set(baseline)):
        direction = regression_direction(name)
        if direction is None:
            continue
        base, now = baseline[name], current[name]
        if not isinstance(base, (int, float)) or not isinstance(now, (int, float)):
            continue
        if isinstance(base, bool) or isinstance(now, bool) or base == 0:
            continue
        change = (now - base) / abs(base)
        if direction == "higher" and change > tolerance:
            regressions.append(
                f"{name}: {base:g} -> {now:g} (+{change:.1%} > {tolerance:.0%})"
            )
        elif direction == "lower" and change < -tolerance:
            regressions.append(
                f"{name}: {base:g} -> {now:g} ({change:.1%} < -{tolerance:.0%})"
            )
        elif direction == "higher-sanity" and now > SECONDS_SANITY_FACTOR * base:
            regressions.append(
                f"{name}: {base:g} -> {now:g} "
                f"(over the {SECONDS_SANITY_FACTOR:g}x wall-time sanity bound "
                "— measurement artifact?)"
            )
    return regressions


def diff_against_baselines(
    results_dir: str, baselines_dir: str, tolerance: float
) -> int:
    """Compare every baseline bench to its current export; count failures."""
    names = sorted(
        name
        for name in (os.listdir(baselines_dir) if os.path.isdir(baselines_dir) else [])
        if name.endswith(".json")
    )
    if not names:
        print(f"no baselines under {baselines_dir} (nothing to diff)")
        return 0
    failures = 0
    for name in names:
        current_path = os.path.join(results_dir, name)
        if not os.path.exists(current_path):
            failures += 1
            print(f"FAIL {name}: baseline exists but no current result", file=sys.stderr)
            continue
        try:
            with open(os.path.join(baselines_dir, name), encoding="utf-8") as fh:
                baseline = json.load(fh)
            with open(current_path, encoding="utf-8") as fh:
                current = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            failures += 1
            print(f"FAIL {name}: unreadable JSON: {exc}", file=sys.stderr)
            continue
        regressions = diff_metrics(
            current.get("metrics", {}), baseline.get("metrics", {}), tolerance
        )
        if regressions:
            failures += 1
            print(f"FAIL {name}: regression vs baseline", file=sys.stderr)
            for regression in regressions:
                print(f"  - {regression}", file=sys.stderr)
        else:
            print(f"ok   {name} (within {tolerance:.0%} of baseline)")
    if failures:
        print(f"{failures}/{len(names)} benches regressed", file=sys.stderr)
    else:
        print(f"{len(names)} benches within tolerance of baselines")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--dir",
        default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "results"),
        help="results directory (default: benchmarks/results)",
    )
    parser.add_argument(
        "--require-any",
        action="store_true",
        help="fail when no *.json results exist at all",
    )
    parser.add_argument(
        "--baselines",
        default=None,
        metavar="DIR",
        help="baseline results to diff against (e.g. benchmarks/baselines); "
        "regression-sensitive metrics may not regress beyond --tolerance",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="allowed relative regression vs baselines (default 0.20)",
    )
    args = parser.parse_args(argv)

    paths = sorted(
        os.path.join(args.dir, name)
        for name in (os.listdir(args.dir) if os.path.isdir(args.dir) else [])
        if name.endswith(".json")
    )
    if not paths:
        if args.require_any:
            print(f"FAIL: no JSON results under {args.dir}", file=sys.stderr)
            return 1
        print(f"no JSON results under {args.dir} (nothing to validate)")
        return 0

    failures = 0
    for path in paths:
        errors = validate_file(path)
        if errors:
            failures += 1
            print(f"FAIL {os.path.basename(path)}", file=sys.stderr)
            for error in errors:
                print(f"  - {error}", file=sys.stderr)
        else:
            print(f"ok   {os.path.basename(path)}")
    if failures:
        print(f"{failures}/{len(paths)} files failed validation", file=sys.stderr)
        return 1
    print(f"{len(paths)} result files schema-valid")

    if args.baselines:
        if diff_against_baselines(args.dir, args.baselines, args.tolerance):
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
