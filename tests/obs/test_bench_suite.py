"""The bench suite stays runnable and its baselines stay coherent.

The benches themselves run in their own job (``PYTHONPATH=src python
-m pytest benchmarks -q``, then ``benchmarks/validate_results.py
--baselines benchmarks/baselines``), not in this suite.  What this
suite checks in seconds is everything that job relies on and that a
change elsewhere can break without running a bench:

* every ``benchmarks/bench_*.py`` still imports against ``src/`` and
  defines its tests, so a renamed or removed API shows up here;
* every committed baseline is schema-valid (docs/OBSERVABILITY.md §5)
  and carries no constant-zero protocol counter;
* every baseline is written by exactly one bench, and every bench
  export has a baseline, so the baseline diff neither fails on a
  renamed experiment nor lets a new one go unchecked.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCH_DIR = REPO_ROOT / "benchmarks"
BASELINE_DIR = BENCH_DIR / "baselines"

BENCHES = sorted(path.stem for path in BENCH_DIR.glob("bench_*.py"))
BASELINES = sorted(path.stem for path in BASELINE_DIR.glob("*.json"))


def _load_validator():
    spec = importlib.util.spec_from_file_location(
        "validate_results", BENCH_DIR / "validate_results.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _exports(bench: str) -> list:
    """Experiment names *bench* exports: the literal first argument of
    each ``report(...)`` / ``export_json(...)`` call in its source."""
    tree = ast.parse((BENCH_DIR / f"{bench}.py").read_text(encoding="utf-8"))
    return [
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("report", "export_json")
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
    ]


def _writers() -> dict:
    """``{experiment: [benches exporting it]}`` over the whole suite."""
    writers: dict = {}
    for bench in BENCHES:
        for name in _exports(bench):
            writers.setdefault(name, []).append(bench)
    return writers


def test_the_suite_is_where_the_bench_job_looks():
    assert BENCHES, "no benchmarks/bench_*.py found"
    assert BASELINES, "no committed baselines found"


@pytest.mark.parametrize("bench", BENCHES)
def test_bench_module_imports_and_defines_its_tests(bench):
    module = importlib.import_module(f"benchmarks.{bench}")
    tests = [
        name
        for name, value in vars(module).items()
        if name.startswith("test_") and callable(value)
    ]
    assert tests, f"{bench} defines no test_* function"
    assert re.match(r"E\d+", module.__doc__ or ""), (
        f"{bench}: docstring does not open with its experiment id"
    )
    assert _exports(bench), f"{bench} exports no results (no report() call)"


@pytest.mark.parametrize("name", BASELINES)
def test_baseline_is_schema_valid(name):
    validator = _load_validator()
    path = BASELINE_DIR / f"{name}.json"
    assert validator.validate_file(str(path)) == []
    metrics = json.loads(path.read_text(encoding="utf-8"))["metrics"]
    # Protocol counters are exported only where a network was measured,
    # so a committed zero is a column forced into a bench without one.
    for key in ("round_trips", "bytes_sent"):
        if key in metrics:
            assert metrics[key] > 0, f"{name}: {key} is a constant zero"


@pytest.mark.parametrize("name", BASELINES)
def test_baseline_is_written_by_exactly_one_bench(name):
    writers = _writers().get(name, [])
    assert writers, (
        f"baselines/{name}.json: no bench exports {name!r} "
        "(renamed or deleted experiment?)"
    )
    assert len(writers) == 1, (
        f"{name!r} is exported by {writers}: their results overwrite each other"
    )


def test_every_bench_export_has_a_baseline():
    missing = sorted(set(_writers()) - set(BASELINES))
    assert missing == [], f"exports with no committed baseline: {missing}"
