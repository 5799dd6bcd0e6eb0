"""Integration: one real bench run emits schema-valid results JSON.

Runs ``benchmarks/bench_fig2_referrals.py`` (the cheapest bench — no
session workload fixture) in a subprocess, then validates the JSON it
wrote with the same checker CI uses (``benchmarks/validate_results.py``,
schema in docs/OBSERVABILITY.md §5).
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
RESULTS = REPO_ROOT / "benchmarks" / "results"


def _load_validator():
    spec = importlib.util.spec_from_file_location(
        "validate_results", REPO_ROOT / "benchmarks" / "validate_results.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def fig2_json():
    fig2 = RESULTS / "fig2.json"
    if fig2.exists():
        fig2.unlink()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "benchmarks/bench_fig2_referrals.py",
            "-q",
            "--benchmark-disable",
            "-p",
            "no:cacheprovider",
        ],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, f"bench run failed:\n{proc.stdout}\n{proc.stderr}"
    assert fig2.exists(), "bench_fig2 must write benchmarks/results/fig2.json"
    return fig2


def test_fig2_json_is_schema_valid(fig2_json):
    validator = _load_validator()
    assert validator.validate_file(fig2_json) == []


def test_fig2_json_carries_required_metrics(fig2_json):
    payload = json.loads(fig2_json.read_text())
    assert payload["bench"] == "fig2"
    metrics = payload["metrics"]
    for key in (
        "round_trips",
        "bytes_sent",
        "qc_cache_hits",
        "qc_cache_misses",
        "qc_cache_evictions",
    ):
        assert isinstance(metrics[key], (int, float)), key
    # Figure 2's whole point: referral chasing costs real round trips.
    assert metrics["round_trips"] >= 4
    assert payload["paper_expected"]["worst_round_trips"] == 4


def test_protocol_counters_only_where_a_network_was_measured(
    tmp_path, monkeypatch
):
    from benchmarks import common
    from repro.server import SimulatedNetwork

    monkeypatch.setattr(common, "RESULTS_DIR", str(tmp_path))
    bare = json.loads(Path(common.export_json("bare", metrics={"x": 1})).read_text())
    assert "round_trips" not in bare["metrics"]
    assert "bytes_sent" not in bare["metrics"]
    assert "qc_cache_hits" in bare["metrics"]
    wired = json.loads(
        Path(common.export_json("wired", network=SimulatedNetwork())).read_text()
    )
    assert wired["metrics"]["round_trips"] == 0
    assert wired["metrics"]["bytes_sent"] == 0


def test_validator_rejects_broken_payloads(tmp_path):
    validator = _load_validator()
    good = {
        "bench": "sample",
        "params": {"n": 1},
        "metrics": {
            "round_trips": 1,
            "bytes_sent": 0,
            "qc_cache_hits": 0,
            "qc_cache_misses": 0,
        },
        "paper_expected": None,
    }
    path = tmp_path / "sample.json"
    path.write_text(json.dumps(good))
    assert validator.validate_file(path) == []

    for mutate, fragment in [
        (lambda p: p.pop("metrics"), "metrics"),
        (lambda p: p.__setitem__("bench", "other"), "stem"),
        (lambda p: p["metrics"].__setitem__("round_trips", "many"), "number"),
        (lambda p: p.__setitem__("paper_expected", 7), "paper_expected"),
    ]:
        broken = json.loads(json.dumps(good))
        mutate(broken)
        path.write_text(json.dumps(broken))
        problems = validator.validate_file(path)
        assert problems, f"expected a failure mentioning {fragment!r}"
        assert any(fragment in p for p in problems)


def test_baseline_diff_gates_regression_sensitive_metrics():
    validator = _load_validator()
    baseline = {
        "round_trips": 100,
        "baseline_avg_ms": 10.0,
        "searches_per_s": 500.0,
        "qc_cache_hits": 50,
        "zero_elapsed_s": 0,
        "s25_recovery_seconds": 0.010,
    }
    # Within tolerance, improvements, non-gated churn, zero baselines,
    # wall-time jitter under the sanity multiple: ok.
    ok = {
        "round_trips": 110,  # +10% < 20%
        "baseline_avg_ms": 2.0,  # improvement
        "searches_per_s": 900.0,  # improvement
        "qc_cache_hits": 5000,  # informational, not gated
        "zero_elapsed_s": 3,  # baseline 0: no ratio, skipped
        "s25_recovery_seconds": 0.050,  # 5x: noisy but under the 8x bound
    }
    assert validator.diff_metrics(ok, baseline, 0.20) == []

    regressed = {
        "round_trips": 130,  # +30%
        "baseline_avg_ms": 13.0,  # +30%
        "searches_per_s": 300.0,  # -40%
        "s25_recovery_seconds": 0.586,  # 58x: a cold-start artifact
    }
    problems = validator.diff_metrics(regressed, baseline, 0.20)
    assert len(problems) == 4
    assert any("round_trips" in p for p in problems)
    assert any("baseline_avg_ms" in p for p in problems)
    assert any("searches_per_s" in p for p in problems)
    assert any(
        "s25_recovery_seconds" in p and "sanity" in p for p in problems
    )


def test_baseline_diff_fails_on_missing_current_result(tmp_path):
    validator = _load_validator()
    baselines = tmp_path / "baselines"
    results = tmp_path / "results"
    baselines.mkdir()
    results.mkdir()
    payload = {"bench": "sample", "params": {}, "metrics": {"round_trips": 1}}
    (baselines / "sample.json").write_text(json.dumps(payload))
    assert validator.diff_against_baselines(str(results), str(baselines), 0.20) == 1
    (results / "sample.json").write_text(json.dumps(payload))
    assert validator.diff_against_baselines(str(results), str(baselines), 0.20) == 0
