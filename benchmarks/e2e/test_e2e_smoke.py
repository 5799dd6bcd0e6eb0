"""Smoke test of the end-to-end benchmark (tier 1, well under 30 s).

Runs all five workloads at ``--scale 0.02`` — untraced, traced, and with
another seed — and checks what later changes rely on: the names equal
those in BENCHMARK.json, no op fails, every exact-repeat metric is
bit-identical under two PYTHONHASHSEED values and differs for another
seed, and nothing is written into the tree.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from . import compare, spec
from .trace import resolve

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SEED, OTHER_SEED = spec.DEFAULT_SEED, 1234


def _git_status():
    done = subprocess.run(
        ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True
    )
    return done.stdout if done.returncode == 0 else None


def _run(job):
    workload, seed, hash_seed, trace = job
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--scale", "0.02", "--trace", str(trace), "--emit-result",
        ],
        env={**os.environ, "PYTHONHASHSEED": str(hash_seed)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.splitlines()
    result = next(json.loads(l[len("result: "):]) for l in lines if l.startswith("result: "))
    return result, json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs():
    before = _git_status()
    jobs = [
        job
        for workload in spec.WORKLOADS
        for job in ((workload, SEED, 1, 0), (workload, SEED, 2, 1), (workload, OTHER_SEED, 1, 0))
    ]
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = dict(zip(jobs, pool.map(_run, jobs)))
    return results, before, _git_status()


def test_benchmark_json_is_the_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        assert json.load(fh) == spec.benchmark_json()
    assert len(spec.per_layer()) <= 128 and len(spec.UNIVERSAL) <= 16


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_emitted_names_and_no_failed_ops(runs, workload):
    results, _, _ = runs
    untraced, contract = results[(workload, SEED, 1, 0)]
    traced, traced_contract = results[(workload, SEED, 2, 1)]
    assert list(untraced["end_to_end"]) == spec.e2e_names(workload)
    assert list(contract["metrics"]) == [m.name for m in spec.UNIVERSAL]
    assert list(traced_contract["metrics"]) == [name for name, _, _ in spec.per_layer()]
    assert set(contract) == {"correct", "attempted", "failed", "metrics"}
    assert all(m["value"] != 0 for m in contract["metrics"].values())
    assert traced["trace_missing"] == []
    for result in (untraced, traced):
        assert result["failed"] == 0 and result["attempted"] > 0, result["failures"]
        assert result["end_to_end"]["failed_ops_frac"][0] == 0
    assert contract["correct"] and traced_contract["correct"]
    assert traced["traced_failed"] == 0


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_exact_metrics_repeat_for_a_seed_and_differ_for_another(runs, workload):
    results, _, _ = runs
    exact = [n for n in spec.e2e_names(workload) if spec.E2E_BY_NAME[n].exact]
    first = results[(workload, SEED, 1, 0)][0]["end_to_end"]
    # The traced run's untraced window: same seed, another hash seed.
    second = results[(workload, SEED, 2, 1)][0]["end_to_end"]
    other = results[(workload, OTHER_SEED, 1, 0)][0]["end_to_end"]
    assert {n: first[n][0] for n in exact} == {n: second[n][0] for n in exact}
    assert any(first[n][0] != other[n][0] for n in exact)


def test_nothing_written_into_the_tree(runs):
    _, before, after = runs
    if before is None:
        pytest.skip("not a git checkout")
    assert before == after


def test_a_vanished_trace_target_is_missing_not_fatal():
    assert resolve("repro.core:FilterReplica.answer") is not None
    assert resolve("repro.core:FilterReplica.no_such_method") is None
    assert resolve("repro.core:NoSuchClass.answer") is None
    assert resolve("repro.no_such_module:anything") is None


def test_compare_judges_by_bound_and_spread():
    rate = spec.E2E_BY_NAME["ops_per_s"]
    steady = [100.0, 101.0, 99.0, 100.5]
    assert compare.judge(rate, steady, [98.0, 99.0, 97.5, 98.5])[0] == "ok"
    assert compare.judge(rate, steady, [70.0, 71.0, 69.0, 70.5])[0] == "regressed"
    noisy = [100.0, 140.0, 70.0, 120.0]
    assert compare.judge(rate, noisy, [95.0, 96.0, 97.0, 98.0])[0] == "unresolved"
    assert compare.judge(rate, noisy, [150.0, 151.0, 152.0, 153.0])[0] == "ok"
    failed = spec.E2E_BY_NAME["failed_ops_frac"]
    assert compare.judge(failed, [0.0], [0.001])[0] == "regressed"
