"""The soak engine: invariants, replayability, failure reporting.

A short (30-simulated-minute) canonical soak keeps these tests in the
tier-1 budget while still crossing partitions, crashes, slow windows
and noise bursts; the full 3-hour acceptance run lives in
``benchmarks/bench_soak.py``.
"""

import pytest

from repro.chaos import (
    FaultSchedule,
    InvariantViolation,
    SoakConfig,
    SoakRunner,
)
from repro.sync import DurabilityConfig, MemoryJournal

HORIZON_MS = 30 * 60_000.0


def short_config(seed: int = 20050607, **overrides) -> SoakConfig:
    defaults = dict(
        seed=seed,
        tenants=2,
        employees=120,
        duration_hours=0.5,
    )
    defaults.update(overrides)
    return SoakConfig(**defaults)


def run_soak(seed: int = 20050607, **overrides):
    config = short_config(seed, **overrides)
    schedule = FaultSchedule.canonical(seed, horizon_ms=HORIZON_MS)
    return SoakRunner(config, schedule).run()


class TestCleanRun:
    def test_the_provider_is_journaled(self):
        schedule = FaultSchedule.canonical(20050607, horizon_ms=HORIZON_MS)
        runner = SoakRunner(short_config(), schedule)
        assert isinstance(runner.provider.journal, MemoryJournal)
        assert runner.provider.durability == DurabilityConfig()

    def test_short_canonical_soak_holds_every_invariant(self):
        report = run_soak()
        assert report.ticks == 30
        assert report.updates_committed > 0
        assert report.queries_served > 0
        assert report.invariant_checks > 0
        # The schedule actually fired: partitions and crashes happened.
        assert report.fault_counts.get("partition", 0) >= 1
        assert report.fault_counts.get("crash", 0) >= 1
        # Everyone converged byte-identically after the last heal.
        assert report.converged
        assert report.gave_up == 0

    def test_replay_is_fingerprint_identical(self):
        assert run_soak().fingerprint() == run_soak().fingerprint()

    def test_different_seeds_diverge(self):
        assert run_soak(seed=1).fingerprint() != run_soak(seed=2).fingerprint()

    def test_fleet_table_renders_every_tenant(self):
        report = run_soak()
        table = report.fleet_table()
        assert "consumer" in table and "converged@" in table
        for snap in report.fleet:
            assert snap["name"] in table


class TestInvariantViolation:
    def test_message_names_seed_and_virtual_time(self):
        exc = InvariantViolation(
            "staleness-honesty", "tenant-x served fresh", seed=42, t_ms=1234.56
        )
        assert exc.invariant == "staleness-honesty"
        assert exc.seed == 42
        assert exc.t_ms == 1234.56
        assert "[seed=42 t=1235ms]" in str(exc)
        assert "staleness-honesty" in str(exc)

    def test_is_an_assertion_error(self):
        with pytest.raises(AssertionError):
            raise InvariantViolation("x", "y", seed=0, t_ms=0.0)


class TestConfig:
    def test_validation(self):
        # A zero interval divided mid-run; zero cycles made I3 blame a healthy tenant.
        for kwargs in ({"tenants": 0}, {"mode": "push"},
                       {"check_interval_ticks": 0}, {"convergence_cycles": 0}):
            with pytest.raises(ValueError):
                SoakConfig(**kwargs)

    def test_scenario_derives_from_the_soak_seed(self):
        config = short_config(seed=77)
        scenario = config.scenario_config()
        assert scenario.seed == 77
        assert scenario.duration_hours == 0.5
