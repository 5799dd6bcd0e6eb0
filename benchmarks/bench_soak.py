"""E21 — chaos soak: invariants and graceful degradation under schedule.

Two claims ride on the soak engine (docs/FAULTS.md §5):

1. **Soak invariants hold under the canonical schedule.**  A seeded
   3-simulated-hour soak — 3 tenant replicas, diurnal update waves,
   flash-crowd query bursts, region renames — runs under nine
   overlapping fault windows (two partitions, two provider crashes,
   two slow-node windows, message noise) with *zero* invariant
   violations: nobody serves fresh-looking stale data, journal replay
   is deterministic, and every replica converges byte-identically to
   the master once the last window heals.  The run is replayed from
   the same seed and must produce an identical report fingerprint.

2. **The health machine protects the provider.**  Against a provider
   partitioned for a whole virtual horizon, a consumer (circuit breaker
   + quarantine, docs/FAULTS.md §4) sends no more requests than its
   policy allows: ``breaker_threshold`` per trip until quarantine, then
   one probe per ``quarantine_probe_ms`` — a ceiling computed from the
   policy and gated here against ``degradation_health_requests``.

All quantities are deterministic (virtual clock, seeded schedules), so
the committed baseline diffs exactly; only the wall-time metric is
runner-dependent (gated by the validator's seconds sanity bound).
"""

from __future__ import annotations

import math
import time

from repro.chaos import FaultSchedule, SoakConfig, SoakRunner
from repro.ldap import Entry, Scope, SearchRequest
from repro.server import DirectoryServer, FaultyNetwork
from repro.sync import HealthPolicy, ResilientConsumer, ResyncProvider, RetryPolicy

from .common import report

SEED = 20050607
HOURS = 3.0
TENANTS = 3
EMPLOYEES = 240

#: Virtual horizon of the graceful-degradation cell (one sustained
#: partition).
DEGRADATION_HORIZON_MS = 300_000.0

_CELL_POLICY = RetryPolicy(
    max_attempts=4, base_backoff_ms=20.0, max_backoff_ms=2_000.0, degraded_after=2
)
_CELL_HEALTH = HealthPolicy(
    max_total_attempts=64,
    max_total_backoff_ms=600_000.0,
    breaker_threshold=5,
    breaker_cooldown_ms=10_000.0,
    quarantine_after=2,
    quarantine_probe_ms=120_000.0,
)
#: What the policy lets an unreachable provider see over the horizon:
#: a full threshold of faults per breaker trip until quarantine, then
#: interval probes.  The count is deterministic on the virtual clock.
DEGRADATION_CEILING = (
    _CELL_HEALTH.quarantine_after * _CELL_HEALTH.breaker_threshold
    + math.ceil(DEGRADATION_HORIZON_MS / _CELL_HEALTH.quarantine_probe_ms)
)


def run_soak(seed: int = SEED):
    """One canonical soak run; raises InvariantViolation on any break."""
    config = SoakConfig(
        seed=seed,
        tenants=TENANTS,
        employees=EMPLOYEES,
        duration_hours=HOURS,
    )
    schedule = FaultSchedule.canonical(seed, horizon_ms=HOURS * 3_600_000.0)
    return SoakRunner(config, schedule).run(), schedule


def _cell_master() -> DirectoryServer:
    master = DirectoryServer("M")
    master.add_naming_context("o=xyz")
    master.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
    for i in range(10):
        master.add(
            Entry(
                f"cn=P{i},o=xyz",
                {
                    "objectClass": ["person"],
                    "cn": f"P{i}",
                    "sn": "T",
                    "departmentNumber": "42",
                },
            )
        )
    return master


def degradation_requests(seed: int = SEED) -> int:
    """Provider requests one consumer sends across the degradation
    horizon while its provider is partitioned.

    The consumer establishes a clean initial sync, the partition cuts,
    and the consumer is then driven until the virtual clock crosses the
    horizon: it trips its breaker, quarantines and paces down to
    interval probes (or retires).  Only post-cut requests are counted.
    """
    master = _cell_master()
    provider = ResyncProvider(master)
    net = FaultyNetwork()
    consumer = ResilientConsumer(
        SearchRequest("o=xyz", Scope.SUB, "(departmentNumber=42)"),
        provider,
        network=net,
        seed=seed,
        policy=_CELL_POLICY,
        health=_CELL_HEALTH,
        name="degradation-cell",
    )
    assert consumer.sync_once() is not None  # established before the cut
    net.partition(provider)
    net.stats.reset()
    guard = 0
    while net.elapsed_ms < DEGRADATION_HORIZON_MS:
        consumer.sync_once()
        if consumer.health_state == "gave_up":
            break  # terminal: zero further requests, zero clock advance
        guard += 1
        assert guard < 200_000, "degradation cell failed to advance the clock"
    return int(net.stats.round_trips)


def test_soak(benchmark):
    start = time.perf_counter()
    soak, schedule = run_soak()
    soak_seconds = time.perf_counter() - start

    # The schedule must actually be the acceptance shape: 8+ fault
    # windows with real overlap, at least one partition and one crash.
    kinds = [w["kind"] for w in soak.windows]
    assert len(soak.windows) >= 8
    assert soak.overlapping_windows >= 8
    assert "partition" in kinds and "crash" in kinds
    assert soak.fault_counts.get("partition", 0) >= 1
    assert soak.fault_counts.get("crash", 0) >= 1

    # Invariants: the run completed (no InvariantViolation), everyone
    # converged byte-identically, nobody was retired.
    assert soak.converged and soak.gave_up == 0
    assert soak.degraded_queries > 0  # the faults were actually felt

    # Replayability: an identical second run, fingerprint-equal.
    replay, _ = run_soak()
    assert soak.fingerprint() == replay.fingerprint()

    # Graceful degradation: an unreachable provider sees no more
    # requests than the policy allows.
    health_requests = degradation_requests()
    assert 0 < health_requests <= DEGRADATION_CEILING, (
        f"{health_requests} requests against a partitioned provider "
        f"(policy ceiling {DEGRADATION_CEILING})"
    )

    rows = []
    for snap in soak.fleet:
        cycles = soak.convergence_cycles.get(snap["name"])
        rows.append(
            [
                snap["name"],
                snap["state"],
                snap["breaker_trips"],
                snap["attempts_spent"],
                snap["entries"],
                "never" if cycles is None else cycles,
            ]
        )
    rows.append(["(degradation)", "partitioned", "-", health_requests, "-", "-"])

    metrics = {
        "soak_ticks": soak.ticks,
        "soak_updates": soak.updates_committed,
        "soak_renamed_entries": soak.renamed_entries,
        "soak_queries": soak.queries_served,
        "soak_degraded_queries": soak.degraded_queries,
        "soak_invariant_checks": soak.invariant_checks,
        "soak_fault_total": sum(soak.fault_counts.values()),
        "soak_windows": len(soak.windows),
        "soak_overlapping_pairs": soak.overlapping_windows,
        "soak_gave_up": soak.gave_up,
        "soak_converged": int(soak.converged),
        "soak_replay_identical": int(soak.fingerprint() == replay.fingerprint()),
        "soak_run_seconds": soak_seconds,
        "round_trips": soak.round_trips,
        "bytes_sent": soak.bytes_sent,
        "degradation_health_requests": health_requests,
    }
    for kind, count in sorted(soak.fault_counts.items()):
        metrics[f"fault_{kind}"] = count

    report(
        "soak",
        f"Chaos soak: {HOURS:g} simulated hours, {TENANTS} tenants, "
        f"{len(soak.windows)} fault windows (seed {SEED})",
        ["consumer", "state", "trips", "attempts", "entries", "converged@"],
        rows,
        params={
            "seed": SEED,
            "hours": HOURS,
            "tenants": TENANTS,
            "employees": EMPLOYEES,
            "degradation_horizon_ms": DEGRADATION_HORIZON_MS,
            "degradation_ceiling": DEGRADATION_CEILING,
        },
        metrics=metrics,
        paper_expected=None,
    )

    # Timed unit: the full graceful-degradation cell (initial sync,
    # partition, breaker trips, quarantine pacing across the horizon).
    benchmark(degradation_requests)
