"""The soak engine: long-horizon chaos runs with continuous invariants.

A :class:`SoakRunner` stitches the repository's deterministic pieces
into one closed-loop experiment:

* a master loaded from the synthetic enterprise directory, fronted by a
  durable (journaled) :class:`~repro.sync.resync.ResyncProvider`;
* N tenant replicas — one :class:`~repro.sync.ResilientConsumer` per
  country subtree, each under the config's health policy
  (docs/FAULTS.md §4);
* the :class:`~repro.workload.SoakScenario` load plan (diurnal update
  waves, flash-crowd query bursts, region renames);
* a :class:`~repro.chaos.FaultSchedule` armed on the network's
  deterministic scheduler.

Between ticks the runner checks the soak **invariants**, failing fast
with an :class:`InvariantViolation` that names the seed and the
virtual-clock timestamp — everything needed to replay the failure:

I1 — **staleness honesty** (``ReferenceModel.honest``): no replica
    behind past its degraded threshold, quarantined or retired serves
    fresh-looking reads — what the paper's availability argument (§5)
    forbids.
I2 — **journal-replay determinism**, the runner's own: two recoveries
    from identical journal copies reconstruct byte-identical sessions.
I3 — **post-heal convergence** (``ReferenceModel.converge``): after the
    last window heals, the model holds every replica's content within
    the cycle budget (a consumer retired to ``gave_up`` fails too,
    unless the config opts out).

The whole run is a pure function of ``(SoakConfig, FaultSchedule)``:
:meth:`SoakReport.fingerprint` hashes every observable outcome, and two
runs from the same inputs produce equal fingerprints (asserted by
``benchmarks/bench_soak.py`` on every run).
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..ldap.query import Scope, SearchRequest
from ..server.directory import DirectoryServer
from ..server.faults import FaultyNetwork
from ..sync import (
    HealthPolicy,
    MemoryJournal,
    ResilientConsumer,
    ResyncProvider,
    RetryPolicy,
)
from ..sync.durability import session_to_wire
from ..workload import DirectoryConfig, generate_directory
from ..workload.scenario import RegionRenamer, ScenarioConfig, SoakScenario
from ..workload.updates import UpdateConfig, UpdateGenerator
from .model import ReferenceModel
from .schedule import FaultSchedule

__all__ = ["SoakConfig", "SoakReport", "SoakRunner", "InvariantViolation"]


class InvariantViolation(AssertionError):
    """A soak invariant broke; carries everything needed to replay."""

    def __init__(self, invariant: str, message: str, seed: int, t_ms: float):
        super().__init__(
            f"[seed={seed} t={t_ms:.0f}ms] invariant {invariant}: {message}"
        )
        self.invariant = invariant
        self.seed = seed
        self.t_ms = t_ms


@dataclass(frozen=True)
class SoakConfig:
    """One soak run's shape (the scenario derives from the same seed).

    The default health policy is deliberately roomier than
    :class:`HealthPolicy`'s: a multi-hour soak crosses long partitions
    whose quarantine re-probes each cost an attempt, and the canonical
    run is supposed to *survive* them — budget exhaustion is a scenario
    for the terminal-state tests, not the baseline soak.
    """

    seed: int = 0
    tenants: int = 3
    employees: int = 240
    duration_hours: float = 3.0
    tick_ms: float = 60_000.0
    mode: str = "poll"
    policy: RetryPolicy = RetryPolicy(
        max_attempts=4,
        base_backoff_ms=20.0,
        max_backoff_ms=2_000.0,
        degraded_after=2,
    )
    health: HealthPolicy = HealthPolicy(
        max_total_attempts=512,
        max_total_backoff_ms=3_600_000.0,
        breaker_threshold=5,
        breaker_cooldown_ms=10_000.0,
        quarantine_after=2,
        quarantine_probe_ms=120_000.0,
    )
    scenario: Optional[ScenarioConfig] = None
    convergence_cycles: int = 96
    check_interval_ticks: int = 10

    def __post_init__(self):
        if self.tenants < 1:
            raise ValueError("tenants must be >= 1")
        if self.convergence_cycles < 1:
            raise ValueError("convergence_cycles must be >= 1")
        if self.check_interval_ticks < 1:
            raise ValueError("check_interval_ticks must be >= 1")
        if self.mode not in ("poll", "persist"):
            raise ValueError(f"mode must be 'poll' or 'persist', got {self.mode!r}")

    def scenario_config(self) -> ScenarioConfig:
        if self.scenario is not None:
            return self.scenario
        return ScenarioConfig(
            seed=self.seed,
            duration_hours=self.duration_hours,
            tick_ms=self.tick_ms,
        )


@dataclass
class SoakReport:
    """Everything one clean soak run observed (violations raise)."""

    seed: int
    ticks: int
    horizon_ms: float
    tenants: int
    updates_committed: int
    renamed_entries: int
    queries_served: int
    degraded_queries: int
    invariant_checks: int
    fault_counts: Dict[str, int]
    windows: List[dict]
    overlapping_windows: int
    fleet: List[dict]
    convergence_cycles: Dict[str, Optional[int]]
    gave_up: int
    round_trips: int
    bytes_sent: int
    elapsed_virtual_ms: float

    @property
    def converged(self) -> bool:
        return all(c is not None for c in self.convergence_cycles.values())

    def fingerprint(self) -> str:
        """SHA-256 over every observable outcome — equal for two runs
        of the same ``(SoakConfig, FaultSchedule)``; the bench asserts
        this on every run (the replayability gate)."""
        payload = {
            "seed": self.seed,
            "ticks": self.ticks,
            "updates": self.updates_committed,
            "renamed": self.renamed_entries,
            "queries": self.queries_served,
            "degraded_queries": self.degraded_queries,
            "faults": dict(sorted(self.fault_counts.items())),
            "fleet": self.fleet,
            "convergence": self.convergence_cycles,
            "round_trips": self.round_trips,
            "bytes_sent": self.bytes_sent,
            "elapsed_virtual_ms": round(self.elapsed_virtual_ms, 3),
        }
        blob = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def fleet_table(self) -> str:
        """The fleet-status table ``repro-ldap soak`` prints."""
        headers = (
            "consumer",
            "mode",
            "state",
            "breaker",
            "degraded",
            "trips",
            "attempts",
            "backoff_ms",
            "entries",
            "converged@",
        )
        rows = []
        for snap in self.fleet:
            cycles = self.convergence_cycles.get(snap["name"])
            rows.append(
                (
                    snap["name"],
                    snap["mode"],
                    snap["state"],
                    snap["breaker"],
                    "yes" if snap["degraded"] else "no",
                    str(snap["breaker_trips"]),
                    str(snap["attempts_spent"]),
                    f"{snap['backoff_budget_ms']:.0f}",
                    str(snap["entries"]),
                    "never" if cycles is None else f"cycle {cycles}",
                )
            )
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
            for i in range(len(headers))
        ]
        lines = [
            "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
            "  ".join("-" * w for w in widths),
        ]
        for row in rows:
            lines.append("  ".join(v.ljust(widths[i]) for i, v in enumerate(row)))
        return "\n".join(lines)


class SoakRunner:
    """Drives one soak run; see the module docstring for the design."""

    def __init__(self, config: Optional[SoakConfig], schedule: FaultSchedule):
        self.config = config if config is not None else SoakConfig()
        self.schedule = schedule
        cfg = self.config
        self.directory = generate_directory(
            DirectoryConfig(employees=cfg.employees, seed=cfg.seed)
        )
        self.master = DirectoryServer("master")
        self.master.add_naming_context(self.directory.suffix)
        self.master.load(self.directory.entries)
        self.network = FaultyNetwork(seed=cfg.seed)
        self.scheduler = self.network.scheduler
        self.provider = ResyncProvider(self.master, journal=MemoryJournal())
        countries = self.directory.countries()
        self.consumers: List[ResilientConsumer] = []
        for i in range(cfg.tenants):
            cc = countries[i % len(countries)]
            request = SearchRequest(
                f"c={cc},{self.directory.suffix}",
                Scope.SUB,
                "(objectClass=person)",
            )
            self.consumers.append(
                ResilientConsumer(
                    request,
                    self.provider,
                    network=self.network,
                    policy=cfg.policy,
                    seed=cfg.seed * 1000 + i,
                    mode=cfg.mode,
                    health=cfg.health,
                    name=f"tenant-{cc.lower()}-{i}",
                )
            )
        self.scenario = SoakScenario(cfg.scenario_config())
        self.updates = UpdateGenerator(
            self.directory, self.master, UpdateConfig(seed=cfg.seed)
        )
        self.renamer = RegionRenamer(self.directory, self.master, seed=cfg.seed)
        self._rng = random.Random(f"soak:{cfg.seed}")
        registry = self.network.registry
        self._ticks = registry.counter("chaos.ticks")
        self._updates_c = registry.counter("chaos.updates")
        self._renames_c = registry.counter("chaos.renames")
        self._queries_c = registry.counter("chaos.queries")
        self._degraded_q = registry.counter("chaos.queries.degraded")
        self._checks = registry.counter("chaos.invariant_checks")
        self._violations = registry.counter("chaos.violations")
        self.schedule.arm(self.network, self.provider, self.scheduler)

    # ------------------------------------------------------------------
    # the run loop
    # ------------------------------------------------------------------
    def run(self) -> SoakReport:
        """Execute the whole soak; returns the report or raises
        :class:`InvariantViolation` at the first broken invariant."""
        cfg = self.config
        queries_served = 0
        degraded_queries = 0
        for tick in self.scenario.ticks:
            # Advance the virtual clock to this tick, firing every
            # schedule boundary due on the way.
            self.scheduler.run_for(max(0.0, tick.at_ms - self.scheduler.now))
            self._ticks.inc()
            if tick.region_rename:
                moved = self.renamer.wave()
                self._renames_c.inc(moved)
            if tick.updates:
                self._updates_c.inc(self.updates.apply(tick.updates))
            for consumer in self.consumers:
                consumer.sync_once()
            served, degraded = self._serve_queries(tick.queries)
            queries_served += served
            degraded_queries += degraded
            self._check_staleness_honesty()
            if tick.tick % cfg.check_interval_ticks == 0:
                self._check_journal_replay()
        # Drain any window boundary beyond the last tick, then heal:
        # "after the last fault window" is where convergence is owed.
        self.scheduler.run_for(
            max(0.0, self.schedule.horizon_ms - self.scheduler.now)
        )
        self.network.heal()
        convergence = self._check_convergence()
        self._check_journal_replay()
        return SoakReport(
            seed=cfg.seed,
            ticks=len(self.scenario.ticks),
            horizon_ms=self.scenario.horizon_ms,
            tenants=cfg.tenants,
            updates_committed=int(self._updates_c.value),
            renamed_entries=self.renamer.renamed_entries,
            queries_served=queries_served,
            degraded_queries=degraded_queries,
            invariant_checks=int(self._checks.value),
            fault_counts=self.network.fault_counts(),
            windows=self.schedule.describe(),
            overlapping_windows=self.schedule.overlap_count(),
            fleet=[c.health_snapshot() for c in self.consumers],
            convergence_cycles=convergence,
            gave_up=sum(1 for c in self.consumers if c.health_state == "gave_up"),
            round_trips=self.network.stats.round_trips,
            bytes_sent=self.network.stats.bytes_sent,
            elapsed_virtual_ms=self.network.elapsed_ms + self.scheduler.now,
        )

    def _serve_queries(self, count: int) -> tuple:
        """Serve this tick's read burst from the replica fleet.

        Reads are answered from local content (that is the point of
        replication); a degraded consumer still answers — availability
        over freshness — but every such read is counted separately, the
        quantity the staleness-honesty invariant keeps truthful.
        """
        served = 0
        degraded = 0
        for consumer in self.consumers:
            entries = list(consumer.content.entries.values())
            for _ in range(count):
                if entries:
                    self._rng.choice(entries)
                served += 1
                self._queries_c.inc()
                if consumer.degraded:
                    degraded += 1
                    self._degraded_q.inc()
        return served, degraded

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def _now_ms(self) -> float:
        return self.network.elapsed_ms + self.scheduler.now

    def _fail(self, invariant: str, message: str) -> None:
        self._violations.inc()
        raise InvariantViolation(
            invariant, message, seed=self.config.seed, t_ms=self._now_ms()
        )

    def _check_staleness_honesty(self) -> None:
        """I1: nobody serves fresh-looking stale data."""
        self._checks.inc()
        for consumer in self.consumers:
            reason = ReferenceModel.honest(consumer)
            if reason is not None:
                self._fail("I1", f"{consumer.name} {reason}")

    def _journal_fingerprint(self) -> str:
        """Recover a throwaway provider from a copy of the live journal
        and hash the reconstructed session state."""
        clone = ResyncProvider(
            self.master,
            durability=self.provider.durability,
            journal=copy.deepcopy(self.provider.journal),
        )
        clone.recover()
        payload = {
            "watermark": clone._watermark,
            "sessions": sorted(
                (session_to_wire(s) for s in clone.sessions.active_sessions()),
                key=lambda wire: wire["sid"],
            ),
            "last_change": sorted(
                (str(dn), csn) for dn, csn in clone._last_change.items()
            ),
        }
        blob = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def _check_journal_replay(self) -> None:
        """I2: journal replay is deterministic — two recoveries from
        identical journal copies reconstruct byte-identical state."""
        self._checks.inc()
        first = self._journal_fingerprint()
        second = self._journal_fingerprint()
        if first != second:
            self._fail(
                "I2",
                f"two replays of the same journal diverged "
                f"({first[:12]} != {second[:12]})",
            )

    def _check_convergence(self) -> Dict[str, Optional[int]]:
        """I3: every replica converges to master content post-heal."""
        self._checks.inc()
        cfg = self.config
        model = ReferenceModel.of(self.master)
        convergence: Dict[str, Optional[int]] = {}
        for consumer in self.consumers:
            if consumer.health_state == "gave_up":
                convergence[consumer.name] = None
                self._fail(
                    "I3",
                    f"{consumer.name} exhausted its retry budget "
                    "(gave_up) before the faults healed",
                )
                continue
            cycles = model.converge(consumer.sync_once, [consumer.content], cfg.convergence_cycles)
            convergence[consumer.name] = cycles
            if cycles is None:
                self._fail(
                    "I3",
                    f"{consumer.name} did not match the master within "
                    f"{cfg.convergence_cycles} post-heal cycles",
                )
        return convergence
