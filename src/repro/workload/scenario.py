"""Long-horizon soak scenario: the load plan the chaos engine drives.

The figure benches replay the paper's two-day trace query-by-query; the
soak engine (:mod:`repro.chaos`) instead needs *hours of simulated
time* with realistic load shape, because the failure modes it hunts —
budget exhaustion, quarantine flapping, convergence after long
partitions — only show up against a clock.  This module turns a
:class:`ScenarioConfig` into a deterministic per-tick plan:

* **diurnal update waves** — the master's update rate follows a sine
  wave over the configured day length (quiet nights, busy middays),
  the directory-update analogue of the paper's observation that query
  traffic is strongly time-of-day dependent (§7.1);
* **flash-crowd query bursts** — short windows in which read traffic
  multiplies (an application stampede against the replicas), placed by
  the scenario seed;
* **region renames** — rare re-org waves: every employee of one
  division block is re-numbered in a single tick, the correlated-churn
  event that moves many entries across filter contents at once
  (`Es01`/`Es10` storms, §5.2).

Everything is derived from ``ScenarioConfig.seed``: the same config
yields the identical tick plan, which is what makes a soak run
replayable end-to-end (the chaos engine's core promise).  The plan is
*data*, not behavior — :class:`~repro.chaos.SoakRunner` owns applying
it to a master and its replica fleet.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..ldap.query import Scope, SearchRequest
from ..server.directory import DirectoryServer
from ..server.operations import Modification
from .datagen import ORG_SUFFIX, EnterpriseDirectory

__all__ = ["ScenarioConfig", "TickLoad", "SoakScenario", "RegionRenamer"]


@dataclass(frozen=True)
class ScenarioConfig:
    """Shape of the soak load plan (all derived from ``seed``).

    Attributes:
        seed: fixes flash-crowd placement, rename ticks and the
            fractional-update dithering — the whole plan.
        duration_hours: simulated horizon.
        tick_ms: virtual milliseconds per tick (one sync/update round).
        base_updates_per_tick: mean master updates per tick before the
            diurnal wave scales it.
        diurnal_amplitude: relative swing of the update wave in
            ``[0, 1]`` — 0.75 means middays run 1.75×, nights 0.25×.
        diurnal_period_hours: length of one simulated "day".
        base_queries_per_tick: background read traffic per replica.
        flash_crowds: number of burst windows across the horizon.
        flash_crowd_ticks: length of each burst window, in ticks.
        flash_crowd_queries: per-replica reads during a burst tick.
        region_renames: number of re-org waves across the horizon.
    """

    seed: int = 11
    duration_hours: float = 3.0
    tick_ms: float = 60_000.0
    base_updates_per_tick: float = 4.0
    diurnal_amplitude: float = 0.75
    diurnal_period_hours: float = 24.0
    base_queries_per_tick: int = 2
    flash_crowds: int = 2
    flash_crowd_ticks: int = 3
    flash_crowd_queries: int = 40
    region_renames: int = 1

    def __post_init__(self):
        if self.duration_hours <= 0:
            raise ValueError("duration_hours must be > 0")
        if self.tick_ms <= 0:
            raise ValueError("tick_ms must be > 0")
        if not 0.0 <= self.diurnal_amplitude <= 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1]")

    @property
    def ticks(self) -> int:
        return max(1, int(round(self.duration_hours * 3_600_000.0 / self.tick_ms)))


@dataclass(frozen=True)
class TickLoad:
    """One tick of the plan: what the soak runner applies at ``at_ms``."""

    tick: int
    at_ms: float
    updates: int
    queries: int
    flash_crowd: bool = False
    region_rename: bool = False


class SoakScenario:
    """The materialized tick plan: ``SoakScenario(config).ticks``.

    Deterministic: two scenarios built from equal configs are
    tick-for-tick identical (regression-tested in
    ``tests/chaos/test_soak.py``).
    """

    def __init__(self, config: Optional[ScenarioConfig] = None):
        self.config = config if config is not None else ScenarioConfig()
        self.ticks: Tuple[TickLoad, ...] = tuple(self._plan())

    def _plan(self) -> List[TickLoad]:
        cfg = self.config
        rng = random.Random(f"scenario:{cfg.seed}")
        n = cfg.ticks
        burst_ticks = self._windows(rng, n, cfg.flash_crowds, cfg.flash_crowd_ticks)
        rename_ticks = set(
            rng.sample(range(n), min(cfg.region_renames, n))
            if cfg.region_renames > 0
            else []
        )
        plan: List[TickLoad] = []
        for tick in range(n):
            hours = tick * cfg.tick_ms / 3_600_000.0
            # Trough at t=0 (the soak starts "at night"), peak half a
            # period in — so a short soak still sweeps rising load.
            wave = 1.0 - cfg.diurnal_amplitude * math.cos(
                2.0 * math.pi * hours / cfg.diurnal_period_hours
            )
            mean = cfg.base_updates_per_tick * wave
            # Dither the fractional part instead of rounding: a 0.25×
            # night still updates *sometimes*, and the long-run rate is
            # exactly the wave (seeded, so still replayable).
            updates = int(mean) + (1 if rng.random() < (mean - int(mean)) else 0)
            burst = tick in burst_ticks
            queries = cfg.flash_crowd_queries if burst else cfg.base_queries_per_tick
            plan.append(
                TickLoad(
                    tick=tick,
                    at_ms=tick * cfg.tick_ms,
                    updates=updates,
                    queries=queries,
                    flash_crowd=burst,
                    region_rename=tick in rename_ticks,
                )
            )
        return plan

    @staticmethod
    def _windows(rng: random.Random, n: int, count: int, length: int) -> set:
        """Ticks covered by *count* non-anchored burst windows."""
        covered: set = set()
        if count <= 0 or n <= 0:
            return covered
        for start in rng.sample(range(n), min(count, n)):
            covered.update(range(start, min(n, start + length)))
        return covered

    # ------------------------------------------------------------------
    @property
    def horizon_ms(self) -> float:
        return self.config.ticks * self.config.tick_ms


class RegionRenamer:
    """Executes the re-org waves: one division block re-numbered per wave.

    Each wave picks a division (round-robin over the directory's
    division numbers, offset by the seed so different soaks hit
    different regions first) and replaces every member employee's
    ``departmentNumber``/``divisionNumber`` with a freshly minted block
    — dozens of correlated modifies landing in one tick, the worst-case
    churn for department-filter replicas.
    """

    def __init__(
        self,
        directory: EnterpriseDirectory,
        master: DirectoryServer,
        seed: int = 0,
    ):
        self.master = master
        self.suffix = str(directory.suffix) if hasattr(directory, "suffix") else ORG_SUFFIX
        self._divisions = sorted(
            {d.first("divisionNumber") for d in directory.departments}
        )
        self._next = seed % max(1, len(self._divisions))
        self._wave = 0
        self.renamed_entries = 0

    def wave(self) -> int:
        """Run one re-org wave; returns the number of entries moved."""
        if not self._divisions:
            return 0
        division = self._divisions[self._next % len(self._divisions)]
        self._next += 1
        self._wave += 1
        # A brand-new division code, outside the generator's range, so
        # consecutive waves never collide.
        new_division = f"9{self._wave % 10}"
        result = self.master.search(
            SearchRequest(
                self.suffix, Scope.SUB, f"(divisionNumber={division})"
            )
        )
        moved = 0
        for entry in result.entries:
            if "person" not in entry.get("objectClass"):
                continue  # department entries keep their identity
            old_dept = entry.first("departmentNumber") or f"{division}00"
            new_dept = f"{new_division}{old_dept[-2:]}"
            self.master.modify(
                entry.dn,
                [
                    Modification.replace("departmentNumber", new_dept),
                    Modification.replace("divisionNumber", new_division),
                ],
            )
            moved += 1
        self.renamed_entries += moved
        return moved
