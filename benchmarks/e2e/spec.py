"""Names, units, bounds and sizes of the end-to-end benchmark.

Everything a later change cites — workload names, metric names, op
counts — is defined here once.  ``BENCHMARK.json`` at the root of the
repository repeats the driver-facing part (the smoke test keeps the two
equal); ``README.md`` in this directory explains each choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

DEFAULT_SEED = 20050607
#: Seconds one run measures at the calibrated op counts (scale 1).
RUN_SECONDS = 8
#: The timed window is cut into this many equal-op segments; every
#: wall-clock metric is the median segment.
SEGMENTS = 5
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

WORKLOADS: Dict[str, str] = {
    "branch_read": (
        "the paper's section 7 case: one branch replica at 10% of person "
        "entries, misses chase the referral; read path dominates, sync under 5%"
    ),
    "wide_read": (
        "same trace, 2000 stored filters and a 2000-query cache: every "
        "population-gated prescreen is active; no updates, no sync"
    ),
    "fleet_persist": (
        "1000 live persist sessions on the pipelined transport; commit, "
        "fan-out, batching, wire and apply do the work, containment none"
    ),
    "fleet_poll_mixed": (
        "24 selector-managed replicas polling, 4 queries to 1 update: reads "
        "beside writes on the same contents, recurring filter installs"
    ),
    "restart_recovery": (
        "durable provider, 40 resilient consumers, seeded restarts, crashes, "
        "dead cookies and history overflows: the only run of the recovery ladder"
    ),
}

READS = frozenset({"branch_read", "wide_read", "fleet_poll_mixed"})
ALL = frozenset(WORKLOADS)


# ----------------------------------------------------------------------
# calibrated sizes (scale 1 == RUN_SECONDS of timed window on the
# machine named in README.md; never adapted at run time)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Sizes:
    """Structure sizes and op counts of one workload at scale 1."""

    employees: int
    train: int = 0
    #: timed primary ops: queries (reads, mixed), updates (persist),
    #: recovery events (recovery)
    ops: int = 0
    stored: int = 0
    cache: int = 0
    sessions: int = 0
    replicas: int = 0


SIZES: Dict[str, Sizes] = {
    "branch_read": Sizes(employees=6000, train=20000, ops=55000, cache=50),
    "wide_read": Sizes(employees=6000, train=20000, ops=80000, stored=2000, cache=2000),
    "fleet_persist": Sizes(employees=4000, ops=2600, sessions=1000),
    "fleet_poll_mixed": Sizes(employees=6000, train=20000, ops=5600, stored=20, replicas=24),
    "restart_recovery": Sizes(employees=1000, ops=60, sessions=40),
}

#: ``--scale`` below 1 (smoke runs) shrinks structure — directory, fleet
#: and filter counts — along with the op counts, but never below this
#: share, so a ``--scale 0.02`` run still has blocks, departments and
#: several sessions per filter kind.
STRUCTURE_FLOOR = 0.05


def scaled(name: str, scale: float = 1.0, seconds: float = RUN_SECONDS) -> Sizes:
    """*name*'s sizes for a window of *seconds* at *scale*.  ``seconds``
    only rescales the op counts: a run is the same ops on every machine,
    so count metrics repeat exactly."""
    base = SIZES[name]
    structure = min(1.0, max(scale, STRUCTURE_FLOOR))

    def shrink(value: int, by: float, floor: int) -> int:
        return max(min(floor, value), round(value * by))

    return Sizes(
        employees=shrink(base.employees, structure, 300),
        train=shrink(base.train, structure, 500),
        ops=shrink(base.ops, scale * seconds / RUN_SECONDS, 2 * SEGMENTS),
        stored=shrink(base.stored, structure, 8),
        cache=shrink(base.cache, structure, 8),
        sessions=shrink(base.sessions, structure, 12),
        replicas=shrink(base.replicas, structure, 3),
    )


# ----------------------------------------------------------------------
# end-to-end metrics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: share of the parent's median by which the metric may worsen
    bound: float
    workloads: FrozenSet[str] = ALL
    #: a count or a virtual-clock reading: repeats exactly for a seed
    exact: bool = False
    #: when set, the bound is this absolute difference instead
    absolute: Optional[float] = None


#: Reported by every workload on every run: the ``end_to_end`` list of
#: BENCHMARK.json.  A rate or latency is over the workload's own op mix
#: (README.md says which ops each workload times).  The bounds are what
#: ten runs with ten different seeds need: at least three times the
#: widest quartile spread seen on any workload, where 0.25 allows it.
UNIVERSAL: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.08),
    Metric("ops_per_s", "1/s", "higher", 0.25),
    Metric("op_p50_us", "us", "lower", 0.25),
    Metric("wire_bytes_per_op", "B", "lower", 0.08, exact=True),
    Metric("wire_pdus_per_op", "count", "lower", 0.08, exact=True),
    Metric("replica_size_frac", "fraction", "lower", 0.05, exact=True),
)

_PERSIST = frozenset({"fleet_persist"})
_MIXED = frozenset({"fleet_poll_mixed"})
_RECOVERY = frozenset({"restart_recovery"})
_WRITES = frozenset({"fleet_persist", "fleet_poll_mixed"})
_SYNCED = frozenset({"branch_read", "fleet_persist", "fleet_poll_mixed"})

#: Reported where the workload has the op class (the issue's matrix).
#: Same-seed comparisons (compare.py) apply these bounds; the driver
#: sees only :data:`UNIVERSAL`, because it wants every metric from
#: every workload and none that can read 0.
BY_CLASS: Tuple[Metric, ...] = (
    Metric("failed_ops_frac", "fraction", "lower", 0.0, exact=True, absolute=0.0),
    Metric("queries_per_s", "1/s", "higher", 0.10, READS),
    Metric("query_hit_p50_us", "us", "lower", 0.10, READS),
    Metric("query_miss_p50_us", "us", "lower", 0.10, READS),
    Metric("hit_ratio", "fraction", "higher", 0.0, READS, exact=True, absolute=0.005),
    Metric("round_trips_per_query", "count", "lower", 0.01, READS, exact=True),
    Metric("updates_per_s", "1/s", "higher", 0.10, _WRITES),
    Metric("sync_bytes_per_update", "B", "lower", 0.01, _SYNCED, exact=True),
    Metric("sync_pdus_per_update", "count", "lower", 0.01, _SYNCED, exact=True),
    Metric("lag_virtual_ms_p99", "ms", "lower", 0.01, _PERSIST, exact=True),
    Metric("stale_answer_frac", "fraction", "lower", 0.0, _MIXED, exact=True, absolute=0.002),
    Metric("recoveries_per_s", "1/s", "higher", 0.10, _RECOVERY),
    Metric("recovery_bytes_per_restart", "B", "lower", 0.01, _RECOVERY, exact=True),
)

END_TO_END: Tuple[Metric, ...] = UNIVERSAL + BY_CLASS
E2E_BY_NAME: Dict[str, Metric] = {m.name: m for m in END_TO_END}


def e2e_names(workload: str) -> List[str]:
    """End-to-end metric names *workload* reports, in table order."""
    return [m.name for m in END_TO_END if workload in m.workloads]


# ----------------------------------------------------------------------
# per-layer metrics (traced pass)
# ----------------------------------------------------------------------
#: span name -> where the callers read it: ``module:attribute`` or
#: ``package:Class.method``.  A span with several targets is one layer
#: boundary reached through several classes (a subclass that overrides
#: the method); it is missing only when none resolves.
SPANS: Dict[str, Tuple[str, ...]] = {
    "server.client.search": ("repro.server:LdapClient.search",),
    "core.filter_replica.answer": ("repro.core:FilterReplica.answer",),
    "core.filter_replica.add_filter": ("repro.core:FilterReplica.add_filter",),
    "core.filter_replica.remove_filter": ("repro.core:FilterReplica.remove_filter",),
    "core.filter_replica.sync": ("repro.core:FilterReplica.sync",),
    "core.containment.query_contained_in": (
        "repro.core.filter_replica:query_contained_in",
        "repro.core.query_cache:query_contained_in",
    ),
    "core.routing.candidates": ("repro.core:ContainmentIndex.candidates",),
    "core.query_cache.lookup": ("repro.core:RecentQueryCache.lookup",),
    "core.query_cache.insert": ("repro.core:RecentQueryCache.insert",),
    "core.selection.observe": ("repro.core:FilterSelector.observe",),
    "core.selection.revolution": ("repro.core:FilterSelector.revolution",),
    "server.directory.search": ("repro.server:DirectoryServer.search",),
    "server.directory.commit": (
        "repro.server:DirectoryServer.add",
        "repro.server:DirectoryServer.modify",
        "repro.server:DirectoryServer.delete",
        "repro.server:DirectoryServer.modify_dn",
    ),
    "server.planner.plan": ("repro.server:SearchPlanner.plan",),
    "sync.resync.on_update": ("repro.sync:ResyncProvider.on_update",),
    "sync.resync.handle": ("repro.sync:ResyncProvider.handle",),
    "sync.resync.reconcile": ("repro.sync:ResyncProvider.reconcile",),
    "sync.resync.recover": ("repro.sync:ResyncProvider.recover",),
    "sync.router.route_verdicts": ("repro.sync:SessionRouter.route_verdicts",),
    "sync.session.enqueue": ("repro.sync:Session.enqueue",),
    "sync.delivery.offer_many": ("repro.sync:DeliveryQueue.offer_many",),
    "sync.delivery.flush": ("repro.sync:DeliveryQueue.flush",),
    "ldap.ber.encoded_sync_batch_size": ("repro.ldap.ber:encoded_sync_batch_size",),
    "server.network.deliver_batch": (
        "repro.server:SimulatedNetwork.deliver_batch",
        "repro.server:FaultyNetwork.deliver_batch",
    ),
    "server.network.sync_exchange": (
        "repro.server:SimulatedNetwork.sync_exchange",
        "repro.server:FaultyNetwork.sync_exchange",
    ),
    "server.network.settle": ("repro.server:SimulatedNetwork.settle",),
    "sync.consumer.apply_notification": ("repro.sync:SyncedContent.apply_notification",),
    "sync.consumer.apply": ("repro.sync:SyncedContent.apply",),
    "sync.consumer.evaluate": ("repro.sync:SyncedContent.evaluate",),
    "sync.resilient.sync_once": ("repro.sync:ResilientConsumer.sync_once",),
    "sync.resilient.reconcile": ("repro.sync:ResilientConsumer.reconcile",),
    "sync.snapshot.warm_start": ("repro.sync:SnapshotRecoverer.warm_start",),
    "sync.snapshot.save": ("repro.sync:SnapshotRecoverer.save",),
    "sync.durability.append": ("repro.sync:MemoryJournal.append",),
}

#: count / ratio name -> unit
COUNTS: Dict[str, str] = {
    "server.client.query_hit_p99_us": "us",
    "server.client.query_miss_p99_us": "us",
    "server.client.hops_per_miss": "count",
    "core.filter_replica.containment_checks_per_query": "count",
    "core.filter_replica.stored_filters": "count",
    "core.containment.memo_hit_frac": "fraction",
    "core.routing.candidates_per_query": "count",
    "core.amq.negative_frac": "fraction",
    "core.amq.fpr": "fraction",
    "core.query_cache.hit_frac": "fraction",
    "core.query_cache.negative_hit_frac": "fraction",
    "core.selection.revolutions": "count",
    "core.selection.filters_swapped_per_revolution": "count",
    "server.directory.entries_examined_per_search": "count",
    "server.directory.entries_returned_per_search": "count",
    "server.planner.scan_frac": "fraction",
    "sync.resync.sessions": "count",
    "sync.resync.history_scanned_per_poll": "count",
    "sync.router.sessions_visited_per_update": "count",
    "sync.router.filter_evals_per_update": "count",
    "sync.session.history_len_mean": "count",
    "sync.delivery.coalescing_factor": "count",
    "sync.delivery.batch_size_mean": "count",
    "sync.delivery.degraded_queues": "count",
    "ldap.ber.bytes_per_pdu": "B",
    "server.network.sync_round_trips_per_update": "count",
    "server.scheduler.events_per_update": "count",
    "sync.consumer.entries_applied_per_update": "count",
    "sync.resilient.tier_snapshot": "count",
    "sync.resilient.tier_resume": "count",
    "sync.resilient.tier_sketch": "count",
    "sync.resilient.tier_rebuild": "count",
    "sync.resilient.retries": "count",
    "sync.resilient.wasted_requests": "count",
    "sync.snapshot.bytes": "B",
    "sync.durability.journal_bytes_per_update": "B",
    "sync.reconcile.sketch_bytes": "B",
    "sync.reconcile.decode_failures": "count",
    "trace_overhead_frac": "fraction",
    "trace_attributed_frac": "fraction",
}


def per_layer() -> List[Tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in table order."""
    rows: List[Tuple[str, str, str]] = []
    for span in SPANS:
        rows.append((f"{span}.calls", "count", "lower"))
        rows.append((f"{span}.self_s", "s", "lower"))
    for name, unit in COUNTS.items():
        rows.append((name, unit, _COUNT_BETTER.get(name, "lower")))
    return rows


_COUNT_BETTER = {
    "core.containment.memo_hit_frac": "higher",
    "core.amq.negative_frac": "higher",
    "core.query_cache.hit_frac": "higher",
    "core.query_cache.negative_hit_frac": "higher",
    "sync.delivery.coalescing_factor": "higher",
    "sync.delivery.batch_size_mean": "higher",
    "sync.resilient.tier_snapshot": "higher",
    "sync.resilient.tier_resume": "higher",
    "trace_attributed_frac": "higher",
}


def benchmark_json() -> dict:
    """The driver-facing description; BENCHMARK.json holds its dump."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in UNIVERSAL
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in per_layer()
        ],
    }
