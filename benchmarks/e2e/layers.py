"""The count and ratio half of the per-layer metrics.

Span times come from :mod:`trace`.  The counts here are read at the same
boundaries: from the return values the span wrappers see (the hooks
below) or from counters the program documents as public (metrics
registries, ``containment_checks``, ``events_run``), as differences over
the timed window.  Counters that verification also moves (the master's
search planner) are read inside the wrapper, around the traced call.
"""

from __future__ import annotations

from statistics import mean
from typing import Callable, Dict, List, Optional

from . import spec
from .trace import Tracer, lookup


def _safe(fn: Callable) -> Callable:
    """A hook must never fail the run: a return value that changed shape
    costs the count, not the benchmark."""

    def hook(sums, args, result, token):
        try:
            fn(sums, args, result, token)
        except (AttributeError, TypeError, IndexError, KeyError):
            sums["hook_errors"] = sums.get("hook_errors", 0.0) + 1

    return hook


def _add(sums: Dict[str, float], key: str, value: float) -> None:
    sums[key] = sums.get(key, 0.0) + value


def hooks() -> Dict[str, Callable]:
    def candidates(sums, args, result, token):
        _add(sums, "route.candidates", len(result))

    def cache_lookup(sums, args, result, token):
        _add(sums, "cache.lookups", 1)
        _add(sums, "cache.hits", result is not None)

    def revolution(sums, args, result, token):
        _add(sums, "selection.revolutions", 1)
        _add(sums, "selection.swapped", len(result.installed) + len(result.removed))

    def plan(sums, args, result, token):
        _add(sums, "plan.plans", 1)
        _add(sums, "plan.scans", bool(result.is_scan))

    def handle(sums, args, result, token):
        _add(sums, "poll.polls", 1)
        _add(sums, "poll.scanned", len(result.updates))

    def route(sums, args, result, token):
        _add(sums, "router.visited", len(result))
        _add(sums, "router.evals", sum(1 for _, verdict in result if verdict is None))

    def batch_size(sums, args, result, token):
        _add(sums, "ber.bytes", result)
        _add(sums, "ber.pdus", len(args[0]))

    def notification(sums, args, result, token):
        _add(sums, "consumer.applied", 1)

    def response(sums, args, result, token):
        _add(sums, "consumer.applied", len(args[1].updates))

    def search(sums, args, result, token):
        examined, matched = _plan_counters(args[0])
        _add(sums, "search.examined", examined.value - token[0])
        _add(sums, "search.returned", matched.value - token[1])

    def before_search(args):
        examined, matched = _plan_counters(args[0])
        return (examined.value, matched.value)

    search_hook = _safe(search)
    search_hook.before = before_search
    return {
        "core.routing.candidates": _safe(candidates),
        "core.query_cache.lookup": _safe(cache_lookup),
        "core.selection.revolution": _safe(revolution),
        "server.planner.plan": _safe(plan),
        "sync.resync.handle": _safe(handle),
        "sync.router.route_verdicts": _safe(route),
        "ldap.ber.encoded_sync_batch_size": _safe(batch_size),
        "sync.consumer.apply_notification": _safe(notification),
        "sync.consumer.apply": _safe(response),
        "server.directory.search": search_hook,
    }


def _plan_counters(server):
    metrics = server.metrics
    return metrics.counter("server.plan.examined"), metrics.counter("server.plan.matched")


# ----------------------------------------------------------------------
# window snapshots of public counters
# ----------------------------------------------------------------------
def _qc_memo() -> Dict[str, float]:
    read = lookup("repro.core.containment:containment_cache_metrics")
    return dict(read()) if read is not None else {}


def _replica_registries(replicas) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for replica in replicas:
        replica.sync_amq_metrics()
        for key, value in replica.metrics.to_dict().items():
            if isinstance(value, (int, float)):
                total[key] = total.get(key, 0.0) + value
    return total


def snapshot(view: Dict[str, object]) -> Dict[str, Dict[str, float]]:
    """The public counters of *view*'s objects, now."""
    network = view["network"]
    replicas = view.get("replicas", [])
    return {
        "net": {
            k: v for k, v in network.registry.to_dict().items() if isinstance(v, (int, float))
        },
        "replica": _replica_registries(replicas),
        "qc": _qc_memo(),
        "misc": {
            "checks": sum(r.containment_checks for r in replicas),
            "events": network.scheduler.events_run,
        },
    }


def history_len(view: Dict[str, object]) -> float:
    sessions = view["provider"].sessions.active_sessions()
    return mean(s.pending_count for s in sessions) if sessions else 0.0


def _ratio(top: float, bottom: float) -> float:
    return top / bottom if bottom else 0.0


def collect(
    view: Dict[str, object],
    tracer: Tracer,
    meter,
    before: Dict[str, Dict[str, float]],
    history_samples: List[float],
    untraced_wall: float,
) -> Dict[str, Optional[float]]:
    """Every name of ``spec.COUNTS`` for the traced window."""
    after = snapshot(view)

    def moved(group: str, key: str) -> float:
        return after[group].get(key, 0.0) - before[group].get(key, 0.0)

    def moved_matching(group: str, prefix: str) -> float:
        return sum(
            value - before[group].get(key, 0.0)
            for key, value in after[group].items()
            if key.startswith(prefix)
        )

    sums, facts = tracer.sums, meter.facts
    calls = dict(zip(tracer.names, tracer.calls))
    hits = meter.count(("query_hit",))
    misses = meter.count(("query_miss",))
    queries = hits + misses
    updates = facts.get("updates", 0.0)
    replicas = view.get("replicas", [])
    stores = view.get("stores", [])
    fpr_keys = [k for k in after["replica"] if k.startswith("core.amq.fpr")]
    memo_hits = moved("qc", "core.qc.cache.hits")
    out: Dict[str, Optional[float]] = {
        "server.client.query_hit_p99_us": meter.p99_us(("query_hit",)),
        "server.client.query_miss_p99_us": meter.p99_us(("query_miss",)),
        "server.client.hops_per_miss": _ratio(facts.get("round_trips", 0.0) - hits, misses),
        "core.filter_replica.containment_checks_per_query": _ratio(moved("misc", "checks"), queries),
        "core.filter_replica.stored_filters": (
            mean(len(r.stored_filters()) for r in replicas) if replicas else 0.0
        ),
        "core.containment.memo_hit_frac": (
            _ratio(memo_hits, memo_hits + moved("qc", "core.qc.cache.misses"))
            if after["qc"] else None
        ),
        "core.routing.candidates_per_query": _ratio(sums.get("route.candidates", 0.0), queries),
        "core.amq.negative_frac": _ratio(
            moved_matching("replica", "core.amq.negatives"),
            moved_matching("replica", "core.amq.lookups"),
        ),
        "core.amq.fpr": (
            sum(after["replica"][k] for k in fpr_keys) / len(replicas) / max(1, len(fpr_keys))
            if replicas else 0.0
        ),
        "core.query_cache.hit_frac": _ratio(sums.get("cache.hits", 0.0), sums.get("cache.lookups", 0.0)),
        "core.query_cache.negative_hit_frac": _ratio(
            moved("replica", 'core.qc.negcache.hits{site="query_cache"}'),
            moved("replica", 'core.qc.negcache.lookups{site="query_cache"}'),
        ),
        "core.selection.revolutions": sums.get("selection.revolutions", 0.0),
        "core.selection.filters_swapped_per_revolution": _ratio(
            sums.get("selection.swapped", 0.0), sums.get("selection.revolutions", 0.0)
        ),
        "server.directory.entries_examined_per_search": _ratio(
            sums.get("search.examined", 0.0), calls.get("server.directory.search", 0)
        ),
        "server.directory.entries_returned_per_search": _ratio(
            sums.get("search.returned", 0.0), calls.get("server.directory.search", 0)
        ),
        "server.planner.scan_frac": _ratio(sums.get("plan.scans", 0.0), sums.get("plan.plans", 0.0)),
        "sync.resync.sessions": view["provider"].active_session_count,
        "sync.resync.history_scanned_per_poll": _ratio(
            sums.get("poll.scanned", 0.0), sums.get("poll.polls", 0.0)
        ),
        "sync.router.sessions_visited_per_update": _ratio(
            sums.get("router.visited", 0.0), calls.get("sync.resync.on_update", 0)
        ),
        "sync.router.filter_evals_per_update": _ratio(
            sums.get("router.evals", 0.0), calls.get("sync.resync.on_update", 0)
        ),
        "sync.session.history_len_mean": mean(history_samples) if history_samples else 0.0,
        "sync.delivery.coalescing_factor": _ratio(
            moved("net", "sync.batch.offered"), moved("net", "sync.batch.delivered")
        ),
        "sync.delivery.batch_size_mean": _ratio(
            moved("net", "sync.batch.delivered"), moved("net", "sync.batch.flushes")
        ),
        "sync.delivery.degraded_queues": moved("net", "sync.batch.degraded"),
        "ldap.ber.bytes_per_pdu": _ratio(sums.get("ber.bytes", 0.0), sums.get("ber.pdus", 0.0)),
        "server.network.sync_round_trips_per_update": _ratio(
            calls.get("server.network.sync_exchange", 0), updates
        ),
        "server.scheduler.events_per_update": _ratio(moved("misc", "events"), updates),
        "sync.consumer.entries_applied_per_update": _ratio(sums.get("consumer.applied", 0.0), updates),
        "sync.resilient.tier_snapshot": facts.get("tier_snapshot", 0.0),
        "sync.resilient.tier_resume": facts.get("tier_resume", 0.0),
        "sync.resilient.tier_sketch": facts.get("tier_sketch", 0.0),
        "sync.resilient.tier_rebuild": facts.get("tier_rebuild", 0.0),
        "sync.resilient.retries": moved("net", "sync.resilient.retries"),
        # Requests the provider served whose answer did no good: the
        # response was lost, arrived twice, or carried an undecodable
        # sketch.
        "sync.resilient.wasted_requests": (
            moved("net", 'net.fault.injected{kind="drop_response"}')
            + moved("net", 'net.fault.injected{kind="duplicate"}')
            + moved("net", "sync.reconcile.decode_failure")
        ),
        "sync.snapshot.bytes": mean(s.size_bytes for s in stores) if stores else 0.0,
        "sync.durability.journal_bytes_per_update": _ratio(
            facts.get("journal_bytes", 0.0), facts.get("journal_updates", 0.0)
        ),
        "sync.reconcile.sketch_bytes": moved("net", "sync.reconcile.sketch_bytes"),
        "sync.reconcile.decode_failures": moved("net", "sync.reconcile.decode_failure"),
        "trace_overhead_frac": _ratio(meter.wall(), untraced_wall) - 1.0,
        "trace_attributed_frac": tracer.attributed_frac,
    }
    assert set(out) == set(spec.COUNTS), set(out) ^ set(spec.COUNTS)
    return out
