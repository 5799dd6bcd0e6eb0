"""Experiment harness: drive a trace against a replica and a master.

Encapsulates the evaluation loop every bench shares (§7):

1. the replica tries to answer each trace query; hits/misses are
   recorded (hit-ratio = fraction completely answered);
2. misses are forwarded to the master, and the answer optionally feeds
   the replica's recent-query cache;
3. a :class:`~repro.core.selection.FilterSelector`, when present,
   observes every query and performs its periodic revolutions;
4. an :class:`~repro.workload.updates.UpdateGenerator`, when present,
   mutates the master at a configured rate, and the replica polls its
   sync provider every ``sync_interval`` queries — producing the update
   traffic the Figure 6/7 benches read off the network counters.

The result snapshot separates the two filter-replica traffic components
of §7.3: steady-state resync traffic vs revolution (new-filter) traffic.

Traffic is measured as the live ``network.stats`` minus a
:meth:`~repro.server.network.TrafficStats.snapshot` taken before the
run.  ``network.stats`` is a read-only view of the ``net.traffic.*``
counters the network charges (docs/OBSERVABILITY.md §3), so the same
numbers are also available from ``network.registry``.  The sync
mechanics the traffic reflects are specified in docs/PROTOCOL.md; the
containment work each ``answer()`` performs is docs/ALGORITHMS.md
§1–§3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Union

from ..core.filter_replica import FilterReplica
from ..core.replica import AnswerStatus
from ..core.selection import FilterSelector
from ..core.subtree_replica import SubtreeReplica
from ..ldap.query import SearchRequest
from ..server.directory import DirectoryServer
from ..server.network import SimulatedNetwork
from ..workload.trace import Trace
from ..workload.updates import UpdateGenerator

__all__ = ["ExperimentResult", "ReplicaDriver"]

Replica = Union[FilterReplica, SubtreeReplica]


@dataclass
class ExperimentResult:
    """Everything a bench needs to print one row of a table/figure."""

    queries: int = 0
    hits: int = 0
    partials: int = 0
    misses: int = 0
    replica_entries: int = 0
    replica_bytes: int = 0
    stored_filters: int = 0
    updates_applied: int = 0
    sync_polls: int = 0
    # Update traffic (entries transferred to keep the replica in sync).
    sync_entry_pdus: int = 0
    sync_dn_pdus: int = 0
    sync_bytes: int = 0
    # The revolution component of the traffic (§7.3, Figure 7).
    revolution_entry_pdus: int = 0
    revolution_bytes: int = 0
    containment_checks: int = 0
    hit_ratio_by_type: Dict[str, float] = field(default_factory=dict)

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.queries if self.queries else 0.0

    @property
    def resync_entry_pdus(self) -> int:
        """Steady-state sync traffic, excluding revolution fetches."""
        return self.sync_entry_pdus - self.revolution_entry_pdus


class ReplicaDriver:
    """Runs one experiment: trace × replica × master (+updates, +sync).

    Args:
        master: the master server answering misses and feeding sync.
        replica: a filter or subtree replica.
        provider: sync provider polled every *sync_interval* queries
            (None = replica content is static for the run).
        selector: dynamic filter selection (filter replicas only).
        update_generator: master mutation source.
        updates_per_query: average master updates applied per query
            (fractional rates accumulate).
        sync_interval: queries between replica sync polls.
        use_scoped: answer the scoped (subtree-friendly) query variants
            instead of the root-based ones.
        network: network whose counters the result reads (defaults to
            the replica's network).
    """

    def __init__(
        self,
        master: DirectoryServer,
        replica: Replica,
        provider=None,
        selector: Optional[FilterSelector] = None,
        update_generator: Optional[UpdateGenerator] = None,
        updates_per_query: float = 0.0,
        sync_interval: int = 500,
        use_scoped: bool = False,
        network: Optional[SimulatedNetwork] = None,
    ):
        self.master = master
        self.replica = replica
        self.provider = provider
        self.selector = selector
        self.update_generator = update_generator
        self.updates_per_query = updates_per_query
        self.sync_interval = sync_interval
        self.use_scoped = use_scoped
        self.network = network if network is not None else replica.network

    # ------------------------------------------------------------------
    def run(self, trace: Trace) -> ExperimentResult:
        """Drive the whole trace; returns the aggregated result.

        The traffic fields of the result are interval deltas: a
        traffic snapshot is taken before the first query and
        subtracted from the live stats after the final sync, so only
        traffic caused by *this* run is attributed to it (the network —
        and its backing metrics registry — may be shared across runs).
        """
        result = ExperimentResult()
        baseline = self.network.stats.snapshot() if self.network else None
        selector_rev_pdus0 = (
            self.selector.revolution_entry_pdus if self.selector else 0
        )
        selector_rev_bytes0 = (
            self.selector.revolution_bytes if self.selector else 0
        )
        by_type_totals: Dict[str, int] = {}
        by_type_hits: Dict[str, int] = {}
        update_debt = 0.0

        for index, record in enumerate(trace):
            request = record.scoped_request if self.use_scoped else record.request
            answer = self.replica.answer(request)
            result.queries += 1
            qtype = record.qtype.value
            by_type_totals[qtype] = by_type_totals.get(qtype, 0) + 1
            if answer.status is AnswerStatus.HIT:
                result.hits += 1
                by_type_hits[qtype] = by_type_hits.get(qtype, 0) + 1
            elif answer.status is AnswerStatus.PARTIAL:
                result.partials += 1
            else:
                result.misses += 1
                self._handle_miss(request)

            if self.selector is not None:
                self.selector.observe(request)

            if self.update_generator is not None and self.updates_per_query > 0:
                update_debt += self.updates_per_query
                whole = int(update_debt)
                if whole:
                    result.updates_applied += self.update_generator.apply(whole)
                    update_debt -= whole

            if (
                self.provider is not None
                and self.sync_interval > 0
                and (index + 1) % self.sync_interval == 0
            ):
                self.replica.sync(self.provider)
                result.sync_polls += 1

        # Final sync so the measured traffic covers every update.
        if self.provider is not None:
            self.replica.sync(self.provider)
            result.sync_polls += 1

        result.replica_entries = self.replica.entry_count()
        result.replica_bytes = self.replica.size_bytes()
        if isinstance(self.replica, FilterReplica):
            result.stored_filters = self.replica.filter_count
            result.containment_checks = self.replica.containment_checks
        if baseline is not None:
            delta = self.network.stats - baseline
            result.sync_entry_pdus = delta.sync_entry_pdus
            result.sync_dn_pdus = delta.sync_dn_pdus
            result.sync_bytes = delta.bytes_sent
        if self.selector is not None:
            result.revolution_entry_pdus = (
                self.selector.revolution_entry_pdus - selector_rev_pdus0
            )
            result.revolution_bytes = (
                self.selector.revolution_bytes - selector_rev_bytes0
            )
        result.hit_ratio_by_type = {
            qtype: by_type_hits.get(qtype, 0) / total
            for qtype, total in by_type_totals.items()
        }
        return result

    # ------------------------------------------------------------------
    def _handle_miss(self, request: SearchRequest) -> None:
        """Answer a missed query at the master; a filter replica with a
        recent-query cache keeps the answer."""
        response = self.master.search(request)
        if isinstance(self.replica, FilterReplica) and self.replica.cache.capacity > 0:
            self.replica.observe_miss(request, response.entries)

    # ------------------------------------------------------------------
    @staticmethod
    def size_estimator_for(master: DirectoryServer) -> Callable[[SearchRequest], int]:
        """A master-side size estimator for :class:`FilterSelector`."""

        def estimate(request: SearchRequest) -> int:
            return len(master.search(request).entries)

        return estimate
