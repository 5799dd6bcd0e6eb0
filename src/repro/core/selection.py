"""Dynamic filter selection (§6.2).

The replica adapts to the access pattern by periodically revising its
stored filter set.  The paper simplifies the evolution/revolution
scheme of Kapitskaia, Ng & Srivastava [12]: instead of updating the
stored list on every query (*evolutions* — "not suitable for a
replication scenario"), the replica

1. maintains **hit statistics for candidate filters** — for each user
   query, every generalized candidate that would have answered it gets
   a benefit tick (stored filters tick their own counters on real hits);
2. every ``revolution_interval`` queries performs a **revolution**: the
   stored and candidate lists are combined and the filters with the
   best **benefit/size** ratios are greedily chosen under the replica's
   entry budget (benefit = hits since the last revolution, size =
   estimated number of entries matching the filter).

Installing a newly selected filter costs an initial content transfer —
the second component of filter-replica update traffic in §7.3, visible
in Figure 7 and controlled by the revolution interval R.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..ldap.query import SearchRequest
from ..obs.tracing import span
from .filter_replica import FilterReplica
from .generalization import Generalizer

__all__ = ["CandidateStats", "SelectionReport", "FilterSelector"]

SizeEstimator = Callable[[SearchRequest], int]


@dataclass
class CandidateStats:
    """Benefit/size bookkeeping for one candidate filter."""

    request: SearchRequest
    hits: int = 0
    size: Optional[int] = None

    def ratio(self) -> float:
        """Benefit-to-size ratio (size clamped to ≥1)."""
        size = self.size if self.size else 1
        return self.hits / max(size, 1)


@dataclass
class SelectionReport:
    """Outcome of one revolution."""

    installed: List[SearchRequest] = field(default_factory=list)
    removed: List[SearchRequest] = field(default_factory=list)
    kept: List[SearchRequest] = field(default_factory=list)
    budget_used: int = 0


class FilterSelector:
    """Periodic benefit/size filter selection for a :class:`FilterReplica`.

    Args:
        replica: the filter replica whose stored set is managed.
        generalizer: produces candidate generalized queries per user query.
        size_estimator: estimated entry count of a filter (typically a
            master-side count; the paper uses estimates).
        budget_entries: replica size budget, in entries.
        revolution_interval: the paper's R — queries between revolutions.
        provider: sync provider (or the caller's own ``SyncLink``) newly
            installed filters load through — an install whose round gave
            out leaves the filter pending, never raises (None = install
            empty; useful in unit tests).
        min_benefit: candidates below this hit count are ignored (noise
            floor).
    """

    def __init__(
        self,
        replica: FilterReplica,
        generalizer: Generalizer,
        size_estimator: SizeEstimator,
        budget_entries: int,
        revolution_interval: int = 10_000,
        provider=None,
        min_benefit: int = 1,
    ):
        if revolution_interval <= 0:
            raise ValueError("revolution_interval must be positive")
        self.replica = replica
        self.generalizer = generalizer
        self.size_estimator = size_estimator
        self.budget_entries = budget_entries
        self.revolution_interval = revolution_interval
        self.provider = provider
        self.min_benefit = min_benefit
        self._candidates: Dict[SearchRequest, CandidateStats] = {}
        self._since_revolution = 0
        self.revolutions = 0
        self.last_report: Optional[SelectionReport] = None
        # Traffic attributable to revolutions — §7.3's second update-
        # traffic component, measured by snapshotting the replica's
        # network counters around filter installs.
        self.revolution_entry_pdus = 0
        self.revolution_bytes = 0

    # ------------------------------------------------------------------
    # per-query observation
    # ------------------------------------------------------------------
    def observe(self, request: SearchRequest) -> None:
        """Record one user query; triggers a revolution when due.

        Every generalized candidate that would answer *request* gets a
        benefit tick.  (Stored filters count their own hits when the
        replica answers — see :class:`StoredFilter`.)
        """
        for candidate in self.generalizer.generalize(request):
            if self.replica.holds(candidate):
                continue  # already stored; its own hit counter applies
            stats = self._candidates.get(candidate)
            if stats is None:
                stats = CandidateStats(candidate)
                self._candidates[candidate] = stats
            stats.hits += 1
        self._since_revolution += 1
        if self._since_revolution >= self.revolution_interval:
            self.revolution()

    # ------------------------------------------------------------------
    # revolutions
    # ------------------------------------------------------------------
    def revolution(self) -> SelectionReport:
        """Combine stored + candidate lists, keep the best benefit/size.

        Greedy selection by descending ratio under ``budget_entries``;
        newly selected filters are fetched through the provider, dropped
        ones are discarded (their sync sessions ended).  All hit
        counters reset — benefit is always "since the last update".

        Observability: traced as ``core.selection.revolution``; counted
        on the replica network's registry as ``core.selection.revolutions``
        (docs/OBSERVABILITY.md §3).
        """
        with span("core.selection.revolution") as sp:
            report = self._revolution()
            sp.add("installed", len(report.installed))
            sp.add("removed", len(report.removed))
        network = self.replica.network
        if network is not None:
            network.registry.counter("core.selection.revolutions").inc()
            network.registry.gauge("core.selection.stored_filters").set(
                len(self.replica.stored_filters())
            )
        return report

    def _revolution(self) -> SelectionReport:
        pool: List[CandidateStats] = []
        stored_now = {s.request: s for s in self.replica.stored_filters()}
        for request, stored in stored_now.items():
            pool.append(
                CandidateStats(request=request, hits=stored.hits, size=len(stored.content))
            )
        for request, stats in self._candidates.items():
            if stats.hits >= self.min_benefit:
                if stats.size is None:
                    stats.size = max(self.size_estimator(request), 1)
                pool.append(stats)

        pool.sort(key=lambda c: (c.ratio(), c.hits), reverse=True)
        chosen: List[SearchRequest] = []
        used = 0
        for candidate in pool:
            size = max(candidate.size or 1, 1)
            if candidate.hits < self.min_benefit:
                continue
            if used + size > self.budget_entries:
                continue
            chosen.append(candidate.request)
            used += size

        report = SelectionReport(budget_used=used)
        network = self.replica.network
        before = network.stats.snapshot() if network is not None else None
        chosen_set = set(chosen)
        for request in list(stored_now):
            if request not in chosen_set:
                self.replica.remove_filter(request, provider=self.provider)
                report.removed.append(request)
            else:
                report.kept.append(request)
        for request in chosen:
            if request not in stored_now:
                self.replica.add_filter(request, provider=self.provider)
                report.installed.append(request)
        if before is not None:
            delta = network.stats - before
            self.revolution_entry_pdus += delta.sync_entry_pdus
            self.revolution_bytes += delta.bytes_sent

        # Reset benefit counters: next interval starts fresh.
        for stored in self.replica.stored_filters():
            stored.hits = 0
        self._candidates.clear()
        self._since_revolution = 0
        self.revolutions += 1
        self.last_report = report
        return report

    @property
    def candidate_count(self) -> int:
        return len(self._candidates)
