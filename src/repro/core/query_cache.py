"""Sliding-window cache of recent user queries (§7.4).

Besides replicating generalized filters, it is advantageous to store
recently performed user queries: they capture *temporal* locality.
Cached queries are "simply cached for a short time window and not
updated" — the window is a FIFO of the last N queries with their result
entries, answered through the same containment machinery as stored
filters, and results may be slightly stale by design.

Lookup is routed through a recency-ordered
:class:`~repro.core.routing.ContainmentIndex`: instead of scanning the
whole window newest-first, only guard-atom/region candidates are
containment-checked, in the same newest-first order, so hits and
results are byte-identical to the linear scan
(``tests/oracles.LinearRecentQueryCache``, the property-test oracle).
A hit on the cached request itself returns the held result as it is,
projected; any other hit is evaluated with a compiled filter (one
closure per distinct query filter via
:func:`~repro.ldap.matching.compile_filter_cached`), and
``containment_checks`` counts the :func:`query_contained_in` calls
actually made — the replica folds it into its §7.4 overhead metric.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, KeysView, List, Optional, Sequence, Tuple

from ..ldap.dn import DN
from ..ldap.entry import Entry
from ..ldap.matching import compile_filter_cached
from ..ldap.query import SearchRequest
from .containment import query_contained_in
from .routing import ContainmentIndex, Probe

__all__ = ["CachedQuery", "NegativeResultCache", "RecentQueryCache"]


class NegativeResultCache:
    """Exact-key memo of requests known to miss a containment scan.

    Today only *positive* containment outcomes are memoized (the
    routing index's winner memo); a repeated miss re-derives the whole
    "nothing contains this" proof every time.  This cache closes that
    gap for the replica's stored-filter scan: ``note_miss`` records a
    request that provably missed, and ``known_miss`` answers the repeat
    in one dict probe.

    Soundness requires exactness — an approximate structure could
    wrongly skip a *hit* — so keys are the full :class:`~repro.ldap.
    query.SearchRequest` (hashable by value), and any event that can
    turn a miss into a hit (a filter **added** to the population)
    drops the whole cache via :meth:`invalidate`.  Removals can only
    turn hits into misses, so they need no invalidation.  FIFO-bounded;
    the owner mirrors hits/lookups/invalidations into
    ``core.qc.negcache.*``.
    """

    def __init__(self, capacity: int = 4_096):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._misses: "OrderedDict[SearchRequest, None]" = OrderedDict()
        self.hits = 0
        self.lookups = 0
        self.invalidations = 0

    def known_miss(self, request: SearchRequest) -> bool:
        """True iff *request* missed since the last invalidation."""
        self.lookups += 1
        if request in self._misses:
            self.hits += 1
            return True
        return False

    def note_miss(self, request: SearchRequest) -> None:
        """Record a proven miss, evicting the oldest beyond capacity."""
        self._misses[request] = None
        while len(self._misses) > self.capacity:
            self._misses.popitem(last=False)

    def invalidate(self) -> None:
        """Drop every recorded miss (the population gained a member)."""
        if self._misses:
            self._misses.clear()
            self.invalidations += 1

    def __len__(self) -> int:
        return len(self._misses)


def _image(entry: Entry) -> Entry:
    """What the window holds of a result entry: a frozen image as it is
    (shared with the store it came from), a frozen copy of a caller's
    mutable one."""
    return entry if entry.frozen else entry.copy().freeze()


@dataclass
class CachedQuery:
    """One cached user query and its (frozen) result entries."""

    request: SearchRequest
    entries: Dict[DN, Entry]


class RecentQueryCache:
    """Window of the last *capacity* user queries.

    The paper caches "recently performed user queries … for a short time
    window" — a FIFO of arrivals: a hit does not refresh a query's
    position (the LRU alternative E16 measures is the reference
    window's, ``tests/oracles.LinearRecentQueryCache``).

    Queries identical to an already-cached one refresh its result but do
    not consume an extra slot.
    """

    def __init__(self, capacity: int = 50):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self._window: "OrderedDict[SearchRequest, CachedQuery]" = OrderedDict()
        self._index = ContainmentIndex(order="recency")
        self._dn_refs: Dict[DN, int] = {}
        self.lookups = 0
        self.hits = 0
        self.containment_checks = 0

    def __len__(self) -> int:
        return len(self._window)

    # ------------------------------------------------------------------
    # replica-size refcounts (the held DNs without a window scan)
    # ------------------------------------------------------------------
    def _ref(self, dns) -> None:
        refs = self._dn_refs
        for dn in dns:
            refs[dn] = refs.get(dn, 0) + 1

    def _deref(self, dns) -> None:
        refs = self._dn_refs
        for dn in dns:
            left = refs.get(dn, 1) - 1
            if left <= 0:
                refs.pop(dn, None)
            else:
                refs[dn] = left

    def _evict(self, request: SearchRequest, cached: CachedQuery) -> None:
        self._deref(cached.entries)
        self._index.remove(request)

    def insert(
        self, request: SearchRequest, entries: Sequence[Entry], probe: Optional[Probe] = None
    ) -> None:
        """Cache *request* with its result, evicting the oldest entry.
        *probe* is the request filter's :class:`~repro.core.routing.Probe`
        when the request was just routed as a query: its routing
        registration reuses the probe's normalized leaves."""
        if self.capacity == 0:
            return
        previous = self._window.pop(request, None)
        if previous is not None:
            self._evict(request, previous)
        cached = CachedQuery(
            request=request,
            entries={e.dn: _image(e) for e in entries},
        )
        self._window[request] = cached
        self._ref(cached.entries)
        self._index.add(request, cached, probe)
        while len(self._window) > self.capacity:
            old_request, old_cached = self._window.popitem(last=False)
            self._evict(old_request, old_cached)

    def lookup(
        self, request: SearchRequest, probe: Optional[Probe] = None
    ) -> Optional[Tuple[List[Entry], str]]:
        """Answer *request* from a containing cached query, if any.

        Returns (entries, cache key) on a hit, None on a miss.  Newest
        cached queries are consulted first (temporal locality); only
        routed candidates are checked.  *probe* is the request filter's
        :class:`~repro.core.routing.Probe` when the caller routed it
        through another index already.
        """
        self.lookups += 1
        for cand in self._index.candidates(request, probe):
            cached = cand.handle
            self.containment_checks += 1
            if query_contained_in(request, cached.request):
                self.hits += 1
                if request == cached.request:
                    answer = [request.project(entry) for entry in cached.entries.values()]
                else:
                    compiled = compile_filter_cached(request.filter)
                    answer = [
                        request.project(entry)
                        for entry in cached.entries.values()
                        if request.in_scope(entry.dn) and compiled(entry)
                    ]
                return answer, str(cached.request)
        return None

    def dns(self) -> KeysView[DN]:
        """The DNs of the entries held in the window, each once (they
        count toward the replica's size)."""
        return self._dn_refs.keys()

    def stored_queries(self) -> List[SearchRequest]:
        """Cached requests, oldest first."""
        return list(self._window.keys())

    def clear(self) -> None:
        self._window.clear()
        self._dn_refs.clear()
        self._index.clear()
