"""Linear reference implementations of the routed production paths.

``repro.core`` answers through one path: candidate routing
(:class:`~repro.core.routing.ContainmentIndex`), indexed evaluation and
an exact negative result cache; ``repro.sync`` fans updates out through
one path, the :class:`~repro.sync.router.SessionRouter`.  The seed's
linear scans live here, as the oracles the equivalence properties
(``tests/core/test_routing_equivalence.py``,
``tests/sync/test_router.py``) compare against and the "linear" arm the
scaling/ablation benches measure:

* :class:`LinearFilterReplica` — every stored filter containment-checked
  in insertion order, no negative cache, hits evaluated by an
  interpreted scan of the whole content;
* :class:`LinearRecentQueryCache` — the whole window scanned
  newest-first, hits evaluated the same interpreted way;
* :class:`LinearResyncProvider` — every active session's filter
  evaluated, interpreted, against both images of every update.

Each subclasses the production class so filter management, sync, stats,
window and session bookkeeping are shared; only the scans differ.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core import FilterReplica, RecentQueryCache, StoredFilter, query_contained_in
from repro.ldap import Entry, SearchRequest
from repro.ldap.filters import attributes_of
from repro.sync import ResyncProvider

__all__ = ["LinearFilterReplica", "LinearRecentQueryCache", "LinearResyncProvider"]


class LinearRecentQueryCache(RecentQueryCache):
    """Recent-query window answered by a newest-first scan."""

    def lookup(self, request: SearchRequest) -> Optional[Tuple[List[Entry], str]]:
        self.lookups += 1
        request_attrs = attributes_of(request.filter)
        for cached in reversed(self._window.values()):
            if not cached.filter_attrs <= request_attrs:
                continue
            self.containment_checks += 1
            if query_contained_in(request, cached.request):
                self.hits += 1
                answer = [
                    request.project(entry)
                    for entry in cached.entries.values()
                    if request.selects(entry)
                ]
                if self.policy == "lru":
                    self._window.move_to_end(cached.request)
                return answer, str(cached.request)
        return None


class LinearFilterReplica(FilterReplica):
    """Replica answered by the seed's scan over all stored filters."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.cache = LinearRecentQueryCache(self.cache.capacity, policy=self.cache.policy)
        self._negative = None

    def _find_stored(self, request: SearchRequest, qkey: str) -> Optional[StoredFilter]:
        for stored in self._stored.values():
            if self.templates is not None and not self.templates.may_answer(stored.key, qkey):
                continue
            self.containment_checks += 1
            self._checks_stored.inc()
            if query_contained_in(request, stored.request):
                return stored
        return None

    def _evaluate(self, request: SearchRequest, stored: StoredFilter) -> List[Entry]:
        return [
            request.project(entry)
            for entry in stored.content.entries.values()
            if request.selects(entry)
        ]


class LinearResyncProvider(ResyncProvider):
    """Provider fanning out by the seed's scan over all active sessions."""

    def _fan_out(self, record) -> None:
        for session in self.sessions.active_sessions():
            self._apply_to_session(session, record)
