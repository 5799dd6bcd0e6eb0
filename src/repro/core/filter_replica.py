"""Filter based replication — the paper's proposed model (§3, §6).

A :class:`FilterReplica` stores entries satisfying one or more LDAP
queries.  For each replicated query it keeps meta information (the
search specification) and the synchronized content; an incoming query
is answered locally iff it is semantically contained in some stored
query (the ``QC`` algorithm of §4), otherwise a referral to the master
is generated.

The replica combines the three content sources of §7, and one rule of
its own:

* **stored filters** — generalized queries (and whole-subtree queries
  like the location tree), kept consistent through a ReSync provider;
* **recent user queries** — an optional :class:`RecentQueryCache`
  window exploiting temporal locality (cached, never updated);
* **dynamic selection** — stored filters can be installed/discarded at
  runtime by :class:`repro.core.selection.FilterSelector` revolutions;
* **the key rule** — a query both missed is answered from the one held
  image of a unique attribute's value it asks for by equality, found in
  a replica-wide :class:`~repro.core.keys.KeyTable` (docs/ALGORITHMS.md
  §1, "The key rule").

The ``QC`` scan is candidate routing through a
:class:`~repro.core.routing.ContainmentIndex` — guard-atom posting
lists plus a base-DN region prefix structure, with a positive memo for
repeat queries — so ``answer()`` consults O(candidates) stored filters
instead of all of them, and hit evaluation runs compiled filters over
:meth:`SyncedContent.evaluate`'s incremental indexes instead of an
interpreted full-content rescan.  The seed linear scan lives on as the
equivalence oracle ``tests/oracles.LinearFilterReplica``
(docs/ROUTING.md §9), with §3.4.2's template pruning of that scan.
``containment_checks`` counts the comparisons actually made (the
query-processing-overhead metric of §7.4), including the cache path's,
split out as ``core.replica.containment_checks{source}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..ldap.dn import DN
from ..ldap.entry import Entry
from ..ldap.query import SearchRequest
from ..obs.registry import MetricsRegistry
from ..obs.tracing import span
from ..server.network import SimulatedNetwork
from ..server.operations import Referral
from ..sync.consumer import SyncedContent
from ..sync.protocol import SyncResponse
from ..sync.resilient import SyncLink
from ..ldap.matching import compile_filter_cached
from .containment import attributes_contained_in, query_contained_in, region_contained_in
from .keys import KeyTable
from .query_cache import NegativeResultCache, RecentQueryCache
from .replica import AnswerStatus, HitStats, ReplicaAnswer, link_for
from .routing import ContainmentIndex, Probe

__all__ = ["StoredFilter", "FilterReplica"]


@dataclass
class StoredFilter:
    """One replicated query: meta information plus synchronized content.

    ``sync_interval`` implements §3.2's per-object-type consistency
    levels: a filter with interval *n* is only polled every *n*-th sync
    round (1 = every round).  A subtree replica must apply the most
    stringent requirement to a whole subtree; a filter replica tunes it
    per replicated query.  ``link`` is the link the content was last
    synced over (None: installed without a provider).
    """

    request: SearchRequest
    content: SyncedContent
    hits: int = 0
    sync_interval: int = 1
    link: Optional[SyncLink] = None

    @property
    def degraded(self) -> bool:
        """The link is degraded: the content may be stale, a HIT says so."""
        return self.link is not None and self.link.degraded

    def entry_count(self) -> int:
        return len(self.content)


class FilterReplica:
    """A partial replica whose unit of replication is an LDAP query.

    Args:
        name: replica name for diagnostics.
        master_url: referral target for misses.
        network: optional traffic accounting shared with sync.
        cache_capacity: size of the recent-user-query window (0 = off).
        metrics: registry for ``core.replica.*`` / ``core.route.*`` /
            ``core.qc.negcache.*`` counters (private registry by default).
    """

    def __init__(
        self,
        name: str,
        master_url: str = "ldap://master",
        network: Optional[SimulatedNetwork] = None,
        cache_capacity: int = 0,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.name = name
        self.master_url = master_url
        self.network = network
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cache = RecentQueryCache(cache_capacity)
        self._stored: Dict[SearchRequest, StoredFilter] = {}
        self._index = ContainmentIndex()
        self._keys = KeyTable()
        # the last referred request and its probe, for observe_miss
        self._missed: Optional[Tuple[SearchRequest, Probe]] = None
        self._negative = NegativeResultCache()  # of the stored-filter scan
        self._links: Dict[int, SyncLink] = {}  # provider identity → default link
        #: held, but outside the index: no response applied yet
        self._pending: Dict[SearchRequest, StoredFilter] = {}
        self.stats = HitStats()
        self.containment_checks = 0
        self._sync_round = 0
        self._size_memo: Optional[Tuple[Tuple, Set[DN], int]] = None
        self._checks_stored = self.metrics.counter(
            "core.replica.containment_checks", source="stored"
        )
        self._checks_cache = self.metrics.counter(
            "core.replica.containment_checks", source="cache"
        )
        self._route_candidates = self.metrics.counter("core.route.candidates")
        self._route_memo_hits = self.metrics.counter("core.route.memo_hits")
        self._key_hits = self.metrics.counter("core.replica.key_hits")

    # ------------------------------------------------------------------
    # stored-filter management
    # ------------------------------------------------------------------
    def add_filter(
        self,
        request: SearchRequest,
        provider=None,
        sync_interval: int = 1,
    ) -> StoredFilter:
        """Replicate *request*; one round over *provider*'s link
        (:func:`~repro.core.replica.link_for`) loads the initial content.

        The round never raises a transport error (a refused *fresh*
        session still propagates — the ladder's ``raise`` row).  When it
        applied no response the filter is **pending**: held
        (:meth:`holds`, its slot in the budget kept) but outside the
        containment index, answering nothing until a :meth:`sync` round
        applies one.  Without a provider the filter starts empty and
        admitted (tests/benches may install content via
        :meth:`load_directly`).  *sync_interval* sets this filter's
        consistency level (§3.2): poll every n-th sync round.
        """
        if sync_interval < 1:
            raise ValueError("sync_interval must be >= 1")
        if request in self._stored:
            return self._stored[request]
        stored = StoredFilter(
            request=request,
            content=SyncedContent(request, network=self.network),
            sync_interval=sync_interval,
        )
        if provider is not None:
            stored.link = link_for(self, provider)
            stored.link.sync((stored.content,))
        self._stored[request] = stored
        self._size_memo = None
        if provider is None or stored.content.polls:
            self._admit(stored)
        else:
            self._pending[request] = stored
        return stored

    def _admit(self, stored: StoredFilter) -> None:
        """*stored* holds an applied response: it may answer."""
        self._index.add(stored.request, stored)
        self._keys.attach(stored.content, stored)
        # The new filter may contain a previously-missed request.
        self._negative.invalidate()

    def remove_filter(self, request: SearchRequest, provider=None) -> None:
        """Discard a replicated query, tearing down its subscription and,
        with *provider* given, ending its poll session."""
        stored = self._stored.pop(request, None)
        self._pending.pop(request, None)
        self._index.remove(request)
        self._size_memo = None
        if stored is None:
            return
        self._keys.detach(stored.content)
        if stored.link is None:
            return
        stored.link.forget(stored.content)
        if provider is not None and stored.content.cookie:
            stored.content.end(stored.link.provider)

    def load_directly(self, request: SearchRequest, entries: Sequence[Entry]) -> StoredFilter:
        """Install a stored filter's content without a provider."""
        stored = self.add_filter(request)
        stored.content.entries = {e.dn: e.copy() for e in entries}
        return stored

    def stored_filters(self) -> List[StoredFilter]:
        return list(self._stored.values())

    def holds(self, request: SearchRequest) -> bool:
        return request in self._stored

    @property
    def filter_count(self) -> int:
        """Stored filters + cached queries (Figures 8/9's x-axis)."""
        return len(self._stored) + len(self.cache)

    # ------------------------------------------------------------------
    # synchronization
    # ------------------------------------------------------------------
    def subscribe_persist(self, provider) -> int:
        """Hold every stored filter by a persist subscription (§5.2):
        strong consistency, at one open connection *per replicated
        filter* — the scaling concern the paper raises.

        One round of *provider*'s link opens the unsubscribed filters
        through the network's ``subscribe`` exchange, resuming each poll
        session (nothing retransmitted).  Returns the number opened;
        never raises a transport error — a later :meth:`sync` opens the
        rest.  Notifications ride the network's ``DeliveryQueue`` (fresh
        after ``network.settle()``); without a network, apply at commit.
        """
        link = link_for(self, provider)
        joining = []
        for stored in self._stored.values():
            stored.link = link.adopt(stored.content, stored.link)
            if link.subscription(stored.content) is None:
                link.subscribe(stored.content)
                joining.append(stored.content)
        link.sync(joining)
        self._admit_answered()
        return sum(link.subscription(content).handle is not None for content in joining)

    def unsubscribe_persist(self) -> None:
        """Tear every persist subscription down (back to polling mode)."""
        for stored in self._stored.values():
            if stored.link is not None:
                stored.link.unsubscribe(stored.content)

    @property
    def persist_connections(self) -> int:
        """Open persist-mode connections (one per subscribed filter)."""
        subs = [s.link.subscription(s.content) for s in self._stored.values() if s.link is not None]
        return sum(1 for sub in subs if sub is not None and sub.handle is not None)

    def sync(self, provider) -> Optional[SyncResponse]:
        """One sync round: one :meth:`SyncLink.sync
        <repro.sync.resilient.SyncLink.sync>` round — one gate, one
        retry budget, one verdict, never a transport error — through
        *provider*'s link over every stored filter that is due, in
        insertion order; a round that gave out leaves the later filters
        as fresh as they were.  Returns its last applied response, or
        None (failed, gate shut, nothing due).

        A filter with ``sync_interval`` n is due on every n-th round
        (per-object-type consistency levels, §3.2).  A polled filter
        polls; a subscribed one runs its persist cycle — free while it
        lives, re-opened when it died, audited by sketch every
        ``persist_refresh_interval`` rounds — on this link, where it
        moves with its subscription (:meth:`SyncLink.adopt`).  Pending
        filters this round answered are admitted.
        """
        self._sync_round += 1
        sync_round = self._sync_round
        link = link_for(self, provider)
        due = []
        for stored in self._stored.values():
            if sync_round % stored.sync_interval == 0:
                stored.link = link.adopt(stored.content, stored.link)
                due.append(stored.content)
        response = link.sync(due)
        self._admit_answered()
        return response

    def _admit_answered(self) -> None:
        """Admit every pending filter a round has applied a response to."""
        for request in [r for r, s in self._pending.items() if s.content.polls]:
            self._admit(self._pending.pop(request))

    # ------------------------------------------------------------------
    # answering
    # ------------------------------------------------------------------
    def answer(self, request: SearchRequest) -> ReplicaAnswer:
        """Answer *request* locally or refer to the master.

        Order: stored filters (routed containment), the recent-query
        cache, then the key rule (:meth:`_key_answer`).  Traced as
        ``core.replica.answer`` (no-op without a collector).
        """
        with span("core.replica.answer") as sp:
            result = self._answer(request)
            sp.add("hit", 1 if result.status is AnswerStatus.HIT else 0)
        return result

    def _find_stored(self, request: SearchRequest, probe: Probe) -> Optional[StoredFilter]:
        """First stored query containing *request*, in insertion order.

        Consults the :class:`ContainmentIndex` (positive memo, then
        guard-atom/region candidates) and counts each
        :func:`query_contained_in` actually run.

        A request that already proved to miss every stored filter
        short-circuits through the negative result cache (exact keys;
        invalidated whenever a filter is added), skipping both the
        candidate walk and its containment checks.  The *answer* is
        identical either way — only the re-derivation cost differs.
        """
        if self._negative.known_miss(request):
            return None
        memo = self._index.memo_get(request)
        if memo is not None:
            self._route_memo_hits.inc()
            return memo.handle
        candidates = self._index.candidates(request, probe)
        self._route_candidates.inc(len(candidates))
        for cand in candidates:
            stored = cand.handle
            self.containment_checks += 1
            self._checks_stored.inc()
            if query_contained_in(request, stored.request):
                self._index.memo_put(request, cand)
                return stored
        self._negative.note_miss(request)
        return None

    def _cache_lookup(self, request: SearchRequest, probe: Probe):
        """Cache lookup with its containment checks folded into the
        replica's §7.4 overhead metric (labeled ``source=cache``)."""
        before = self.cache.containment_checks
        cached = self.cache.lookup(request, probe)
        checked = self.cache.containment_checks - before
        if checked:
            self.containment_checks += checked
            self._checks_cache.inc(checked)
        return cached

    def _answer(self, request: SearchRequest) -> ReplicaAnswer:
        # both indexes route from one normalization of the leaves
        probe = Probe(request.filter)
        stored = self._find_stored(request, probe)
        if stored is not None:
            stored.hits += 1
            answer = ReplicaAnswer(
                AnswerStatus.HIT,
                entries=self._evaluate(request, stored),
                answered_by=str(stored.request),
                degraded=stored.degraded,
            )
            self.stats.record(answer)
            return answer

        cached = self._cache_lookup(request, probe)
        if cached is not None:
            entries, source = cached
            answer = ReplicaAnswer(
                AnswerStatus.HIT, entries=entries, answered_by=f"cache:{source}"
            )
            self.stats.record(answer)
            return answer

        answer = self._key_answer(request, probe)
        if answer is not None:
            self._key_hits.inc()
            self.stats.record(answer)
            return answer
        self._missed = (request, probe)

        answer = ReplicaAnswer(
            AnswerStatus.MISS,
            referrals=[Referral(self.master_url, request.base)],
        )
        self.stats.record(answer)
        return answer

    def _key_answer(self, request: SearchRequest, probe: Probe) -> Optional[ReplicaAnswer]:
        """The key rule (docs/ALGORITHMS.md §1): a HIT from the one held
        image E of the value a key equality of *request* asks for, or
        None — no image holds it; two different images do (contents
        synced at different points may disagree); or no content holding
        E has *request*'s region inside its own (the master's, where the
        key is enforced) and every attribute *request* asks for or
        tests.  The answer is {E}, projected, when E is in the region
        and matches all of *request*, else ∅; it names the first such
        content, and is degraded when that content's link is."""
        holders = self._keys.holders(request.filter, probe)
        if not holders:
            return None
        images = [stored.content.entries[dn] for stored, dn in holders]
        image = images[0]
        if any(held is not image for held in images):
            return None
        for stored, _dn in holders:
            if region_contained_in(request, stored.request) and attributes_contained_in(
                request, stored.request
            ):
                break
        else:
            return None
        matched = request.in_scope(image.dn) and compile_filter_cached(request.filter)(image)
        return ReplicaAnswer(
            AnswerStatus.HIT,
            entries=[request.project(image)] if matched else [],
            answered_by=f"key:{stored.request}",
            degraded=stored.degraded,
        )

    def _evaluate(self, request: SearchRequest, stored: StoredFilter) -> List[Entry]:
        """Evaluate *request* over the containing stored query's content."""
        return stored.content.evaluate(request)

    def observe_miss(self, request: SearchRequest, entries: Sequence[Entry]) -> None:
        """Feed a master-answered query back into the recent-query cache;
        the last referred request's probe is reused for its routing."""
        missed = self._missed
        probe = missed[1] if missed is not None and missed[0] == request else None
        self._missed = None
        self.cache.insert(request, entries, probe)

    # ------------------------------------------------------------------
    # negative-cache observability
    # ------------------------------------------------------------------
    def sync_amq_metrics(self) -> None:
        """Mirror the stored-path negative cache's plain-int accounting
        into the metric registry (docs/OBSERVABILITY.md §2).

        The cache keeps plain ints on the hot path; this publishes them
        on demand — benches and dashboards call it once per snapshot
        instead of paying instrument updates per answer.
        ``Counter.set`` is the documented idiom for syncing externally
        maintained counts.
        """
        negcache = self._negative
        counter = self.metrics.counter
        counter("core.qc.negcache.hits", site="stored").set(negcache.hits)
        counter("core.qc.negcache.lookups", site="stored").set(negcache.lookups)
        counter("core.qc.negcache.invalidations", site="stored").set(
            negcache.invalidations
        )

    # ------------------------------------------------------------------
    # sizing
    # ------------------------------------------------------------------
    def _content_fingerprint(self) -> Tuple:
        """Cheap identity of all stored content: each ``SyncedContent``
        bumps ``version`` on every mutation, so an unchanged fingerprint
        means the memoized sizes are still exact."""
        return tuple(
            (stored.content.serial, stored.content.version)
            for stored in self._stored.values()
        )

    def _sizes(self) -> Tuple[Set[DN], int]:
        """The DNs the stored contents hold, and their bytes."""
        fingerprint = self._content_fingerprint()
        memo = self._size_memo
        if memo is None or memo[0] != fingerprint:
            seen: Set[DN] = set()
            total = 0
            for stored in self._stored.values():
                for dn, entry in stored.content.entries.items():
                    if dn not in seen:
                        seen.add(dn)
                        total += entry.estimated_size()
            memo = (fingerprint, seen, total)
            self._size_memo = memo
        return memo[1], memo[2]

    def entry_count(self) -> int:
        """Unique entries held (the paper's replica-size metric): the DNs
        the stored contents hold, and the window's that none of them
        holds — a DN held twice counts once."""
        seen = self._sizes()[0]
        return len(seen) + sum(dn not in seen for dn in self.cache.dns())

    def size_bytes(self) -> int:
        """Approximate stored bytes across stored filters."""
        return self._sizes()[1]

    def __repr__(self) -> str:
        return (
            f"FilterReplica({self.name!r}, {len(self._stored)} filters, "
            f"{self.entry_count()} entries)"
        )
