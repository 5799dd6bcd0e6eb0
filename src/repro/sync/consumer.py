"""ReSync consumer: the replica side of filter synchronization.

A :class:`SyncedContent` holds the replicated content of one search
request (the paper's replication unit) in an
:class:`~repro.server.backend.EntryStore` — the master's store, over a
smaller set of images — and applies update PDUs:

* ``add`` / ``modify`` — upsert the carried entry: the PDU's own frozen
  image, adopted without a copy (DESIGN.md, "Entry images: who owns,
  who copies"),
* ``delete`` — drop the DN,
* ``retain`` — incomplete-history mode: after applying a retain-style
  response, everything neither retained nor upserted is discarded
  (eq. 3's reconstruction of the content).

Traffic is charged to an optional
:class:`~repro.server.network.SimulatedNetwork` so the update-traffic
experiments (Figures 6/7, E11) can read PDU and byte counts.
"""

from __future__ import annotations

import itertools
from typing import List, Mapping, Optional

from ..ldap.controls import ReSyncControl, SyncAction, SyncMode
from ..ldap.dn import DN
from ..ldap.entry import Entry
from ..ldap.matching import compile_filter_cached
from ..ldap.query import SearchRequest
from ..obs.tracing import span
from ..server.backend import EntryStore
from ..server.network import Delivery, OperationTimeout, SimulatedNetwork, exchange
from .protocol import SyncResponse, SyncUpdate

__all__ = ["SyncedContent"]

_CONTENT_SERIALS = itertools.count(1)


class SyncedContent:
    """Replicated content of one search request at a consumer.

    Args:
        request: the replicated query (the unit of replication).
        network: optional network for traffic accounting.
    """

    def __init__(self, request: SearchRequest, network: Optional[SimulatedNetwork] = None):
        self.request = request
        self.network = network
        self._store = EntryStore()
        self.cookie: Optional[str] = None
        self.polls = 0
        self.updates_applied = 0
        #: Monotonic mutation counter — with :attr:`serial`, a cheap
        #: fingerprint for memoizing aggregates over this content
        #: (FilterReplica's size accounting).
        self.version = 0
        #: Process-unique identity, never reused (unlike ``id()``).
        self.serial = next(_CONTENT_SERIALS)
        #: Told of every image this content gains, replaces or loses
        #: (``replace``/``remove``/``drop``/``fill``): a replica's key table
        #: (:class:`repro.core.keys.KeyTable`) while the content is admitted.
        self.watcher = None

    # ------------------------------------------------------------------
    # content mapping (all mutations funnel through here)
    # ------------------------------------------------------------------
    @property
    def entries(self) -> Mapping[DN, Entry]:
        """The replicated entries, keyed by DN (insertion-ordered): the
        store's images, read-only.

        *Replacing* the mapping through this property
        (``content.entries = {...}``) loads a fresh store with its
        images, in order, and bumps :attr:`version` — the one path for
        external writers, as the replica loaders use.
        """
        return self._store.images()

    @entries.setter
    def entries(self, mapping: Mapping[DN, Entry]) -> None:
        self._reset()
        for entry in mapping.values():
            self._store.put(entry)
        if self.watcher is not None:
            self.watcher.fill(self)

    def _upsert(self, entry: Entry) -> None:
        watcher = self.watcher
        if watcher is not None:
            watcher.replace(self, self._store.get(entry.dn), entry)
        self._store.put(entry)
        self.version += 1

    def _discard(self, dn: DN) -> None:
        entry = self._store.delete(dn)
        if entry is not None:
            if self.watcher is not None:
                self.watcher.remove(self, entry)
            self.version += 1

    def _reset(self) -> None:
        if self.watcher is not None:
            self.watcher.drop(self)
        self._store = EntryStore()
        self.version += 1

    # ------------------------------------------------------------------
    # applying responses
    # ------------------------------------------------------------------
    def apply(self, response: SyncResponse) -> None:
        """Apply one synchronization response to the local content.

        An ``initial`` response (null-cookie request) carries the entire
        current content, so anything held locally but absent from it is
        stale — crash recovery, session reload, re-subscription.  The
        local content is replaced *here*, only once the response has
        fully arrived: a reload whose response is lost or truncated in
        flight must leave the previous (stale but serviceable) content
        untouched (docs/PROTOCOL.md §9).
        """
        if response.initial:
            self._reset()
        retained: set = set()
        upserted: set = set()
        for update in response.updates:
            self._charge(update)
            self.updates_applied += 1
            if update.action in (SyncAction.ADD, SyncAction.MODIFY):
                self._upsert(update.entry)
                upserted.add(update.dn)
            elif update.action is SyncAction.DELETE:
                self._discard(update.dn)
            elif update.action is SyncAction.RETAIN:
                retained.add(update.dn)
        if response.uses_retain:
            keep = retained | upserted
            self.entries = {dn: e for dn, e in self.entries.items() if dn in keep}
        if response.cookie is not None:
            self.cookie = response.cookie
        self.polls += 1

    def apply_reconcile(self, response: SyncResponse, deletes) -> None:
        """Apply one reconcile fetch response plus locally derived
        deletes (docs/PROTOCOL.md §11).

        The fetched ``add`` PDUs go through the normal :meth:`apply`
        path (charged per entry, cookie adopted); *deletes* — the DNs
        the sketch decode proved absent from the master — are discarded
        locally and **uncharged**: their identities already travelled
        inside the sketch bytes, no DN PDU crosses the wire for them.
        """
        self.apply(response)
        for dn in deletes:
            self._discard(dn)

    def apply_notification(self, update: SyncUpdate) -> None:
        """Apply one persist-mode change notification.

        Whoever delivers the notification charges it: an update the
        network is handing over out of a batch frame
        (``network.delivering``) was charged as part of that frame; any
        other caller — a consumer subscribed in-process through
        ``provider.persist`` — gets the per-update estimate here.
        """
        if getattr(self.network, "delivering", None) is not update:
            self._charge(update)
        self.updates_applied += 1
        if update.action in (SyncAction.ADD, SyncAction.MODIFY):
            self._upsert(update.entry)
        elif update.action is SyncAction.DELETE:
            self._discard(update.dn)

    def _charge(self, update: SyncUpdate) -> None:
        if self.network is None:
            return
        if update.entry is not None:
            self.network.charge_sync_entry(update.pdu_bytes)
        else:
            self.network.charge_sync_dn(update.pdu_bytes)

    # ------------------------------------------------------------------
    # driving a provider
    # ------------------------------------------------------------------
    def poll(self, provider, timeout_ms: Optional[float] = None) -> SyncResponse:
        """One single-session poll against *provider* (any provider
        class) — the protocol primitive; a :class:`~repro.sync.SyncLink`
        round polls all its contents in one multiplexed exchange instead
        (docs/PROTOCOL.md §4).

        One full cookie round-trip: request with the resumption cookie,
        provider-side scan, response application — traced as
        ``sync.resync.cookie_round_trip``.  When a network is attached,
        the exchange is routed through its
        :meth:`~repro.server.network.SimulatedNetwork.sync_exchange`
        hook, which charges the round trip and — on a fault-injecting
        network — may raise :class:`TransportError` or deliver the
        response twice (duplicates are re-applied; every action is an
        idempotent state-setter).

        With *timeout_ms* set, deliveries arriving later than the
        timeout are discarded unapplied; if none arrive in time the
        poll raises :class:`OperationTimeout` — indistinguishable, to
        the consumer, from a lost response, and recovered the same way
        (retry with the old cookie → the provider retransmits).
        """
        with span("sync.resync.cookie_round_trip") as sp:
            control = ReSyncControl(mode=SyncMode.POLL, cookie=self.cookie)
            deliveries = exchange(self.network, "poll", provider, self.request, control)
            deliveries = self.timely(deliveries, timeout_ms)
            applied = 0
            for delivery in deliveries:
                self.apply(delivery.response)
                applied += len(delivery.response.updates)
            sp.add("updates_applied", applied)
        return deliveries[-1].response

    @staticmethod
    def timely(deliveries: List[Delivery], timeout_ms: Optional[float]) -> List[Delivery]:
        """The *deliveries* that arrived within *timeout_ms* (None: all
        of them); :class:`OperationTimeout` when none did."""
        if timeout_ms is None:
            return deliveries
        timely = [d for d in deliveries if d.delay_ms <= timeout_ms]
        if not timely:
            raise OperationTimeout(
                f"no response within {timeout_ms:g}ms "
                f"(slowest delivery {deliveries[-1].delay_ms:.0f}ms)"
            )
        return timely

    def reload(self, provider, timeout_ms: Optional[float] = None) -> SyncResponse:
        """Full recovery: restart the session with a null cookie.

        The escape hatch for an expired/stale session (the server
        answers such cookies with :class:`SyncProtocolError`).  Local
        entries are *not* discarded up front: the initial response
        replaces the whole content on arrival (:meth:`apply`), so a
        reload that fails in flight leaves the previous content — stale
        but serviceable — in place.
        """
        self.cookie = None
        return self.poll(provider, timeout_ms=timeout_ms)

    def end(self, provider) -> None:
        """Terminate the session at the provider (mode ``sync_end``)."""
        control = ReSyncControl(mode=SyncMode.SYNC_END, cookie=self.cookie)
        provider.handle(self.request, control)
        if self.network is not None:
            self.network.charge_round_trip()
        self.cookie = None

    # ------------------------------------------------------------------
    # local evaluation
    # ------------------------------------------------------------------
    def evaluate(self, request: SearchRequest) -> List[Entry]:
        """Entries of this content matching *request*, projected.

        The content's own request is answered as held: ReSync keeps the
        content equal to the master's answer to it (§5), so every held
        image is returned, in insertion order, with no plan, no index
        build and no filter test.  That is also the one correct answer
        under an attribute list, where the held images may lack an
        attribute the filter tests (docs/ALGORITHMS.md §1, condition 2).

        Any other request gets the master's evaluation over a smaller
        store: the store's planner (:mod:`repro.server.planner`) narrows
        the content to a candidate set, and the filter, compiled once per
        distinct filter (:func:`~repro.ldap.matching.compile_filter_cached`),
        verifies each candidate.  Candidates are visited in the content's
        insertion order, and a scan plan walks the content in that
        order, so the result is identical to the linear scan's (the
        equivalence property of ``tests/core/test_routing_equivalence.py``).
        """
        project = request.project
        if request == self.request:
            return [project(entry) for entry in self._store.images().values()]
        compiled = compile_filter_cached(request.filter)
        candidates = self._store.candidates_for(request.filter)
        if candidates is None:
            images = self._store.images().values()
        else:
            images = self._store.in_insertion_order(candidates)
        in_scope = request.in_scope
        return [project(entry) for entry in images if in_scope(entry.dn) and compiled(entry)]

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def dns(self) -> set:
        """DNs currently held."""
        return set(self.entries)

    def matches_master(self, master) -> bool:
        """Ground-truth convergence check against *master*'s live content."""
        project = self.request.project
        truth = {e.dn: project(e) for e in master.evaluate(self.request).entries}
        if set(truth) != set(self.entries):
            return False
        return all(self.entries[dn].semantically_equal(truth[dn]) for dn in truth)

    def __len__(self) -> int:
        return len(self.entries)
