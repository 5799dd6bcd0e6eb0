"""The ReSync filter-synchronization protocol (§5.2) — master side.

:class:`ResyncProvider` implements the synchronization equations of
§5.1.  The master keeps one record per session
(:class:`~repro.sync.session.Session`: the history of entries leaving
the content, fed by the update-listener hook of
:class:`~repro.server.directory.DirectoryServer`), so each poll sends
exactly the net adds, modifies and deletes since the last poll —
**complete history**, eq. 2.  Both modes of update are served:
``poll`` (cookie-based resumption) and ``persist`` (an open connection
carrying change notifications, extending the persistent-search idea of
[15]).

A durable provider caps each session's history; a session that
overflowed its cap, or that a quarantined link parked, is resumed by
**incomplete history**, eq. 3: full entries for everything in the
content that changed since the consumer's last-known state, plus a
DN-only ``retain`` action for every unchanged in-content entry, decided
by the per-entry last-change CSNs of :class:`LastChangeMap`.  The
provider also serves the recovery ladder's sketch exchange
(:meth:`ResyncProvider.reconcile`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..ldap.controls import ReSyncControl, SyncAction, SyncMode
from ..ldap.dn import DN
from ..ldap.entry import Entry
from ..ldap.query import SearchRequest
from ..obs.tracing import span
from ..server.directory import DirectoryServer
from ..server.operations import UpdateOp, UpdateRecord
from .durability import (
    DNMemo,
    DurabilityConfig,
    JournalBackend,
    record_from_wire,
    record_to_wire,
    request_from_wire,
    request_to_wire,
    session_from_wire,
    session_to_wire,
)
from .protocol import (
    MultiPoll,
    MultiPollResponse,
    ReconcileFetch,
    ReconcileRequest,
    ReconcileResponse,
    SyncProtocolError,
    SyncResponse,
    SyncUpdate,
    answer_polls,
)
from .reconcile import build_sketch, cells_for_divergence, entry_digest
from .router import SessionRouter
from .session import OUTCOMES, PDUS, Session, SessionStore

__all__ = ["ResyncProvider", "PersistHandle"]

DeliverFn = Callable[[SyncUpdate], None]


def master_content(server: DirectoryServer, request: SearchRequest) -> List[Entry]:
    """Current content of *request* at *server*, as the images a replica
    of it holds: the store's own frozen ones, read through the
    evaluation ``search`` projects (no copy), each projected — a new
    image — only when the request restricts attributes."""
    return [request.project(e) for e in server.evaluate(request).entries]


def _add(image: Entry) -> SyncUpdate:
    """An ``add`` PDU over *image* itself (the PDU freezes a projection;
    a store image already is): what :func:`master_content` read is what
    travels and what the consumer adopts, uncopied."""
    return SyncUpdate(SyncAction.ADD, image.dn, image)


class LastChangeMap(Dict[DN, int]):
    """Eq. 3's master-side state: the CSN at which each live entry last
    changed, maintained from the update stream — what the durable
    :class:`ResyncProvider`'s degraded resumes classify by (and the
    stateless retain baseline of ``tests/oracles`` too)."""

    def note(self, record: UpdateRecord) -> None:
        """Fold one committed update into the map."""
        if record.op in (UpdateOp.DELETE, UpdateOp.MODIFY_DN):
            self.pop(record.dn, None)
        if record.op is not UpdateOp.DELETE:
            self[record.effective_dn] = record.csn

    def classify(self, content, since: int) -> List[SyncUpdate]:
        """Eq. 3 over *content*: the full entry for everything changed
        after CSN *since*, a DN-only ``retain`` for the unchanged rest."""
        changed_at = self.get
        return [
            _add(entry)
            if changed_at(entry.dn, 0) > since
            else SyncUpdate.retain(entry.dn)
            for entry in content
        ]


class PersistHandle:
    """Client-side handle to an open persist-mode connection.

    Abandoning the handle (``abandon()``) models the LDAP abandon
    operation on a persistent search (Figure 3 ends this way).
    """

    def __init__(self, provider: "ResyncProvider", session: Session):
        self._provider = provider
        self._session = session
        self.session_id = session.session_id
        #: Set by the network that opened the session: the per-session
        #: batching queue the notifications flow through (closed with
        #: the session).
        self.delivery_queue = None

    @property
    def active(self) -> bool:
        """False once the session ended, here or server-side, or once
        the provider no longer holds *this record* — a restart forgets
        its records without ending them."""
        return not self._session.ended and self._provider.sessions.get(self.session_id) is self._session

    def abandon(self) -> None:
        """Tear down the persistent connection without a sync_end —
        server-side only while the store still holds *this record*: after
        a journal-less restart the id may name a stranger's session."""
        if self._provider.sessions.get(self.session_id) is self._session:
            self._provider._fold_end(self.session_id)
        self._session.close()


class ResyncProvider:
    """Complete-history ReSync master (eq. 2), one per master server.

    Registers itself as an update listener on *server*; every committed
    update is folded into each active session's pending actions.

    The fan-out goes through a :class:`~repro.sync.router.SessionRouter`:
    only the sessions holding the updated entry, plus those the after
    image's own values can reach (value atoms, region, changed-attribute
    fingerprint), are visited — a superset of the sessions a scan over
    all of them would notify (property-tested against
    ``tests/oracles.LinearResyncProvider``), visited in the same creation
    order with the same compiled-vs-interpreted-equivalent predicate,
    so the per-session notification streams are byte-identical.

    Provider state changes only through **the fold**: seven transition
    kinds (:attr:`FOLDS` — ``update``, ``create``, ``poll``, ``touch``,
    ``resume``, ``park``, ``end``), each applied by exactly one
    ``_fold_*`` method.  The live handlers validate a request, call the
    fold and build the response; with a *journal* the fold also appends
    its own record, which makes the provider **durable**
    (docs/PROTOCOL.md §10): state is snapshotted periodically, and
    :meth:`recover` resets, restores the snapshot and calls the same
    folds on every journaled record, so consumers resume from their
    existing cookies with an incremental delta instead of a full
    resync.  A :class:`~repro.sync.durability.DurabilityConfig`
    additionally caps per-session histories (overflow degrades that one
    session to an incomplete-history resume, eq. 3).

    Args:
        server: the master directory server.
        idle_limit: logical-time session expiry (the admin time limit).
        durability: history cap / snapshot cadence; implied (with
            defaults) when *journal* is given.
        journal: write-ahead journal backend; None keeps the provider's
            state in memory only, lost on :meth:`restart`.
    """

    def __init__(
        self,
        server: DirectoryServer,
        idle_limit: int = 100_000,
        durability: Optional[DurabilityConfig] = None,
        journal: Optional[JournalBackend] = None,
    ):
        self.server = server
        self.sessions = SessionStore(idle_limit=idle_limit)
        self._route_candidates = server.metrics.counter("sync.route.candidates")
        self._route_notified = server.metrics.counter("sync.route.notified")
        if durability is None and journal is not None:
            durability = DurabilityConfig()
        self.durability = durability
        self.journal = journal
        metrics = server.metrics
        self._unknown_cookie = metrics.counter("sync.session.unknown_cookie")
        self._journal_appends = metrics.counter("sync.durability.journal_appends")
        self._journal_bytes = metrics.gauge("sync.durability.journal_bytes")
        self._snapshots = metrics.counter("sync.durability.snapshots")
        self._recoveries = metrics.counter("sync.durability.recoveries")
        self._replayed = metrics.counter("sync.durability.replayed_records")
        self._dropped = metrics.counter("sync.durability.dropped_records")
        self._overflows = metrics.counter("sync.durability.history_overflow")
        self._degraded_resumes = metrics.counter("sync.durability.degraded_resumes")
        self._parked = metrics.counter("sync.durability.parked_sessions")
        self._sessions_lost = metrics.counter("sync.durability.sessions_lost")
        self._reconcile_served = metrics.counter("sync.reconcile.served")
        self._reconcile_fetches = metrics.counter("sync.reconcile.fetches")
        # CSN of the last committed update this provider has seen; for a
        # durable provider this doubles as the replayed-journal position
        # during recovery (it equals server.current_csn exactly when the
        # journal lost nothing).
        self._watermark = server.current_csn
        # Per-entry last-change CSNs (eq.-3 degraded resumes); only
        # maintained when a durability config is present.
        self._last_change = LastChangeMap()
        self._appends_since_snapshot = 0
        # Depth of on_update calls in flight (a deliver callback that
        # updates the master nests one): no compaction while non-zero.
        self._fanning_out = 0
        # True while recover() folds the journal: the folds then append
        # nothing and count nothing (the registry survived the crash).
        self._replaying = False
        server.add_update_listener(self)

    # ------------------------------------------------------------------
    # update listener
    # ------------------------------------------------------------------
    def on_update(self, record: UpdateRecord) -> None:
        """Fold one committed master update into every affected session.

        A persist deliver callback may update the master and re-enter
        here mid-fan-out; whatever snapshot falls due in there is
        deferred (:meth:`_maybe_snapshot`) until the outermost call has
        handed its record to every session."""
        self._fanning_out += 1
        try:
            self._fold_update(record)
        finally:
            self._fanning_out -= 1
        self._maybe_snapshot()

    def _fan_out(self, record: UpdateRecord) -> None:
        """Notify the sessions *record* affects (overridden by the
        all-sessions oracle, ``tests/oracles.LinearResyncProvider``)."""
        # Phase 1: route, resolve the exact membership predicate per
        # candidate (pre-resolved by the holder index where it already
        # knows the answer — SessionRouter.route_verdicts), and advance
        # *every* affected session's membership before any delivery.  A
        # persist deliver callback may update the master and re-enter
        # on_update mid-flush; with the holder index already advanced
        # for every affected session, the nested routing pass is
        # complete, and the nested visit happens between this record's
        # deliveries exactly where the linear scan would put it.
        routed = self.router.route_verdicts(record)
        old_dn, new_dn, after = record.dn, record.effective_dn, record.after
        renamed = old_dn != new_dn
        visits = []
        for session, verdict in routed:
            if verdict is None:
                # The membership is exact, so only the after image
                # (never None on an unresolved verdict) needs evaluating.
                verdict = (old_dn in session.content_dns, session.selects(after))
            pdus = OUTCOMES[verdict[0], verdict[1], renamed]
            if pdus:
                session.advance(pdus, old_dn, new_dn)
                visits.append((session, pdus))
        if not self._replaying:
            self._route_candidates.inc(len(routed))
            self._route_notified.inc(len(visits))
        # Phase 2: notify, in session-creation order (== linear order).
        # One shared SyncUpdate per PDU kind serves every visited
        # session, wrapping the record's own frozen after image
        # (consumers adopt it as it is): each PDU is built, and its
        # length encoded, once per record instead of once per session.
        built: Dict[str, SyncUpdate] = {}
        for session, pdus in visits:
            for pdu in pdus:
                update = built.get(pdu)
                if update is None:
                    update = built[pdu] = PDUS[pdu](old_dn, after)
                session.enqueue(update)
            session.flush()

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    def handle(
        self,
        request: SearchRequest,
        control: ReSyncControl,
        deliver: Optional[DeliverFn] = None,
    ) -> SyncResponse:
        """Service one search request carrying a reSync control.

        The four cases of §5.2: (i) null cookie — initial request, whole
        content sent; (ii) cookie — session resumed, accumulated updates
        sent; (iii) mode ``persist`` — connection kept open, *deliver*
        called for each later change; (iv) mode ``poll`` — a resumption
        cookie is returned.  Mode ``sync_end`` terminates the session.

        **Partial-delivery safety** (docs/PROTOCOL.md §9): every
        response is safe to cut anywhere.  Batches order deletes before
        adds (:meth:`Session.drain`), every action is an idempotent
        state-setter, and the cookie travels *after* the update stream —
        so a consumer that applied only a prefix still holds its old
        cookie, retries at generation ``G-1``, and receives the retained
        batch again (:meth:`Session.retransmit`).  Over-delivery is
        harmless; the truncated tail is never silently lost.

        A :class:`~repro.sync.protocol.MultiPoll` control is one link
        round's polls — *request* is then the tuple of their search
        requests — answered by :meth:`_answer_polls`.
        """
        if isinstance(control, MultiPoll):
            return self._answer_polls(request, control)
        if control.mode is SyncMode.SYNC_END:
            if control.cookie is not None:
                self._fold_end(control.cookie)
            return SyncResponse(updates=[], cookie=None)
        persist = control.mode is SyncMode.PERSIST
        return self._handle(request, control.cookie, persist, deliver)[0]

    def _answer_polls(self, requests, polls: MultiPoll) -> MultiPollResponse:
        """Serve N ``(request, cookie)`` pairs in one exchange
        (docs/PROTOCOL.md §4): each is one :meth:`_handle` poll that may
        find its session quiet — then it is not named — and a refused
        cookie refuses that session alone."""

        def serve(request, cookie):
            return self._handle(request, cookie, False, quiet=True)[0]

        return answer_polls(serve, requests, polls)

    def _handle(
        self,
        request: SearchRequest,
        cookie: Optional[str],
        persist: bool,
        deliver: Optional[DeliverFn] = None,
        quiet: bool = False,
    ) -> tuple[Optional[SyncResponse], Session]:
        """One poll or persist request of :meth:`handle` presenting
        *cookie* (None: the initial request).  With *quiet* (a multiplexed
        poll) a **quiet** session — the latest cookie ``G`` presented,
        nothing pending, no degraded resume due — is folded as a quiet
        ``poll`` and answered None: it is not named and its consumer
        keeps its cookie (docs/PROTOCOL.md §4)."""
        if persist and deliver is None:
            raise SyncProtocolError("persist mode requires a deliver callback")

        if cookie is None:
            # Initial request: the whole current content travels.
            with span("sync.resync.initial_content") as sp:
                content = self._search_content(request)
                session = self._fold_create(
                    request, [e.dn for e in content], self._watermark, persist
                )
                response = SyncResponse(
                    updates=[_add(e) for e in content], initial=True
                )
                sp.add("entries_sent", len(content))
        else:
            # Resumed session: scan the per-session history and emit the
            # coalesced net actions (eq. 2) — or, when the history was
            # abandoned at the cap, an incomplete-history resume (eq. 3).
            with span("sync.resync.history_scan") as sp:
                session = self._session_of(cookie, request)
                try:
                    generation = SessionStore.generation_of(cookie)
                    if not 0 <= session.generation - generation <= 1:
                        raise SyncProtocolError(
                            f"cookie {cookie!r} is too old for session "
                            f"{session.session_id} (at generation "
                            f"{session.generation}); full reload required"
                        )
                    degraded = self._needs_degraded_resume(session, generation)
                    if degraded and persist:
                        raise SyncProtocolError(
                            "incomplete-history resume requires poll mode"
                        )
                except SyncProtocolError:
                    # A refused cookie is session activity all the same.
                    self._fold_touch(session.session_id)
                    raise
                if degraded:
                    response = self._serve_degraded(session, generation)
                elif quiet and generation == session.generation and not session.pending_count:
                    self._fold_poll(session.session_id, generation, persist, quiet=True)
                    response = None
                else:
                    updates = self._fold_poll(session.session_id, generation, persist)
                    response = SyncResponse(updates=updates)
                if response is not None:
                    sp.add("actions_emitted", len(response.updates))

        session.deliver = deliver if persist else None
        if response is not None and not persist and not response.uses_retain:
            # A degraded resume already stamped its own ":h" cookie.
            response.cookie = self.sessions.cookie_for(session)
        self._maybe_snapshot()
        return response, session

    def persist(
        self,
        request: SearchRequest,
        deliver: DeliverFn,
        cookie: Optional[str] = None,
    ) -> tuple[SyncResponse, PersistHandle]:
        """Open a persist-mode session; returns (initial response, handle)."""
        response, session = self._handle(request, cookie, True, deliver)
        return response, PersistHandle(self, session)

    # ------------------------------------------------------------------
    # anti-entropy reconciliation (docs/PROTOCOL.md §11)
    # ------------------------------------------------------------------
    def reconcile(
        self, request: SearchRequest, rreq: ReconcileRequest
    ) -> ReconcileResponse:
        """Serve one anti-entropy sketch over the current content.

        The cheap alternative to a full-content rebuild for a consumer
        whose cookie was refused over warm content — stamped ``:h`` or
        not (docs/RECOVERY.md tier 2): the sketch
        costs O(cells) bytes instead of O(content).

        A fresh session is minted *at sketch time*, seeded with the
        sketched content, and journaled like any initial poll (the same
        ``create`` fold) — so the cookie in the response survives a
        provider crash, and every master update between the sketch and
        the consumer's next poll lands in the session's pending history
        rather than in a divergence window.  ``rreq.cookie`` (a previous
        attempt's session, on a doubling retry) is ended first.
        """
        if rreq.cookie is not None:
            self._fold_end(rreq.cookie)
        with span("sync.resync.reconcile_scan") as sp:
            cells = (
                rreq.cells
                if rreq.cells is not None
                else cells_for_divergence(rreq.divergence_hint)
            )
            content = self._search_content(request)
            session = self._fold_create(
                request, [e.dn for e in content], self._watermark, False
            )
            sketch = build_sketch(content, cells, salt=rreq.salt)
            sp.add("entries_sketched", len(content))
        self._reconcile_served.inc()
        self._maybe_snapshot()
        return ReconcileResponse(
            sketch=sketch,
            cookie=self.sessions.cookie_for(session),
            content_count=len(content),
        )

    def reconcile_fetch(
        self, request: SearchRequest, fetch: ReconcileFetch
    ) -> SyncResponse:
        """Resolve decoded master-only keys into full-entry ``add`` PDUs.

        Keys are matched against the *current* content: an entry
        modified since the sketch travels in its newest version (the
        session redelivers the modify — idempotent), one deleted since
        is skipped (the session delivers the delete on the next poll).
        The response cookie resumes the sketch-time session, which from
        here on is an ordinary §4 poll session.
        """
        with span("sync.resync.reconcile_fetch") as sp:
            session = self._session_of(fetch.cookie, request)
            content = self._search_content(request)
            by_key = {entry_digest(e)[0]: e for e in content}
            wanted = set(fetch.keys)
            updates = [_add(e) for key, e in by_key.items() if key in wanted]
            sp.add("entries_sent", len(updates))
            self._fold_touch(session.session_id)
        self._reconcile_fetches.inc()
        self._maybe_snapshot()
        return SyncResponse(
            updates=updates, cookie=self.sessions.cookie_for(session)
        )

    # ------------------------------------------------------------------
    # failure hooks (docs/PROTOCOL.md §9)
    # ------------------------------------------------------------------
    def restart(self) -> None:
        """Simulate a master crash/restart.

        The DIT survives (it is the server's, not the provider's), but
        every piece of in-memory protocol state dies with the process:
        the session records — histories, unacked batches, endpoints.  Every
        outstanding cookie now names an unknown session, so the next
        poll from any consumer raises :class:`SyncProtocolError` and the
        consumer must recover without the session (docs/RECOVERY.md:
        sketch reconciliation, or §5's reload).  Persist
        streams simply stop; consumers detect the dead connection and
        re-subscribe.
        """
        self._reset(self.server.current_csn)
        # The journal is the durable store: it survives the crash
        # untouched (modulo injected damage) for recover() to replay.

    def _reset(self, watermark: int) -> None:
        """Forget all in-memory protocol state; the records die unended."""
        self.sessions = SessionStore(idle_limit=self.sessions.idle_limit)
        self._last_change.clear()
        self._watermark = watermark
        self._appends_since_snapshot = 0

    def invalidate_cookie(self, cookie: str) -> None:
        """Expire the session named by *cookie* (the admin time limit
        firing early); its next presentation raises
        :class:`SyncProtocolError`."""
        self._fold_end(cookie)

    @property
    def router(self) -> SessionRouter:
        """The index the fan-out routes through: the session store's."""
        return self.sessions.router

    def _session_of(self, cookie: str, request: SearchRequest) -> Session:
        """The live session *cookie* resumes for *request*, its activity
        clock untouched (the fold the handler ends in advances it).  An
        unknown or expired cookie raises :class:`SyncProtocolError` —
        the consumer must restart with a full reload — and so does one
        minted for another request, which still counts as activity."""
        session = self.sessions.get(cookie)
        if session is None:
            raise SyncProtocolError(f"unknown or expired cookie {cookie!r}")
        if session.request is not request and session.request != request:
            self._fold_touch(session.session_id)
            raise SyncProtocolError(
                "cookie presented with a different search request"
            )
        return session

    def _search_content(self, request: SearchRequest) -> List[Entry]:
        """Current master content of *request* (:func:`master_content`:
        store images, no copy), in deterministic DN order (so truncated
        initial deliveries are reproducible).  Every provider-side
        content read — initial load, reconcile sketch, reconcile fetch,
        degraded resume — is this one."""
        return sorted(master_content(self.server, request), key=lambda e: str(e.dn))

    @property
    def active_session_count(self) -> int:
        return len(self.sessions)

    def detach(self) -> None:
        """Stop receiving updates from the server (idempotent) — used
        when a recovered provider instance replaces this one."""
        self.server.remove_update_listener(self)

    # ------------------------------------------------------------------
    # the fold: one function per journal record kind (docs/PROTOCOL.md
    # §10.1).  Each is called by its live handler and by recover(), and
    # appends its own record when a journal is attached and live.
    # ------------------------------------------------------------------
    def _fold_update(self, record: UpdateRecord) -> None:
        """``update`` — one committed master update.  Appended *before*
        it is folded: a persist deliver callback may re-enter the
        provider mid-fan-out, and whatever that journals must follow
        this record."""
        if self._journaling:
            self._journal_event({"t": "update", **record_to_wire(record)})
        self._watermark = record.csn
        if self.durability is not None:
            self._last_change.note(record)
        self._fan_out(record)

    def _fold_create(
        self,
        request: SearchRequest,
        dns: List[DN],
        csn: int,
        persist: bool,
        sid: Optional[str] = None,
    ) -> Session:
        """``create`` — a session opened over content *dns* at directory
        CSN *csn*, by an initial request, a persist subscription or a
        reconcile sketch.  *sid* is the journaled id; live, the store
        mints the next one."""
        session = self.sessions.create(request, sid)
        self._configure_session(session)
        session.seed_content(dns)
        # A creation (like a resume) attests the directory CSN it was
        # served at — without it a journal holding only session events
        # would look torn-tailed and recovery would shed the sessions.
        self._watermark = max(self._watermark, csn)
        session.drain_csn = session.prev_drain_csn = csn
        session.persist_queue = [] if persist else None
        if self._journaling:
            self._journal_event(
                {
                    "t": "create",
                    "sid": session.session_id,
                    "req": request_to_wire(request),
                    "content": sorted(str(dn) for dn in dns),
                    "csn": csn,
                    "persist": persist,
                }
            )
        return session

    def _fold_poll(self, sid: str, gen: int, persist: bool, quiet: bool = False) -> List[SyncUpdate]:
        """``poll`` — a resumed session served at cookie generation
        *gen*: the session's current one (acknowledge the last batch and
        drain the next) or the one before (the response was lost:
        retransmit).  Returns the batch.

        A *quiet* poll (docs/PROTOCOL.md §4) has nothing to drain: the
        consumer, keeping its cookie, holds the content at the
        watermark.  ``G``, ``prev_drain_csn``, the retained batch and an
        unacknowledged degraded resume all stay as they are — a
        ``G-1`` cookie (a snapshot restored after the quiet poll) must
        still be re-served the batch, or the resume, that reached ``G``."""
        session = self.sessions.lookup(sid)
        if quiet:
            session.drain_csn = self._watermark
            session.persist_queue = None
            self._journal_event({"t": "poll", "sid": sid, "gen": gen, "persist": False, "quiet": True})
            return []
        if gen == session.generation:
            # The latest cookie also acknowledges any pending degraded
            # resume, and the drain retires the previous batch's CSN.
            session.degraded_since_csn = None
            updates = session.drain()
            session.prev_drain_csn = session.drain_csn
        else:
            updates = session.retransmit()
        # Either way the batch was rebuilt at the current watermark.
        session.drain_csn = self._watermark
        session.persist_queue = [] if persist else None
        self._journal_event({"t": "poll", "sid": sid, "gen": gen, "persist": persist})
        return updates

    def _fold_touch(self, sid: str) -> None:
        """``touch`` — session activity that changed nothing else: a
        refused cookie, a reconcile fetch."""
        self.sessions.lookup(sid)
        self._journal_event({"t": "touch", "sid": sid})

    def _fold_resume(
        self, sid: str, first: bool, since: int, dns: List[DN], csn: int
    ) -> None:
        """``resume`` — an incomplete-history (eq. 3) resume served at
        directory CSN *csn* over content *dns*: the history restarts
        empty at the resume point, the consumer holds exactly *dns*."""
        session = self.sessions.lookup(sid)
        self._watermark = max(self._watermark, csn)
        session.polls += 1
        session.abandon_history()
        session.acknowledge()
        session.seed_content(dns)
        session.prev_drain_csn = since
        session.drain_csn = csn
        session.history_overflowed = False  # complete again from here
        if first:
            session.generation += 1
        session.degraded_since_csn = since
        session.persist_queue = None
        self._journal_event(
            {
                "t": "resume",
                "sid": sid,
                "first": first,
                "since": since,
                "csn": csn,
                "content": [str(d) for d in dns],
                "persist": False,
            }
        )
        if not self._replaying:
            self._degraded_resumes.inc()

    def park_session(self, cookie: str) -> bool:
        """``park`` — park the session named by *cookie* at the eq.-3
        retain tier (quarantine relief, docs/RECOVERY.md §5).

        The per-session history is abandoned *now* — the provider stops
        accumulating update state for a flapping consumer — and the next
        poll is served as an incomplete-history resume
        (:meth:`_serve_degraded`): full entries for what changed since
        the consumer's last drain, DN-only ``retain`` actions for the
        unchanged rest, cookie stamped ``:h``.

        Returns True when the session existed and was parked.  Unknown
        cookies are a counted no-op (``sync.session.unknown_cookie``),
        like :meth:`_fold_end` — quarantine is best-effort relief,
        never a new failure mode.  Providers without durability have no
        eq.-3 resume path and refuse (False).
        """
        if self.durability is None:
            return False
        session = self.sessions.get(cookie)
        if session is None:
            if not self._replaying:
                self._unknown_cookie.inc()
            return False
        session.abandon_history()
        self._journal_event({"t": "park", "sid": session.session_id})
        if not self._replaying:
            self._parked.inc()
        return True

    def _fold_end(self, cookie: str) -> None:
        """``end`` — terminate the session named by *cookie*
        (:meth:`SessionStore.end`: unrouted, endpoint closed).

        An unknown or already-ended cookie is a counted no-op
        (``sync.session.unknown_cookie``), not an error: sync_end is
        how consumers *stop caring*, and double delivery of it (a retry
        after a lost ack, an admin expiry racing a voluntary end) must
        not fail the caller."""
        sid = cookie.split(":", 1)[0]
        if self.sessions.end(sid):
            self._journal_event({"t": "end", "sid": sid})
        elif not self._replaying:
            self._unknown_cookie.inc()

    #: Journal record kind → how :meth:`recover` folds one such record:
    #: decode its fields — each DN text through the recovery's
    #: :class:`DNMemo` — and call the kind's fold.  The keys are the
    #: record table of docs/PROTOCOL.md §10.1 (checked by
    #: tools/check_docs.py).
    FOLDS: Dict[str, Callable[["ResyncProvider", dict, DNMemo], object]] = {
        "update": lambda self, rec, dns: self._fold_update(record_from_wire(rec, dns)),
        "create": lambda self, rec, dns: self._fold_create(
            request_from_wire(rec["req"], dns),
            list(map(dns, rec["content"])),
            rec["csn"],
            rec["persist"],
            rec["sid"],
        ),
        "poll": lambda self, rec, dns: self._fold_poll(
            rec["sid"], rec["gen"], rec["persist"], rec.get("quiet", False)
        ),
        "touch": lambda self, rec, dns: self._fold_touch(rec["sid"]),
        "resume": lambda self, rec, dns: self._fold_resume(
            rec["sid"],
            rec["first"],
            rec["since"],
            list(map(dns, rec["content"])),
            rec["csn"],
        ),
        "park": lambda self, rec, dns: self.park_session(rec["sid"]),
        "end": lambda self, rec, dns: self._fold_end(rec["sid"]),
    }

    # ------------------------------------------------------------------
    # durability: journal plumbing (docs/PROTOCOL.md §10)
    # ------------------------------------------------------------------
    @property
    def _journaling(self) -> bool:
        return self.journal is not None and not self._replaying

    def _journal_event(self, event: dict) -> None:
        if not self._journaling:
            return
        self.journal.append(event)
        self._journal_appends.inc()
        self._appends_since_snapshot += 1
        self._journal_bytes.set(self.journal.size_bytes)

    def _maybe_snapshot(self) -> None:
        """Compact once enough has been appended since the last
        snapshot.  Called only *after* a handler finished folding its
        event into provider state — snapshotting mid-fold would truncate
        the journal while the state still excludes the in-flight record,
        losing it.  A handler running *inside* a fan-out (a deliver
        callback that updated the master, or polled) is mid-fold for the
        outer record, so it compacts nothing: the outermost
        :meth:`on_update` does, once every session has the record."""
        if not self._journaling or self._fanning_out:
            return
        if self._appends_since_snapshot < self.durability.snapshot_interval:
            return
        self._write_snapshot()

    def _write_snapshot(self) -> None:
        snapshot = {
            "csn": self._watermark,
            "tick": self.sessions.tick,
            "next_id": self.sessions.next_id,
            "last_change": {str(dn): csn for dn, csn in self._last_change.items()},
            "sessions": [
                session_to_wire(s) for s in self.sessions.active_sessions()
            ],
        }
        self.journal.write_snapshot(snapshot)
        self._appends_since_snapshot = 0
        self._snapshots.inc()
        self._journal_bytes.set(self.journal.size_bytes)

    def _restore_snapshot(self, snapshot: dict, dns: DNMemo) -> None:
        """The inverse of :meth:`_write_snapshot`, decoding DN texts
        through *dns*; every adopted session image enters the router
        with the content it carries, in the store's creation
        (= session-id) order — the order the router must visit sessions
        in."""
        self._watermark = snapshot["csn"]
        self.sessions.restore_clock(snapshot["tick"], snapshot["next_id"])
        for dn, csn in snapshot["last_change"].items():
            self._last_change[dns(dn)] = csn
        for wire in snapshot["sessions"]:
            session = session_from_wire(wire, dns)
            self._configure_session(session)
            self.sessions.adopt(session)

    def _configure_session(self, session: Session) -> None:
        if self.durability is None:
            return
        session.history_max_entries = self.durability.history_max_entries
        session.overflow_callback = self._on_history_overflow

    def _on_history_overflow(self, session: Session) -> None:
        # Overflow re-occurs deterministically during journal replay;
        # the registry survives the crash, so count it only once.
        if not self._replaying:
            self._overflows.inc()

    # ------------------------------------------------------------------
    # durability: degraded (incomplete-history) resume — eq. 3
    # ------------------------------------------------------------------
    def _needs_degraded_resume(self, session: Session, generation: int) -> bool:
        if self.durability is None:
            return False
        if session.history_overflowed:
            return True
        # An unacknowledged degraded resume retried with the pre-resume
        # cookie (its response was lost) is re-served, not poll-drained:
        # the complete history restarted empty at the resume point, so a
        # retransmit would silently skip the resume delta.
        return (
            session.degraded_since_csn is not None
            and generation == session.generation - 1
        )

    def _serve_degraded(self, session: Session, generation: int) -> SyncResponse:
        """Serve one incomplete-history resume (eq. 3): full entries for
        everything changed since the consumer's last-known state, a
        DN-only ``retain`` for the unchanged rest; the consumer discards
        whatever is neither.  The cookie is stamped ``:h`` so the
        consumer can tell (and count) the degraded path."""
        first = session.history_overflowed
        if not first:
            since = session.degraded_since_csn
        elif generation == session.generation:
            since = session.drain_csn
        else:
            since = session.prev_drain_csn
        content = self._search_content(session.request)
        updates = self._last_change.classify(content, since)
        self._fold_resume(
            session.session_id,
            first,
            since,
            [e.dn for e in content],
            self._watermark,
        )
        return SyncResponse(
            updates=updates,
            cookie=f"{session.session_id}:{session.generation}:h",
            uses_retain=True,
        )

    # ------------------------------------------------------------------
    # durability: crash recovery
    # ------------------------------------------------------------------
    def recover(self) -> int:
        """Rebuild session state from the journal after :meth:`restart`:
        reset, restore the snapshot, fold every record of the journal
        tail through :attr:`FOLDS` — the functions the live handlers
        called when they wrote it, the router fan-out included.  One
        :class:`DNMemo` decodes every DN text of the snapshot and the
        tail, each distinct text once; it is dropped on return.

        Two safety rules follow: (i) persist sessions are shed — their
        delivery callback died with the process and no cookie was ever
        issued for them, so they are unreachable; (ii) if the replayed
        watermark trails ``server.current_csn``, the journal lost
        committed updates (torn tail / corruption) and *every* recovered
        session would silently miss them — all are shed (counted
        ``sync.durability.sessions_lost``) so consumers take the honest
        reload path instead of diverging.

        Returns the number of journal records replayed.
        """
        if self.journal is None:
            raise RuntimeError("recover() requires a journal backend")
        snapshot, records, dropped = self.journal.load()
        if dropped:
            self._dropped.inc(dropped)
        self._reset(0)
        self._replaying = True
        dns = DNMemo()
        try:
            if snapshot is not None:
                self._restore_snapshot(snapshot, dns)
            for rec in records:
                # Unknown kinds (a newer writer) are skipped, not fatal.
                fold = self.FOLDS.get(rec.get("t"))
                if fold is not None:
                    try:
                        fold(self, rec, dns)
                    except SyncProtocolError:
                        pass  # names a session this journal no longer holds
        finally:
            self._replaying = False
        self._replayed.inc(len(records))
        torn = self._watermark < self.server.current_csn
        for session in self.sessions.active_sessions():
            persist = session.persist_queue is not None
            if torn or persist:
                # Not an ``end`` fold: the snapshot below records it.
                self.sessions.end(session.session_id)
                if not persist:
                    self._sessions_lost.inc()
        if torn:
            # The lost window cannot poison future sessions: a new
            # session's resume point is at least its creation watermark,
            # which now covers it.
            self._watermark = self.server.current_csn
            self._last_change.clear()
        self._write_snapshot()
        self._recoveries.inc()
        return len(records)

