"""Server-side ReSync sessions.

§5.2: the ReSync master keeps, per update session, a *session history*
of entries leaving the content of the synchronized search — the piece
of state that lets it send the minimal update set (eq. 2) without
changelogs or tombstones.

A :class:`Session` tracks, between polls, the coalesced pending actions
for its search request.  Coalescing is per-DN with upsert semantics at
the consumer, so only the *net* effect of an update burst travels:

=============  ==============  =========================
pending        new action      result
=============  ==============  =========================
(none)         any             that action
ADD            MODIFY          ADD with the newer entry
ADD            DELETE          (nothing) / DELETE¹
MODIFY         MODIFY          MODIFY with newer entry
MODIFY         DELETE          DELETE
DELETE         ADD             ADD (replica upserts)
=============  ==============  =========================

¹ A pending ADD cancelled by a DELETE nets to nothing only when the
consumer never saw the entry.  If the consumer *holds* it (it was in a
previously delivered batch, left the content and re-entered since the
last poll), the net action is a DELETE — dropping it would strand the
entry at the replica.  The session tracks the delivered state to tell
the two cases apart.

A :class:`Session` is the one record the provider keeps per session:
history, content membership (posted in the router's reverse index),
routing summary (:mod:`repro.sync.router`) and persist-mode delivery
endpoint.  What one update means for one session is :data:`OUTCOMES`.

Sessions are identified by opaque cookies and expire after
``idle_limit`` polls of global session-store activity without being
polled (the paper's "admin time limit", in logical time).  However a
session ends, it ends through :meth:`SessionStore.end`.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..ldap.controls import SyncAction
from ..ldap.dn import DN
from ..ldap.entry import Entry
from ..ldap.filters import attributes_of
from ..ldap.matching import compile_filter_cached
from ..ldap.query import SearchRequest
from .protocol import SyncProtocolError, SyncUpdate
from .router import SessionRouter

__all__ = ["Session", "SessionStore", "OUTCOMES", "PDUS"]

#: Store ticks a session may go untouched before it expires (the
#: paper's admin time limit, in logical time): the default of both
#: :class:`SessionStore` and :class:`~repro.sync.ResyncProvider`.
IDLE_LIMIT = 100_000

#: What one master update sends one session: ``(in content before, in
#: content after, DN changed)`` → the PDUs, in order (Figure 3: a rename
#: that keeps an entry in content is a delete for the old DN plus an add
#: for the new one).  The same row moves the session's membership
#: (:meth:`Session.advance`).  docs/PROTOCOL.md §3 renders the table.
OUTCOMES: Dict[Tuple[bool, bool, bool], Tuple[str, ...]] = {
    (False, False, False): (),
    (False, False, True): (),
    (False, True, False): ("add-new",),
    (False, True, True): ("add-new",),
    (True, False, False): ("delete-old",),
    (True, False, True): ("delete-old",),
    (True, True, False): ("modify",),
    (True, True, True): ("delete-old", "add-new"),
}

#: PDU kind → its :class:`SyncUpdate`, from the old DN and after image.
#: The image is the committed one (``UpdateRecord.after``, frozen by the
#: store) and the PDU wraps it as it is: no copy per record, let alone
#: per session.
PDUS: Dict[str, Callable[[DN, Optional[Entry]], SyncUpdate]] = {
    "delete-old": lambda old_dn, after: SyncUpdate.delete(old_dn),
    "add-new": lambda old_dn, after: SyncUpdate(SyncAction.ADD, after.dn, after),
    "modify": lambda old_dn, after: SyncUpdate(SyncAction.MODIFY, after.dn, after),
}


class Session:
    """One replica's synchronization session for one search request."""

    def __init__(self, session_id: str, request: SearchRequest):
        self.session_id = session_id
        self.request = request
        # Net pending action per DN since the last served poll.
        self._pending: Dict[DN, SyncUpdate] = {}
        # Last served batch, retained until the next cookie acknowledges
        # it (at-least-once delivery across lost responses).
        self._unacked: Dict[DN, SyncUpdate] = {}
        # DNs the consumer holds, assuming it applied everything sent.
        # Written by advance() and seed_content() only, which keep its
        # reverse index — ``DN → sessions``, the router's ``_holders``;
        # None on a stand-alone session — in step.
        self.content_dns: Set[DN] = set()
        self.holder_index: Optional[Dict[DN, Set["Session"]]] = None
        # --- routing summary (repro.sync.router) -----------------------
        self.compiled = compile_filter_cached(request.filter)
        self.fingerprint = attributes_of(request.filter)
        self.region = request.base.reversed_key()
        # Set by SessionRouter.register: creation order, and the anchor
        # atoms posted under (None: unanchored, sees every add in region).
        self.serial: Optional[int] = None
        self.atoms: Optional[FrozenSet[tuple]] = None
        # DNs actually *delivered* to the consumer (initial content plus
        # served batches).  Unlike content_dns — which tracks the
        # master-side content eagerly, pending updates included — this
        # only advances when a batch is built, so the coalescer can tell
        # "the consumer never saw this entry" from "it left and
        # re-entered content since the last poll".
        self._delivered: Set[DN] = set()
        self.persist_queue: Optional[List[SyncUpdate]] = None
        # Persist mode: the endpoint flush() delivers the queue above to.
        self.deliver: Optional[Callable[[SyncUpdate], None]] = None
        self.ended = False  # raised by close(); a handle's liveness
        self.draining = False  # True while flush() is delivering the queue
        self.polls = 0
        self.generation = 0
        self.last_active_tick = 0
        # --- bounded history (repro.sync.durability) -------------------
        # Cap on the pending history (None: unbounded).  Crossing it
        # abandons the history: pending is cleared, the flag below is
        # raised, and the provider serves the next poll as an
        # incomplete-history resume (eq. 3).
        self.history_max_entries: Optional[int] = None
        self.history_overflowed = False
        self.overflow_callback: Optional[Callable[["Session"], None]] = None
        # --- consumer-state watermarks (durability/recovery) -----------
        # CSN at which the latest / previous served batch was built: a
        # consumer presenting generation G holds the master state of
        # drain_csn; presenting G-1, of prev_drain_csn.  These are the
        # safe "changed since" points for a degraded eq.-3 resume.
        self.drain_csn = 0
        self.prev_drain_csn = 0
        # The "since" CSN of an unacknowledged degraded resume (set when
        # one is served, cleared when the next cookie acknowledges it);
        # a retry at generation G-1 re-serves the resume from here.
        self.degraded_since_csn: Optional[int] = None

    # ------------------------------------------------------------------
    # update ingestion (called by the provider's update listener)
    # ------------------------------------------------------------------
    def enqueue(self, update: SyncUpdate) -> None:
        """Fold one pre-built update into the pending actions.

        The PDU half of an :data:`OUTCOMES` row (:meth:`advance` is the
        membership half): the routed fan-out advances every visited
        session's membership first, then enqueues one shared (frozen)
        ``SyncUpdate`` per PDU kind per record into each.
        """
        if self.persist_queue is not None:
            # Persist mode: notifications flow immediately, no coalescing.
            self.persist_queue.append(update)
            self._track_delivered(update)
            return
        if self.history_overflowed:
            # The history was abandoned at the cap: the next poll is an
            # incomplete-history resume, which re-derives everything.
            return
        merged = self._coalesce(self._pending.get(update.dn), update)
        if merged is None:
            self._pending.pop(update.dn, None)
        else:
            self._pending[update.dn] = merged
        self._check_history_cap()

    def flush(self) -> None:
        """Deliver the persist queue to the endpoint, in order."""
        deliver = self.deliver
        if self.persist_queue is None or deliver is None:
            return
        if self.draining:
            # Reentrant call: a deliver callback triggered a master
            # update, which re-entered on_update mid-delivery.  The new
            # notification is already queued; the outer drain loop picks
            # it up after the in-flight batch, preserving order.
            return
        self.draining = True
        # A network's batching DeliveryQueue takes whole queued runs at
        # once — one offer per flush instead of one call per update; an
        # in-process callback gets the per-update loop.
        offer_many = getattr(deliver, "offer_many", None)
        try:
            while self.persist_queue:
                queued, self.persist_queue = self.persist_queue, []
                if offer_many is not None:
                    offer_many(queued)
                else:
                    for update in queued:
                        deliver(update)
        finally:
            self.draining = False

    def _check_history_cap(self) -> None:
        cap = self.history_max_entries
        if cap is None or len(self._pending) <= cap:
            return
        self.abandon_history()
        if self.overflow_callback is not None:
            self.overflow_callback(self)

    def abandon_history(self) -> None:
        """Forget the pending actions and say so — at the cap, when
        parked: only an incomplete-history resume (eq. 3) can serve the
        session now, and that resume restarts the history empty."""
        self._pending.clear()
        self.history_overflowed = True

    def advance(self, pdus: Tuple[str, ...], old_dn: DN, new_dn: DN) -> None:
        """The membership half of one :data:`OUTCOMES` row:
        ``delete-old`` leaves *old_dn*, ``add-new`` enters *new_dn*."""
        for pdu in pdus:
            if pdu == "delete-old":
                self.content_dns.discard(old_dn)
                self._unpost(old_dn)
            elif pdu == "add-new":
                self.content_dns.add(new_dn)
                self._post(new_dn)

    def _post(self, dn: DN) -> None:
        if self.holder_index is not None:
            self.holder_index.setdefault(dn, set()).add(self)

    def _unpost(self, dn: DN) -> None:
        bucket = self.holder_index.get(dn) if self.holder_index is not None else None
        if bucket is not None:
            bucket.discard(self)
            if not bucket:
                del self.holder_index[dn]

    def index_under(self, holders: Optional[Dict[DN, Set["Session"]]]) -> None:
        """Post the membership in *holders* (None: nowhere) only."""
        for dn in self.content_dns:
            self._unpost(dn)
        self.holder_index = holders
        for dn in self.content_dns:
            self._post(dn)

    def seed_content(self, dns: Iterable[DN]) -> None:
        """Record the whole content just sent — on the session's first
        poll, or by an incomplete-history resume."""
        holders = self.holder_index
        self.index_under(None)
        self.content_dns = set(dns)
        self._delivered = set(self.content_dns)
        self.index_under(holders)

    def selects(self, entry: Entry) -> bool:
        """Exactly ``request.selects`` with the compiled filter."""
        return self.request.in_scope(entry.dn) and self.compiled(entry)

    def close(self) -> None:
        """The record's half of :meth:`SessionStore.end`: a handle reads
        dead and a ``DeliveryQueue`` endpoint drops what it holds."""
        self.ended = True
        endpoint, self.deliver = self.deliver, None
        close = getattr(endpoint, "close", None)
        if close is not None:
            close()

    def _track_delivered(self, update: SyncUpdate) -> None:
        if update.action is SyncAction.DELETE:
            self._delivered.discard(update.dn)
        else:
            self._delivered.add(update.dn)

    def _coalesce(
        self, pending: Optional[SyncUpdate], new: SyncUpdate
    ) -> Optional[SyncUpdate]:
        if pending is None:
            return new
        if new.action is SyncAction.DELETE:
            if pending.action is SyncAction.ADD:
                if new.dn in self._delivered:
                    # The consumer holds the entry: it left the content
                    # (DELETE, coalesced with a later re-entry into this
                    # pending ADD) and is leaving again — the net effect
                    # since the last poll is a DELETE.
                    return new
                return None  # consumer never saw this entry
            return new
        # new carries an entry: a MODIFY only over a pending MODIFY
        action = (
            SyncAction.MODIFY if pending.action is SyncAction.MODIFY else SyncAction.ADD
        )
        return new if new.action is action else SyncUpdate(action, new.dn, new.entry)

    # ------------------------------------------------------------------
    # poll servicing (with at-least-once delivery)
    # ------------------------------------------------------------------
    def drain(self) -> List[SyncUpdate]:
        """Build the next update batch, retaining it until acknowledged.

        The batch is kept as the *unacknowledged* set: if the response
        is lost before the replica applies it, the replica retries with
        its previous cookie and :meth:`retransmit` replays the batch
        (merged with anything newer).  The next poll with the fresh
        cookie acknowledges and discards it.

        Deletes are emitted before adds so that a rename whose old and
        new DNs both appear applies cleanly at the consumer.
        """
        # A retransmission over an empty retained set, under a new cookie.
        self.acknowledge()
        updates = self.retransmit()
        self.generation += 1
        return updates

    def acknowledge(self) -> None:
        """The replica presented the latest cookie: drop the retained
        batch."""
        self._unacked = {}

    def retransmit(self) -> List[SyncUpdate]:
        """Replay the unacknowledged batch, folding in newer pending
        updates (a retry after a lost response).

        The merged batch becomes the new retained set; the generation
        (and thus the cookie) does not advance, so a further retry
        replays again.

        Merging differs from fresh-pending coalescing in one rule: a
        retained ADD followed by a DELETE must stay a DELETE — the lost
        response may in fact have been applied (response received,
        cookie lost), so the consumer might hold the entry.  Every
        action is idempotent at the consumer, so over-sending is safe;
        under-sending is not.
        """
        for dn, update in self._pending.items():
            if update.action is not SyncAction.DELETE:
                update = self._coalesce(self._unacked.get(dn), update)
            self._unacked[dn] = update  # never drop a delete against a sent add
        self._pending.clear()
        self.polls += 1
        updates = self._sorted(self._unacked)
        for update in updates:
            self._track_delivered(update)
        return updates

    @staticmethod
    def _sorted(batch: Dict[DN, SyncUpdate]) -> List[SyncUpdate]:
        updates = list(batch.values())
        updates.sort(key=lambda u: (u.action is not SyncAction.DELETE, str(u.dn)))
        return updates

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def retained_count(self) -> int:
        """Size of the unacknowledged batch retained for retransmission."""
        return len(self._unacked)


_serial = attrgetter("serial")  # assigned at adopt(): the store's insertion order
_placed_tick = itemgetter(1)


class SessionStore:
    """Cookie-keyed session registry with logical-time expiry.

    One entry point per transition — :meth:`create`, :meth:`lookup`
    (the only one that ticks the clock), :meth:`end` — serves the
    provider's live handlers and its journal replay alike.  A session
    is indexed in the store's ``router`` exactly while the store holds it.

    The store keeps two orders over the same sessions: insertion order
    (``_sessions`` — the order :meth:`active_sessions`, snapshots and
    expiry *endings* follow) and activity order (``_activity`` — least
    recently active first, each id with the ``last_active_tick`` it was
    placed at).  A touch moves its session to the back of the second, so
    expiry (:meth:`_expire`) reads from the front and stops at the first
    session inside the limit: a poll costs what it expires, not one
    look at every live session (``tests/oracles.LinearSessionStore`` is
    the scan it replaced, and ends exactly the same sessions in the
    same order)."""

    def __init__(self, idle_limit: int = IDLE_LIMIT):
        self._sessions: Dict[str, Session] = {}
        # session id -> the last_active_tick it was placed at, in
        # non-decreasing tick order whenever _activity_sorted says so: a
        # tick earlier than the one at the back (a snapshot image's
        # restored tick, a touch on a clock restore_clock() set back) is
        # out of place until the next expiry sorts.
        self._activity: Dict[str, int] = {}
        self._activity_sorted = True
        self.router = SessionRouter()
        self._next_id = 1
        self.idle_limit = idle_limit
        self._tick = 0
        self._expiring = False

    def __len__(self) -> int:
        return len(self._sessions)

    @property
    def tick(self) -> int:
        """The logical activity clock (snapshot/recovery bookkeeping)."""
        return self._tick

    @property
    def next_id(self) -> int:
        """The next session id to be assigned (recovery bookkeeping)."""
        return self._next_id

    def restore_clock(self, tick: int, next_id: int) -> None:
        """Restore the activity clock and id counter from a snapshot, so
        post-recovery session ids and expiry decisions continue exactly
        where the crashed incarnation left off."""
        self._tick = tick
        self._next_id = next_id

    def create(self, request: SearchRequest, session_id: Optional[str] = None) -> Session:
        """Open a new session for *request* and return it — under the
        next free id, or under *session_id* when folding a journaled
        ``create``."""
        if session_id is None:
            session_id = f"s{self._next_id}"
        session = Session(session_id, request)
        session.last_active_tick = self._tick
        self.adopt(session)
        return session

    def adopt(self, session: Session) -> None:
        """Insert *session* — a new one, or a snapshot image under its
        original id — and route it, keeping the id counter ahead of it.
        A record already held under the id is ended, not orphaned."""
        self.end(session.session_id)
        self._sessions[session.session_id] = session
        self._place(session)
        self.router.register(session)
        numeric = session.session_id.lstrip("s")
        if numeric.isdigit():
            self._next_id = max(self._next_id, int(numeric) + 1)

    def lookup(self, cookie: str) -> Session:
        """Resolve a cookie (or a bare session id) to its session,
        advancing the activity clock.

        Raises :class:`SyncProtocolError` for unknown/expired cookies —
        the consumer must restart with a full reload (cookie=None).
        """
        session = self.get(cookie)
        if session is None:
            raise SyncProtocolError(f"unknown or expired cookie {cookie!r}")
        self._touch(session)
        return session

    def end(self, cookie: str) -> bool:
        """Terminate the session named by *cookie* or bare session id —
        the one way a session ends (mode ``sync_end``, abandon, expiry,
        recovery shedding): out of the store and the router's postings,
        delivery endpoint closed, record marked ended.

        Returns whether a live session was actually ended — False for
        an unknown or already-ended cookie, which callers count as a
        no-op (``sync.session.unknown_cookie``) rather than erroring.
        """
        session = self._sessions.pop(cookie.split(":", 1)[0], None)
        if session is None:
            return False
        del self._activity[session.session_id]
        self.router.unregister(session)
        session.close()
        return True

    def get(self, cookie: str) -> Optional[Session]:
        """The live session named by *cookie* or bare session id, or None.

        Unlike :meth:`lookup` this neither touches the activity clock
        nor raises — it is the provider's liveness probe (an expired
        session simply reads as gone)."""
        return self._sessions.get(cookie.split(":", 1)[0])

    def cookie_for(self, session: Session) -> str:
        """Cookie handed to the consumer to resume *session*.

        Encodes the session's batch generation: presenting the latest
        cookie acknowledges the previous batch; presenting the previous
        one requests a retransmission (lost-response recovery).
        """
        return f"{session.session_id}:{session.generation}"

    @staticmethod
    def generation_of(cookie: str) -> int:
        """The generation number encoded in *cookie*.

        Cookies are ``<session-id>:<generation>`` with optional
        ``:``-separated flags after the generation — ``:h`` stamps an
        incomplete-history (degraded) resume
        (docs/PROTOCOL.md §10).  Flags are ignored here.
        """
        parts = cookie.split(":")
        gen = parts[1] if len(parts) > 1 else ""
        if not gen.isdigit():
            raise SyncProtocolError(f"malformed cookie {cookie!r}")
        return int(gen)

    def _touch(self, session: Session) -> None:
        self._tick += 1
        session.last_active_tick = self._tick
        self._place(session)
        self._expire()

    def _place(self, session: Session) -> None:
        """Put *session* at the back of the activity order, under its
        ``last_active_tick`` — where it belongs unless the tick is a
        restored one, which only unsets ``_activity_sorted``."""
        order, tick = self._activity, session.last_active_tick
        order.pop(session.session_id, None)
        if order and tick < next(reversed(order.values())):
            self._activity_sorted = False
        order[session.session_id] = tick

    def _expire(self) -> None:
        """Drop sessions idle for more than ``idle_limit`` ticks.

        Read off the front of the activity order, up to the first
        session inside the limit — none, on an ordinary poll.  Two-phase
        (collect, then drop, in insertion order), and
        reentrancy-guarded: a persist deliver callback can re-enter the
        store mid-delivery (:meth:`Session.flush` → consumer
        polls → :meth:`lookup` → here), so expiry must neither drop a
        session an outer pass has yet to look at nor expire a session
        whose queue is being drained right now (``draining`` — it is
        demonstrably live; it is passed over, shielding nobody behind
        it, and collected on a later tick if it truly goes idle)."""
        if self._expiring:
            return
        if self._activity_sorted:
            front = next(iter(self._activity.values()), None)
            if front is None or front >= self._tick - self.idle_limit:
                return  # the least recently active session is inside the limit
        self._expiring = True
        try:
            if not self._activity_sorted:
                # Stable: sessions placed at one tick keep their order.
                self._activity = dict(sorted(self._activity.items(), key=_placed_tick))
                self._activity_sorted = True
            cutoff = self._tick - self.idle_limit
            stale = []
            for sid, tick in self._activity.items():
                if tick >= cutoff:
                    break
                session = self._sessions[sid]
                if not session.draining:
                    stale.append(session)
            stale.sort(key=_serial)  # the store's insertion order
            for session in stale:
                self.end(session.session_id)
        finally:
            self._expiring = False

    def active_sessions(self) -> List[Session]:
        return list(self._sessions.values())
