"""Tests for server-side session state and action coalescing."""

from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.ldap import DN, Entry, Scope, SearchRequest, SyncAction
from repro.sync import Session, SessionStore, SyncProtocolError
from tests.oracles import LinearSessionStore, holders_of, observe


def entry(name: str, dept: str = "42") -> Entry:
    return Entry(
        f"cn={name},o=xyz",
        {"objectClass": ["person"], "cn": name, "sn": "T", "departmentNumber": dept},
    )


@pytest.fixture()
def session() -> Session:
    return Session("s1", SearchRequest("o=xyz", Scope.SUB, "(departmentNumber=42)"))


def dn(name: str) -> DN:
    return DN.parse(f"cn={name},o=xyz")


class TestObserve:
    def test_move_in_is_add(self, session):
        observe(session, False, True, dn("a"), dn("a"), entry("a"))
        updates = session.drain()
        assert [u.action for u in updates] == [SyncAction.ADD]

    def test_move_out_is_delete(self, session):
        observe(session, True, False, dn("a"), dn("a"), None)
        assert [u.action for u in session.drain()] == [SyncAction.DELETE]

    def test_stay_in_is_modify(self, session):
        observe(session, True, True, dn("a"), dn("a"), entry("a"))
        assert [u.action for u in session.drain()] == [SyncAction.MODIFY]

    def test_rename_in_content_is_delete_plus_add(self, session):
        """Figure 3: E3 renamed to E5 — delete old DN, add new DN."""
        observe(session, True, True, dn("e3"), dn("e5"), entry("e5"))
        updates = session.drain()
        assert [(u.action, str(u.dn)) for u in updates] == [
            (SyncAction.DELETE, "cn=e3,o=xyz"),
            (SyncAction.ADD, "cn=e5,o=xyz"),
        ]

    def test_never_in_content_ignored(self, session):
        observe(session, False, False, dn("a"), dn("a"), entry("a"))
        assert session.drain() == []


class TestCoalescing:
    def test_add_then_modify_is_add(self, session):
        observe(session, False, True, dn("a"), dn("a"), entry("a"))
        observe(session, True, True, dn("a"), dn("a"), entry("a", "42"))
        updates = session.drain()
        assert [u.action for u in updates] == [SyncAction.ADD]

    def test_add_then_delete_vanishes(self, session):
        observe(session, False, True, dn("a"), dn("a"), entry("a"))
        observe(session, True, False, dn("a"), dn("a"), None)
        assert session.drain() == []

    def test_delivered_entry_leaving_and_reentering_keeps_delete(self, session):
        """Regression: delete+add+delete of a *delivered* entry must net
        to a DELETE, not vanish.

        The ADD+DELETE→nothing rule only holds for entries the consumer
        never saw.  An entry from the initial content that leaves the
        filtered content, re-enters (DELETE coalesced with ADD → ADD)
        and leaves again must still emit a DELETE, or the replica keeps
        a stale copy forever.
        """
        session.seed_content([dn("a")])
        observe(session, True, False, dn("a"), dn("a"), None)  # leaves
        observe(session, False, True, dn("a"), dn("a"), entry("a"))  # re-enters
        observe(session, True, False, dn("a"), dn("a"), None)  # leaves again
        assert [u.action for u in session.drain()] == [SyncAction.DELETE]

    def test_undelivered_entry_entering_and_leaving_still_vanishes(self, session):
        """The counterpart: an entry the consumer never received that
        enters and leaves between polls generates no traffic at all."""
        session.seed_content([dn("b")])
        observe(session, False, True, dn("a"), dn("a"), entry("a"))
        observe(session, True, False, dn("a"), dn("a"), None)
        assert session.drain() == []

    def test_modify_then_delete_is_delete(self, session):
        observe(session, True, True, dn("a"), dn("a"), entry("a"))
        observe(session, True, False, dn("a"), dn("a"), None)
        assert [u.action for u in session.drain()] == [SyncAction.DELETE]

    def test_delete_then_add_is_add(self, session):
        observe(session, True, False, dn("a"), dn("a"), None)
        observe(session, False, True, dn("a"), dn("a"), entry("a"))
        updates = session.drain()
        assert [u.action for u in updates] == [SyncAction.ADD]

    def test_modify_then_modify_keeps_latest(self, session):
        first = entry("a")
        second = entry("a")
        second.put("title", "latest")
        observe(session, True, True, dn("a"), dn("a"), first)
        observe(session, True, True, dn("a"), dn("a"), second)
        updates = session.drain()
        assert updates[0].entry.first("title") == "latest"

    def test_drain_clears_pending(self, session):
        observe(session, False, True, dn("a"), dn("a"), entry("a"))
        session.drain()
        assert session.drain() == []
        assert session.pending_count == 0

    def test_deletes_ordered_before_adds(self, session):
        observe(session, False, True, dn("b"), dn("b"), entry("b"))
        observe(session, True, False, dn("a"), dn("a"), None)
        actions = [u.action for u in session.drain()]
        assert actions == [SyncAction.DELETE, SyncAction.ADD]


class TestContentTracking:
    def test_seed_and_track(self, session):
        session.seed_content([dn("a"), dn("b")])
        assert session.content_dns == {dn("a"), dn("b")}
        observe(session, True, False, dn("a"), dn("a"), None)
        assert session.content_dns == {dn("b")}
        observe(session, False, True, dn("c"), dn("c"), entry("c"))
        assert dn("c") in session.content_dns


class TestSessionStore:
    def test_create_and_lookup(self):
        store = SessionStore()
        s = store.create(SearchRequest("o=xyz"))
        cookie = store.cookie_for(s)
        assert store.lookup(cookie) is s

    def test_unknown_cookie_rejected(self):
        store = SessionStore()
        with pytest.raises(SyncProtocolError):
            store.lookup("nope:0")

    def test_end_removes(self):
        store = SessionStore()
        s = store.create(SearchRequest("o=xyz"))
        cookie = store.cookie_for(s)
        store.end(cookie)
        with pytest.raises(SyncProtocolError):
            store.lookup(cookie)

    def test_distinct_ids(self):
        store = SessionStore()
        a = store.create(SearchRequest("o=xyz"))
        b = store.create(SearchRequest("o=xyz"))
        assert a.session_id != b.session_id
        assert len(store) == 2

    def test_idle_expiry(self):
        store = SessionStore(idle_limit=3)
        stale = store.create(SearchRequest("o=xyz"))
        active = store.create(SearchRequest("o=abc"))
        stale_cookie = store.cookie_for(stale)
        active_cookie = store.cookie_for(active)
        for _ in range(5):
            store.lookup(active_cookie)
        with pytest.raises(SyncProtocolError):
            store.lookup(stale_cookie)


# ----------------------------------------------------------------------
# expiry in activity order == expiry by a scan of every session
# ----------------------------------------------------------------------
_REQUESTS = [SearchRequest("o=xyz"), SearchRequest("o=abc", Scope.ONE, "(sn=T)")]
_IDS = st.sampled_from([f"s{i}" for i in range(1, 6)])
_TICKS = st.integers(min_value=0, max_value=30)
_CONTENT = st.lists(st.integers(0, 5), max_size=3)
_LOOKUP = st.tuples(st.just("lookup"), _IDS, st.booleans())  # by cookie, or by bare id

# Weighted towards what moves the clock: a session expires only after
# idle_limit touches of the others.
_STEPS = st.one_of(
    _LOOKUP,
    _LOOKUP,
    _LOOKUP,
    _LOOKUP,
    st.tuples(st.just("create"), st.integers(0, 1), _CONTENT),
    st.tuples(st.just("create"), st.integers(0, 1), _CONTENT),
    st.tuples(st.just("lookup"), st.just("nope"), st.booleans()),
    st.tuples(st.just("end"), _IDS),
    st.tuples(st.just("adopt"), _IDS, _TICKS, _CONTENT),
    st.tuples(st.just("restore_clock"), _TICKS, st.integers(1, 8)),
    st.tuples(st.just("drain"), _IDS, st.booleans()),
    st.tuples(st.just("reenter"), _IDS, _IDS),
)


class _Endpoint:
    """A delivery endpoint that logs its session's ending and, when
    told to, re-enters the store from inside it — a consumer that
    polls another of its sessions as the connection drops."""

    def __init__(self, store, log, sid):
        self.store, self.log, self.sid = store, log, sid
        self.poll_on_close = None

    def __call__(self, update):  # pragma: no cover - never delivered to
        pass

    def close(self):
        self.log.append(self.sid)
        if self.poll_on_close is not None:
            try:
                self.store.lookup(self.poll_on_close)
            except SyncProtocolError:
                pass


class _Driven:
    """One store under test, with every ending logged in order."""

    def __init__(self, store):
        self.store = store
        self.ended = []

    def _wire(self, session, dns):
        session.seed_content(dn(f"e{i}") for i in dns)
        session.deliver = _Endpoint(self.store, self.ended, session.session_id)

    def step(self, step):
        store, kind = self.store, step[0]
        if kind == "create":
            self._wire(store.create(_REQUESTS[step[1]]), step[2])
        elif kind == "lookup":
            session = store.get(step[1])
            cookie = step[1] if step[2] or session is None else store.cookie_for(session)
            try:
                store.lookup(cookie)
            except SyncProtocolError:
                pass
        elif kind == "end":
            store.end(step[1])
        elif kind == "adopt":
            image = Session(step[1], _REQUESTS[0])
            image.last_active_tick = step[2]
            # Seeded before adoption, as session_from_wire does.
            self._wire(image, step[3])
            store.adopt(image)
        elif kind == "restore_clock":
            store.restore_clock(step[1], step[2])
        elif kind == "drain":
            session = store.get(step[1])
            if session is not None:
                session.draining = step[2]
        elif kind == "reenter":
            session = store.get(step[1])
            if session is not None:
                session.deliver.poll_on_close = step[2]

    def state(self):
        store = self.store
        return (
            [(s.session_id, s.last_active_tick, s.draining) for s in store.active_sessions()],
            self.ended,
            store.tick,
            store.next_id,
        )


_THREE = [("create", 0, [0]), ("create", 1, [0, 1]), ("create", 0, [])]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from([1, 2, 3, 7]), st.lists(_STEPS, max_size=60))
# A touched session leaves the front: the idle one behind it expires.
@example(2, _THREE + [("lookup", "s1", False), ("lookup", "s3", False),
                      ("lookup", "s3", True)])
# Two sessions go stale on one tick, least recently active last created:
# they end in insertion order.
@example(3, _THREE + [("lookup", "s2", False), ("lookup", "s1", True),
                      ("restore_clock", 30, 4), ("lookup", "s3", False)])
# A draining session at the front is passed over, and shields nobody.
@example(2, _THREE + [("drain", "s1", True), ("restore_clock", 30, 4),
                      ("lookup", "s3", False), ("drain", "s1", False),
                      ("lookup", "s3", False)])
# An ending that re-enters the store: the nested expiry stands down, the
# outer one still ends what it collected.
@example(1, _THREE + [("reenter", "s1", "s3"), ("reenter", "s2", "s1"),
                      ("restore_clock", 30, 4), ("lookup", "s3", True)])
# Snapshot images adopted with restored ticks, newest first, one of them
# replacing a live session; then the clock is set back under them.
@example(2, _THREE + [("adopt", "s5", 9, [2]), ("adopt", "s2", 4, [3]),
                      ("adopt", "s4", 0, []), ("restore_clock", 8, 6),
                      ("lookup", "s5", False), ("lookup", "s5", False),
                      ("lookup", "s4", False), ("lookup", "s5", False)])
def test_activity_order_expiry_equals_the_scan(idle_limit, steps):
    """After every step of any interleaving the two stores hold the same
    sessions in the same order, have ended the same ones in the same
    order, and the router posts exactly the live sessions' contents."""
    ordered = _Driven(SessionStore(idle_limit=idle_limit))
    scanned = _Driven(LinearSessionStore(idle_limit=idle_limit))
    for step in steps:
        ordered.step(step)
        scanned.step(step)
        assert ordered.state() == scanned.state(), step
        by_id = {
            dn_: {s.session_id for s in holders}
            for dn_, holders in ordered.store.router._holders.items()
        }
        assert by_id == {
            dn_: {s.session_id for s in holders}
            for dn_, holders in holders_of(SimpleNamespace(sessions=ordered.store)).items()
        }
