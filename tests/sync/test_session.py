"""Tests for server-side session state and action coalescing."""

import pytest

from repro.ldap import DN, Entry, Scope, SearchRequest, SyncAction
from repro.sync import Session, SessionStore, SyncProtocolError


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
        session.observe(False, True, dn("a"), dn("a"), entry("a"))
        updates = session.drain()
        assert [u.action for u in updates] == [SyncAction.ADD]

    def test_move_out_is_delete(self, session):
        session.observe(True, False, dn("a"), dn("a"), None)
        assert [u.action for u in session.drain()] == [SyncAction.DELETE]

    def test_stay_in_is_modify(self, session):
        session.observe(True, True, dn("a"), dn("a"), entry("a"))
        assert [u.action for u in session.drain()] == [SyncAction.MODIFY]

    def test_rename_in_content_is_delete_plus_add(self, session):
        """Figure 3: E3 renamed to E5 — delete old DN, add new DN."""
        session.observe(True, True, dn("e3"), dn("e5"), entry("e5"))
        updates = session.drain()
        assert [(u.action, str(u.dn)) for u in updates] == [
            (SyncAction.DELETE, "cn=e3,o=xyz"),
            (SyncAction.ADD, "cn=e5,o=xyz"),
        ]

    def test_never_in_content_ignored(self, session):
        session.observe(False, False, dn("a"), dn("a"), entry("a"))
        assert session.drain() == []


class TestCoalescing:
    def test_add_then_modify_is_add(self, session):
        session.observe(False, True, dn("a"), dn("a"), entry("a"))
        session.observe(True, True, dn("a"), dn("a"), entry("a", "42"))
        updates = session.drain()
        assert [u.action for u in updates] == [SyncAction.ADD]

    def test_add_then_delete_vanishes(self, session):
        session.observe(False, True, dn("a"), dn("a"), entry("a"))
        session.observe(True, False, dn("a"), dn("a"), None)
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
        session.observe(True, False, dn("a"), dn("a"), None)  # leaves
        session.observe(False, True, dn("a"), dn("a"), entry("a"))  # re-enters
        session.observe(True, False, dn("a"), dn("a"), None)  # leaves again
        assert [u.action for u in session.drain()] == [SyncAction.DELETE]

    def test_undelivered_entry_entering_and_leaving_still_vanishes(self, session):
        """The counterpart: an entry the consumer never received that
        enters and leaves between polls generates no traffic at all."""
        session.seed_content([dn("b")])
        session.observe(False, True, dn("a"), dn("a"), entry("a"))
        session.observe(True, False, dn("a"), dn("a"), None)
        assert session.drain() == []

    def test_modify_then_delete_is_delete(self, session):
        session.observe(True, True, dn("a"), dn("a"), entry("a"))
        session.observe(True, False, dn("a"), dn("a"), None)
        assert [u.action for u in session.drain()] == [SyncAction.DELETE]

    def test_delete_then_add_is_add(self, session):
        session.observe(True, False, dn("a"), dn("a"), None)
        session.observe(False, True, dn("a"), dn("a"), entry("a"))
        updates = session.drain()
        assert [u.action for u in updates] == [SyncAction.ADD]

    def test_modify_then_modify_keeps_latest(self, session):
        first = entry("a")
        second = entry("a")
        second.put("title", "latest")
        session.observe(True, True, dn("a"), dn("a"), first)
        session.observe(True, True, dn("a"), dn("a"), second)
        updates = session.drain()
        assert updates[0].entry.first("title") == "latest"

    def test_drain_clears_pending(self, session):
        session.observe(False, True, dn("a"), dn("a"), entry("a"))
        session.drain()
        assert session.drain() == []
        assert session.pending_count == 0

    def test_deletes_ordered_before_adds(self, session):
        session.observe(False, True, dn("b"), dn("b"), entry("b"))
        session.observe(True, False, dn("a"), dn("a"), None)
        actions = [u.action for u in session.drain()]
        assert actions == [SyncAction.DELETE, SyncAction.ADD]


class TestContentTracking:
    def test_seed_and_track(self, session):
        session.seed_content([dn("a"), dn("b")])
        assert session.content_dns == {dn("a"), dn("b")}
        session.observe(True, False, dn("a"), dn("a"), None)
        assert session.content_dns == {dn("b")}
        session.observe(False, True, dn("c"), dn("c"), entry("c"))
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
