"""Tests for the ReSync providers, including the Figure 3 session."""

import pytest

from repro.ldap import (
    DN,
    Entry,
    ReSyncControl,
    Scope,
    SearchRequest,
    SyncAction,
    SyncMode,
)
from repro.server import DirectoryServer, Modification
from repro.sync import (
    ResyncProvider,
    RetainResyncProvider,
    SyncProtocolError,
    SyncedContent,
)


def person(name: str, dept: str = "42") -> Entry:
    return Entry(
        f"cn={name},c=us,o=xyz",
        {"objectClass": ["person"], "cn": name, "sn": "T", "departmentNumber": dept},
    )


class TestInitialPoll:
    def test_full_content_on_null_cookie(self, tiny_master, dept42):
        provider = ResyncProvider(tiny_master)
        content = SyncedContent(dept42)
        response = content.poll(provider)
        assert response.initial
        assert len(content) == 3
        assert content.cookie is not None

    def test_empty_content_filter(self, tiny_master):
        provider = ResyncProvider(tiny_master)
        content = SyncedContent(SearchRequest("o=xyz", Scope.SUB, "(departmentNumber=99)"))
        content.poll(provider)
        assert len(content) == 0

    def test_session_registered(self, tiny_master, dept42):
        provider = ResyncProvider(tiny_master)
        SyncedContent(dept42).poll(provider)
        assert provider.active_session_count == 1


class TestPollCycles:
    def test_add_flows(self, tiny_master, dept42):
        provider = ResyncProvider(tiny_master)
        content = SyncedContent(dept42)
        content.poll(provider)
        tiny_master.add(person("E4"))
        response = content.poll(provider)
        assert [u.action for u in response.updates] == [SyncAction.ADD]
        assert content.matches_master(tiny_master)

    def test_delete_flows(self, tiny_master, dept42):
        provider = ResyncProvider(tiny_master)
        content = SyncedContent(dept42)
        content.poll(provider)
        tiny_master.delete("cn=E1,c=us,o=xyz")
        response = content.poll(provider)
        assert [u.action for u in response.updates] == [SyncAction.DELETE]
        assert content.matches_master(tiny_master)

    def test_modify_within_content_flows(self, tiny_master, dept42):
        provider = ResyncProvider(tiny_master)
        content = SyncedContent(dept42)
        content.poll(provider)
        tiny_master.modify("cn=E1,c=us,o=xyz", [Modification.replace("title", "X")])
        response = content.poll(provider)
        assert [u.action for u in response.updates] == [SyncAction.MODIFY]
        assert content.entries[DN.parse("cn=E1,c=us,o=xyz")].first("title") == "X"

    def test_modify_out_of_content_is_delete(self, tiny_master, dept42):
        provider = ResyncProvider(tiny_master)
        content = SyncedContent(dept42)
        content.poll(provider)
        tiny_master.modify(
            "cn=E1,c=us,o=xyz", [Modification.replace("departmentNumber", "99")]
        )
        response = content.poll(provider)
        assert [u.action for u in response.updates] == [SyncAction.DELETE]
        assert content.matches_master(tiny_master)

    def test_modify_into_content_is_add(self, tiny_master, dept42):
        tiny_master.add(person("Outsider", dept="99"))
        provider = ResyncProvider(tiny_master)
        content = SyncedContent(dept42)
        content.poll(provider)
        tiny_master.modify(
            "cn=Outsider,c=us,o=xyz", [Modification.replace("departmentNumber", "42")]
        )
        response = content.poll(provider)
        assert [u.action for u in response.updates] == [SyncAction.ADD]
        assert content.matches_master(tiny_master)

    def test_rename_within_content(self, tiny_master, dept42):
        provider = ResyncProvider(tiny_master)
        content = SyncedContent(dept42)
        content.poll(provider)
        tiny_master.modify_dn("cn=E3,c=us,o=xyz", new_rdn="cn=E5")
        response = content.poll(provider)
        actions = sorted((u.action.value, str(u.dn)) for u in response.updates)
        assert actions == [
            ("add", "cn=E5,c=us,o=xyz"),
            ("delete", "cn=E3,c=us,o=xyz"),
        ]
        assert content.matches_master(tiny_master)

    def test_quiet_poll_empty(self, tiny_master, dept42):
        provider = ResyncProvider(tiny_master)
        content = SyncedContent(dept42)
        content.poll(provider)
        response = content.poll(provider)
        assert response.updates == []

    def test_multiple_sessions_independent(self, tiny_master, dept42):
        provider = ResyncProvider(tiny_master)
        c1 = SyncedContent(dept42)
        c2 = SyncedContent(SearchRequest("o=xyz", Scope.SUB, "(cn=E1)"))
        c1.poll(provider)
        c2.poll(provider)
        tiny_master.delete("cn=E2,c=us,o=xyz")
        assert len(c1.poll(provider).updates) == 1
        assert c2.poll(provider).updates == []


class TestProtocolEdges:
    def test_unknown_cookie_rejected(self, tiny_master, dept42):
        provider = ResyncProvider(tiny_master)
        with pytest.raises(SyncProtocolError):
            provider.handle(dept42, ReSyncControl(mode=SyncMode.POLL, cookie="zz:9"))

    def test_cookie_with_wrong_request_rejected(self, tiny_master, dept42):
        provider = ResyncProvider(tiny_master)
        content = SyncedContent(dept42)
        content.poll(provider)
        other = SearchRequest("o=xyz", Scope.SUB, "(cn=E1)")
        with pytest.raises(SyncProtocolError):
            provider.handle(other, ReSyncControl(mode=SyncMode.POLL, cookie=content.cookie))

    def test_sync_end_terminates(self, tiny_master, dept42):
        provider = ResyncProvider(tiny_master)
        content = SyncedContent(dept42)
        content.poll(provider)
        content.end(provider)
        assert provider.active_session_count == 0

    def test_persist_requires_callback(self, tiny_master, dept42):
        provider = ResyncProvider(tiny_master)
        with pytest.raises(SyncProtocolError):
            provider.handle(dept42, ReSyncControl(mode=SyncMode.PERSIST))


class TestPersistMode:
    def test_notifications_flow_immediately(self, tiny_master, dept42):
        provider = ResyncProvider(tiny_master)
        notes = []
        response, handle = provider.persist(dept42, notes.append)
        assert response.initial and len(response.updates) == 3
        tiny_master.add(person("E4"))
        assert [u.action for u in notes] == [SyncAction.ADD]

    def test_abandon_stops_notifications(self, tiny_master, dept42):
        provider = ResyncProvider(tiny_master)
        notes = []
        _response, handle = provider.persist(dept42, notes.append)
        handle.abandon()
        tiny_master.add(person("E4"))
        assert notes == []
        assert provider.active_session_count == 0

    def test_stale_handle_does_not_end_a_strangers_session(self, tiny_master, dept42):
        """Regression: ``abandon()`` ended whatever session carried the
        handle's *id*.  A journal-less restart starts ids over at ``s1``,
        so a handle from before it named — and ended — the first session
        opened after it."""
        provider = ResyncProvider(tiny_master)
        _response, handle = provider.persist(dept42, lambda update: None)
        provider.restart()
        stranger = SyncedContent(dept42)
        stranger.poll(provider)
        assert stranger.cookie.split(":")[0] == handle.session_id  # same name
        handle.abandon()
        assert not handle.active
        assert provider.active_session_count == 1
        tiny_master.add(person("E4"))
        stranger.poll(provider)  # the stranger's cookie is still honoured
        assert stranger.matches_master(tiny_master)

    def test_handle_reads_dead_after_a_journal_less_restart(self, tiny_master, dept42):
        """Regression: the restart forgets the session record without
        ending it, so ``active`` kept reading True and a subscriber's
        liveness check could not see the death until its refresh."""
        provider = ResyncProvider(tiny_master)
        _response, handle = provider.persist(dept42, lambda update: None)
        assert handle.active
        provider.restart()
        assert not handle.active
        SyncedContent(dept42).poll(provider)  # a stranger now holds the id
        assert provider.sessions.get(handle.session_id) is not None
        assert not handle.active

    def test_poll_then_switch_to_persist(self, tiny_master, dept42):
        """Figure 3's third request: persist presented with cookie1."""
        provider = ResyncProvider(tiny_master)
        content = SyncedContent(dept42)
        content.poll(provider)
        tiny_master.delete("cn=E1,c=us,o=xyz")
        notes = []
        response, handle = provider.persist(dept42, notes.append, cookie=content.cookie)
        # pending updates accumulated before the switch are delivered
        assert [u.action for u in response.updates] == [SyncAction.DELETE]
        for u in response.updates:
            content.apply_notification(u)
        tiny_master.add(person("E9"))
        for u in notes:
            content.apply_notification(u)
        assert content.matches_master(tiny_master)
        handle.abandon()

    def test_update_from_inside_callback_keeps_order(self, tiny_master, dept42):
        """A deliver callback triggering a master update must not re-enter
        the delivery loop mid-batch (reentrancy regression).

        A rename queues delete+add in one batch; the callback reacts to
        the delete by modifying another in-content entry.  The triggered
        notification must arrive *after* the in-flight batch, not
        interleaved into it.
        """
        provider = ResyncProvider(tiny_master)
        notes = []

        def deliver(update):
            notes.append(update)
            if update.action is SyncAction.DELETE and len(notes) == 1:
                tiny_master.modify(
                    "cn=E2,c=us,o=xyz", [Modification.replace("title", "X")]
                )

        _response, handle = provider.persist(dept42, deliver)
        tiny_master.modify_dn("cn=E3,c=us,o=xyz", new_rdn="cn=E5")
        assert [(u.action.value, str(u.dn)) for u in notes] == [
            ("delete", "cn=E3,c=us,o=xyz"),
            ("add", "cn=E5,c=us,o=xyz"),
            ("modify", "cn=E2,c=us,o=xyz"),
        ]
        handle.abandon()


class TestFigure3Scenario:
    """The complete message sequence chart of Figure 3."""

    def test_full_session(self):
        master = DirectoryServer("M")
        master.add_naming_context("o=xyz")
        master.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
        S = SearchRequest("o=xyz", Scope.SUB, "(objectClass=person)")
        # E1..E3 exist before the session starts
        for name in ("E1", "E2", "E3"):
            master.add(Entry(f"cn={name},o=xyz", {"objectClass": ["person"], "cn": name, "sn": "T"}))

        provider = ResyncProvider(master)
        content = SyncedContent(S)

        # -- request 1: (poll, null) → E1,E2,E3 add + cookie
        r1 = content.poll(provider)
        assert r1.initial and len(r1.updates) == 3

        # interval: E4 added; E1,E2 deleted; E3 modified
        master.add(Entry("cn=E4,o=xyz", {"objectClass": ["person"], "cn": "E4", "sn": "T"}))
        master.delete("cn=E1,o=xyz")
        master.delete("cn=E2,o=xyz")
        master.modify("cn=E3,o=xyz", [Modification.replace("title", "mod")])

        # -- request 2: (poll, cookie) → E4 add, E1/E2 delete, E3 mod
        r2 = content.poll(provider)
        got = sorted((u.action.value, str(u.dn)) for u in r2.updates)
        assert got == [
            ("add", "cn=E4,o=xyz"),
            ("delete", "cn=E1,o=xyz"),
            ("delete", "cn=E2,o=xyz"),
            ("modify", "cn=E3,o=xyz"),
        ]

        # -- request 3: (persist, cookie1); E3 renamed to E5 → delete+add
        notes = []
        r3, handle = provider.persist(S, notes.append, cookie=content.cookie)
        for u in r3.updates:
            content.apply_notification(u)
        master.modify_dn("cn=E3,o=xyz", new_rdn="cn=E5")
        assert [(u.action.value, str(u.dn)) for u in notes] == [
            ("delete", "cn=E3,o=xyz"),
            ("add", "cn=E5,o=xyz"),
        ]
        for u in notes:
            content.apply_notification(u)
        assert content.matches_master(master)

        # -- abandon ends the session
        handle.abandon()
        assert provider.active_session_count == 0


class TestRetainProvider:
    def test_initial_full_content(self, tiny_master, dept42):
        provider = RetainResyncProvider(tiny_master)
        content = SyncedContent(dept42)
        r = content.poll(provider)
        assert r.initial and not r.uses_retain
        assert len(content) == 3

    def test_unchanged_entries_retained(self, tiny_master, dept42):
        provider = RetainResyncProvider(tiny_master)
        content = SyncedContent(dept42)
        content.poll(provider)
        r = content.poll(provider)
        assert r.uses_retain
        assert all(u.action is SyncAction.RETAIN for u in r.updates)
        assert len(content) == 3

    def test_changed_entry_sent_in_full(self, tiny_master, dept42):
        provider = RetainResyncProvider(tiny_master)
        content = SyncedContent(dept42)
        content.poll(provider)
        tiny_master.modify("cn=E1,c=us,o=xyz", [Modification.replace("title", "X")])
        r = content.poll(provider)
        by_action = {u.action for u in r.updates}
        assert SyncAction.ADD in by_action and SyncAction.RETAIN in by_action
        assert content.matches_master(tiny_master)

    def test_unretained_entries_dropped(self, tiny_master, dept42):
        provider = RetainResyncProvider(tiny_master)
        content = SyncedContent(dept42)
        content.poll(provider)
        tiny_master.modify(
            "cn=E2,c=us,o=xyz", [Modification.replace("departmentNumber", "99")]
        )
        tiny_master.delete("cn=E1,c=us,o=xyz")
        content.poll(provider)
        assert content.matches_master(tiny_master)

    def test_rename_converges(self, tiny_master, dept42):
        provider = RetainResyncProvider(tiny_master)
        content = SyncedContent(dept42)
        content.poll(provider)
        tiny_master.modify_dn("cn=E3,c=us,o=xyz", new_rdn="cn=E5")
        content.poll(provider)
        assert content.matches_master(tiny_master)

    def test_persist_not_supported(self, tiny_master, dept42):
        provider = RetainResyncProvider(tiny_master)
        with pytest.raises(SyncProtocolError):
            provider.handle(dept42, ReSyncControl(mode=SyncMode.PERSIST))

    def test_malformed_cookie_rejected(self, tiny_master, dept42):
        provider = RetainResyncProvider(tiny_master)
        with pytest.raises(SyncProtocolError):
            provider.handle(dept42, ReSyncControl(mode=SyncMode.POLL, cookie="bogus"))

    def test_stateless_no_sessions(self, tiny_master, dept42):
        provider = RetainResyncProvider(tiny_master)
        content = SyncedContent(dept42)
        content.poll(provider)
        assert not hasattr(provider, "sessions")
