"""Failure injection: lost responses, crashed replicas, expired sessions.

The ReSync protocol must converge despite the failures a polling
replica actually sees:

* a **lost response** — the poll executed at the master (the batch was
  drained) but never reached the replica, which retries with its old
  cookie; the master retransmits the retained batch merged with
  anything newer;
* a **lost response that was actually applied** — only the new cookie
  was lost; the retransmitted batch is applied twice, which must be
  harmless (all actions are idempotent);
* a **crashed replica** — all local state gone; restart with a null
  cookie (full reload);
* an **expired session** — the master forgot the cookie; a
  :class:`ResilientConsumer` cycle falls back to a reload.
"""


import pytest
from hypothesis import given, settings, strategies as st

from repro.ldap import DN, Entry, ReSyncControl, Scope, SearchRequest, SyncMode
from repro.server import DirectoryServer, Modification
from repro.sync import (
    ResilientConsumer,
    ResyncProvider,
    SyncProtocolError,
    SyncedContent,
)


REQUEST = SearchRequest("o=xyz", Scope.SUB, "(departmentNumber=42)")


def person(name: str, dept: str = "42") -> Entry:
    return Entry(
        f"cn={name},o=xyz",
        {"objectClass": ["person"], "cn": name, "sn": "T", "departmentNumber": dept},
    )


def build_master(n: int = 4) -> DirectoryServer:
    master = DirectoryServer("M")
    master.add_naming_context("o=xyz")
    master.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
    for i in range(n):
        master.add(person(f"E{i}"))
    return master


def lossy_poll(content: SyncedContent, provider) -> None:
    """Execute the poll at the master but 'lose' the response."""
    control = ReSyncControl(mode=SyncMode.POLL, cookie=content.cookie)
    provider.handle(REQUEST, control)  # response discarded in flight


class TestLostResponse:
    def test_retry_retransmits_batch(self):
        master = build_master()
        provider = ResyncProvider(master)
        content = SyncedContent(REQUEST)
        content.poll(provider)

        master.delete("cn=E0,o=xyz")
        lossy_poll(content, provider)  # batch drained at master, lost

        response = content.poll(provider)  # retry with the OLD cookie
        assert [(u.action.value, str(u.dn)) for u in response.updates] == [
            ("delete", "cn=E0,o=xyz")
        ]
        assert content.matches_master(master)

    def test_newer_updates_merged_into_retransmission(self):
        master = build_master()
        provider = ResyncProvider(master)
        content = SyncedContent(REQUEST)
        content.poll(provider)

        master.delete("cn=E0,o=xyz")
        lossy_poll(content, provider)
        master.add(person("E9"))  # happens between loss and retry

        response = content.poll(provider)
        actions = {(u.action.value, str(u.dn)) for u in response.updates}
        assert ("delete", "cn=E0,o=xyz") in actions
        assert ("add", "cn=E9,o=xyz") in actions
        assert content.matches_master(master)

    def test_applied_but_cookie_lost_is_idempotent(self):
        """The response arrived and was applied; only the new cookie was
        lost.  Re-applying the retransmitted batch must be harmless."""
        master = build_master()
        provider = ResyncProvider(master)
        content = SyncedContent(REQUEST)
        content.poll(provider)
        old_cookie = content.cookie

        master.delete("cn=E0,o=xyz")
        master.modify("cn=E1,o=xyz", [Modification.replace("title", "x")])
        content.poll(provider)
        assert content.matches_master(master)

        # replay: pretend the cookie update was lost
        content.cookie = old_cookie
        content.poll(provider)
        assert content.matches_master(master)

    def test_sent_add_then_delete_not_dropped(self):
        """The retransmission-merge must keep a DELETE that follows a
        possibly-applied ADD (the unsound coalescing would drop both)."""
        master = build_master()
        provider = ResyncProvider(master)
        content = SyncedContent(REQUEST)
        content.poll(provider)
        old_cookie = content.cookie

        master.add(person("E9"))
        # Response applied (replica now holds E9), but cookie lost.
        content.poll(provider)
        assert DN.parse("cn=E9,o=xyz") in content.dns()
        content.cookie = old_cookie

        master.delete("cn=E9,o=xyz")
        content.poll(provider)  # retry: must carry the delete
        assert DN.parse("cn=E9,o=xyz") not in content.dns()
        assert content.matches_master(master)

    def test_repeated_losses_eventually_converge(self):
        master = build_master()
        provider = ResyncProvider(master)
        content = SyncedContent(REQUEST)
        content.poll(provider)
        for i in range(3):
            master.modify("cn=E1,o=xyz", [Modification.replace("title", f"t{i}")])
            lossy_poll(content, provider)
        content.poll(provider)
        assert content.matches_master(master)

    def test_double_lost_cookie_requires_reload(self):
        """Two generations behind cannot be retransmitted — the server
        answers with a protocol error and the consumer reloads."""
        master = build_master()
        provider = ResyncProvider(master)
        consumer = ResilientConsumer(REQUEST, provider)
        content = consumer.content
        content.poll(provider)
        stale_cookie = content.cookie

        master.delete("cn=E0,o=xyz")
        content.poll(provider)
        master.delete("cn=E1,o=xyz")
        content.poll(provider)

        content.cookie = stale_cookie
        with pytest.raises(SyncProtocolError):
            content.poll(provider)
        consumer.sync_once()
        assert content.matches_master(master)


class TestCrashRecovery:
    def test_restart_with_null_cookie(self):
        master = build_master()
        provider = ResyncProvider(master)
        content = SyncedContent(REQUEST)
        content.poll(provider)
        master.delete("cn=E0,o=xyz")

        # replica crashes: all state lost
        reborn = SyncedContent(REQUEST)
        reborn.poll(provider)
        assert reborn.matches_master(master)

    def test_reload_discards_stale_entries(self):
        master = build_master()
        provider = ResyncProvider(master)
        content = SyncedContent(REQUEST)
        content.poll(provider)
        master.delete("cn=E0,o=xyz")
        content.reload(provider)
        assert content.matches_master(master)


class TestSessionExpiry:
    def test_expired_session_recovered_by_resilient_poll(self):
        master = build_master()
        provider = ResyncProvider(master, idle_limit=1)
        consumer = ResilientConsumer(REQUEST, provider)
        content = consumer.content
        content.poll(provider)
        # Another chatty session pushes the tick forward past the limit.
        other = SyncedContent(SearchRequest("o=xyz", Scope.SUB, "(cn=E1)"))
        other.poll(provider)
        for _ in range(4):
            other.poll(provider)
        master.delete("cn=E0,o=xyz")
        consumer.sync_once()
        assert content.matches_master(master)


# ----------------------------------------------------------------------
# property: convergence under random loss/crash/expiry interleavings
# ----------------------------------------------------------------------
_steps = st.lists(
    st.sampled_from(
        ["update", "poll", "lost_poll", "cookie_lost", "crash", "retry"]
    ),
    min_size=1,
    max_size=20,
)


@settings(max_examples=80, deadline=None)
@given(_steps)
def test_convergence_under_random_failures(steps):
    master = build_master(6)
    provider = ResyncProvider(master)
    consumer = ResilientConsumer(REQUEST, provider)
    content = consumer.content
    content.poll(provider)
    counter = 0
    last_cookie = content.cookie
    for step in steps:
        if step == "update":
            counter += 1
            name = f"E{counter % 6}"
            try:
                if counter % 3 == 0:
                    master.delete(f"cn={name},o=xyz")
                elif counter % 3 == 1:
                    master.modify(
                        f"cn={name},o=xyz",
                        [Modification.replace("title", f"t{counter}")],
                    )
                else:
                    master.add(person(f"N{counter}"))
            except Exception:
                pass  # target already gone this run
        elif step == "poll":
            last_cookie = content.cookie
            consumer.sync_once()
        elif step == "lost_poll":
            try:
                lossy_poll(content, provider)
            except SyncProtocolError:
                pass
        elif step == "cookie_lost":
            # Roll back to this replica's own previous cookie (the new
            # one did not persist).  A cookie from before a crash died
            # with the old incarnation and cannot resurface.
            if last_cookie is not None:
                content.cookie = last_cookie
        elif step == "crash":
            consumer = ResilientConsumer(REQUEST, provider)
            content = consumer.content
            last_cookie = None
        elif step == "retry":
            consumer.sync_once()
    consumer.sync_once()
    assert content.matches_master(master)
