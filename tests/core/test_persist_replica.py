"""Tests for persist-mode filter replicas (§5.2's strong consistency)."""

import pytest

from repro.core import FilterReplica
from repro.ldap import Entry, Scope, SearchRequest
from repro.server import DirectoryServer, Modification, SimulatedNetwork
from repro.sync import ResyncProvider


@pytest.fixture()
def master() -> DirectoryServer:
    m = DirectoryServer("master")
    m.add_naming_context("o=xyz")
    m.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
    for i in range(6):
        m.add(
            Entry(
                f"cn=P{i},o=xyz",
                {
                    "objectClass": ["person"],
                    "cn": f"P{i}",
                    "sn": "T",
                    "departmentNumber": str(i % 2),
                },
            )
        )
    return m


DEPT0 = SearchRequest("o=xyz", Scope.SUB, "(departmentNumber=0)")
DEPT1 = SearchRequest("o=xyz", Scope.SUB, "(departmentNumber=1)")


class TestSubscribePersist:
    def test_one_connection_per_filter(self, master):
        provider = ResyncProvider(master)
        net = SimulatedNetwork()
        replica = FilterReplica("r", network=net)
        replica.add_filter(DEPT0, provider)
        replica.add_filter(DEPT1, provider)
        opened = replica.subscribe_persist(provider)
        assert opened == 2
        assert replica.persist_connections == 2
        assert net.open_connections == 2

    def test_changes_apply_immediately_without_polling(self, master):
        provider = ResyncProvider(master)
        replica = FilterReplica("r", network=SimulatedNetwork())
        replica.add_filter(DEPT0, provider)
        replica.subscribe_persist(provider)
        master.modify("cn=P0,o=xyz", [Modification.replace("title", "live")])
        # no replica.sync() call — strong consistency via notifications
        stored = replica.stored_filters()[0]
        assert stored.content.matches_master(master)
        answer = replica.answer(DEPT0)
        titles = {e.first("title") for e in answer.entries}
        assert "live" in titles

    def test_resumes_poll_session_without_retransfer(self, master):
        provider = ResyncProvider(master)
        net = SimulatedNetwork()
        replica = FilterReplica("r", network=net)
        replica.add_filter(DEPT0, provider)  # initial content via poll
        before = net.stats.sync_entry_pdus
        replica.subscribe_persist(provider)
        assert net.stats.sync_entry_pdus == before  # nothing resent

    def test_subscribe_idempotent(self, master):
        provider = ResyncProvider(master)
        replica = FilterReplica("r", network=SimulatedNetwork())
        replica.add_filter(DEPT0, provider)
        assert replica.subscribe_persist(provider) == 1
        assert replica.subscribe_persist(provider) == 0
        assert replica.persist_connections == 1

    def test_unsubscribe_closes_connections(self, master):
        provider = ResyncProvider(master)
        net = SimulatedNetwork()
        replica = FilterReplica("r", network=net)
        replica.add_filter(DEPT0, provider)
        replica.subscribe_persist(provider)
        replica.unsubscribe_persist()
        assert replica.persist_connections == 0
        assert net.open_connections == 0
        assert provider.active_session_count == 0

    def test_sync_skips_persist_subscribed_filters(self, master):
        """A subscribed filter has no cookie; polling it would be a full
        initial load on a second, orphaned provider session."""
        provider = ResyncProvider(master)
        net = SimulatedNetwork()
        replica = FilterReplica("r", network=net)
        replica.add_filter(DEPT0, provider)
        replica.subscribe_persist(provider)
        pdus = net.stats.sync_entry_pdus
        sessions = provider.active_session_count
        replica.sync(provider)
        assert net.stats.sync_entry_pdus == pdus
        assert provider.active_session_count == sessions
        replica.unsubscribe_persist()
        assert provider.active_session_count == 0

    def test_remove_filter_closes_its_connection(self, master):
        provider = ResyncProvider(master)
        net = SimulatedNetwork()
        replica = FilterReplica("r", network=net)
        replica.add_filter(DEPT0, provider)
        replica.add_filter(DEPT1, provider)
        replica.subscribe_persist(provider)
        replica.remove_filter(DEPT0)
        assert replica.persist_connections == 1
        assert net.open_connections == 1

    def test_scaling_cost_grows_with_filters(self, master):
        """§5.2: one connection per replicated filter 'might not scale
        for large replicas' — the cost the poll mode avoids."""
        provider = ResyncProvider(master)
        net = SimulatedNetwork()
        replica = FilterReplica("r", network=net)
        filters = [
            SearchRequest("o=xyz", Scope.SUB, f"(cn=P{i})") for i in range(6)
        ]
        for request in filters:
            replica.add_filter(request, provider)
        replica.subscribe_persist(provider)
        assert net.open_connections == len(filters)
        # Poll mode needs zero standing connections for the same filters.
        replica.unsubscribe_persist()
        assert net.open_connections == 0
        replica.sync(provider)  # still converges by polling
        for stored in replica.stored_filters():
            assert stored.content.matches_master(master)
