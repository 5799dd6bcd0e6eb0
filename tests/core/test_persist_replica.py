"""Tests for persist-mode filter replicas (§5.2's strong consistency)."""

import pytest

from repro.core import FilterReplica
from repro.ldap import Entry, Scope, SearchRequest
from repro.ldap.ber import encoded_sync_batch_size
from repro.server import DirectoryServer, Modification, SimulatedNetwork
from repro.sync import ResyncProvider, SyncedContent


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


class TestWhoDeliversCharges:
    """One network carrying an in-process replica subscription and a
    queued session: every delivery is charged exactly once, by whoever
    delivers it.  Regression: the charging rule was a property of the
    network object, so on a network with queued sessions the replica's
    notifications were delivered but charged nowhere."""

    @staticmethod
    def build(master, on_first_delivery=None):
        provider = ResyncProvider(master)
        net = SimulatedNetwork()
        replica = FilterReplica("r", network=net)
        replica.add_filter(DEPT0, provider)
        replica.subscribe_persist(provider)
        content = SyncedContent(DEPT0, network=net)
        framed = []

        def deliver(update):
            content.apply_notification(update)
            framed.append(update)
            if on_first_delivery is not None and len(framed) == 1:
                on_first_delivery()

        deliveries, _handle = net.persist_exchange(provider, DEPT0, deliver)
        content.apply(deliveries[-1].response)
        net.stats.reset()
        return net, replica, content, framed

    def test_each_delivery_charged_once(self, master):
        net, replica, content, framed = self.build(master)
        master.modify("cn=P0,o=xyz", [Modification.replace("title", "live")])
        assert net.settle() >= 1
        assert net.stats.sync_entry_pdus == 2
        (update,) = framed
        assert net.stats.bytes_sent == update.pdu_bytes + encoded_sync_batch_size(
            [update]
        )
        assert content.matches_master(master)
        assert replica.stored_filters()[0].content.matches_master(master)

    def test_charged_once_when_the_deliver_callback_reenters_the_master(self, master):
        def reenter():
            master.modify("cn=P2,o=xyz", [Modification.replace("title", "nested")])

        net, replica, content, framed = self.build(master, on_first_delivery=reenter)
        master.modify("cn=P0,o=xyz", [Modification.replace("title", "live")])
        net.settle()
        # The nested update reached the replica in-process while the
        # network was mid-delivery of the first one, and the queued
        # session in a later frame of its own.
        assert len(framed) == 2
        assert net.stats.sync_entry_pdus == 4
        assert net.stats.bytes_sent == sum(
            u.pdu_bytes + encoded_sync_batch_size([u]) for u in framed
        )
        assert content.matches_master(master)
        assert replica.stored_filters()[0].content.matches_master(master)
