"""Tests for the simulated network's accounting."""

import pytest

from repro.ldap import DN, Entry, Scope, SearchRequest
from repro.server import (
    DirectoryServer,
    LdapClient,
    Modification,
    SimulatedNetwork,
    TrafficCounts,
)
from repro.sync import ResilientConsumer, ResyncProvider


@pytest.fixture()
def network() -> SimulatedNetwork:
    net = SimulatedNetwork()
    server = DirectoryServer("hostA")
    server.add_naming_context("o=xyz")
    net.register(server)
    return net


class TestResolution:
    def test_exact_url(self, network):
        assert network.resolve("ldap://hostA").name == "hostA"

    def test_url_with_dn_suffix(self, network):
        assert network.resolve("ldap://hostA/c=us,o=xyz").name == "hostA"

    def test_unknown_rejected(self, network):
        with pytest.raises(KeyError):
            network.resolve("ldap://ghost")

    def test_servers_view(self, network):
        assert set(network.servers) == {"ldap://hostA"}


class TestCharging:
    def test_round_trip(self, network):
        network.charge_round_trip()
        assert network.stats.round_trips == 1
        assert network.stats.requests == 1

    def test_entries_and_bytes(self, network):
        network.charge_entries(3, total_bytes=600)
        assert network.stats.entry_pdus == 3
        assert network.stats.bytes_sent == 600

    def test_referrals(self, network):
        network.charge_referrals(2)
        assert network.stats.referral_pdus == 2

    def test_sync_pdus(self, network):
        network.charge_sync_entry(6000)
        network.charge_sync_dn(40)
        assert network.stats.sync_entry_pdus == 1
        assert network.stats.sync_dn_pdus == 1
        assert network.stats.bytes_sent == 6040

    def test_snapshot_is_independent(self, network):
        network.charge_round_trip()
        snap = network.stats.snapshot()
        network.charge_round_trip()
        assert snap.round_trips == 1
        assert network.stats.round_trips == 2

    def test_subtraction(self):
        a = TrafficCounts(5, 5, 10, 0, 0, 0, 100)
        b = TrafficCounts(2, 2, 4, 0, 0, 0, 40)
        assert a - b == TrafficCounts(3, 3, 6, 0, 0, 0, 60)

    def test_a_client_search_charges_one_hop(self):
        net = SimulatedNetwork()
        server = DirectoryServer("hostA")
        server.add_naming_context("o=xyz")
        server.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
        server.add(Entry("cn=u,o=xyz", {"objectClass": ["person"], "cn": "u", "sn": "u"}))
        net.register(server)
        request = SearchRequest("o=xyz", Scope.SUB, "(cn=u)")
        result = LdapClient(net).search("ldap://hostA", request)
        assert len(result.entries) == 1
        moved = net.stats.snapshot()
        assert (moved.round_trips, moved.requests, moved.entry_pdus) == (1, 1, 1)
        assert net.open_connections == 0  # a search holds no connection

    def test_latency_accounting(self):
        net = SimulatedNetwork(round_trip_latency_ms=25.0)
        net.charge_round_trip()
        net.charge_round_trip()
        assert net.elapsed_ms == 50.0

    def test_connection_counters(self, network):
        first, second = object(), object()
        network.connection_opened(first)
        network.connection_opened(second)
        network.connection_closed(first)
        assert network.open_connections == 1
        assert network.total_connections == 2
        network.connection_closed(second)
        network.connection_closed(second)  # floor at zero
        assert network.open_connections == 0


REQUEST = SearchRequest("o=xyz", Scope.SUB, "(objectClass=person)")


def persist_consumer(net: SimulatedNetwork, host: str) -> ResilientConsumer:
    """A persist subscription to a fresh master named *host*: one
    connection in §5.2's count."""
    master = DirectoryServer(host)
    master.add_naming_context("o=xyz")
    master.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
    master.add(Entry("cn=a,o=xyz", {"objectClass": ["person"], "cn": "a", "sn": "a"}))
    consumer = ResilientConsumer(REQUEST, ResyncProvider(master), network=net, mode="persist")
    consumer.sync_once()
    return consumer


class TestSubscriptionConnections:
    """A link's persist :class:`~repro.sync.resilient.Subscription` is
    the connection a crash drops (docs/PROTOCOL.md §9.1 rule 3)."""

    def test_disconnect_server_drops_only_that_servers_subscriptions(self):
        net = SimulatedNetwork()
        on_a = [persist_consumer(net, "hostA"), persist_consumer(net, "hostA")]
        on_b = persist_consumer(net, "hostB")
        assert net.open_connections == 3

        assert net.disconnect_server("ldap://hostA") == 2
        assert all(c.subscription(c.content).handle is None for c in on_a)
        assert on_b.subscription(on_b.content).handle.active
        assert net.open_connections == 1  # decremented once per subscription
        assert net.disconnect_server("ldap://hostA") == 0
        assert net.open_connections == 1

    def test_a_subscription_reopened_after_a_crash_recounts(self):
        net = SimulatedNetwork()
        consumer = persist_consumer(net, "hostA")
        net.disconnect_server("ldap://hostA")
        assert net.open_connections == 0
        consumer.sync_once()  # the link re-opens the dropped subscription
        assert consumer.subscription(consumer.content).handle.active
        assert (net.total_connections, net.open_connections) == (2, 1)
        consumer.close()
        assert net.open_connections == 0

    def test_opening_a_subscription_counts_one_connection(self):
        net = SimulatedNetwork()
        consumer = persist_consumer(net, "hostA")
        assert (net.open_connections, net.total_connections) == (1, 1)
        consumer.close()
        assert (net.open_connections, net.total_connections) == (0, 1)

    def test_a_second_close_is_a_noop(self):
        net = SimulatedNetwork()
        consumer = persist_consumer(net, "hostA")
        subscription = consumer.subscription(consumer.content)
        subscription.close()
        subscription.close()
        assert net.open_connections == 0

    def test_drop_decrements_once(self):
        net = SimulatedNetwork()
        on_a = persist_consumer(net, "hostA")
        persist_consumer(net, "hostB")
        subscription = on_a.subscription(on_a.content)
        subscription.drop()
        subscription.drop()
        subscription.close()
        assert net.open_connections == 1

    def test_close_abandons_the_provider_session(self):
        net = SimulatedNetwork()
        consumer = persist_consumer(net, "hostA")
        handle = consumer.subscription(consumer.content).handle
        consumer.subscription(consumer.content).close()
        assert not handle.active
        assert consumer.provider.active_session_count == 0

    def test_drop_sends_the_provider_nothing_and_delivers_nothing_more(self):
        """A crash's drop: no abandon reaches the provider, and what it
        queues afterwards never lands in the consumer's content."""
        net = SimulatedNetwork()
        consumer = persist_consumer(net, "hostA")
        consumer.subscription(consumer.content).drop()
        assert consumer.provider.active_session_count == 1
        before = net.stats.snapshot()
        consumer.provider.server.modify("cn=a,o=xyz", [Modification.replace("sn", "b")])
        net.settle()
        entry = consumer.content.entries[DN.parse("cn=a,o=xyz")]
        assert entry.get("sn") == ["a"]
        assert (net.stats - before).sync_entry_pdus == 0

    def test_disconnecting_an_unknown_server_drops_nothing(self):
        net = SimulatedNetwork()
        consumer = persist_consumer(net, "hostA")
        assert net.disconnect_server("ldap://nowhere") == 0
        assert consumer.subscription(consumer.content).handle.active
        assert net.open_connections == 1
