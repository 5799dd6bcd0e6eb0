"""Tests for the simulated network's accounting."""

import pytest

from repro.server import DirectoryServer, SimulatedNetwork, TrafficStats


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

    def test_reset(self, network):
        network.charge_round_trip()
        network.stats.reset()
        assert network.stats.round_trips == 0

    def test_snapshot_is_independent(self, network):
        network.charge_round_trip()
        snap = network.stats.snapshot()
        network.charge_round_trip()
        assert snap.round_trips == 1
        assert network.stats.round_trips == 2

    def test_subtraction(self):
        a = TrafficStats(round_trips=5, entry_pdus=10, bytes_sent=100)
        b = TrafficStats(round_trips=2, entry_pdus=4, bytes_sent=40)
        delta = a - b
        assert delta.round_trips == 3
        assert delta.entry_pdus == 6
        assert delta.bytes_sent == 60

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
