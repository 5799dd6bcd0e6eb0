"""TrafficStats facade regression: the historical mutable-field API
must behave identically after the rebase onto registry counters, and
the registry must mirror every value (docs/OBSERVABILITY.md §3)."""

from __future__ import annotations

import pytest

from repro.obs import MetricsRegistry
from repro.server import SimulatedNetwork
from repro.server.network import TRAFFIC_FIELDS, TrafficStats


class TestHistoricalApi:
    """Pre-rebase behaviour, field by field."""

    def test_zero_construction(self):
        stats = TrafficStats()
        assert all(getattr(stats, f) == 0 for f in TRAFFIC_FIELDS)

    def test_keyword_construction(self):
        stats = TrafficStats(round_trips=3, bytes_sent=128)
        assert stats.round_trips == 3
        assert stats.bytes_sent == 128
        assert stats.entry_pdus == 0

    def test_augmented_assignment(self):
        stats = TrafficStats()
        stats.round_trips += 1
        stats.round_trips += 2
        stats.sync_entry_pdus += 5
        assert stats.round_trips == 3
        assert stats.sync_entry_pdus == 5

    def test_plain_assignment(self):
        stats = TrafficStats()
        stats.bytes_sent = 999
        assert stats.bytes_sent == 999

    def test_unknown_attribute_read_raises(self):
        with pytest.raises(AttributeError):
            TrafficStats().no_such_field

    def test_unknown_attribute_write_raises(self):
        with pytest.raises(AttributeError):
            TrafficStats().no_such_field = 1

    def test_reset(self):
        stats = TrafficStats(round_trips=9, requests=9)
        stats.reset()
        assert all(getattr(stats, f) == 0 for f in TRAFFIC_FIELDS)

    def test_as_dict_order(self):
        assert tuple(TrafficStats().as_dict()) == TRAFFIC_FIELDS

    def test_equality(self):
        assert TrafficStats(round_trips=2) == TrafficStats(round_trips=2)
        assert TrafficStats(round_trips=2) != TrafficStats(round_trips=3)
        assert TrafficStats().__eq__(42) is NotImplemented

    def test_repr_lists_fields(self):
        r = repr(TrafficStats(round_trips=2))
        assert r.startswith("TrafficStats(") and "round_trips=2" in r

    def test_snapshot_is_independent(self):
        stats = TrafficStats()
        stats.round_trips += 1
        frozen = stats.snapshot()
        stats.round_trips += 10
        assert frozen.round_trips == 1
        assert stats.round_trips == 11

    def test_subtraction_gives_interval_delta(self):
        stats = TrafficStats()
        stats.entry_pdus += 4
        stats.bytes_sent += 100
        before = stats.snapshot()
        stats.entry_pdus += 6
        stats.bytes_sent += 50
        delta = stats - before
        assert delta.entry_pdus == 6
        assert delta.bytes_sent == 50
        assert delta.round_trips == 0

    def test_subtraction_result_is_detached(self):
        stats = TrafficStats()
        before = stats.snapshot()
        stats.requests += 3
        delta = stats - before
        stats.requests += 100
        assert delta.requests == 3


class TestRegistryMirroring:
    """The facade's second window: the backing registry."""

    def test_fields_alias_net_traffic_counters(self):
        stats = TrafficStats()
        stats.round_trips += 2
        stats.sync_dn_pdus += 7
        d = stats.registry.to_dict()
        assert d["net.traffic.round_trips"] == 2
        assert d["net.traffic.sync_dn_pdus"] == 7

    def test_shared_registry_is_used(self):
        registry = MetricsRegistry()
        stats = TrafficStats(registry=registry)
        stats.requests += 1
        assert registry.to_dict()["net.traffic.requests"] == 1

    def test_counter_writes_are_visible_through_facade(self):
        stats = TrafficStats()
        stats.registry.counter("net.traffic.entry_pdus").inc(5)
        assert stats.entry_pdus == 5

    def test_snapshot_has_private_registry(self):
        stats = TrafficStats()
        stats.round_trips += 1
        frozen = stats.snapshot()
        assert frozen.registry is not stats.registry
        stats.round_trips += 1
        assert frozen.registry.to_dict()["net.traffic.round_trips"] == 1


class TestNetworkIntegration:
    def test_network_charges_show_in_both_windows(self):
        network = SimulatedNetwork()
        network.charge_round_trip()
        network.charge_entries(3, total_bytes=300)
        network.charge_sync_entry(120)
        network.charge_sync_dn()
        assert network.stats.round_trips == 1
        assert network.stats.entry_pdus == 3
        assert network.stats.sync_entry_pdus == 1
        assert network.stats.sync_dn_pdus == 1
        assert network.stats.bytes_sent == 300 + 120 + 64
        d = network.registry.to_dict()
        assert d["net.traffic.round_trips"] == 1
        assert d["net.traffic.bytes_sent"] == 484

    def test_latency_gauge(self):
        network = SimulatedNetwork(round_trip_latency_ms=150.0)
        network.charge_round_trip()
        network.charge_round_trip()
        assert network.elapsed_ms == 300.0
        assert network.registry.to_dict()["net.latency.elapsed_ms"] == 300.0

    def test_connection_accounting(self):
        network = SimulatedNetwork()
        first, second = object(), object()
        network.connection_opened(first)
        network.connection_opened(second)
        network.connection_closed(first)
        assert network.open_connections == 1
        assert network.total_connections == 2
        d = network.registry.to_dict()
        assert d["net.connections.open"] == 1.0
        assert d["net.connections.total"] == 2

    def test_connection_close_never_goes_negative(self):
        network = SimulatedNetwork()
        network.connection_closed(object())
        assert network.open_connections == 0

    def test_shared_registry_across_network_and_server(self):
        from repro.server import DirectoryServer

        registry = MetricsRegistry()
        network = SimulatedNetwork(registry=registry)
        server = DirectoryServer("master", metrics=registry)
        server.add_naming_context("o=xyz")
        network.charge_round_trip()
        from repro.ldap import Scope, SearchRequest

        server.search(SearchRequest("o=xyz", Scope.SUB, "(objectClass=*)"))
        d = registry.to_dict()
        assert d["net.traffic.round_trips"] == 1
        assert d['server.op.count{op="search"}'] >= 1
