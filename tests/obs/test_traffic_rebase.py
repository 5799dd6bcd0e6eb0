"""The traffic ledger (docs/OBSERVABILITY.md §3): the network's
``net.traffic.*`` registry counters are the one ledger, the network's
``charge_*`` methods their one writer (``Counter.inc``), and
``network.stats`` a read-only live view of them."""

from __future__ import annotations

from unittest import mock

import pytest

from repro.ldap import DN, Entry, Scope, SearchRequest, SyncAction
from repro.ldap.ber import encoded_sync_batch_size
from repro.obs import MetricsRegistry
from repro.obs.registry import Counter
from repro.server import DirectoryServer, LdapClient, Modification, SimulatedNetwork
from repro.server.network import TRAFFIC_FIELDS, TrafficCounts
from repro.sync import ResyncProvider, SyncedContent
from repro.sync.protocol import SyncUpdate
from tests.oracles import copied_pdu


def counter(network: SimulatedNetwork, field: str) -> Counter:
    return network.registry.counter("net.traffic." + field)


def person(name: str) -> Entry:
    return Entry(f"cn={name},o=xyz", {"objectClass": ["person"], "cn": name, "sn": "T"})


class TestHistoricalApi:
    """The field-read API every reader of ``network.stats`` uses."""

    def test_zero_construction(self):
        stats = SimulatedNetwork().stats
        assert all(getattr(stats, f) == 0 for f in TRAFFIC_FIELDS)

    def test_unknown_attribute_read_raises(self):
        with pytest.raises(AttributeError):
            SimulatedNetwork().stats.no_such_field

    def test_unknown_attribute_write_raises(self):
        with pytest.raises(AttributeError):
            SimulatedNetwork().stats.no_such_field = 1

    def test_as_dict_order(self):
        assert tuple(SimulatedNetwork().stats.as_dict()) == TRAFFIC_FIELDS

    def test_equality(self):
        a = TrafficCounts(2, 0, 0, 0, 0, 0, 0)
        assert a == TrafficCounts(2, 0, 0, 0, 0, 0, 0)
        assert a != TrafficCounts(3, 0, 0, 0, 0, 0, 0)
        network = SimulatedNetwork()
        assert network.stats.snapshot() == network.stats.snapshot()

    def test_repr_lists_fields(self):
        network = SimulatedNetwork()
        network.charge_round_trip()
        network.charge_round_trip()
        r = repr(network.stats)
        assert r.startswith("TrafficStats(") and "round_trips=2" in r

    def test_snapshot_is_independent(self):
        network = SimulatedNetwork()
        network.charge_round_trip()
        frozen = network.stats.snapshot()
        for _ in range(10):
            network.charge_round_trip()
        assert frozen.round_trips == 1
        assert network.stats.round_trips == 11

    def test_subtraction_gives_interval_delta(self):
        network = SimulatedNetwork()
        network.charge_entries(4, total_bytes=100)
        before = network.stats.snapshot()
        network.charge_entries(6, total_bytes=50)
        delta = network.stats - before
        assert (delta.entry_pdus, delta.bytes_sent, delta.round_trips) == (6, 50, 0)

    def test_subtraction_result_is_detached(self):
        network = SimulatedNetwork()
        before = network.stats.snapshot()
        network.charge_round_trip()
        delta = network.stats - before
        for _ in range(100):
            network.charge_round_trip()
        assert delta.requests == 1


class TestRegistryMirroring:
    """Each field is the registry counter ``net.traffic.<field>``."""

    def test_fields_alias_net_traffic_counters(self):
        network = SimulatedNetwork()
        network.charge_round_trip()
        network.charge_sync_dn(40)
        d = network.registry.to_dict()
        assert d["net.traffic.round_trips"] == network.stats.round_trips == 1
        assert d["net.traffic.sync_dn_pdus"] == network.stats.sync_dn_pdus == 1

    def test_shared_registry_is_used(self):
        registry = MetricsRegistry()
        network = SimulatedNetwork(registry=registry)
        network.charge_round_trip()
        assert registry.to_dict()["net.traffic.requests"] == 1

    def test_counter_writes_are_visible_through_facade(self):
        network = SimulatedNetwork()
        counter(network, "entry_pdus").inc(5)
        assert network.stats.entry_pdus == 5


class TestLiveView:
    """The view has no write path: only the network's charges move a
    counter."""

    def test_a_field_write_raises(self):
        network = SimulatedNetwork()
        with pytest.raises(AttributeError):
            network.stats.round_trips = 5
        assert network.stats.round_trips == 0

    def test_an_augmented_assignment_raises(self):
        network = SimulatedNetwork()
        network.charge_round_trip()
        with pytest.raises(AttributeError):
            network.stats.round_trips += 1
        assert network.stats.round_trips == 1

    def test_the_view_cannot_be_built_with_values(self):
        with pytest.raises(TypeError):
            type(SimulatedNetwork().stats)(round_trips=5)


class TestSnapshots:
    def test_a_snapshot_is_detached_from_the_registry(self):
        network = SimulatedNetwork()
        frozen = network.stats.snapshot()
        counter(network, "bytes_sent").inc(7)
        assert frozen.bytes_sent == 0
        assert isinstance(frozen, TrafficCounts)

    def test_a_snapshot_is_immutable(self):
        frozen = SimulatedNetwork().stats.snapshot()
        with pytest.raises(AttributeError):
            frozen.round_trips = 5

    def test_live_minus_snapshot_is_a_frozen_value(self):
        network = SimulatedNetwork()
        delta = network.stats - network.stats.snapshot()
        assert isinstance(delta, TrafficCounts)
        assert delta == TrafficCounts(0, 0, 0, 0, 0, 0, 0)

    def test_snapshot_minus_snapshot_is_the_interval_delta(self):
        network = SimulatedNetwork()
        before = network.stats.snapshot()
        network.charge_round_trip()
        network.charge_referrals(3)
        after = network.stats.snapshot()
        delta = after - before
        assert isinstance(delta, TrafficCounts)
        assert (delta.round_trips, delta.requests, delta.referral_pdus) == (1, 1, 3)

    def test_snapshot_as_dict_order_and_values(self):
        network = SimulatedNetwork()
        network.charge_sync_entry(120)
        d = network.stats.snapshot().as_dict()
        assert tuple(d) == TRAFFIC_FIELDS
        assert (d["sync_entry_pdus"], d["bytes_sent"]) == (1, 120)

    def test_unknown_snapshot_field_raises(self):
        with pytest.raises(AttributeError):
            SimulatedNetwork().stats.snapshot().no_such_field


def mixed_batch():
    """Two entry-carrying PDUs and three DN-only ones."""
    return [
        copied_pdu(SyncAction.ADD, person("A")),
        SyncUpdate.delete(DN.parse("cn=B,o=xyz")),
        copied_pdu(SyncAction.MODIFY, person("C")),
        SyncUpdate.retain(DN.parse("cn=D,o=xyz")),
        SyncUpdate.delete(DN.parse("cn=E,o=xyz")),
    ]


#: charge → the counters it moves, as ``{field: delta}`` (the rest stay).
CHARGES = {
    "round_trip": (lambda n: n.charge_round_trip(), {"round_trips": 1, "requests": 1}),
    "entries": (
        lambda n: n.charge_entries(3, total_bytes=300),
        {"entry_pdus": 3, "bytes_sent": 300},
    ),
    "referrals": (lambda n: n.charge_referrals(2), {"referral_pdus": 2}),
    "sync_entry": (
        lambda n: n.charge_sync_entry(120),
        {"sync_entry_pdus": 1, "bytes_sent": 120},
    ),
    "sync_dn": (lambda n: n.charge_sync_dn(40), {"sync_dn_pdus": 1, "bytes_sent": 40}),
    "sync_batch": (
        lambda n: n.charge_sync_batch(mixed_batch()),
        {
            "sync_entry_pdus": 2,
            "sync_dn_pdus": 3,
            "bytes_sent": encoded_sync_batch_size(mixed_batch()),
        },
    ),
}


class TestOneWriter:
    @pytest.mark.parametrize("charge", sorted(CHARGES))
    def test_each_charge_moves_only_its_counters_by_inc(self, charge):
        run, moved = CHARGES[charge]
        network = SimulatedNetwork()
        with mock.patch.object(Counter, "set", autospec=True, side_effect=Counter.set) as spy:
            run(network)
        assert spy.call_count == 0
        expected = {field: moved.get(field, 0) for field in TRAFFIC_FIELDS}
        assert network.stats.as_dict() == expected

    def test_a_dn_pdu_has_no_guessed_size(self):
        with pytest.raises(TypeError):
            SimulatedNetwork().charge_sync_dn()

    def test_a_search_and_a_sync_batch_make_no_counter_set_call(self):
        """Every charge is one ``Counter.inc``: a client search, a
        polled load and a persist batch move the ledger without one
        ``Counter.set``."""
        master = DirectoryServer("M")
        master.add_naming_context("o=xyz")
        master.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
        for i in range(3):
            master.add(person(f"E{i}"))
        network = SimulatedNetwork()
        network.register(master)
        provider = ResyncProvider(master)
        request = SearchRequest("o=xyz", Scope.SUB, "(objectClass=person)")
        with mock.patch.object(Counter, "set", autospec=True, side_effect=Counter.set) as spy:
            LdapClient(network).search(master.url, request)
            SyncedContent(request, network=network).poll(provider)
            content = SyncedContent(request, network=network)
            deliveries, _handle = network.persist_exchange(
                provider, request, content.apply_notification
            )
            content.apply(deliveries[-1].response)
            master.modify("cn=E0,o=xyz", [Modification.replace("sn", "U")])
            network.settle()
        assert spy.call_count == 0
        stats = network.stats
        assert stats.entry_pdus == 3  # the search
        assert stats.sync_entry_pdus == 3 + 3 + 1  # two loads, one batch
        assert stats.round_trips == 3


class TestNetworkIntegration:
    def test_network_charges_show_in_both_windows(self):
        network = SimulatedNetwork()
        network.charge_round_trip()
        network.charge_entries(3, total_bytes=300)
        network.charge_sync_entry(120)
        network.charge_sync_dn(64)
        assert network.stats.snapshot() == TrafficCounts(1, 1, 3, 0, 1, 1, 484)
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

    def test_connection_counts_have_no_setter(self):
        network = SimulatedNetwork()
        with pytest.raises(AttributeError):
            network.open_connections = 3
        with pytest.raises(AttributeError):
            network.total_connections = 3

    def test_shared_registry_across_network_and_server(self):
        registry = MetricsRegistry()
        network = SimulatedNetwork(registry=registry)
        server = DirectoryServer("master", metrics=registry)
        server.add_naming_context("o=xyz")
        network.charge_round_trip()
        server.search(SearchRequest("o=xyz", Scope.SUB, "(objectClass=*)"))
        d = registry.to_dict()
        assert d["net.traffic.round_trips"] == 1
        assert d['server.op.count{op="search"}'] >= 1
