"""Tests for distributed directories and referral-chasing clients (Fig 2)."""

import pytest

from repro.ldap import Entry, Scope, SearchRequest
from repro.server import DistributedDirectory, LdapClient, SimulatedNetwork


def person(dn: str, **attrs) -> Entry:
    base = {"objectClass": ["person", "top"], "sn": "T"}
    base["cn"] = dn.split(",")[0].split("=")[1]
    base.update(attrs)
    return Entry(dn, base)


@pytest.fixture()
def figure2() -> DistributedDirectory:
    """The three-server topology of Figure 2."""
    dist = DistributedDirectory()
    host_a = dist.add_server("hostA", "o=xyz")
    host_b = dist.add_server(
        "hostB", "ou=research,c=us,o=xyz", default_referral="ldap://hostA"
    )
    host_c = dist.add_server("hostC", "c=in,o=xyz", default_referral="ldap://hostA")

    host_a.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
    host_a.add(Entry("c=us,o=xyz", {"objectClass": ["country"], "c": "us"}))
    host_a.add(person("cn=Fred Jones,c=us,o=xyz"))
    dist.add_referral("hostA", "ou=research,c=us,o=xyz", "hostB")
    dist.add_referral("hostA", "c=in,o=xyz", "hostC")

    host_b.add(
        Entry(
            "ou=research,c=us,o=xyz",
            {"objectClass": ["organizationalUnit"], "ou": "research"},
        )
    )
    host_b.add(person("cn=John Doe,ou=research,c=us,o=xyz"))
    host_c.add(Entry("c=in,o=xyz", {"objectClass": ["country"], "c": "in"}))
    host_c.add(person("cn=Ravi,c=in,o=xyz"))
    return dist


class TestTopologyConstruction:
    def test_duplicate_server_rejected(self, figure2):
        with pytest.raises(ValueError):
            figure2.add_server("hostA", "o=dup")

    def test_server_lookup(self, figure2):
        assert figure2.server("hostB").name == "hostB"

    def test_total_entries(self, figure2):
        assert figure2.total_entries() == 9  # 7 data + 2 glue referrals

    def test_network_resolution(self, figure2):
        assert figure2.network.resolve("ldap://hostA").name == "hostA"
        assert figure2.network.resolve("ldap://hostA/c=us,o=xyz").name == "hostA"
        with pytest.raises(KeyError):
            figure2.network.resolve("ldap://nowhere")


class TestFigure2:
    """The paper's worked example: 4 round trips for one request."""

    def test_four_round_trips(self, figure2):
        client = LdapClient(figure2.network)
        result = client.search(
            "ldap://hostB", SearchRequest("o=xyz", Scope.SUB)
        )
        assert result.round_trips == 4
        assert result.servers_contacted[0] == "ldap://hostB"
        assert result.servers_contacted[1] == "ldap://hostA"

    def test_all_entries_collected(self, figure2):
        client = LdapClient(figure2.network)
        result = client.search("ldap://hostB", SearchRequest("o=xyz", Scope.SUB))
        assert {str(e.dn) for e in result.entries} == {
            "o=xyz",
            "c=us,o=xyz",
            "cn=Fred Jones,c=us,o=xyz",
            "ou=research,c=us,o=xyz",
            "cn=John Doe,ou=research,c=us,o=xyz",
            "c=in,o=xyz",
            "cn=Ravi,c=in,o=xyz",
        }
        assert result.complete

    def test_direct_hit_single_round_trip(self, figure2):
        client = LdapClient(figure2.network)
        result = client.search(
            "ldap://hostC", SearchRequest("c=in,o=xyz", Scope.SUB)
        )
        assert result.round_trips == 1

    def test_network_counters_charged(self, figure2):
        client = LdapClient(figure2.network)
        before = figure2.network.stats.snapshot()
        client.search("ldap://hostB", SearchRequest("o=xyz", Scope.SUB))
        moved = figure2.network.stats - before
        assert moved.round_trips == 4
        assert moved.entry_pdus == 7
        assert moved.referral_pdus == 3

    def test_unresolvable_referral_reported(self, figure2):
        figure2.server("hostA").add(
            Entry(
                "c=jp,o=xyz",
                {"objectClass": ["referral"], "ref": "ldap://ghost"},
            )
        )
        client = LdapClient(figure2.network)
        result = client.search("ldap://hostA", SearchRequest("o=xyz", Scope.SUB))
        assert not result.complete
        assert result.unresolved[0].url == "ldap://ghost"

    def test_filter_travels_with_referrals(self, figure2):
        client = LdapClient(figure2.network)
        result = client.search(
            "ldap://hostB", SearchRequest("o=xyz", Scope.SUB, "(cn=Ravi)")
        )
        assert [str(e.dn) for e in result.entries] == ["cn=Ravi,c=in,o=xyz"]

    def test_hop_limit(self, figure2):
        # two servers referring to each other for an unheld name
        loopy = DistributedDirectory()
        loopy.add_server("p", "o=p", default_referral="ldap://q")
        loopy.add_server("q", "o=q", default_referral="ldap://p")
        client = LdapClient(loopy.network)
        # visited-set breaks the loop before the hop limit fires
        result = client.search("ldap://p", SearchRequest("o=zz", Scope.SUB))
        assert result.entries == []


class TestLoadPartitioned:
    def test_entries_go_to_most_specific_holder(self, figure2):
        extra = [person("cn=Extra,c=in,o=xyz"), person("cn=More,c=us,o=xyz")]
        counts = figure2.load_partitioned(extra)
        assert counts["hostC"] == 1
        assert counts["hostA"] == 1

    def test_unheld_entry_rejected(self, figure2):
        with pytest.raises(ValueError):
            figure2.load_partitioned([person("cn=x,o=nowhere")])


class TestLatencyAccounting:
    def test_elapsed_accumulates(self):
        net = SimulatedNetwork(round_trip_latency_ms=50.0)
        net.charge_round_trip()
        net.charge_round_trip()
        assert net.elapsed_ms == 100.0

    def test_stats_snapshot_and_subtract(self):
        net = SimulatedNetwork()
        net.charge_round_trip()
        before = net.stats.snapshot()
        net.charge_round_trip()
        delta = net.stats - before
        assert delta.round_trips == 1
