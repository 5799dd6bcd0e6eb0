"""Tests for per-filter consistency levels (§3.2)."""

import pytest

from repro.core import FilterReplica
from repro.ldap import DN, Entry, Scope, SearchRequest
from repro.server import DirectoryServer, Modification
from repro.sync import ResyncProvider


@pytest.fixture()
def master() -> DirectoryServer:
    m = DirectoryServer("master")
    m.add_naming_context("o=xyz")
    m.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
    for name, dept in (("A", "1"), ("B", "2")):
        m.add(
            Entry(
                f"cn={name},o=xyz",
                {"objectClass": ["person"], "cn": name, "sn": "T", "departmentNumber": dept},
            )
        )
    return m


FAST = SearchRequest("o=xyz", Scope.SUB, "(departmentNumber=1)")
SLOW = SearchRequest("o=xyz", Scope.SUB, "(departmentNumber=2)")


class TestSyncIntervals:
    def test_default_polls_every_round(self, master):
        provider = ResyncProvider(master)
        replica = FilterReplica("r")
        replica.add_filter(FAST, provider)
        master.modify("cn=A,o=xyz", [Modification.replace("title", "x")])
        replica.sync(provider)
        entry = replica.stored_filters()[0].content.entries[DN.parse("cn=A,o=xyz")]
        assert entry.first("title") == "x"

    def test_slow_filter_skips_rounds(self, master):
        provider = ResyncProvider(master)
        replica = FilterReplica("r")
        replica.add_filter(FAST, provider, sync_interval=1)
        replica.add_filter(SLOW, provider, sync_interval=3)
        master.modify("cn=A,o=xyz", [Modification.replace("title", "fast")])
        master.modify("cn=B,o=xyz", [Modification.replace("title", "slow")])

        replica.sync(provider)  # round 1: only FAST due
        fast_entry = replica._stored[FAST].content.entries[DN.parse("cn=A,o=xyz")]
        slow_entry = replica._stored[SLOW].content.entries[DN.parse("cn=B,o=xyz")]
        assert fast_entry.first("title") == "fast"
        assert slow_entry.first("title") is None  # still stale

        replica.sync(provider)  # round 2: SLOW still not due
        slow_entry = replica._stored[SLOW].content.entries[DN.parse("cn=B,o=xyz")]
        assert slow_entry.first("title") is None

        replica.sync(provider)  # round 3: SLOW due
        slow_entry = replica._stored[SLOW].content.entries[DN.parse("cn=B,o=xyz")]
        assert slow_entry.first("title") == "slow"

    def test_invalid_interval_rejected(self, master):
        replica = FilterReplica("r")
        with pytest.raises(ValueError):
            replica.add_filter(FAST, sync_interval=0)

    def test_slow_filter_still_converges_eventually(self, master):
        provider = ResyncProvider(master)
        replica = FilterReplica("r")
        replica.add_filter(SLOW, provider, sync_interval=2)
        master.modify("cn=B,o=xyz", [Modification.replace("departmentNumber", "9")])
        replica.sync(provider)
        replica.sync(provider)
        assert replica._stored[SLOW].content.matches_master(master)

    def test_traffic_reduction(self, master):
        """Longer intervals mean fewer polls — less update traffic
        (the flexibility argument of §3.2)."""
        from repro.server import SimulatedNetwork

        def run(interval: int) -> int:
            m = DirectoryServer("m")
            m.add_naming_context("o=xyz")
            m.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
            m.add(
                Entry(
                    "cn=B,o=xyz",
                    {"objectClass": ["person"], "cn": "B", "sn": "T", "departmentNumber": "2"},
                )
            )
            provider = ResyncProvider(m)
            net = SimulatedNetwork()
            replica = FilterReplica("r", network=net)
            replica.add_filter(SLOW, provider, sync_interval=interval)
            before = net.stats.snapshot()
            for i in range(12):
                m.modify("cn=B,o=xyz", [Modification.replace("title", f"t{i}")])
                replica.sync(provider)
            return (net.stats - before).round_trips

        assert run(4) < run(1)
