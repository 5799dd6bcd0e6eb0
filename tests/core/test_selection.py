"""Tests for dynamic filter selection (§6.2)."""

import pytest

from repro.core import (
    FilterReplica,
    FilterSelector,
    Generalizer,
    PrefixSuffixGeneralization,
)
from repro.ldap import Entry, Scope, SearchRequest
from repro.server import DirectoryServer, FaultyNetwork, SimulatedNetwork
from repro.sync import ResyncProvider


def person(i: int, block: str) -> Entry:
    return Entry(
        f"cn=P{block}{i},c=in,o=xyz",
        {
            "objectClass": ["person"],
            "cn": f"P{block}{i}",
            "sn": "T",
            "serialNumber": f"{block}{i:02d}IN",
        },
    )


@pytest.fixture()
def master() -> DirectoryServer:
    m = DirectoryServer("master")
    m.add_naming_context("o=xyz")
    m.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
    m.add(Entry("c=in,o=xyz", {"objectClass": ["country"], "c": "in"}))
    for block in ("0001", "0002", "0003"):
        for i in range(5):
            m.add(person(i, block))
    return m


def serial_query(block: str, i: int) -> SearchRequest:
    return SearchRequest("", Scope.SUB, f"(serialNumber={block}{i:02d}IN)")


def make_selector(master, budget=10, interval=10, provider=None, replica=None):
    replica = replica or FilterReplica("branch", network=SimulatedNetwork())
    gen = Generalizer([PrefixSuffixGeneralization("serialNumber", 4, 2)])
    estimator = lambda request: len(master.search(request).entries)
    selector = FilterSelector(
        replica,
        gen,
        estimator,
        budget_entries=budget,
        revolution_interval=interval,
        provider=provider,
    )
    return replica, selector


class TestObservation:
    def test_candidates_accumulate_hits(self, master):
        _replica, selector = make_selector(master)
        for i in range(3):
            selector.observe(serial_query("0001", i))
        assert selector.candidate_count == 1  # one generalized block filter

    def test_stored_filters_not_candidates(self, master):
        provider = ResyncProvider(master)
        replica, selector = make_selector(master, provider=provider)
        stored = SearchRequest("", Scope.SUB, "(serialNumber=0001*IN)")
        replica.add_filter(stored, provider)
        selector.observe(serial_query("0001", 0))
        assert selector.candidate_count == 0

    def test_revolution_triggers_at_interval(self, master):
        provider = ResyncProvider(master)
        _replica, selector = make_selector(master, interval=5, provider=provider)
        for i in range(5):
            selector.observe(serial_query("0001", i % 5))
        assert selector.revolutions == 1

    def test_invalid_interval_rejected(self, master):
        with pytest.raises(ValueError):
            make_selector(master, interval=0)


class TestRevolution:
    def test_installs_best_ratio_candidates(self, master):
        provider = ResyncProvider(master)
        replica, selector = make_selector(master, budget=5, provider=provider)
        for _ in range(4):
            selector.observe(serial_query("0001", 0))
        selector.observe(serial_query("0002", 0))  # less popular block
        report = selector.revolution()
        assert len(report.installed) == 1
        assert "0001" in str(report.installed[0].filter)
        assert replica.entry_count() == 5

    def test_budget_respected(self, master):
        provider = ResyncProvider(master)
        replica, selector = make_selector(master, budget=7, provider=provider)
        for block in ("0001", "0002", "0003"):
            for _ in range(3):
                selector.observe(serial_query(block, 0))
        selector.revolution()
        assert replica.entry_count() <= 7
        assert len(replica.stored_filters()) == 1  # only one block of 5 fits

    def test_unused_stored_filters_evicted(self, master):
        provider = ResyncProvider(master)
        replica, selector = make_selector(master, budget=10, provider=provider)
        cold = SearchRequest("", Scope.SUB, "(serialNumber=0003*IN)")
        replica.add_filter(cold, provider)
        for _ in range(4):
            selector.observe(serial_query("0001", 0))
        report = selector.revolution()
        assert cold in report.removed
        assert not replica.holds(cold)

    def test_hot_stored_filter_kept(self, master):
        provider = ResyncProvider(master)
        replica, selector = make_selector(master, budget=10, provider=provider)
        hot = SearchRequest("", Scope.SUB, "(serialNumber=0001*IN)")
        replica.add_filter(hot, provider)
        replica.answer(serial_query("0001", 0))  # real hit on the stored filter
        report = selector.revolution()
        assert hot in report.kept

    def test_benefit_counters_reset(self, master):
        provider = ResyncProvider(master)
        replica, selector = make_selector(master, provider=provider)
        for _ in range(3):
            selector.observe(serial_query("0001", 0))
        selector.revolution()
        assert selector.candidate_count == 0
        for stored in replica.stored_filters():
            assert stored.hits == 0

    def test_revolution_traffic_tracked(self, master):
        provider = ResyncProvider(master)
        net = SimulatedNetwork()
        replica = FilterReplica("branch", network=net)
        replica, selector = make_selector(
            master, budget=10, provider=provider, replica=replica
        )
        for _ in range(3):
            selector.observe(serial_query("0001", 0))
        selector.revolution()
        assert selector.revolution_entry_pdus == 5  # one block fetched

    def test_min_benefit_floor(self, master):
        provider = ResyncProvider(master)
        replica, selector = make_selector(master, provider=provider)
        selector.min_benefit = 3
        selector.observe(serial_query("0001", 0))  # only one hit
        report = selector.revolution()
        assert report.installed == []

    def test_report_budget_used(self, master):
        provider = ResyncProvider(master)
        _replica, selector = make_selector(master, budget=10, provider=provider)
        for _ in range(3):
            selector.observe(serial_query("0001", 0))
        report = selector.revolution()
        assert report.budget_used == 5


class TestEndToEndAdaptation:
    def test_hit_ratio_improves_after_revolution(self, master):
        provider = ResyncProvider(master)
        net = SimulatedNetwork()
        replica = FilterReplica("branch", network=net)
        replica, selector = make_selector(
            master, budget=15, interval=10, provider=provider, replica=replica
        )
        # Phase 1: all queries hit block 0001; replica is empty → misses.
        for i in range(10):
            q = serial_query("0001", i % 5)
            assert not replica.answer(q).is_hit
            selector.observe(q)
        # Revolution happened at query 10: block 0001 installed.
        assert selector.revolutions == 1
        hits = 0
        for i in range(10):
            q = serial_query("0001", i % 5)
            if replica.answer(q).is_hit:
                hits += 1
            selector.observe(q)
        assert hits == 10


class TestRevolutionOnAFaultyNetwork:
    def test_partitioned_install_finishes_the_revolution_with_a_pending_filter(self, master):
        """Regression: a partition during the revolution's install threw
        ``NetworkPartitioned`` out of ``selector.observe()`` — the
        client's query path — after the dropped filters were gone and
        before the counters reset, so the next query ran it again."""
        net = FaultyNetwork()
        provider = ResyncProvider(master)
        replica, selector = make_selector(
            master,
            interval=8,
            provider=provider,
            replica=FilterReplica("branch", network=net),
        )
        kept = SearchRequest("", Scope.SUB, "(serialNumber=0001*IN)")
        new = SearchRequest("", Scope.SUB, "(serialNumber=0002*IN)")
        replica.add_filter(kept, provider)
        for i in range(4):
            assert replica.answer(serial_query("0001", i)).is_hit
            selector.observe(serial_query("0001", i))

        net.partition(provider)
        for i in range(4):
            selector.observe(serial_query("0002", i))  # the last one is due

        assert selector.revolutions == 1
        assert selector._since_revolution == 0
        assert selector.last_report.kept == [kept]
        assert selector.last_report.installed == [new]
        assert replica.answer(serial_query("0001", 0)).is_hit  # kept still answers
        assert replica.holds(new)  # pending: held ...
        assert not replica.answer(serial_query("0002", 0)).is_hit  # ... answering nothing
        assert not replica.answer(new).is_hit

        net.heal_partition(provider)
        replica.sync(provider)
        for request in (new, serial_query("0002", 0)):
            answer = replica.answer(request)
            assert answer.is_hit and not answer.degraded
            assert {e.dn for e in answer.entries} == {
                e.dn for e in master.search(request).entries
            }
            assert all(
                e.semantically_equal(master.store.get(e.dn)) for e in answer.entries
            )
