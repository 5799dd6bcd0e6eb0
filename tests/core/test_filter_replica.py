"""Tests for the filter replica — the paper's proposed model."""

import pytest

from repro.core import AnswerStatus, FilterReplica, ReplicaFrontend, Template, TemplateRegistry
from repro.ldap import Entry, Scope, SearchRequest
from repro.server import (
    DirectoryServer,
    ExchangeFaults,
    FaultPlan,
    FaultSpec,
    FaultyNetwork,
    Modification,
    SimulatedNetwork,
)
from repro.sync import HealthPolicy, ResyncProvider, RetryPolicy
from tests.oracles import LinearFilterReplica


def person(dn: str, **attrs) -> Entry:
    base = {"objectClass": ["person", "top"], "sn": "T"}
    base["cn"] = dn.split(",")[0].split("=")[1]
    base.update(attrs)
    return Entry(dn, base)


@pytest.fixture()
def master() -> DirectoryServer:
    m = DirectoryServer("master")
    m.add_naming_context("o=xyz")
    m.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
    m.add(Entry("c=in,o=xyz", {"objectClass": ["country"], "c": "in"}))
    for i in range(6):
        m.add(
            person(
                f"cn=P{i},c=in,o=xyz",
                serialNumber=f"00{i // 3}2{i:02d}IN",
                departmentNumber="2406" if i % 2 == 0 else "2410",
                divisionNumber="24",
            )
        )
    return m


@pytest.fixture()
def provider(master) -> ResyncProvider:
    return ResyncProvider(master)


STORED = SearchRequest("", Scope.SUB, "(serialNumber=0002*IN)")


class TestStoredFilters:
    def test_add_filter_fetches_content(self, master, provider):
        replica = FilterReplica("branch")
        stored = replica.add_filter(STORED, provider)
        assert stored.entry_count() == 3  # P0..P2 share block 0002

    def test_add_without_provider_starts_empty(self):
        replica = FilterReplica("branch")
        assert replica.add_filter(STORED).entry_count() == 0

    def test_add_idempotent(self, master, provider):
        replica = FilterReplica("branch")
        a = replica.add_filter(STORED, provider)
        b = replica.add_filter(STORED, provider)
        assert a is b
        assert len(replica.stored_filters()) == 1

    def test_remove_filter(self, master, provider):
        replica = FilterReplica("branch")
        replica.add_filter(STORED, provider)
        replica.remove_filter(STORED, provider=provider)
        assert not replica.holds(STORED)
        assert provider.active_session_count == 0

    def test_load_directly(self):
        replica = FilterReplica("branch")
        replica.load_directly(STORED, [person("cn=X,c=in,o=xyz")])
        assert replica.entry_count() == 1


class TestAnswer:
    def test_hit_same_filter(self, master, provider):
        replica = FilterReplica("branch")
        replica.add_filter(STORED, provider)
        answer = replica.answer(STORED)
        assert answer.status is AnswerStatus.HIT
        assert len(answer.entries) == 3

    def test_hit_contained_query(self, master, provider):
        replica = FilterReplica("branch")
        replica.add_filter(STORED, provider)
        q = SearchRequest("", Scope.SUB, "(serialNumber=000200IN)")
        answer = replica.answer(q)
        assert answer.status is AnswerStatus.HIT
        assert [e.first("cn") for e in answer.entries] == ["P0"]

    def test_hit_across_spellings_of_one_attribute(self, master, provider):
        """A stored ``(sn=a*)`` answers ``(surname=aa)`` — the same
        attribute — with exactly the master's entries, whichever spelling
        stored the values."""
        master.add(person("cn=A0,c=in,o=xyz", sn="aa"))
        aliased = Entry(
            "cn=A1,c=in,o=xyz",
            {"objectClass": ["person", "top"], "commonName": "A1", "surname": "AA"},
        )
        master.add(aliased)
        master.add(person("cn=A2,c=in,o=xyz", sn="ab"))
        replica = FilterReplica("branch")
        replica.add_filter(SearchRequest("", Scope.SUB, "(sn=a*)"), provider)
        q = SearchRequest("", Scope.SUB, "(surname=aa)")
        answer = replica.answer(q)
        assert answer.status is AnswerStatus.HIT
        truth = {str(e.dn): e for e in master.search(q.with_base("o=xyz")).entries}
        assert sorted(truth) == ["cn=A0,c=in,o=xyz", "cn=A1,c=in,o=xyz"]
        assert {str(e.dn): e for e in answer.entries} == truth

    def test_hit_scoped_query_under_null_base(self, master, provider):
        """Filter replicas answer both null-based and scoped queries."""
        replica = FilterReplica("branch")
        replica.add_filter(STORED, provider)
        q = SearchRequest("c=in,o=xyz", Scope.SUB, "(serialNumber=000200IN)")
        assert replica.answer(q).status is AnswerStatus.HIT

    def test_miss_uncontained(self, master, provider):
        replica = FilterReplica("branch")
        replica.add_filter(STORED, provider)
        q = SearchRequest("", Scope.SUB, "(serialNumber=0012*IN)")
        answer = replica.answer(q)
        assert answer.status is AnswerStatus.MISS
        assert answer.referrals[0].url == "ldap://master"

    def test_miss_on_attribute_superset(self, master, provider):
        replica = FilterReplica("branch")
        narrow = SearchRequest("", Scope.SUB, "(serialNumber=0002*IN)", ["cn"])
        replica.add_filter(narrow, provider)
        q = SearchRequest("", Scope.SUB, "(serialNumber=000200IN)", ["cn", "mail"])
        assert replica.answer(q).status is AnswerStatus.MISS

    def test_answer_projects_attributes(self, master, provider):
        replica = FilterReplica("branch")
        replica.add_filter(STORED, provider)
        q = SearchRequest("", Scope.SUB, "(serialNumber=000200IN)", ["cn"])
        answer = replica.answer(q)
        assert answer.entries[0].has_attribute("cn")
        assert not answer.entries[0].has_attribute("serialNumber")

    def test_stats_and_diagnostics(self, master, provider):
        replica = FilterReplica("branch")
        replica.add_filter(STORED, provider)
        answer = replica.answer(STORED)
        assert answer.answered_by == str(STORED)
        assert replica.stats.hits == 1
        assert replica.stored_filters()[0].hits == 1

    def test_containment_checks_counted(self, master, provider):
        replica = FilterReplica("branch")
        replica.add_filter(STORED, provider)
        replica.answer(STORED)
        assert replica.containment_checks >= 1


class TestTemplateAdmission:
    """§3.4.2's template-based containment is the reference scan's
    (``LinearFilterReplica(templates=)``); the production replica has no
    template setting."""

    def test_non_member_query_misses_immediately(self, master, provider):
        templates = TemplateRegistry.from_strings("(serialnumber=_)", "(serialnumber=_*_)")
        replica = LinearFilterReplica("branch", templates=templates)
        replica.add_filter(STORED, provider)
        before = replica.containment_checks
        q = SearchRequest("", Scope.SUB, "(cn=P0)")
        assert replica.answer(q).status is AnswerStatus.MISS
        assert replica.containment_checks == before  # pruned, no checks

    def test_member_query_answered(self, master, provider):
        templates = TemplateRegistry.from_strings("(serialnumber=_)", "(serialnumber=_*_)")
        replica = LinearFilterReplica("branch", templates=templates)
        replica.add_filter(STORED, provider)
        q = SearchRequest("", Scope.SUB, "(serialNumber=000200IN)")
        assert replica.answer(q).status is AnswerStatus.HIT

    def test_incompatible_templates_pruned(self, master, provider):
        templates = TemplateRegistry.from_strings("(serialnumber=_)", "(mail=_)")
        replica = LinearFilterReplica("branch", templates=templates)
        mail_q = SearchRequest("", Scope.SUB, "(mail=a@b.c)")
        replica.add_filter(mail_q, provider)
        before = replica.containment_checks
        q = SearchRequest("", Scope.SUB, "(serialNumber=000200IN)")
        replica.answer(q)
        assert replica.containment_checks == before  # mail filter never checked


class TestNegativeCache:
    def test_stored_negative_cache_invalidated_by_add_filter(self):
        """A recorded miss must not survive a filter that now contains it."""
        replica = FilterReplica("r")
        query = SearchRequest("o=xyz", Scope.SUB, "(sn=ab)")
        assert not replica.answer(query).is_hit
        assert not replica.answer(query).is_hit  # negcache path, still a miss
        assert replica._negative is not None and replica._negative.hits >= 1
        replica.load_directly(query, [person("cn=s,o=xyz", sn="ab")])
        answer = replica.answer(query)
        assert answer.is_hit
        assert [str(e.dn) for e in answer.entries] == ["cn=s,o=xyz"]

    def test_negative_cache_counters_surface_in_metrics(self):
        replica = FilterReplica("r", cache_capacity=4)
        miss = SearchRequest("o=xyz", Scope.SUB, "(uid=zzz)")
        replica.answer(miss)
        replica.answer(miss)
        replica.sync_amq_metrics()
        counter = replica.metrics.counter
        assert counter("core.qc.negcache.hits", site="stored").value >= 1
        assert counter("core.qc.negcache.lookups", site="stored").value >= 2

    def test_the_template_scan_records_no_miss(self):
        """Registries are mutable: a template registered after a miss
        changes the admission and the prune, so the reference scan under a
        registry consults no negative cache, and the repeat is answered."""
        registry = TemplateRegistry.from_strings("(sn=_)")
        replica = LinearFilterReplica("r", templates=registry)
        query = SearchRequest("o=xyz", Scope.SUB, "(uid=ab)")
        replica.load_directly(query, [person("cn=s,o=xyz", uid="ab")])
        assert not replica.answer(query).is_hit  # no template admits it
        assert not replica.answer(query).is_hit
        registry.add(Template.parse("(uid=_)"))
        answer = replica.answer(query)
        assert answer.is_hit and answer.answered_by == str(query)
        assert replica._negative.lookups == 0


class TestCacheIntegration:
    def test_miss_feeds_cache_then_hits(self, master, provider):
        replica = FilterReplica("branch", cache_capacity=10)
        q = SearchRequest("", Scope.SUB, "(cn=P0)")
        assert replica.answer(q).status is AnswerStatus.MISS
        replica.observe_miss(q, master.search(q).entries)
        answer = replica.answer(q)
        assert answer.status is AnswerStatus.HIT
        assert answer.answered_by.startswith("cache:")

    def test_cached_results_may_be_stale(self, master, provider):
        """§7.4: cached user queries are not updated."""
        replica = FilterReplica("branch", cache_capacity=10)
        q = SearchRequest("", Scope.SUB, "(cn=P0)")
        replica.observe_miss(q, master.search(q).entries)
        master.modify("cn=P0,c=in,o=xyz", [Modification.replace("title", "new")])
        answer = replica.answer(q)
        assert answer.status is AnswerStatus.HIT
        assert answer.entries[0].first("title") is None  # stale by design

    def test_filter_count_includes_cache(self, master, provider):
        replica = FilterReplica("branch", cache_capacity=10)
        replica.add_filter(STORED, provider)
        replica.observe_miss(
            SearchRequest("", Scope.SUB, "(cn=P0)"), master.search(SearchRequest("", Scope.SUB, "(cn=P0)")).entries
        )
        assert replica.filter_count == 2


class TestSyncAndSizing:
    def test_sync_applies_updates(self, master, provider):
        replica = FilterReplica("branch")
        replica.add_filter(STORED, provider)
        master.modify("cn=P0,c=in,o=xyz", [Modification.replace("title", "X")])
        replica.sync(provider)
        answer = replica.answer(SearchRequest("", Scope.SUB, "(serialNumber=000200IN)"))
        assert answer.entries[0].first("title") == "X"

    def test_network_traffic_charged(self, master, provider):
        net = SimulatedNetwork()
        replica = FilterReplica("branch", network=net)
        replica.add_filter(STORED, provider)
        assert net.stats.sync_entry_pdus == 3

    def test_entry_count_unique_across_filters(self, master, provider):
        replica = FilterReplica("branch")
        replica.add_filter(STORED, provider)
        overlapping = SearchRequest("", Scope.SUB, "(serialNumber=00*IN)")
        replica.add_filter(overlapping, provider)
        assert replica.entry_count() == 6  # P0..P5, no double counting

    def test_size_bytes(self, master, provider):
        replica = FilterReplica("branch")
        replica.add_filter(STORED, provider)
        assert replica.size_bytes() > 0

    def test_repr(self, master, provider):
        replica = FilterReplica("branch")
        replica.add_filter(STORED, provider)
        assert "branch" in repr(replica)


class CutThenDrop(FaultPlan):
    """The first exchange (counted from construction) is cut *keep* of
    the way into its update stream; the next ``count`` lose their
    response; every other one is clean."""

    def __init__(self, keep: float, count: int):
        super().__init__(FaultSpec(), seed=0)
        self._keep = keep
        self._lost = range(1, 1 + count)
        self._seen = 0

    def next_exchange(self) -> ExchangeFaults:
        seen, self._seen = self._seen, self._seen + 1
        if seen == 0:
            return ExchangeFaults(truncate=True, truncate_keep=self._keep)
        return ExchangeFaults(drop_response=seen in self._lost)


class TestSyncOnAFaultyNetwork:
    FILTERS = [
        SearchRequest("", Scope.SUB, "(serialNumber=0002*IN)"),
        SearchRequest("", Scope.SUB, "(departmentNumber=2406)"),
        SearchRequest("", Scope.SUB, "(divisionNumber=24)"),
    ]

    def build(self, master, provider):
        net = FaultyNetwork()
        replica = FilterReplica("branch", network=net)
        for request in self.FILTERS:
            replica.add_filter(request, provider)
        return net, replica

    def test_a_round_that_gives_out_mid_way_returns_and_corrupts_nothing(
        self, master, provider
    ):
        """Regression: ``sync`` threw the transport error mid-round.

        The round's one exchange is cut inside the second filter's
        batch: the first filter's answer arrived whole, the second's
        safe prefix applies, the third is not reached; its retries lose
        the response until the link's breaker opens and ends the
        round."""
        net, replica = self.build(master, provider)
        first, second, third = (s.content for s in replica.stored_filters())
        master.modify("cn=P0,c=in,o=xyz", [Modification.replace("sn", "changed")])
        master.modify("cn=P1,c=in,o=xyz", [Modification.replace("sn", "changed")])
        master.delete("cn=P2,c=in,o=xyz")
        cookies = [c.cookie for c in (first, second, third)]
        held = dict(third.entries)

        net.plan = CutThenDrop(keep=0.6, count=HealthPolicy().breaker_threshold - 1)
        assert replica.sync(provider) is None
        assert first.matches_master(master) and first.cookie != cookies[0]  # whole
        assert second.cookie == cookies[1]  # cut: its cookie never arrived
        # …after the safe prefix: P2's delete (deletes travel first), not P0's modify
        assert not second.matches_master(master) and len(second) == 2
        assert dict(third.entries) == held  # never reached: as fresh as it was
        answer = replica.answer(self.FILTERS[2])
        assert answer.is_hit and not answer.degraded  # one failed round: not yet

        replica.sync(provider)  # the script is spent: a clean (probe) round
        assert all(s.content.matches_master(master) for s in replica.stored_filters())
        assert provider.active_session_count == 3  # every retry reused its session

    def test_a_hit_over_a_degraded_link_says_so_until_a_round_succeeds(
        self, master, provider
    ):
        net, replica = self.build(master, provider)
        frontend = ReplicaFrontend("branch", replica)
        net.partition(provider)
        for _ in range(RetryPolicy().degraded_after):
            replica.sync(provider)
        master.delete("cn=P0,c=in,o=xyz")  # what the stamp warns about

        answer = replica.answer(STORED)
        assert answer.is_hit and answer.degraded and len(answer.entries) == 3
        assert frontend.search(STORED).degraded

        net.heal_partition(provider)
        replica.sync(provider)
        answer = replica.answer(STORED)
        assert answer.is_hit and not answer.degraded and len(answer.entries) == 2
        assert not frontend.search(STORED).degraded
