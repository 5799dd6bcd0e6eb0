"""Tests for the filter replica — the paper's proposed model."""

import pytest

from repro.core import AnswerStatus, FilterReplica, TemplateRegistry
from repro.ldap import Entry, Scope, SearchRequest
from repro.server import DirectoryServer, Modification, SimulatedNetwork
from repro.sync import ResyncProvider


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
    def test_non_member_query_misses_immediately(self, master, provider):
        templates = TemplateRegistry.from_strings("(serialnumber=_)", "(serialnumber=_*_)")
        replica = FilterReplica("branch", templates=templates)
        replica.add_filter(STORED, provider)
        before = replica.containment_checks
        q = SearchRequest("", Scope.SUB, "(cn=P0)")
        assert replica.answer(q).status is AnswerStatus.MISS
        assert replica.containment_checks == before  # pruned, no checks

    def test_member_query_answered(self, master, provider):
        templates = TemplateRegistry.from_strings("(serialnumber=_)", "(serialnumber=_*_)")
        replica = FilterReplica("branch", templates=templates)
        replica.add_filter(STORED, provider)
        q = SearchRequest("", Scope.SUB, "(serialNumber=000200IN)")
        assert replica.answer(q).status is AnswerStatus.HIT

    def test_incompatible_templates_pruned(self, master, provider):
        templates = TemplateRegistry.from_strings("(serialnumber=_)", "(mail=_)")
        replica = FilterReplica("branch", templates=templates)
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

    def test_no_negative_cache_with_template_registry(self):
        """Registries are mutable: a template registered after a recorded
        miss could change the prune decision, so no misses are recorded."""
        registry = TemplateRegistry.from_strings("(sn=_)")
        replica = FilterReplica("r", templates=registry)
        assert replica._negative is None
        query = SearchRequest("o=xyz", Scope.SUB, "(sn=ab)")
        assert not replica.answer(query).is_hit
        assert not replica.answer(query).is_hit
        replica.sync_amq_metrics()
        assert not any(k.startswith("core.qc.negcache") for k in replica.metrics.to_dict())


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
