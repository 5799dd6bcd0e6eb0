"""Tests for the recent-user-query cache (§7.4)."""

import pytest

from repro.core import FilterReplica, RecentQueryCache, query_contained_in
from repro.ldap import Entry, Scope, SearchRequest
from repro.server import DirectoryServer


def q(filter_text: str) -> SearchRequest:
    return SearchRequest("", Scope.SUB, filter_text)


def person(name: str, **attrs) -> Entry:
    base = {"objectClass": ["person"], "cn": name, "sn": "T"}
    base.update(attrs)
    return Entry(f"cn={name},o=xyz", base)


class TestWindow:
    def test_insert_and_len(self):
        cache = RecentQueryCache(3)
        cache.insert(q("(cn=a)"), [person("a")])
        assert len(cache) == 1

    def test_fifo_eviction(self):
        cache = RecentQueryCache(2)
        for name in ("a", "b", "c"):
            cache.insert(q(f"(cn={name})"), [person(name)])
        stored = [str(r.filter) for r in cache.stored_queries()]
        assert stored == ["(cn=b)", "(cn=c)"]

    def test_reinsert_refreshes_position(self):
        cache = RecentQueryCache(2)
        cache.insert(q("(cn=a)"), [person("a")])
        cache.insert(q("(cn=b)"), [person("b")])
        cache.insert(q("(cn=a)"), [person("a")])  # refresh, not new slot
        cache.insert(q("(cn=c)"), [person("c")])
        stored = [str(r.filter) for r in cache.stored_queries()]
        assert stored == ["(cn=a)", "(cn=c)"]

    def test_zero_capacity_never_stores(self):
        cache = RecentQueryCache(0)
        cache.insert(q("(cn=a)"), [person("a")])
        assert len(cache) == 0
        assert cache.lookup(q("(cn=a)")) is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            RecentQueryCache(-1)

    def test_clear(self):
        cache = RecentQueryCache(2)
        cache.insert(q("(cn=a)"), [person("a")])
        cache.clear()
        assert len(cache) == 0


class TestLookup:
    def test_exact_hit(self):
        cache = RecentQueryCache(5)
        cache.insert(q("(cn=a)"), [person("a")])
        found = cache.lookup(q("(cn=a)"))
        assert found is not None
        entries, source = found
        assert [e.first("cn") for e in entries] == ["a"]

    def test_contained_hit(self):
        cache = RecentQueryCache(5)
        cache.insert(
            q("(serialNumber=0042*IN)"),
            [person("a", serialNumber="004205IN"), person("b", serialNumber="004299IN")],
        )
        found = cache.lookup(q("(serialNumber=004205IN)"))
        assert found is not None
        entries, _source = found
        assert [e.first("cn") for e in entries] == ["a"]

    def test_miss(self):
        cache = RecentQueryCache(5)
        cache.insert(q("(cn=a)"), [person("a")])
        assert cache.lookup(q("(cn=b)")) is None

    def test_attribute_prescreen_blocks_cross_attr(self):
        cache = RecentQueryCache(5)
        cache.insert(q("(mail=a@b.c)"), [person("a", mail="a@b.c")])
        assert cache.lookup(q("(serialNumber=1)")) is None

    def test_newest_consulted_first(self):
        cache = RecentQueryCache(5)
        cache.insert(q("(sn=*)"), [person("old")])
        cache.insert(q("(sn=T)"), [person("new")])
        _entries, source = cache.lookup(q("(sn=T)"))
        assert "(sn=T)" in source

    def test_hit_statistics(self):
        cache = RecentQueryCache(5)
        cache.insert(q("(cn=a)"), [person("a")])
        cache.lookup(q("(cn=a)"))
        cache.lookup(q("(cn=zz)"))
        assert cache.lookups == 2
        assert cache.hits == 1

    def test_projection_applied(self):
        cache = RecentQueryCache(5)
        cache.insert(q("(cn=a)"), [person("a", mail="a@x.com")])
        narrowed = SearchRequest("", Scope.SUB, "(cn=a)", ["cn"])
        entries, _ = cache.lookup(narrowed)
        assert not entries[0].has_attribute("mail")


class TestNoAttributePrescreen:
    """A cached query whose filter names an attribute the request's does
    not may still contain it: ``(sn=a) ⊆ (|(sn=a)(cn=b))`` by the Or-right
    rule (docs/ROUTING.md §3), so the window must answer it."""

    CACHED = SearchRequest("o=xyz", Scope.SUB, "(|(sn=a)(cn=b))")
    QUERY = SearchRequest("o=xyz", Scope.SUB, "(sn=a)")

    @pytest.fixture()
    def master(self) -> DirectoryServer:
        m = DirectoryServer("master")
        m.add_naming_context("o=xyz")
        m.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
        for name, sn in (("p0", "a"), ("b", "x"), ("p2", "a"), ("p3", "y")):
            m.add(Entry(f"cn={name},o=xyz", {"objectClass": ["person"], "cn": name, "sn": sn}))
        return m

    @staticmethod
    def _dns(entries):
        return sorted(str(e.dn) for e in entries)

    def test_window_answers_a_disjunct_as_the_master(self, master):
        assert query_contained_in(self.QUERY, self.CACHED)
        cache = RecentQueryCache(5)
        cache.insert(self.CACHED, master.search(self.CACHED).entries)
        found = cache.lookup(self.QUERY)
        assert found is not None
        entries, source = found
        assert source == str(self.CACHED)
        expected = self._dns(master.search(self.QUERY).entries)
        assert self._dns(entries) == expected == ["cn=p0,o=xyz", "cn=p2,o=xyz"]

    def test_replica_answers_from_the_window_as_the_master(self, master):
        replica = FilterReplica("r", cache_capacity=5)
        replica.observe_miss(self.CACHED, master.search(self.CACHED).entries)
        answer = replica.answer(self.QUERY)
        assert answer.answered_by == f"cache:{self.CACHED}"
        assert self._dns(answer.entries) == self._dns(master.search(self.QUERY).entries)


class TestEntryCount:
    def test_unique_entries_counted(self):
        cache = RecentQueryCache(5)
        shared = person("shared")
        cache.insert(q("(cn=shared)"), [shared])
        cache.insert(q("(sn=T)"), [shared, person("other")])
        assert len(cache.dns()) == 2

    def test_cached_entries_independent_of_source(self):
        cache = RecentQueryCache(5)
        entry = person("a")
        cache.insert(q("(cn=a)"), [entry])
        entry.put("cn", "mutated")
        entries, _ = cache.lookup(q("(cn=a)"))
        assert entries[0].first("cn") == "a"
