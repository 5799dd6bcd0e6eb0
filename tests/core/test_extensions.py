"""Tests for beyond-the-paper extensions: the LRU window E16 measures,
which is the reference window's (``tests.oracles``), beside the
production FIFO; and the paper's single-containment rule, which no union
answering extends."""

import pytest

from repro.core import FilterReplica, RecentQueryCache
from repro.ldap import Entry, Scope, SearchRequest
from repro.server import DirectoryServer
from repro.sync import ResyncProvider
from tests.oracles import LinearFilterReplica, LinearRecentQueryCache


@pytest.fixture()
def master() -> DirectoryServer:
    m = DirectoryServer("master")
    m.add_naming_context("o=xyz")
    m.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
    for i in range(6):
        m.add(
            Entry(
                f"cn=P{i},o=xyz",
                {
                    "objectClass": ["person"],
                    "cn": f"P{i}",
                    "sn": "T",
                    "departmentNumber": str(i % 3),
                },
            )
        )
    return m


def dept(n: int) -> SearchRequest:
    return SearchRequest("o=xyz", Scope.SUB, f"(departmentNumber={n})")


def test_a_disjunction_over_two_filters_misses(master):
    """The single-containment rule: a query is answered by one stored
    filter that contains it, never by a union of several."""
    provider = ResyncProvider(master)
    replica = FilterReplica("r")
    replica.add_filter(dept(0), provider)
    replica.add_filter(dept(1), provider)
    query = SearchRequest(
        "o=xyz", Scope.SUB, "(|(departmentNumber=0)(departmentNumber=1))"
    )
    assert not replica.answer(query).is_hit


def test_a_disjunction_one_filter_contains_is_a_hit(master):
    """A disjunction inside one stored filter is answered by that
    filter, with exactly the master's entries."""
    provider = ResyncProvider(master)
    replica = FilterReplica("r")
    wide = SearchRequest("o=xyz", Scope.SUB, "(departmentNumber=*)")
    replica.add_filter(wide, provider)
    query = SearchRequest(
        "o=xyz", Scope.SUB, "(|(departmentNumber=0)(departmentNumber=1))"
    )
    answer = replica.answer(query)
    assert answer.is_hit
    assert answer.answered_by == str(wide)
    truth = master.search(query).entries
    assert sorted(str(e.dn) for e in answer.entries) == sorted(str(e.dn) for e in truth)


class TestCachePolicies:
    def person(self, name: str) -> Entry:
        return Entry(
            f"cn={name},o=xyz", {"objectClass": ["person"], "cn": name, "sn": "x"}
        )

    def q(self, name: str) -> SearchRequest:
        return SearchRequest("", Scope.SUB, f"(cn={name})")

    def test_lru_keeps_hot_entries(self):
        cache = LinearRecentQueryCache(2, policy="lru")
        cache.insert(self.q("hot"), [self.person("hot")])
        cache.insert(self.q("cold"), [self.person("cold")])
        assert cache.lookup(self.q("hot")) is not None  # refreshes 'hot'
        cache.insert(self.q("new"), [self.person("new")])  # evicts 'cold'
        assert cache.lookup(self.q("hot")) is not None
        assert cache.lookup(self.q("cold")) is None

    def test_fifo_evicts_by_arrival(self):
        cache = RecentQueryCache(2)  # the production window: FIFO, no setting
        cache.insert(self.q("hot"), [self.person("hot")])
        cache.insert(self.q("cold"), [self.person("cold")])
        assert cache.lookup(self.q("hot")) is not None  # does NOT refresh
        cache.insert(self.q("new"), [self.person("new")])  # evicts 'hot'
        assert cache.lookup(self.q("hot")) is None
        assert cache.lookup(self.q("cold")) is not None

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            LinearRecentQueryCache(2, policy="random")

    def test_replica_passes_policy_through(self):
        replica = LinearFilterReplica("r", cache_capacity=5, cache_policy="lru")
        assert isinstance(replica.cache, LinearRecentQueryCache)
        assert (replica.cache.capacity, replica.cache.policy) == (5, "lru")
