"""Tests for the subtree replication baseline (§3.4.1)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import AnswerStatus, ReplicaFrontend, SubtreeReplica
from repro.ldap import DN, Entry, Scope, SearchRequest
from repro.server import DirectoryServer, FaultyNetwork
from repro.sync import ResyncProvider, RetryPolicy
from tests.oracles import is_contained


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
    for cc in ("us", "in"):
        m.add(Entry(f"c={cc},o=xyz", {"objectClass": ["country"], "c": cc}))
    m.add(person("cn=Alice,c=us,o=xyz", departmentNumber="42"))
    m.add(person("cn=Bob,c=us,o=xyz"))
    m.add(person("cn=Chandra,c=in,o=xyz"))
    return m


@pytest.fixture()
def replica(master) -> SubtreeReplica:
    r = SubtreeReplica("branch")
    r.add_context("c=us,o=xyz")
    r.sync(ResyncProvider(master))
    return r


def answerable(replica: SubtreeReplica, base: str) -> bool:
    """The paper's isContained(b, C) over *replica*'s contexts, checked
    against the rule the replica answers by."""
    dn = DN.parse(base)
    expected = is_contained(replica.contexts, dn)
    assert (replica._context_for(dn) is not None) == expected
    return expected


class TestIsContained:
    """Transcription checks of the paper's isContained algorithm, and of
    the replica's own statement of it (``_context_for``)."""

    def test_base_equals_suffix(self, replica):
        assert answerable(replica, "c=us,o=xyz")

    def test_base_inside_context(self, replica):
        assert answerable(replica, "cn=Alice,c=us,o=xyz")

    def test_base_outside(self, replica):
        assert not answerable(replica, "c=in,o=xyz")
        assert not answerable(replica, "o=xyz")

    def test_base_below_referral_excluded(self):
        r = SubtreeReplica("branch")
        r.add_context(
            "c=us,o=xyz", referrals=[("ou=research,c=us,o=xyz", "ldap://hostB")]
        )
        assert not answerable(r, "cn=x,ou=research,c=us,o=xyz")
        assert not answerable(r, "ou=research,c=us,o=xyz")
        assert answerable(r, "cn=y,c=us,o=xyz")

    def test_multiple_contexts(self):
        r = SubtreeReplica("branch")
        r.add_context("c=us,o=xyz")
        r.add_context("c=in,o=xyz")
        assert answerable(r, "cn=x,c=in,o=xyz")


# A small namespace: every DN is a path of up to four RDNs under o=xyz.
_RDNS = ["c=us", "c=in", "ou=a", "ou=b", "cn=x"]
_paths = st.lists(st.sampled_from(_RDNS), max_size=4)


def _dn(path) -> str:
    return ",".join(list(reversed(path)) + ["o=xyz"])


# A context: a suffix path, and referral objects strictly below it.
_below = st.lists(st.sampled_from(_RDNS), min_size=1, max_size=2)
_contexts = st.tuples(_paths, st.lists(_below, max_size=3))


@settings(max_examples=200, deadline=None)
@given(st.lists(_contexts, max_size=3), _paths)
def test_context_for_is_is_contained(layout, base_path):
    """Over random suffix and referral layouts — nested and overlapping
    contexts, referrals at any depth below their suffix — the context
    the replica answers from exists exactly when isContained(b, C) says
    the base can be answered."""
    r = SubtreeReplica("branch")
    for suffix, below in layout:
        referrals = [(_dn(suffix + rel), "ldap://sub") for rel in below]
        r.add_context(_dn(suffix), referrals=referrals)
    answerable(r, _dn(base_path))


class TestAnswer:
    def test_hit_inside_context(self, replica):
        answer = replica.answer(SearchRequest("c=us,o=xyz", Scope.SUB, "(sn=T)"))
        assert answer.status is AnswerStatus.HIT
        assert len(answer.entries) == 2

    def test_filter_applied_locally(self, replica):
        answer = replica.answer(
            SearchRequest("c=us,o=xyz", Scope.SUB, "(departmentNumber=42)")
        )
        assert [e.first("cn") for e in answer.entries] == ["Alice"]

    def test_miss_outside_context(self, replica):
        answer = replica.answer(SearchRequest("c=in,o=xyz", Scope.SUB, "(sn=T)"))
        assert answer.status is AnswerStatus.MISS
        assert answer.referrals[0].url == "ldap://master"

    def test_root_based_query_always_misses(self, replica):
        """§3.1.1: null-based queries cannot be answered by subtree
        replicas."""
        answer = replica.answer(SearchRequest("", Scope.SUB, "(sn=T)"))
        assert answer.status is AnswerStatus.MISS

    def test_partial_when_referral_in_region(self, master):
        """§3.1.3: partially answered queries do not count as hits."""
        replica = SubtreeReplica("branch")
        replica.add_context(
            "c=us,o=xyz", referrals=[("ou=research,c=us,o=xyz", "ldap://hostB")]
        )
        replica.load_directly(
            "c=us,o=xyz",
            [
                person("cn=Alice,c=us,o=xyz"),
                person("cn=Bob,c=us,o=xyz"),
            ],
        )
        answer = replica.answer(SearchRequest("c=us,o=xyz", Scope.SUB, "(sn=T)"))
        assert answer.status is AnswerStatus.PARTIAL
        assert answer.referrals[0].url == "ldap://hostB"

    def test_scope_one_no_referral_is_hit(self, master):
        replica = SubtreeReplica("branch")
        replica.add_context(
            "c=us,o=xyz",
            referrals=[("cn=deep,cn=Alice,c=us,o=xyz", "ldap://hostB")],
        )
        replica.load_directly("c=us,o=xyz", [person("cn=Alice,c=us,o=xyz")])
        answer = replica.answer(SearchRequest("c=us,o=xyz", Scope.ONE, "(sn=T)"))
        assert answer.status is AnswerStatus.HIT

    def test_base_entry_missing_locally(self, master):
        replica = SubtreeReplica("branch")
        replica.add_context("c=us,o=xyz")
        replica.load_directly("c=us,o=xyz", [person("cn=Alice,c=us,o=xyz")])
        answer = replica.answer(
            SearchRequest("cn=Ghost,c=us,o=xyz", Scope.BASE, "(sn=T)")
        )
        assert answer.status is AnswerStatus.MISS

    def test_stats_recorded(self, replica):
        replica.answer(SearchRequest("c=us,o=xyz", Scope.SUB, "(sn=T)"))
        replica.answer(SearchRequest("c=in,o=xyz", Scope.SUB, "(sn=T)"))
        assert replica.stats.queries == 2
        assert replica.stats.hits == 1
        assert replica.stats.misses == 1
        assert replica.stats.hit_ratio == 0.5


class TestSyncAndSizing:
    def test_sync_loads_subtree(self, master):
        replica = SubtreeReplica("branch")
        replica.add_context("c=us,o=xyz")
        replica.sync(ResyncProvider(master))
        assert replica.entry_count() == 3  # country entry + 2 people

    def test_sync_tracks_updates(self, master):
        provider = ResyncProvider(master)
        replica = SubtreeReplica("branch")
        replica.add_context("c=us,o=xyz")
        replica.sync(provider)
        master.add(person("cn=Dawn,c=us,o=xyz"))
        master.delete("cn=Bob,c=us,o=xyz")
        replica.sync(provider)
        answer = replica.answer(SearchRequest("c=us,o=xyz", Scope.SUB, "(sn=T)"))
        assert {e.first("cn") for e in answer.entries} == {"Alice", "Dawn"}

    def test_a_hit_over_a_degraded_link_says_so_until_a_round_succeeds(self, master):
        provider = ResyncProvider(master)
        net = FaultyNetwork()
        replica = SubtreeReplica("branch", network=net)
        replica.add_context("c=us,o=xyz")
        replica.sync(provider)
        frontend = ReplicaFrontend("branch", replica)
        request = SearchRequest("c=us,o=xyz", Scope.SUB, "(sn=T)")
        assert not replica.answer(request).degraded

        net.partition(provider)
        for _ in range(RetryPolicy().degraded_after):
            replica.sync(provider)
        master.delete("cn=Bob,c=us,o=xyz")  # what the stamp warns about
        answer = replica.answer(request)
        assert answer.is_hit and answer.degraded and len(answer.entries) == 2
        assert frontend.search(request).degraded

        net.heal_partition(provider)
        replica.sync(provider)
        answer = replica.answer(request)
        assert answer.is_hit and not answer.degraded and len(answer.entries) == 1
        assert not frontend.search(request).degraded

    def test_size_bytes_counts_unique(self, replica):
        assert replica.size_bytes() > 0

    def test_overlapping_contexts_counted_once(self, master):
        replica = SubtreeReplica("branch")
        replica.add_context("c=us,o=xyz")
        replica.add_context("o=xyz")
        provider = ResyncProvider(master)
        replica.sync(provider)
        assert replica.entry_count() == 6  # all entries, not double-counted

    def test_repr(self, replica):
        assert "branch" in repr(replica)
