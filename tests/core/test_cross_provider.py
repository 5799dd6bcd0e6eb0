"""Cross-compatibility: replicas work with every sync provider.

The provider interface (``handle(request, control) → SyncResponse``) is
shared by ReSync and all baselines, so both replica models must stay
consistent regardless of which mechanism feeds them — what lets E11
compare mechanisms on identical replicas.
"""

import pytest

from repro.core import FilterReplica, SubtreeReplica
from repro.ldap import Entry, Scope, SearchRequest
from repro.server import DirectoryServer, Modification, SimulatedNetwork
from repro.sync import ResyncProvider
from tests.oracles import (
    ChangelogProvider,
    FullReloadProvider,
    RetainResyncProvider,
    TombstoneProvider,
)

PROVIDERS = [
    ResyncProvider,
    RetainResyncProvider,
    ChangelogProvider,
    TombstoneProvider,
    FullReloadProvider,
]


def build_master() -> DirectoryServer:
    master = DirectoryServer("master")
    master.add_naming_context("o=xyz")
    master.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
    master.add(Entry("c=us,o=xyz", {"objectClass": ["country"], "c": "us"}))
    for i in range(5):
        master.add(
            Entry(
                f"cn=P{i},c=us,o=xyz",
                {
                    "objectClass": ["person"],
                    "cn": f"P{i}",
                    "sn": "T",
                    "serialNumber": f"00{i}A",
                },
            )
        )
    return master


def churn(master: DirectoryServer) -> None:
    master.modify("cn=P0,c=us,o=xyz", [Modification.replace("title", "x")])
    master.delete("cn=P1,c=us,o=xyz")
    master.add(
        Entry(
            "cn=P9,c=us,o=xyz",
            {"objectClass": ["person"], "cn": "P9", "sn": "T", "serialNumber": "009A"},
        )
    )
    master.modify_dn("cn=P2,c=us,o=xyz", new_rdn="cn=P2renamed")


@pytest.mark.parametrize("provider_cls", PROVIDERS, ids=lambda c: c.__name__)
class TestFilterReplicaWithEveryProvider:
    def test_sync_keeps_contents_consistent(self, provider_cls):
        master = build_master()
        provider = provider_cls(master)
        replica = FilterReplica("r", network=SimulatedNetwork())
        request = SearchRequest("o=xyz", Scope.SUB, "(sn=T)")
        replica.add_filter(request, provider)
        churn(master)
        replica.sync(provider)
        stored = replica.stored_filters()[0]
        assert stored.content.matches_master(master)

    def test_answers_reflect_synced_state(self, provider_cls):
        master = build_master()
        provider = provider_cls(master)
        replica = FilterReplica("r", network=SimulatedNetwork())
        request = SearchRequest("o=xyz", Scope.SUB, "(sn=T)")
        replica.add_filter(request, provider)
        churn(master)
        replica.sync(provider)
        answer = replica.answer(request)
        truth = master.search(request).entries
        assert {str(e.dn) for e in answer.entries} == {str(e.dn) for e in truth}


@pytest.mark.parametrize("provider_cls", PROVIDERS, ids=lambda c: c.__name__)
class TestSubtreeReplicaWithEveryProvider:
    def test_context_stays_consistent(self, provider_cls):
        master = build_master()
        provider = provider_cls(master)
        replica = SubtreeReplica("r", network=SimulatedNetwork())
        replica.add_context("c=us,o=xyz")
        replica.sync(provider)
        churn(master)
        replica.sync(provider)
        answer = replica.answer(SearchRequest("c=us,o=xyz", Scope.SUB, "(sn=T)"))
        truth = master.search(SearchRequest("c=us,o=xyz", Scope.SUB, "(sn=T)")).entries
        assert {str(e.dn) for e in answer.entries} == {str(e.dn) for e in truth}
