"""Settings no run varies are constants, not keywords.

Each value below had one setting across every workload, bench, soak,
CLI command and example, so it is fixed where it is used: passing it is
a ``TypeError``, and the names that carried it are gone.  The sketch
tier's sizes are ``repro.sync.ladder``'s constants; partitions and slow
nodes are windows opened by hand (``FaultyNetwork.partition`` /
``set_slow``), never drawn from a plan.

The same holds for whole mechanisms only tests turned on: rebuild
admission control, the byte cap on a session's history, union
answering, operational timestamps, a driver that does not feed its
replica's cache and a soak over a journal-less provider are gone with
their switches.  So are a content's second evaluation stack (its own
index and the size below which it was skipped; a content is an
``EntryStore``) and the store's walkers and root registry nothing
called (the suffix-as-root rule is ``DirectoryServer``'s).  The §5.2
comparison baselines no run of the system uses — changelog, tombstone,
full reload and the stateless retain provider, with their CSN cookies —
are references in ``tests/oracles``, no longer names of ``repro.sync``.
"""

import dataclasses

import pytest

import repro.server
import repro.server.indexes
import repro.sync
import repro.sync.consumer
import repro.sync.protocol
from repro.chaos import SoakConfig
from repro.core import ContainmentIndex, FilterReplica
from repro.ldap import DEFAULT_REGISTRY, Scope, SearchRequest
from repro.metrics import ReplicaDriver
from repro.obs import TraceCollector
from repro.server import (
    DirectoryServer,
    EntryStore,
    FaultPlan,
    FaultSpec,
    LdapClient,
    SimulatedNetwork,
)
from repro.server.indexes import AttributeIndexSet, SubstringIndex
from repro.sync import (
    DurabilityConfig,
    ResilientConsumer,
    ResyncProvider,
    RetryPolicy,
    SyncLink,
)
from repro.sync import ladder
from repro.sync.session import Session
from tests.oracles import ChangelogProvider

REQUEST = SearchRequest("o=xyz", Scope.SUB, "(cn=*)")
CN = DEFAULT_REGISTRY.get("cn")


def provider():
    master = DirectoryServer("M")
    master.add_naming_context("o=xyz")
    return ResyncProvider(master)


#: name → a call passing the removed keyword or field at the value
#: every run used.
REMOVED = {
    "SyncLink(reconcile_config=)": lambda: SyncLink(provider(), reconcile_config=None),
    "ResilientConsumer(reconcile_config=)": lambda: ResilientConsumer(
        REQUEST, provider(), reconcile_config=None
    ),
    "SketchTier(config)": lambda: ladder.SketchTier(None, None, 0, SimulatedNetwork().registry),
    "FaultSpec.partition": lambda: FaultSpec(partition=0.0),
    "FaultSpec.partition_length": lambda: FaultSpec(partition_length=2),
    "FaultSpec.slow": lambda: FaultSpec(slow=0.0),
    "FaultSpec.slow_latency_ms": lambda: FaultSpec(slow_latency_ms=50.0),
    "SubstringIndex(ngram=)": lambda: SubstringIndex(CN, ngram=3),
    "AttributeIndexSet(ngram=)": lambda: AttributeIndexSet(CN, {}, ngram=3),
    "ContainmentIndex(memo_capacity=)": lambda: ContainmentIndex(memo_capacity=65_536),
    "DirectoryServer(schema=)": lambda: DirectoryServer("M", schema=None),
    "ChangelogProvider(changelog=)": lambda: ChangelogProvider(
        DirectoryServer("M"), changelog=None
    ),
    "TraceCollector(keep_records=)": lambda: TraceCollector(keep_records=True),
    "SoakConfig.require_all_converge": lambda: SoakConfig(require_all_converge=True),
    "RetryPolicy.backoff_factor": lambda: RetryPolicy(backoff_factor=2.0),
    "LdapClient(max_hops=)": lambda: LdapClient(SimulatedNetwork(), max_hops=32),
    "DurabilityConfig.admission_burst": lambda: DurabilityConfig(admission_burst=4),
    "DurabilityConfig.admission_refill": lambda: DurabilityConfig(admission_refill=0.25),
    "DurabilityConfig.admission_retry_after_ms": lambda: DurabilityConfig(
        admission_retry_after_ms=50.0
    ),
    "DurabilityConfig.history_max_bytes": lambda: DurabilityConfig(history_max_bytes=4096),
    "FilterReplica(compose_unions=)": lambda: FilterReplica("r", compose_unions=False),
    "ReplicaDriver(feed_cache=)": lambda: ReplicaDriver(
        DirectoryServer("M"), FilterReplica("r"), feed_cache=True
    ),
    "SoakConfig.durable": lambda: SoakConfig(durable=True),
}


@pytest.mark.parametrize("call", list(REMOVED.values()), ids=list(REMOVED))
def test_a_removed_setting_is_a_type_error(call):
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize(
    "owner, name",
    [
        (repro.sync, "ReconcileConfig"),
        (FaultPlan, "next_partition"),
        (Session, "observe"),
        (repro.sync, "AdmissionController"),
        (repro.server, "ServerBusy"),
        (DirectoryServer("M"), "maintain_timestamps"),
        (repro.server.indexes, "ContentIndex"),
        (repro.sync.consumer, "INDEX_MIN_ENTRIES"),
        (EntryStore, "iter_scope"),
        (EntryStore, "roots"),
        (EntryStore, "subtree_dns"),
        (EntryStore, "register_root"),
        (repro.sync, "Changelog"),
        (repro.sync, "ChangelogRecord"),
        (repro.sync, "ChangelogProvider"),
        (repro.sync, "TombstoneStore"),
        (repro.sync, "TombstoneProvider"),
        (repro.sync, "FullReloadProvider"),
        (repro.sync, "RetainResyncProvider"),
        (repro.sync.protocol, "CsnCookieMixin"),
        (repro.sync.protocol.MultiPoll, "with_cookie"),
        (repro.sync, "baselines"),
    ],
    ids=[
        "repro.sync.ReconcileConfig",
        "FaultPlan.next_partition",
        "Session.observe",
        "repro.sync.AdmissionController",
        "repro.server.ServerBusy",
        "DirectoryServer.maintain_timestamps",
        "repro.server.indexes.ContentIndex",
        "repro.sync.consumer.INDEX_MIN_ENTRIES",
        "EntryStore.iter_scope",
        "EntryStore.roots",
        "EntryStore.subtree_dns",
        "EntryStore.register_root",
        "repro.sync.Changelog",
        "repro.sync.ChangelogRecord",
        "repro.sync.ChangelogProvider",
        "repro.sync.TombstoneStore",
        "repro.sync.TombstoneProvider",
        "repro.sync.FullReloadProvider",
        "repro.sync.RetainResyncProvider",
        "repro.sync.protocol.CsnCookieMixin",
        "repro.sync.protocol.MultiPoll.with_cookie",
        "repro.sync.baselines",
    ],
)
def test_a_removed_name_is_gone(owner, name):
    assert not hasattr(owner, name)


def test_durability_config_keeps_two_fields():
    assert [f.name for f in dataclasses.fields(DurabilityConfig)] == [
        "snapshot_interval",
        "history_max_entries",
    ]
