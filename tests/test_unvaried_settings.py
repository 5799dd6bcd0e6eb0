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

Nor does ``src/`` keep what no run reaches: range and OR planning (a
range or an OR plans a scan), the server-side degraded mode a link
flipped (a degraded read is stamped by the answering content's link),
LDAP URL parsing, the interval-diff exporter and the copying PDU
constructors (``tests.oracles.copied_pdu``).  ``repro.ldap.ber`` keeps
only the length arithmetic the persist wire charges: the search and
filter codecs are gone, and every encoder (the PDU's, the frame's, the
sketch's ``encoded_bytes``) and decoder the charged sizes are checked
against live in ``tests.oracles``.  A batch frame always carries message
id 1, so its size takes no ``message_id``.  A PDU has no measured size
beside the two it is charged, and a sketch request no size at all.

The production replica has one answer path and one window: no template
registry (§3.4.2's admission and pruning are the reference scan's,
``tests.oracles.LinearFilterReplica(templates=)``), no window policy (the
LRU arm is ``LinearRecentQueryCache(policy=)``), no routing helper only
tests called, and no second statement of §3.4.1's ``isContained``
(``tests.oracles.is_contained``).  Each of those cases fails on the tree
that still had the setting or the name.
"""

import dataclasses

import pytest

import repro.ldap
import repro.ldap.ber
import repro.obs
import repro.server
import repro.server.indexes
import repro.sync
import repro.sync.consumer
import repro.sync.protocol
from repro.chaos import SoakConfig
import repro.core
import repro.core.routing
from repro.core import (
    CachedQuery,
    ContainmentIndex,
    FilterReplica,
    RecentQueryCache,
    StoredFilter,
    SubtreeReplica,
    TemplateRegistry,
)
from repro.core.keys import KeyTable
from repro.ldap import DEFAULT_REGISTRY, DN, Scope, SearchRequest
from repro.metrics import ReplicaDriver
from repro.obs import MetricsRegistry, TraceCollector
from repro.server import (
    DirectoryServer,
    EntryStore,
    FaultPlan,
    FaultSpec,
    LdapClient,
    SimulatedNetwork,
)
from repro.server.indexes import AttributeIndexSet, SubstringIndex
from repro.server.planner import SearchPlanner
from repro.sync import (
    DeliveryQueue,
    DurabilityConfig,
    EntrySketch,
    ReconcileRequest,
    ResilientConsumer,
    ResyncProvider,
    RetryPolicy,
    SyncLink,
    SyncUpdate,
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
    "SyncLink(replica_server=)": lambda: SyncLink(provider(), replica_server=None),
    "encoded_sync_batch_size(message_id=)": lambda: repro.ldap.ber.encoded_sync_batch_size(
        [], message_id=1
    ),
    "ResilientConsumer(replica_server=)": lambda: ResilientConsumer(
        REQUEST, provider(), replica_server=None
    ),
    "FilterReplica(templates=)": lambda: FilterReplica("r", templates=TemplateRegistry()),
    "FilterReplica(cache_policy=)": lambda: FilterReplica("r", cache_policy="fifo"),
    "RecentQueryCache(policy=)": lambda: RecentQueryCache(2, policy="fifo"),
    "StoredFilter.key": lambda: StoredFilter(REQUEST, None, key="(cn=_)"),
}


@pytest.mark.parametrize("call", list(REMOVED.values()), ids=list(REMOVED))
def test_a_removed_setting_is_a_type_error(call):
    with pytest.raises(TypeError):
        call()


#: What left ``repro.ldap.ber``: deleted, or moved to ``tests.oracles``.
BER_GONE = (
    "encode_filter",
    "decode_filter",
    "FILTER_AND",
    "FILTER_PRESENT",
    "encode_search_request",
    "decode_search_request",
    "APP_SEARCH_REQUEST",
    "encode_search_result_entry",
    "decode_search_result_entry",
    "APP_SEARCH_RESULT_ENTRY",
    "encode_boolean",
    "encoded_entry_size",
    "encoded_dn_size",
    "decode_tlv",
    "iter_tlvs",
    "decode_integer",
    "_decode_attributes",
    "decode_sync_update",
    "encode_sync_batch",
    "decode_sync_batch",
    "APP_SYNC_BATCH",
    "BerError",
    "_encode_length",
    "_tlv_size",
    "encode_tlv",
    "encode_integer",
    "encode_octet_string",
    "encode_sequence",
    "_encode_attributes",
    "encode_sync_update",
    "_SYNC_ACTION_CODES",
    "TAG_SEQUENCE",
)


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
        (repro.ldap, "LdapUrl"),
        (repro.ldap, "LdapUrlParseError"),
        (repro.ldap, "url"),
        (repro.server.indexes, "OrderingIndex"),
        (AttributeIndexSet, "ordering"),
        (AttributeIndexSet, "built"),
        (SearchPlanner, "_plan_or"),
        (DN, "order_key"),
        (repro.obs, "snapshot_diff"),
        (MetricsRegistry, "snapshot"),
        (DirectoryServer, "enter_degraded"),
        (DirectoryServer, "exit_degraded"),
        (DirectoryServer, "degraded"),
        (SyncUpdate, "add"),
        (SyncUpdate, "modify"),
        (DeliveryQueue, "offer"),
        (EntrySketch, "insert"),
        (SyncUpdate, "measured_bytes"),
        (ReconcileRequest, "pdu_bytes"),
        (EntrySketch, "encoded_bytes"),
        (DirectoryServer, "_evaluate_all_contexts"),
        (DirectoryServer, "_iter_region"),
        (DirectoryServer, "_walk_region"),
        (DeliveryQueue, "_on_ack"),
        (CachedQuery, "filter_attrs"),
        (FilterReplica("r"), "templates"),
        (FilterReplica, "_admitted"),
        (RecentQueryCache(), "policy"),
        (RecentQueryCache, "POLICIES"),
        (ContainmentIndex, "touch"),
        (repro.core, "guard_atoms"),
        (repro.core, "probe_atoms"),
        (repro.core.routing, "guard_atoms"),
        (repro.core.routing, "probe_atoms"),
        (SubtreeReplica, "is_contained"),
        (KeyTable, "__len__"),
    ]
    + [(repro.ldap.ber, name) for name in BER_GONE],
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
        "repro.ldap.LdapUrl",
        "repro.ldap.LdapUrlParseError",
        "repro.ldap.url",
        "repro.server.indexes.OrderingIndex",
        "AttributeIndexSet.ordering",
        "AttributeIndexSet.built",
        "SearchPlanner._plan_or",
        "DN.order_key",
        "repro.obs.snapshot_diff",
        "MetricsRegistry.snapshot",
        "DirectoryServer.enter_degraded",
        "DirectoryServer.exit_degraded",
        "DirectoryServer.degraded",
        "SyncUpdate.add",
        "SyncUpdate.modify",
        "DeliveryQueue.offer",
        "EntrySketch.insert",
        "SyncUpdate.measured_bytes",
        "ReconcileRequest.pdu_bytes",
        "EntrySketch.encoded_bytes",
        "DirectoryServer._evaluate_all_contexts",
        "DirectoryServer._iter_region",
        "DirectoryServer._walk_region",
        "DeliveryQueue._on_ack",
        "CachedQuery.filter_attrs",
        "FilterReplica.templates",
        "FilterReplica._admitted",
        "RecentQueryCache.policy",
        "RecentQueryCache.POLICIES",
        "ContainmentIndex.touch",
        "repro.core.guard_atoms",
        "repro.core.probe_atoms",
        "repro.core.routing.guard_atoms",
        "repro.core.routing.probe_atoms",
        "SubtreeReplica.is_contained",
        "KeyTable.__len__",
    ]
    + [f"repro.ldap.ber.{name}" for name in BER_GONE],
)
def test_a_removed_name_is_gone(owner, name):
    assert not hasattr(owner, name)


def test_durability_config_keeps_two_fields():
    assert [f.name for f in dataclasses.fields(DurabilityConfig)] == [
        "snapshot_interval",
        "history_max_entries",
    ]
