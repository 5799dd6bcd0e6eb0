"""End-to-end integration: the §7 case study at test scale.

One test spans the whole stack — directory generation, workload, a
filter replica with generalized filters + location tree + query cache,
ReSync consistency under a live update stream, and the experiment
driver — and checks the paper's qualitative claims all at once.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos import ReferenceModel
from repro.core import FilterReplica, SubtreeReplica
from repro.ldap import (
    And,
    Entry,
    Equality,
    GreaterOrEqual,
    Not,
    Or,
    Present,
    Scope,
    SearchRequest,
    Substring,
)
from repro.metrics import ReplicaDriver
from repro.server import (
    DirectoryServer,
    LdapError,
    Modification,
    ModType,
    SimulatedNetwork,
)
from repro.sync import (
    MemoryJournal,
    MemorySnapshotStore,
    ResilientConsumer,
    ResyncProvider,
)
from repro.workload import (
    QueryType,
    WorkloadConfig,
    WorkloadGenerator,
    generate_directory,
    DirectoryConfig,
)
from repro.workload.updates import UpdateGenerator


@pytest.fixture(scope="module")
def scenario():
    directory = generate_directory(
        DirectoryConfig(employees=1500, locations=40, seed=123)
    )
    trace = WorkloadGenerator(directory, WorkloadConfig(seed=5)).generate(
        3000, days=2
    )
    return directory, trace


def fresh_master(directory) -> DirectoryServer:
    master = DirectoryServer("master")
    master.add_naming_context(directory.suffix)
    master.load(directory.entries)
    return master


def hot_blocks(trace, k):
    counts = {}
    for record in trace.day(1).of_type(QueryType.SERIAL):
        value = str(record.request.filter)[len("(serialNumber=") : -1]
        counts[(value[:4], value[6:])] = counts.get((value[:4], value[6:]), 0) + 1
    ranked = sorted(counts, key=counts.get, reverse=True)
    return ranked[:k]


class TestCaseStudy:
    def test_filter_replica_beats_subtree_on_faithful_workload(self, scenario):
        directory, trace = scenario
        day2 = trace.day(2)

        # Filter replica: hot blocks + location tree + cache.
        master = fresh_master(directory)
        provider = ResyncProvider(master)
        replica = FilterReplica(
            "branch", network=SimulatedNetwork(), cache_capacity=50
        )
        for block, cc in hot_blocks(trace, 15):
            replica.add_filter(
                SearchRequest("", Scope.SUB, f"(serialNumber={block}*{cc})"),
                provider,
            )
        replica.add_filter(
            SearchRequest("", Scope.SUB, "(objectClass=location)"), provider
        )
        filter_result = ReplicaDriver(master, replica, provider=provider).run(day2)

        # Subtree replica answering the same faithful root-based trace.
        master = fresh_master(directory)
        provider = ResyncProvider(master)
        subtree = SubtreeReplica("branch", network=SimulatedNetwork())
        for cc in directory.geography_countries("AP"):
            subtree.add_context(f"c={cc},o=xyz")
        subtree.sync(provider)
        subtree_result = ReplicaDriver(master, subtree, provider=provider).run(day2)

        # §3.1.1: root-based queries cannot be answered by subtrees.
        assert subtree_result.hits == 0
        assert filter_result.hit_ratio > 0.4
        # §7.2(c): the replicated location tree answers everything.
        assert filter_result.hit_ratio_by_type["location"] == 1.0
        # Replica stays small.
        assert filter_result.replica_entries < 0.5 * len(directory.entries)

    def test_consistency_under_live_updates(self, scenario):
        directory, trace = scenario
        master = fresh_master(directory)
        provider = ResyncProvider(master)
        replica = FilterReplica("branch", network=SimulatedNetwork())
        stored = [
            SearchRequest("", Scope.SUB, f"(serialNumber={b}*{cc})")
            for b, cc in hot_blocks(trace, 10)
        ]
        for request in stored:
            replica.add_filter(request, provider)

        updates = UpdateGenerator(directory, master)
        for _round in range(5):
            updates.apply(200)
            replica.sync(provider)

        # After the final sync every stored filter's content equals the
        # master's ground truth (the §5 convergence guarantee).
        for stored_filter in replica.stored_filters():
            assert stored_filter.content.matches_master(master)

    def test_hits_return_master_identical_entries(self, scenario):
        """Answers served by the replica must equal the master's, up to
        the staleness window of the last sync (here: fully synced)."""
        directory, trace = scenario
        master = fresh_master(directory)
        provider = ResyncProvider(master)
        replica = FilterReplica("branch", network=SimulatedNetwork())
        for block, cc in hot_blocks(trace, 10):
            replica.add_filter(
                SearchRequest("", Scope.SUB, f"(serialNumber={block}*{cc})"),
                provider,
            )
        checked = 0
        for record in trace.day(2).of_type(QueryType.SERIAL)[:300]:
            answer = replica.answer(record.request)
            if not answer.is_hit:
                continue
            truth = master.search(record.request).entries
            assert {str(e.dn) for e in answer.entries} == {
                str(e.dn) for e in truth
            }
            checked += 1
        assert checked > 20, "the scenario must produce real hits to compare"


# ----------------------------------------------------------------------
# attribute identity, whole stack: spelling changes no answer anywhere
# ----------------------------------------------------------------------
# Five attributes, each under every kind of spelling (canonical, alias,
# another case; one unregistered name), drawn independently wherever a
# name is written: stored entries, modifications, filters, requested
# attributes, the new RDN of a rename.
_SPELLINGS = [
    ["sn", "SN", "surname", "SurName"],
    ["cn", "commonName", "CN"],
    ["l", "localityName", "location"],
    ["age", "Age"],
    ["x-extra", "X-Extra"],
]
_spelled = st.sampled_from(_SPELLINGS).flatmap(st.sampled_from)
_value = st.sampled_from(["aa", "AA ", "ab", "b", "7", "007", "x7"])
_values = st.lists(_value, min_size=1, max_size=2)
_name = st.sampled_from(["e0", "e1", "e2", "e3"])
_rdn = st.tuples(st.sampled_from(["cn", "commonName"]), _name).map("=".join)

_alias_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _rdn, st.dictionaries(_spelled, _values, max_size=4)),
        st.tuples(
            st.just("modify"),
            _rdn,
            st.builds(
                Modification,
                st.sampled_from(ModType),
                _spelled,
                _values.map(tuple),
            ),
        ),
        st.tuples(st.just("modify_dn"), _rdn, _rdn),
    ),
    max_size=6,
)
_alias_leaves = st.one_of(
    st.builds(Equality, _spelled, _value),
    st.builds(GreaterOrEqual, _spelled, _value),
    st.builds(Present, _spelled),
    st.builds(lambda a, v: Substring(a, initial=v), _spelled, _value),
)
_alias_filters = st.one_of(
    _alias_leaves,
    st.lists(_alias_leaves, min_size=2, max_size=3).map(lambda cs: And(tuple(cs))),
    st.lists(_alias_leaves, min_size=2, max_size=3).map(lambda cs: Or(tuple(cs))),
    st.tuples(_alias_leaves, _alias_leaves).map(lambda lr: And((lr[0], Not(lr[1])))),
)
_alias_queries = st.builds(
    SearchRequest,
    st.just("o=xyz"),
    st.just(Scope.SUB),
    _alias_filters,
    st.one_of(st.none(), st.lists(_spelled, min_size=1, max_size=2)),
)


def _apply_alias_op(master: DirectoryServer, op) -> None:
    kind, rdn, arg = op
    try:
        if kind == "add":
            master.add(Entry(f"{rdn},o=xyz", {"objectClass": ["person"], **arg}))
        elif kind == "modify":
            master.modify(f"{rdn},o=xyz", [arg])
        else:
            master.modify_dn(f"{rdn},o=xyz", new_rdn=arg)
    except LdapError:
        pass  # no such entry / already there: the draw is a no-op


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.lists(_alias_ops, min_size=4, max_size=4),
    st.lists(_alias_queries, min_size=1, max_size=5),
)
def test_spelling_changes_no_answer_through_every_recovery_path(phases, queries):
    """After every step — live updates, a poll, a provider restart
    recovered from its journal, a consumer restarted from its snapshot,
    a dead cookie reconciled by sketch — the replica's evaluation, the
    master's search and the reference model's content agree on every
    query, however entries, modifications and filters spell attributes."""
    master = DirectoryServer("master")
    master.add_naming_context("o=xyz")
    master.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
    for i in range(40):  # warm: the dead cookie reconciles by sketch, not by reload
        master.add(Entry(f"cn=f{i},o=xyz", {"objectClass": ["person"], "cn": f"f{i}"}))
    provider = ResyncProvider(master, journal=MemoryJournal())
    everything = SearchRequest("o=xyz", Scope.SUB, "(objectClass=*)")
    net, snapshots = SimulatedNetwork(), MemorySnapshotStore()

    def by_dn(entries):
        return {str(e.dn): e for e in entries}  # Entry == is semantic

    def check(consumer):
        model = ReferenceModel.of(master)
        assert model.holds(consumer.content)
        for q in queries:
            truth = model.content(q)
            assert by_dn(master.search(q).entries) == truth, str(q)
            assert by_dn(consumer.content.evaluate(q)) == truth, str(q)

    def drive(consumer, ops):
        for op in ops:
            _apply_alias_op(master, op)
        consumer.sync_once()
        check(consumer)

    live, journaled, snapshotted, sketched = phases
    consumer = ResilientConsumer(everything, provider, network=net, snapshot_store=snapshots)
    drive(consumer, live)

    for op in journaled:  # committed, journaled, not yet polled
        _apply_alias_op(master, op)
    provider.restart()
    provider.recover()
    drive(consumer, [])

    consumer = ResilientConsumer(everything, provider, network=net, snapshot_store=snapshots)
    assert consumer.warm_started
    check(consumer)  # the restored content, before any exchange
    drive(consumer, snapshotted)

    provider.invalidate_cookie(consumer.content.cookie)
    drive(consumer, sketched)
    assert net.registry.counter("sync.reconcile.attempts").value >= 1
    assert net.registry.counter("sync.resilient.reloads").value == 0
