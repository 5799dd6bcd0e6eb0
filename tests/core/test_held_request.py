"""A query that is the held request is answered from what is held.

ReSync keeps a content equal to the master's answer to its request
(§5), and the recent-query window holds the master's answer to each
cached request (§7.4).  So when the query *is* the held request —
QC's reflexive case — the held images, projected, are the answer: no
plan, no index build, no filter test.  Every other request is still
planned and tested.

* condition (ii) under an attribute list: a replica holds images
  projected to As, so it can test no attribute outside As.  The held
  request itself is answered as held; any other query whose filter
  tests an attribute outside As is referred (all four cases answered
  ``HIT []`` before);
* cost pins: an own-request evaluation plans nothing, builds no index
  set and compiles no filter, and an identical window hit compiles no
  filter;
* a derandomized property under update churn — adds, modifies,
  renames, deletes and eq.-3 degraded resumes — holds a content's
  answer to its own request to the reference model's, and every other
  request's answer to :func:`tests.oracles.plan_and_test_evaluate`.
"""

from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos import ReferenceModel
from repro.core import AnswerStatus, FilterReplica, RecentQueryCache, query_contained_in
from repro.core import query_cache as query_cache_module
from repro.ldap import Entry, Scope, SearchRequest
from repro.server import DirectoryServer, EntryStore, UpdateOp
from repro.sync import DurabilityConfig, MemoryJournal, ResyncProvider, SyncedContent
from repro.sync import consumer as consumer_module
from repro.workload.datagen import DirectoryConfig, generate_directory
from repro.workload.updates import UpdateConfig, UpdateGenerator

from tests.oracles import plan_and_test_evaluate

HELD = SearchRequest("o=xyz", Scope.SUB, "(departmentNumber=42)", ["cn"])
NARROWER = SearchRequest("o=xyz", Scope.SUB, "(&(departmentNumber=42)(cn=p1))", ["cn"])


@pytest.fixture()
def master() -> DirectoryServer:
    m = DirectoryServer("master")
    m.add_naming_context("o=xyz")
    m.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
    for i, dept in enumerate(["42", "42", "42", "43"]):
        m.add(
            Entry(
                f"cn=p{i},o=xyz",
                {"objectClass": ["person"], "cn": f"p{i}", "sn": "s", "departmentNumber": dept},
            )
        )
    return m


def _fp(entries):
    return sorted((str(e.dn), sorted(e.attribute_names())) for e in entries)


class TestAttributeListQc:
    """Condition (ii): ``A ⊆ As`` and (``Q == Qs`` or ``attrs(F_Q) ⊆ As``)."""

    def test_the_rule(self):
        assert query_contained_in(HELD, HELD)
        assert not query_contained_in(NARROWER, HELD)
        # Every attribute the narrower filter tests is held: contained.
        wider = SearchRequest(HELD.base, HELD.scope, HELD.filter, ["cn", "departmentNumber"])
        assert query_contained_in(NARROWER, wider)
        # All attributes held: the filter may test any of them.
        assert query_contained_in(NARROWER, SearchRequest(HELD.base, HELD.scope, HELD.filter))

    def test_stored_filter_answers_its_own_request_as_the_master(self, master):
        replica = FilterReplica("r")
        replica.add_filter(HELD, ResyncProvider(master))
        answer = replica.answer(HELD)
        assert answer.status is AnswerStatus.HIT
        assert _fp(answer.entries) == _fp(master.search(HELD).entries)
        assert len(answer.entries) == 3

    def test_stored_filter_refers_a_query_testing_an_attribute_it_lacks(self, master):
        replica = FilterReplica("r")
        replica.add_filter(HELD, ResyncProvider(master))
        assert replica.answer(NARROWER).status is AnswerStatus.MISS
        assert [str(e.dn) for e in master.search(NARROWER).entries] == ["cn=p1,o=xyz"]

    def test_window_answers_its_own_request_as_the_master(self, master):
        replica = FilterReplica("r", cache_capacity=4)
        replica.observe_miss(HELD, master.search(HELD).entries)
        answer = replica.answer(HELD)
        assert answer.status is AnswerStatus.HIT
        assert answer.answered_by == f"cache:{HELD}"
        assert _fp(answer.entries) == _fp(master.search(HELD).entries)
        assert len(answer.entries) == 3

    def test_window_refers_a_query_testing_an_attribute_it_lacks(self, master):
        replica = FilterReplica("r", cache_capacity=4)
        replica.observe_miss(HELD, master.search(HELD).entries)
        assert replica.answer(NARROWER).status is AnswerStatus.MISS


# ----------------------------------------------------------------------
# cost pins
# ----------------------------------------------------------------------
@pytest.fixture()
def counted(monkeypatch):
    """Calls of the store's planner and index builder, and of the
    filter compiler at the content and window sites."""
    calls = Counter()

    def wrap(owner, name, label):
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            calls[label] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    wrap(EntryStore, "plan_for", "plan_for")
    wrap(EntryStore, "index_for", "index_for")
    wrap(consumer_module, "compile_filter_cached", "compile")
    wrap(query_cache_module, "compile_filter_cached", "compile")
    return calls


def _content(master, request) -> SyncedContent:
    content = SyncedContent(request)
    content.poll(ResyncProvider(master))
    return content


def test_an_own_request_evaluation_plans_builds_and_compiles_nothing(master, counted):
    request = SearchRequest("o=xyz", Scope.SUB, "(departmentNumber=42)")
    content = _content(master, request)
    counted.clear()
    answer = content.evaluate(request)
    assert counted == Counter()
    assert not content._store._indexes
    # The held images themselves, in insertion order.
    assert [e.dn for e in answer] == list(content.entries)
    assert all(a is b for a, b in zip(answer, content.entries.values()))
    # An equal request built apart is the held request too.
    assert content.evaluate(SearchRequest("o=xyz", Scope.SUB, "(departmentNumber=42)")) == answer
    assert counted == Counter()


def test_another_request_is_still_planned_and_tested(master, counted):
    content = _content(master, SearchRequest("o=xyz", Scope.SUB, "(departmentNumber=42)"))
    counted.clear()
    narrower = SearchRequest("o=xyz", Scope.SUB, "(&(departmentNumber=42)(cn=p1))")
    assert [str(e.dn) for e in content.evaluate(narrower)] == ["cn=p1,o=xyz"]
    assert counted["plan_for"] == 1 and counted["compile"] == 1


def test_an_identical_window_hit_compiles_no_filter(master, counted):
    request = SearchRequest("o=xyz", Scope.SUB, "(departmentNumber=42)")
    cache = RecentQueryCache(capacity=4)
    cache.insert(request, master.search(request).entries)
    counted.clear()
    entries, _key = cache.lookup(SearchRequest("o=xyz", Scope.SUB, "(departmentNumber=42)"))
    assert counted["compile"] == 0
    assert len(entries) == 3
    narrower = SearchRequest("o=xyz", Scope.SUB, "(&(departmentNumber=42)(cn=p1))")
    entries, _key = cache.lookup(narrower)
    assert counted["compile"] == 1
    assert [str(e.dn) for e in entries] == ["cn=p1,o=xyz"]


# ----------------------------------------------------------------------
# under churn: own request = the reference model, others = plan and test
# ----------------------------------------------------------------------
DIRECTORY = generate_directory(
    DirectoryConfig(
        employees=120,
        divisions=2,
        departments_per_division=3,
        locations=4,
        employees_per_block=10,
        seed=3,
    )
)

HELD_REQUESTS = [
    SearchRequest("", Scope.SUB, "(departmentNumber=2000)"),
    SearchRequest("o=xyz", Scope.SUB, "(&(objectClass=inetOrgPerson)(divisionNumber=20))"),
    SearchRequest("c=uk,o=xyz", Scope.ONE, "(l=site00*)"),
    SearchRequest("", Scope.SUB, "(serialNumber=0001*IN)", ["cn", "serialNumber"]),
    # Tests an attribute the content does not hold: only its own
    # request can be answered from it.
    SearchRequest("o=xyz", Scope.SUB, "(departmentNumber=20*)", ["cn"]),
]

OTHER_REQUESTS = [
    SearchRequest("", Scope.SUB, "(departmentNumber=2000)", ["cn"]),
    SearchRequest("c=in,o=xyz", Scope.SUB, "(departmentNumber=2000)"),
    SearchRequest("o=xyz", Scope.SUB, "(&(departmentNumber=2000)(l=site001))"),
    SearchRequest("o=xyz", Scope.SUB, "(|(l=site001)(l=site002))"),
    SearchRequest("o=xyz", Scope.SUB, "(!(l=site001))"),
    SearchRequest("o=xyz", Scope.SUB, "(sn=*)"),
    SearchRequest("o=xyz", Scope.SUB, "(cn=a*)", ["cn"]),
    SearchRequest("", Scope.SUB, "(serialNumber=0001*IN)"),
]

CHURN = UpdateConfig(
    benign_modify=0.4,
    department_change=0.2,
    hire=0.1,
    leave=0.1,
    rename=0.1,
    department_entry_modify=0.1,
)


def _by_dn(entries):
    return {str(e.dn): e for e in entries}


def _check(master, contents):
    model = ReferenceModel.of(master)
    for content in contents:
        own = content.evaluate(content.request)
        assert [e.dn for e in own] == list(content.entries)
        assert _by_dn(own) == model.content(content.request)
        for request in OTHER_REQUESTS + [r for r in HELD_REQUESTS if r != content.request]:
            answer = content.evaluate(request)
            reference = plan_and_test_evaluate(content, request)
            assert [e.dn for e in answer] == [e.dn for e in reference]
            assert answer == reference
            if request.wants_all_attributes:
                assert all(a is b for a, b in zip(answer, reference))


def _churn(seed, history, steps):
    """Drive the held contents through *steps* batches of updates; the
    update kinds committed and the degraded resumes served."""
    master = DirectoryServer("master")
    master.add_naming_context(DIRECTORY.suffix)
    master.load(DIRECTORY.entries)
    seen = set()

    class Listener:
        def on_update(self, record):
            seen.add(record.op)

    master.add_update_listener(Listener())
    provider = ResyncProvider(
        master, durability=DurabilityConfig(history_max_entries=history), journal=MemoryJournal()
    )
    contents = [SyncedContent(request) for request in HELD_REQUESTS]
    for content in contents:
        content.poll(provider)
    _check(master, contents)
    gen = UpdateGenerator(DIRECTORY, master, replace(CHURN, seed=seed))
    for count in steps:
        gen.apply(count)
        for content in contents:
            content.poll(provider)
        _check(master, contents)
    return seen, master.metrics.counter("sync.durability.degraded_resumes").value


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    st.integers(0, 2**16),
    st.sampled_from([2, 5, 10_000]),
    st.lists(st.integers(1, 15), min_size=1, max_size=5),
)
def test_own_request_is_the_model_and_others_plan_and_test_under_churn(seed, history, steps):
    _churn(seed, history, steps)


def test_the_churn_reaches_every_update_kind_and_a_degraded_resume():
    seen, degraded = _churn(seed=5, history=2, steps=[15, 15, 15, 15])
    assert {UpdateOp.ADD, UpdateOp.MODIFY, UpdateOp.MODIFY_DN, UpdateOp.DELETE} <= seen
    assert degraded > 0
