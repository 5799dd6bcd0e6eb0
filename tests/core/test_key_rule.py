"""A key lookup is answered from what the replica holds.

The master refuses a second holder of a value of a unique attribute
(``mail``, ``uid``), so an equality on one — alone or as a conjunct of
an AND — selects at most the one entry holding the value.  When the
stored filters and the recent-query window both miss, a
``FilterReplica`` answers such a query from the one held image E of the
value (docs/ALGORITHMS.md §1, "The key rule"): {E}, projected, when E
is in the query's region and matches all of it, else ∅; a miss when two
different images hold the value, or when no content holding E has the
query's region inside its own and every attribute the query asks for or
tests.

* replica cases, each compared with ``master.search``;
* cost pins: a key answer is one probe of the replica-wide table and
  builds no content index; a missed query's window registration reuses
  the miss's normalized leaves;
* a derandomized property under ``UpdateGenerator`` churn: every key
  answer equals ``ReferenceModel.keyed`` at the holding content's sync
  point;
* the property is load-bearing: over a master that skips enforcement
  (``tests.oracles.UnenforcedDirectoryServer``) the rule lies.
"""

import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos import ReferenceModel
from repro.core import AnswerStatus, FilterReplica, ReplicaFrontend
from repro.core import routing as routing_module
from repro.ldap import And, Entry, Equality, Present, Scope, SearchRequest
from repro.server import DirectoryServer, EntryStore, FaultyNetwork, LdapError, Modification
from repro.server import ResultCode
from repro.sync import DurabilityConfig, MemoryJournal, ResyncProvider, RetryPolicy
from repro.workload.datagen import DirectoryConfig, generate_directory
from repro.workload.updates import UpdateConfig, UpdateGenerator

from tests.oracles import UnenforcedDirectoryServer

BLOCK = SearchRequest("", Scope.SUB, "(serialNumber=0002*IN)")
OTHER_BLOCK = SearchRequest("", Scope.SUB, "(serialNumber=0003*IN)")


def person(i: int) -> Entry:
    return Entry(
        f"cn=P{i},c=in,o=xyz",
        {
            "objectClass": ["person", "top"],
            "cn": f"P{i}",
            "sn": "T",
            "serialNumber": f"000{2 + i // 3}{i:02d}IN",
            "departmentNumber": "2406" if i % 2 == 0 else "2410",
            "mail": f"p{i}@xyz.com",
            "uid": f"p{i}",
        },
    )


@pytest.fixture()
def master() -> DirectoryServer:
    m = DirectoryServer("master")
    m.add_naming_context("o=xyz")
    m.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
    m.add(Entry("c=in,o=xyz", {"objectClass": ["country"], "c": "in"}))
    for i in range(6):
        m.add(person(i))
    return m


@pytest.fixture()
def provider(master) -> ResyncProvider:
    return ResyncProvider(master)


def q(flt, base: str = "", attrs=None, scope: Scope = Scope.SUB) -> SearchRequest:
    return SearchRequest(base, scope, flt, attrs)


def fp(entries):
    return sorted(
        (str(e.dn), sorted((a, tuple(e.get(a))) for a in e.attribute_names())) for e in entries
    )


def hit_as_master(replica, master, request):
    answer = replica.answer(request)
    assert answer.status is AnswerStatus.HIT, request
    assert fp(answer.entries) == fp(master.search(request).entries), request
    return answer


class TestReplicaCases:
    def test_a_lookup_of_a_held_key_is_the_masters_answer(self, master, provider):
        replica = FilterReplica("r")
        replica.add_filter(BLOCK, provider)
        for request in (
            q("(mail=p1@xyz.com)"),
            q("(uid=P1)"),  # uid ignores case
            q("(userid=p1)", attrs=["cn"]),
            q("(mail=p1@xyz.com)", base="c=in,o=xyz"),
            q("(mail=p1@xyz.com)", base="cn=P1,c=in,o=xyz", scope=Scope.BASE),
        ):
            answer = hit_as_master(replica, master, request)
            assert answer.answered_by == f"key:{BLOCK}"
            assert [str(e.dn) for e in answer.entries] == ["cn=P1,c=in,o=xyz"]
        assert replica.metrics.counter("core.replica.key_hits").value == 5
        # mail is case-exact: P1@… is another value, held by no entry
        for request in (q("(mail=P1@xyz.com)"), q("(mail=p4@xyz.com)"), q("(uid=nobody)")):
            assert replica.answer(request).status is AnswerStatus.MISS, request

    def test_an_and_whose_other_conjunct_fails_is_an_empty_hit(self, master, provider):
        replica = FilterReplica("r")
        replica.add_filter(BLOCK, provider)
        fails = hit_as_master(replica, master, q("(&(departmentNumber=2406)(mail=p1@xyz.com))"))
        assert fails.entries == []
        outside = hit_as_master(replica, master, q("(mail=p1@xyz.com)", base="cn=P0,c=in,o=xyz"))
        assert outside.entries == []
        holds = hit_as_master(replica, master, q("(&(departmentNumber=2410)(uid=p1)(sn=T))"))
        assert len(holds.entries) == 1

    def test_a_region_outside_the_holding_content_is_referred(self, master, provider):
        replica = FilterReplica("r")
        replica.add_filter(q("(serialNumber=0002*IN)", base="c=in,o=xyz"), provider)
        hit_as_master(replica, master, q("(mail=p1@xyz.com)", base="c=in,o=xyz"))
        # the root's region is wider than the content's: not the master's to vouch for
        assert replica.answer(q("(mail=p1@xyz.com)")).status is AnswerStatus.MISS

    def test_two_holders_of_a_value_miss(self, master, provider):
        replica = FilterReplica("r")
        replica.add_filter(BLOCK, provider, sync_interval=2)
        replica.add_filter(OTHER_BLOCK, provider)
        replica.add_filter(q("(departmentNumber=2410)"), provider)  # holds P1, P3, P5 too
        lookup = q("(mail=p1@xyz.com)")
        hit_as_master(replica, master, lookup)  # one image, held twice

        # Two images of one DN: the department content synced after a
        # modify of P1, the block content did not.
        master.modify("cn=P1,c=in,o=xyz", [Modification.replace("sn", "U")])
        replica.sync(provider)  # round 1: the block content is not due
        assert replica.answer(lookup).status is AnswerStatus.MISS
        assert len(master.search(lookup).entries) == 1
        replica.sync(provider)  # round 2: every content is due
        hit_as_master(replica, master, lookup)

        # Two entries: P1 gave its mail up and P4 took it; only the other
        # block, which holds P4, synced since.
        master.modify("cn=P1,c=in,o=xyz", [Modification.replace("mail", "gone@xyz.com")])
        master.modify("cn=P4,c=in,o=xyz", [Modification.replace("mail", "p1@xyz.com")])
        replica.sync(provider)
        assert replica.answer(lookup).status is AnswerStatus.MISS
        assert [str(e.dn) for e in master.search(lookup).entries] == ["cn=P4,c=in,o=xyz"]
        replica.sync(provider)
        answer = hit_as_master(replica, master, lookup)
        assert answer.answered_by == f"key:{OTHER_BLOCK}"

    def test_an_attribute_list_must_hold_what_the_query_asks_for_and_tests(
        self, master, provider
    ):
        replica = FilterReplica("r")
        replica.add_filter(q("(serialNumber=0002*IN)", attrs=["cn", "mail"]), provider)
        hit_as_master(replica, master, q("(mail=p1@xyz.com)", attrs=["cn"]))
        hit_as_master(replica, master, q("(&(cn=P1)(mail=p1@xyz.com))", attrs=["mail"]))
        for request in (
            q("(mail=p1@xyz.com)"),  # asks for every attribute
            q("(mail=p1@xyz.com)", attrs=["sn"]),
            # tests departmentNumber, which the images do not keep
            q("(&(departmentNumber=2410)(mail=p1@xyz.com))", attrs=["cn"]),
        ):
            assert replica.answer(request).status is AnswerStatus.MISS, request
            assert master.search(request).entries

    def test_a_key_hit_over_a_degraded_link_says_so(self, master, provider):
        net = FaultyNetwork()
        replica = FilterReplica("r", network=net)
        replica.add_filter(BLOCK, provider)
        frontend = ReplicaFrontend("r", replica)
        lookup = q("(mail=p1@xyz.com)")
        assert not hit_as_master(replica, master, lookup).degraded
        net.partition(provider)
        for _ in range(RetryPolicy().degraded_after):
            replica.sync(provider)
        answer = hit_as_master(replica, master, lookup)
        assert answer.degraded and answer.answered_by == f"key:{BLOCK}"
        assert frontend.search(lookup).degraded
        net.heal_partition(provider)
        replica.sync(provider)
        assert not hit_as_master(replica, master, lookup).degraded

    def test_a_reloaded_content_posts_what_it_now_holds(self, master, provider):
        replica = FilterReplica("r")
        content = replica.add_filter(BLOCK, provider).content
        # P1 leaves the block; the content learns it from a full reload
        master.modify("cn=P1,c=in,o=xyz", [Modification.replace("serialNumber", "000999IN")])
        content.reload(provider)
        assert replica.answer(q("(mail=p1@xyz.com)")).status is AnswerStatus.MISS
        assert len(master.search(q("(mail=p1@xyz.com)")).entries) == 1
        hit_as_master(replica, master, q("(mail=p2@xyz.com)"))

    def test_a_removed_filter_holds_nothing(self, master, provider):
        replica = FilterReplica("r")
        replica.add_filter(BLOCK, provider)
        replica.remove_filter(BLOCK, provider)
        assert replica.answer(q("(mail=p1@xyz.com)")).status is AnswerStatus.MISS
        # no content followed, no value posted
        assert not replica._keys._attached and not any(replica._keys._postings.values())


class TestCost:
    def test_a_key_answer_is_one_table_probe_and_builds_no_index(
        self, master, provider, monkeypatch
    ):
        replica = FilterReplica("r")
        for i in range(40):  # stored filters that cannot contain the lookup
            replica.add_filter(q(f"(departmentNumber={3000 + i})"), provider)
        replica.add_filter(BLOCK, provider)
        probes, builds = [], []
        holders = replica._keys.holders
        monkeypatch.setattr(replica._keys, "holders", lambda *a: probes.append(1) or holders(*a))
        index_for = EntryStore.index_for

        def counting(store, attr):
            if store is not master.store:
                builds.append(attr)
            return index_for(store, attr)

        monkeypatch.setattr(EntryStore, "index_for", counting)
        hit_as_master(replica, master, q("(mail=p1@xyz.com)"))
        assert probes == [1] and builds == []

    def test_a_missed_query_enters_the_window_without_normalizing_again(
        self, master, monkeypatch
    ):
        replica = FilterReplica("r", cache_capacity=4)
        calls = []
        norm = routing_module._norm
        monkeypatch.setattr(routing_module, "_norm", lambda *a: calls.append(a) or norm(*a))
        request = q("(&(sn=T)(departmentNumber=24*))")
        assert replica.answer(request).status is AnswerStatus.MISS
        derived = len(calls)
        assert derived == 2
        replica.observe_miss(request, master.search(request).entries)
        assert len(calls) == derived
        assert replica.answer(request).status is AnswerStatus.HIT


# ----------------------------------------------------------------------
# under churn: every key answer is the master's at the holding sync point
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

#: (stored request, sync interval): overlapping contents polled at
#: different rounds, one of them under an attribute list
STORED = [
    (SearchRequest("", Scope.SUB, "(departmentNumber=2000)"), 1),
    (SearchRequest("o=xyz", Scope.SUB, "(&(objectClass=inetOrgPerson)(divisionNumber=20))"), 2),
    (SearchRequest("c=uk,o=xyz", Scope.SUB, "(objectClass=person)", ["cn", "mail", "sn"]), 3),
    (SearchRequest("", Scope.SUB, "(serialNumber=0001*IN)"), 1),
]

CHURN = UpdateConfig(
    benign_modify=0.3,
    department_change=0.3,
    hire=0.1,
    leave=0.1,
    rename=0.1,
    department_entry_modify=0.1,
)


def lookups(entry: Entry, rng: random.Random):
    """Key queries about *entry*'s values, in several shapes."""
    mail, uid = Equality("mail", entry.first("mail")), Equality("uid", entry.first("uid"))
    country = str(entry.dn.parent)
    department = Equality("departmentNumber", rng.choice(["2000", "2001", "2100"]))
    return [
        q(mail),
        q(Equality("uid", entry.first("uid").upper()), attrs=["cn"]),
        q(Equality("userid", entry.first("uid")), base=country),
        q(And((mail, department)), base="o=xyz"),
        q(And((Present("sn"), mail)), attrs=["mail"]),
        q(And((uid, Equality("cn", entry.first("cn")))), base=str(entry.dn), scope=Scope.BASE),
    ]


def _key_rule_under_churn(master_cls, seed, steps, duplicates, history=10_000):
    """Drive a replica through churn; return the key answers checked —
    how many, and how many were empty, full, and behind the master of
    the moment — and the ones that differ from the model at the holding
    sync point.  A *history* of a few updates makes the provider answer
    with eq.-3 retain resumes, which rebuild a content.

    Each step commits *duplicates* attempts to give a new entry, outside
    every stored filter, the mail of a held one — refused by a master
    that enforces the key — then a batch of updates, then one sync
    round."""
    rng = random.Random(seed)
    master = master_cls("master")
    master.add_naming_context(DIRECTORY.suffix)
    master.load(DIRECTORY.entries)
    provider = ResyncProvider(
        master, durability=DurabilityConfig(history_max_entries=history), journal=MemoryJournal()
    )
    replica = FilterReplica("r")
    at_sync = {}
    for request, interval in STORED:
        replica.add_filter(request, provider, sync_interval=interval)
        at_sync[request] = ReferenceModel.of(master)
    by_label = {f"key:{s.request}": s for s in replica.stored_filters()}
    gen = UpdateGenerator(DIRECTORY, master, replace(CHURN, seed=seed))
    checked = Counter()
    lies = []
    doubled = []  # held entries whose mail a twin took
    for step, count in enumerate(steps):
        held = [e for s in replica.stored_filters() for e in s.content.entries.values()]
        for n in range(duplicates):
            victim = rng.choice(held)
            if not victim.first("mail"):
                continue
            twin = Entry(
                f"cn=twin {step} {n},{DIRECTORY.suffix}",
                {"objectClass": ["person"], "cn": "twin", "sn": "t", "mail": victim.first("mail")},
            )
            try:
                master.add(twin)
                doubled.append(victim)
            except LdapError as error:
                assert error.code is ResultCode.CONSTRAINT_VIOLATION
        gen.apply(count)

        def ask():
            """Key queries about held and master entries, each answer
            checked against the model at its content's sync point."""
            model = ReferenceModel.of(master)
            subjects = held + list(master.store.images().values())
            for entry in rng.sample(subjects, 12) + doubled:
                if not (entry.first("mail") and entry.first("uid")):
                    continue
                for request in lookups(entry, rng):
                    answer = replica.answer(request)
                    if not (answer.answered_by or "").startswith("key:"):
                        continue
                    stored = by_label[answer.answered_by]
                    owed = at_sync[stored.request].keyed(request, stored.request)
                    got = {str(e.dn): e for e in answer.entries}
                    checked["answers"] += 1
                    checked["full" if got else "empty"] += 1
                    checked["behind"] += got != model.content(request)
                    if owed is None or got != owed:
                        lies.append((step, request))

        ask()  # every content is behind the master now
        polls = {s.request: s.content.polls for s in replica.stored_filters()}
        replica.sync(provider)
        synced = ReferenceModel.of(master)
        for stored in replica.stored_filters():
            if stored.content.polls != polls[stored.request]:
                at_sync[stored.request] = synced
        ask()
    return checked, lies


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    st.integers(0, 2**16),
    st.lists(st.integers(1, 12), min_size=1, max_size=4),
    st.sampled_from([2, 10_000]),
)
def test_every_key_answer_is_the_model_at_the_holding_sync_point(seed, steps, history):
    _checked, lies = _key_rule_under_churn(DirectoryServer, seed, steps, 2, history)
    assert lies == []


def test_the_churn_reaches_key_answers_empty_full_and_behind():
    checked, lies = _key_rule_under_churn(DirectoryServer, 5, [10, 10, 10, 10], duplicates=2)
    assert lies == []
    assert checked["answers"] > 50
    assert checked["empty"] and checked["full"] and checked["behind"]


def test_over_a_master_that_skips_enforcement_the_rule_lies():
    """The property is load-bearing: the same churn over a master that
    lets a second entry take a held mail finds key answers that are not
    the master's at the holding sync point."""
    _checked, lies = _key_rule_under_churn(UnenforcedDirectoryServer, 5, [10] * 4, duplicates=2)
    assert lies
