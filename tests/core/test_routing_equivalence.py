"""Routed replica answering must be byte-identical to the seed scan.

``tests.oracles.LinearFilterReplica`` preserves the seed linear
containment scan (no negative cache) and interpreted evaluation — the
oracle.  The property drives both replicas through identical
stored-filter sets, query streams, and cache feedback, and requires
identical answers: status, entry list *including order*,
``answered_by`` attribution, and referrals.  Every stream is replayed
once so the second pass runs through the routed side's positive memo
and negative result cache.  Both windows are the paper's FIFO.

§3.4.2's template pruning is the reference scan's
(``LinearFilterReplica(templates=)``); its property is soundness: for
every query the registry admits, the pruned scan answers exactly as the
production replica does, which has no template setting.

The file also carries the satellite regressions that ride on this
subsystem: cache containment-check accounting, replica-size
memoization, and the cache's refcounted held DNs (``dns()``).
"""

from hypothesis import given, settings, strategies as st

from repro.core import FilterReplica, RecentQueryCache, Template, TemplateRegistry
from repro.ldap import (
    And,
    DN,
    Entry,
    Equality,
    GreaterOrEqual,
    LessOrEqual,
    Not,
    Or,
    Present,
    Scope,
    SearchRequest,
    Substring,
)
from repro.ldap.controls import SyncAction
from repro.sync import SyncUpdate, SyncedContent

from tests.oracles import LinearFilterReplica, copied_pdu

# Three attributes, each under several spellings (canonical, alias,
# another case) drawn independently for filters and for entries, in both
# arms: which spelling names an attribute may change no answer.
_SPELLINGS = {
    "sn": ["sn", "surname", "SN"],
    "uid": ["uid", "userid"],
    "l": ["l", "localityName", "location"],
}
_VALUES = ["a", "ab", "abc", "b", "ba", "c"]
_attr = st.sampled_from([s for group in _SPELLINGS.values() for s in group])
_value = st.sampled_from(_VALUES)

_leaves = st.one_of(
    st.builds(Equality, _attr, _value),
    st.builds(GreaterOrEqual, _attr, _value),
    st.builds(LessOrEqual, _attr, _value),
    st.builds(Present, _attr),
    st.builds(lambda a, v: Substring(a, initial=v), _attr, _value),
    st.builds(lambda a, v: Substring(a, final=v), _attr, _value),
)

_filters = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.lists(kids, min_size=1, max_size=3).map(lambda cs: And(tuple(cs))),
        st.lists(kids, min_size=1, max_size=3).map(lambda cs: Or(tuple(cs))),
        kids.map(Not),
    ),
    max_leaves=5,
)

_BASES = ["", "o=xyz", "c=us,o=xyz"]
_requests = st.builds(
    SearchRequest,
    st.sampled_from(_BASES),
    st.sampled_from([Scope.SUB, Scope.ONE, Scope.BASE]),
    _filters,
)

_DN_POOL = [
    "o=xyz",
    "c=us,o=xyz",
    "cn=p0,c=us,o=xyz",
    "cn=p1,c=us,o=xyz",
    "cn=p2,o=xyz",
    "cn=p3,o=xyz",
]

_entry_values = st.lists(_value, max_size=2)
_entries = st.builds(
    lambda dn, *spelled: Entry(
        DN.parse(dn),
        {
            "objectClass": ["person"],
            "cn": "x",
            **{name: values for name, values in spelled if values},
        },
    ),
    st.sampled_from(_DN_POOL),
    *(
        st.tuples(st.sampled_from(group), _entry_values)
        for group in _SPELLINGS.values()
    ),
)


def _entry_fp(entry):
    return (
        str(entry.dn),
        sorted((n, tuple(entry.get(n))) for n in entry.attribute_names()),
    )


def _answer_fp(answer):
    return (
        answer.status,
        [_entry_fp(e) for e in answer.entries],
        answer.answered_by,
        answer.referrals,
    )


def _drive(replica, directory, stored_requests, queries):
    for request in stored_requests:
        replica.load_directly(
            request, [e for e in directory if request.selects(e)]
        )
    outcomes = []
    for query in queries + queries:
        answer = replica.answer(query)
        outcomes.append(_answer_fp(answer))
        if not answer.is_hit:
            # Master-answered misses feed the cache on both sides.
            replica.observe_miss(
                query, [e for e in directory if query.selects(e)]
            )
    return outcomes, replica.containment_checks


@settings(max_examples=80, deadline=None)
@given(
    st.lists(_entries, min_size=1, max_size=8, unique_by=lambda e: str(e.dn)),
    st.lists(_requests, min_size=1, max_size=6),
    st.lists(_requests, min_size=1, max_size=10),
    st.sampled_from([0, 3]),
)
def test_routed_answers_equal_linear(directory, stored_requests, queries, capacity):
    routed, routed_checks = _drive(
        FilterReplica("r", cache_capacity=capacity), directory, stored_requests, queries
    )
    linear, linear_checks = _drive(
        LinearFilterReplica("r", cache_capacity=capacity), directory, stored_requests, queries
    )
    assert routed == linear
    # Routing only ever skips checks the scan would have made.
    assert routed_checks <= linear_checks


# Templates over the drawn shapes: every leaf kind on each attribute in
# its canonical spelling, ANDs and ORs of two, and one with a fixed value.
_TEMPLATE_TEXTS = [
    f"({attr}{shape})"
    for attr in _SPELLINGS
    for shape in ("=_", ">=_", "<=_", "=*", "=_*", "=*_")
] + [
    "(&(sn=_)(uid=_))",
    "(&(uid=_)(l=_*))",
    "(&(sn>=_)(sn<=_))",
    "(|(sn=_)(uid=_))",
    "(|(l=_*)(l=*_))",
    "(&(l=ab)(sn=_))",
]

_template_filters = st.one_of(
    st.sampled_from(_TEMPLATE_TEXTS).flatmap(
        lambda text: st.builds(
            lambda values: _fill(text, values), st.lists(_value, min_size=4, max_size=4)
        )
    ),
    _filters,
)


def _fill(text, values):
    """*text* with its ``_`` placeholders replaced by *values* in order."""
    parts = text.split("_")
    return "".join(p + v for p, v in zip(parts[:-1], values)) + parts[-1]


_TEMPLATES = TemplateRegistry(Template.parse(text) for text in _TEMPLATE_TEXTS)

# Stored blocks cover the namespace; queries land anywhere in it.
_template_blocks = st.builds(
    SearchRequest, st.sampled_from(["", "o=xyz"]), st.just(Scope.SUB), _template_filters
)
_template_queries = st.builds(
    SearchRequest,
    st.sampled_from(_BASES),
    st.sampled_from([Scope.SUB, Scope.ONE, Scope.BASE]),
    _template_filters,
)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(_entries, min_size=1, max_size=8, unique_by=lambda e: str(e.dn)),
    st.lists(_template_blocks, min_size=1, max_size=6),
    st.lists(_template_queries, min_size=1, max_size=10),
    st.sampled_from([0, 3]),
)
def test_template_pruning_is_sound(directory, stored_requests, queries, capacity):
    """For every query the registry admits, the reference scan under
    template pruning answers exactly as the production replica: the
    prune skips no stored filter that contains the query first."""
    registry = _TEMPLATES
    admitted = [q for q in queries if registry.classify(q.filter) is not None]
    routed, _ = _drive(
        FilterReplica("r", cache_capacity=capacity), directory, stored_requests, admitted
    )
    pruned, _ = _drive(
        LinearFilterReplica("r", templates=registry, cache_capacity=capacity),
        directory,
        stored_requests,
        admitted,
    )
    assert pruned == routed


_content_steps = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 7), _entry_values),
        st.tuples(st.just("delete"), st.integers(0, 7), st.just([])),
    ),
    max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_entries, min_size=1, max_size=8, unique_by=lambda e: str(e.dn)),
    st.lists(_requests, min_size=1, max_size=8),
    _content_steps,
)
def test_content_evaluation_equals_a_linear_scan(directory, queries, steps):
    """``SyncedContent.evaluate`` — plan candidates in insertion order,
    or a scan — returns what a linear scan of ``content.entries``
    returns, in its order, before and after puts (new, replacing, and
    re-adding a deleted DN at the end) and deletes maintain the index
    sets the first queries built."""
    content = SyncedContent(SearchRequest("", Scope.SUB, "(objectClass=*)"))
    content.entries = {e.dn: e for e in directory}

    def check():
        for query in queries:
            scanned = [query.project(e) for e in content.entries.values() if query.selects(e)]
            assert [_entry_fp(e) for e in content.evaluate(query)] == [
                _entry_fp(e) for e in scanned
            ]

    check()
    for op, i, values in steps:
        source = directory[i % len(directory)]
        if op == "put":
            image = source.copy()
            image.put("sn", values)
            content.apply_notification(SyncUpdate(SyncAction.MODIFY, image.dn, image))
        else:
            content.apply_notification(SyncUpdate.delete(source.dn))
    check()


# ----------------------------------------------------------------------
# satellite regressions
# ----------------------------------------------------------------------


def _person(dn, **attrs):
    return Entry(
        dn,
        {
            "objectClass": ["person"],
            "cn": dn.split(",", 1)[0].split("=", 1)[1],
            **{k: [v] for k, v in attrs.items()},
        },
    )


def test_cache_containment_checks_counted_and_labeled():
    replica = FilterReplica("r", cache_capacity=4)
    wide = SearchRequest("o=xyz", Scope.SUB, "(sn=a*)")
    replica.observe_miss(wide, [_person("cn=s,o=xyz", sn="ab")])

    narrow = SearchRequest("o=xyz", Scope.SUB, "(sn=ab)")
    before = replica.containment_checks
    answer = replica.answer(narrow)
    assert answer.is_hit and answer.answered_by.startswith("cache:")
    # The cache's checks now surface in the replica's §7.4 metric…
    assert replica.containment_checks == before + 1
    assert replica.cache.containment_checks == 1
    # …and in the labeled counter split.
    cache_counter = replica.metrics.counter(
        "core.replica.containment_checks", source="cache"
    )
    assert cache_counter.value == 1

    replica.add_filter(SearchRequest("o=xyz", Scope.SUB, "(uid=x)"))
    replica.answer(SearchRequest("o=xyz", Scope.SUB, "(uid=x)"))
    stored_counter = replica.metrics.counter(
        "core.replica.containment_checks", source="stored"
    )
    assert stored_counter.value == 1


def test_replica_sizes_memoized_with_invalidation(monkeypatch):
    replica = FilterReplica("r")
    first = SearchRequest("o=xyz", Scope.SUB, "(sn=*)")
    e1 = _person("cn=a,o=xyz", sn="a")
    e2 = _person("cn=b,o=xyz", sn="b")
    stored = replica.load_directly(first, [e1])

    sizing_calls = []
    true_size = Entry.estimated_size
    monkeypatch.setattr(
        Entry,
        "estimated_size",
        lambda self: sizing_calls.append(1) or true_size(self),
    )

    assert replica.entry_count() == 1
    baseline = replica.size_bytes()
    after_first = len(sizing_calls)
    assert replica.size_bytes() == baseline
    assert replica.entry_count() == 1
    assert len(sizing_calls) == after_first  # memo hit: no re-walk

    # Content mutation through the sync path invalidates the memo.
    stored.content.apply_notification(copied_pdu(SyncAction.ADD, e2))
    assert replica.entry_count() == 2
    assert replica.size_bytes() > baseline
    assert len(sizing_calls) > after_first

    # Overlapping filters still dedup by DN, and removal invalidates.
    second = SearchRequest("o=xyz", Scope.SUB, "(uid=*)")
    replica.load_directly(second, [e2])
    assert replica.entry_count() == 2
    replica.remove_filter(second)
    assert replica.entry_count() == 2
    replica.remove_filter(first)
    assert replica.entry_count() == 0


def test_replica_size_counts_a_dn_held_twice_once():
    """§7's replica size is the entries held: a DN both a stored filter
    and the recent-query window hold counts once."""
    replica = FilterReplica("r", cache_capacity=4)
    e1 = _person("cn=a,o=xyz", sn="a")
    e2 = _person("cn=b,o=xyz", sn="b")
    e3 = _person("cn=c,o=xyz", sn="c")
    replica.load_directly(SearchRequest("o=xyz", Scope.SUB, "(sn<=b)"), [e1, e2])
    replica.observe_miss(SearchRequest("o=xyz", Scope.SUB, "(sn>=b)"), [e2, e3])
    assert len(replica.cache.dns()) == 2
    assert replica.entry_count() == 3  # {a, b} ∪ {b, c}
    replica.observe_miss(SearchRequest("o=xyz", Scope.SUB, "(sn=a)"), [e1])
    assert replica.entry_count() == 3
    replica.remove_filter(SearchRequest("o=xyz", Scope.SUB, "(sn<=b)"))
    assert replica.entry_count() == 3  # the window still holds all three
    replica.cache.clear()
    assert replica.entry_count() == 0


def test_cache_dns_refcounted():
    cache = RecentQueryCache(capacity=2)
    e1 = _person("cn=a,o=xyz", sn="a")
    e2 = _person("cn=b,o=xyz", sn="b")
    e3 = _person("cn=c,o=xyz", sn="c")
    q1 = SearchRequest("o=xyz", Scope.SUB, "(sn=a)")
    q2 = SearchRequest("o=xyz", Scope.SUB, "(sn=b)")
    q3 = SearchRequest("o=xyz", Scope.SUB, "(sn=c)")

    cache.insert(q1, [e1, e2])
    cache.insert(q2, [e2, e3])
    assert len(cache.dns()) == 3
    cache.insert(q3, [e3])  # evicts q1; e1 leaves, e2 survives via q2
    assert len(cache.dns()) == 2
    cache.insert(q2, [e1])  # refresh replaces q2's result set
    assert len(cache.dns()) == 2  # {e1, e3}
    cache.clear()
    assert len(cache.dns()) == 0
