"""ContainmentIndex unit behaviour + the completeness property.

The index is pure routing: it must never *miss* a registered query that
could contain an incoming one (completeness), while extra candidates
only cost a containment check.  Completeness is the load-bearing
invariant — it is what lets `FilterReplica`/`RecentQueryCache` skip the
linear scan without changing a single answer — so it gets Hypothesis
properties over the same closed world the containment soundness suite
uses, and over add/remove churn with alias spellings, stored ANDs that
share a conjunct and values longer than every registered prefix, in
both candidate orders.  Cost pins hold what the routing saves: one
candidate per department query among same-template stored ANDs, and no
``pfx`` atom for an attribute no guard has a prefix on.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import query_contained_in
from repro.core.routing import ContainmentIndex, Probe, guard_sets
from repro.ldap import (
    And,
    Equality,
    GreaterOrEqual,
    LessOrEqual,
    Not,
    Or,
    Present,
    Scope,
    SearchRequest,
    Substring,
    parse_filter,
)

# ----------------------------------------------------------------------
# guard/probe atom unit behaviour
# ----------------------------------------------------------------------


def posted(flt):
    """The guard set a stored *flt* is posted under."""
    return guard_sets(flt)[0]


def test_equality_guard_is_exact_value():
    assert posted(Equality("sn", "Kumar")) == {("eq", "sn", "kumar")}


def test_anchored_substring_guard_is_prefix():
    assert posted(Substring("sn", initial="Ku")) == {("pfx", "sn", "ku")}


def test_unanchored_substring_guard_is_attribute():
    assert posted(Substring("sn", any_parts=("um",))) == {("attr", "sn")}


def test_range_and_present_guards_are_attribute():
    assert posted(GreaterOrEqual("uid", "5")) == {("attr", "uid")}
    assert posted(Present("uid")) == {("attr", "uid")}


def test_not_guard_is_any():
    assert posted(Not(Equality("sn", "a"))) == {("any",)}


def test_and_guard_picks_most_selective_conjunct():
    flt = And((Present("objectClass"), Equality("sn", "a")))
    assert posted(flt) == {("eq", "sn", "a")}


def test_or_guard_unions_children():
    flt = Or((Equality("sn", "a"), Substring("cn", initial="b")))
    assert posted(flt) == {("eq", "sn", "a"), ("pfx", "cn", "b")}


def test_and_guard_sets_require_every_other_conjunct():
    flt = And((Equality("objectClass", "department"), Equality("l", "x"), Not(Equality("sn", "a"))))
    posted, required = guard_sets(flt)
    assert posted == {("eq", "objectclass", "department")}
    # The NOT conjunct's ("any",) set is met by every probe: not required.
    assert set(required) == {frozenset({("eq", "l", "x")})}
    assert guard_sets(Equality("sn", "a")) == ({("eq", "sn", "a")}, ())


def test_and_guard_sets_require_in_conjunct_order():
    # Not hash order: a probe then runs the same tests in every process.
    names = ["l", "ou", "st", "title", "mail", "uid"]
    flt = And(tuple(Equality(name, "x") for name in ["objectClass"] + names))
    posted, required = guard_sets(flt)
    assert posted == {("eq", "objectclass", "x")}
    assert required == tuple(frozenset({("eq", name, "x")}) for name in names)


def test_probe_atoms_add_prefixes_only_at_registered_lengths():
    lengths = {"sn": {1: 1, 3: 2, 5: 1}, "cn": {2: 1}}
    atoms = Probe(Equality("sn", "abcd")).atoms(lengths)
    assert ("eq", "sn", "abcd") in atoms
    assert ("attr", "sn") in atoms
    assert ("any",) in atoms
    # length 2 is registered for cn only, 5 is longer than the value
    assert {a for a in atoms if a[0] == "pfx"} == {("pfx", "sn", "a"), ("pfx", "sn", "abc")}
    initial = Probe(Substring("sn", initial="abc")).atoms(lengths)
    assert {a for a in initial if a[0] == "pfx"} == {("pfx", "sn", "a"), ("pfx", "sn", "abc")}
    assert not [a for a in Probe(Equality("sn", "abcd")).atoms(None) if a[0] == "pfx"]


# ----------------------------------------------------------------------
# index routing behaviour
# ----------------------------------------------------------------------


def _req(filter_text: str, base: str = "o=xyz") -> SearchRequest:
    return SearchRequest(base, Scope.SUB, parse_filter(filter_text))


def test_candidates_route_equality_to_anchored_substring():
    index = ContainmentIndex()
    stored = _req("(serialNumber=0001*US)")
    index.add(stored, "h")
    got = index.candidates(_req("(serialNumber=000123US)"))
    assert [c.request for c in got] == [stored]


def test_or_stored_filter_reached_from_single_disjunct_query():
    # The Or-right containment rule: (sn=a) ⊆ (|(sn=a)(cn=b)).  A naive
    # attribute-subset prescreen would skip the stored OR; the guard
    # union must not.
    index = ContainmentIndex()
    stored = _req("(|(sn=a)(cn=b))")
    index.add(stored, "h")
    query = _req("(sn=a)")
    assert query_contained_in(query, stored)
    assert stored in [c.request for c in index.candidates(query)]


def test_unrelated_attribute_is_not_a_candidate():
    index = ContainmentIndex()
    index.add(_req("(sn=a)"), "h")
    assert index.candidates(_req("(uid=a)")) == []


def test_region_prefix_probing():
    index = ContainmentIndex()
    wide = _req("(sn=a)", base="o=xyz")
    narrow = _req("(sn=a)", base="c=us,o=xyz")
    other = _req("(sn=a)", base="c=in,o=xyz")
    index.add(wide, "w")
    index.add(narrow, "n")
    index.add(other, "o")
    got = [c.request for c in index.candidates(_req("(sn=a)", base="c=us,o=xyz"))]
    # Stored bases must be ancestor-or-self of the query base.
    assert got == [wide, narrow]


def test_insertion_order_preserved():
    index = ContainmentIndex()
    first = _req("(sn=a)")
    second = _req("(|(sn=a)(sn=b))")
    index.add(first, 1)
    index.add(second, 2)
    got = [c.request for c in index.candidates(_req("(sn=a)"))]
    assert got == [first, second]


def test_recency_order_newest_first_and_readd():
    index = ContainmentIndex(order="recency")
    first = _req("(sn=a)")
    second = _req("(|(sn=a)(sn=b))")
    index.add(first, 1)
    index.add(second, 2)
    probe = _req("(sn=a)")
    assert [c.request for c in index.candidates(probe)] == [second, first]
    index.add(first, 3)  # the window re-inserting a query moves it to the front
    assert [c.request for c in index.candidates(probe)] == [first, second]


def test_remove_unregisters_and_invalidates_memo():
    index = ContainmentIndex()
    stored = _req("(sn=a)")
    cand = index.add(stored, "h")
    query = _req("(sn=a)")
    index.memo_put(query, cand)
    assert index.memo_get(query) is cand
    index.remove(stored)
    assert index.candidates(query) == []
    assert index.memo_get(query) is None  # liveness check drops it


def test_readd_after_remove_gets_fresh_memo_identity():
    index = ContainmentIndex()
    stored = _req("(sn=a)")
    old = index.add(stored, "h")
    query = _req("(sn=a)")
    index.memo_put(query, old)
    index.remove(stored)
    fresh = index.add(stored, "h2")
    # The stale memo entry must not resurrect the removed candidate.
    assert index.memo_get(query) is None
    assert [c is fresh for c in index.candidates(query)] == [True]


def test_and_posts_under_the_conjunct_fewest_are_posted_under():
    index = ContainmentIndex()
    first = index.add(_req("(&(objectClass=department)(departmentNumber=1))"), 1)
    second = index.add(_req("(&(objectClass=department)(departmentNumber=2))"), 2)
    assert first.atoms == {("eq", "objectclass", "department")}
    assert second.atoms == {("eq", "departmentnumber", "2")}
    assert second.required == (frozenset({("eq", "objectclass", "department")}),)
    # An AND is a candidate only where the probe meets every conjunct.
    got = index.candidates(_req("(&(objectClass=department)(departmentNumber=2))"))
    assert [c.request for c in got] == [second.request]
    assert index.candidates(_req("(departmentNumber=2)")) == []


def test_and_with_an_or_conjunct_requires_one_disjunct():
    index = ContainmentIndex()
    stored = _req("(&(sn=a)(|(cn=b)(uid=c)))")
    index.add(stored, 1)
    query = _req("(&(sn=a)(cn=b))")
    assert query_contained_in(query, stored)
    assert [c.request for c in index.candidates(query)] == [stored]
    assert index.candidates(_req("(&(sn=a)(l=b))")) == []


def test_a_required_prefix_guard_registers_its_length():
    index = ContainmentIndex()
    stored = _req("(&(sn=a)(cn=ab*))")  # posted under sn=a, requires cn=ab*
    index.add(stored, 1)
    query = _req("(&(sn=a)(cn=abc))")
    assert query_contained_in(query, stored)
    assert [c.request for c in index.candidates(query)] == [stored]


def test_memo_disabled_in_recency_order():
    index = ContainmentIndex(order="recency")
    stored = _req("(sn=a)")
    cand = index.add(stored, "h")
    query = _req("(sn=a)")
    index.memo_put(query, cand)
    assert index.memo_get(query) is None


# ----------------------------------------------------------------------
# cost pins
# ----------------------------------------------------------------------


def _department(n: int, m: int) -> SearchRequest:
    return _req(
        f"(&(objectClass=department)(departmentNumber={n})(divisionNumber={m}))"
    )


@pytest.mark.parametrize("order", ContainmentIndex.ORDERS)
def test_department_query_has_one_candidate_among_forty(order):
    index = ContainmentIndex(order=order)
    stored = [_department(n, n % 7) for n in range(40)]
    for request in stored:
        index.add(request, request)
    for n in (0, 17, 39):
        got = index.candidates(_department(n, n % 7))
        assert [c.request for c in got] == [stored[n]]


class _RecordingPostings(dict):
    """The index's atom postings, recording every atom looked up."""

    def __init__(self, *args):
        super().__init__(*args)
        self.asked = []

    def get(self, atom, default=None):
        self.asked.append(atom)
        return super().get(atom, default)


@pytest.mark.parametrize("order", ContainmentIndex.ORDERS)
def test_mail_probe_without_a_mail_prefix_guard_builds_no_prefix_atom(order):
    index = ContainmentIndex(order=order)
    index.add(_req("(serialNumber=0001*US)"), 1)
    index.add(_req("(mail=someone@example.com)"), 2)
    index._atom_postings = _RecordingPostings(index._atom_postings)
    got = index.candidates(_req("(mail=someone@example.com)"))
    assert [c.handle for c in got] == [2]
    assert index._atom_postings.asked
    assert [a for a in index._atom_postings.asked if a[0] == "pfx"] == []


# ----------------------------------------------------------------------
# completeness property
# ----------------------------------------------------------------------

_ATTRS = ["sn", "uid", "l"]
_VALUES = ["a", "ab", "abc", "b", "ba", "c"]
_attr = st.sampled_from(_ATTRS)
_value = st.sampled_from(_VALUES)

_leaves = st.one_of(
    st.builds(Equality, _attr, _value),
    st.builds(GreaterOrEqual, _attr, _value),
    st.builds(LessOrEqual, _attr, _value),
    st.builds(Present, _attr),
    st.builds(lambda a, v: Substring(a, initial=v), _attr, _value),
    st.builds(lambda a, v: Substring(a, final=v), _attr, _value),
    st.builds(lambda a, v: Substring(a, any_parts=(v,)), _attr, _value),
)

_filters = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.lists(kids, min_size=1, max_size=3).map(lambda cs: And(tuple(cs))),
        st.lists(kids, min_size=1, max_size=3).map(lambda cs: Or(tuple(cs))),
        kids.map(Not),
    ),
    max_leaves=6,
)

_BASES = ["", "o=xyz", "c=us,o=xyz", "cn=probe,c=us,o=xyz"]
_requests = st.builds(
    SearchRequest,
    st.sampled_from(_BASES),
    st.sampled_from(list(Scope)),
    _filters,
)


@pytest.mark.parametrize("order", ContainmentIndex.ORDERS)
@settings(max_examples=300, deadline=None)
@given(_requests, st.lists(_requests, min_size=1, max_size=8))
def test_candidates_superset_of_containing(order, query, population):
    """Any stored query that contains *query* must be routed."""
    index = ContainmentIndex(order=order)
    for stored in population:
        index.add(stored, stored)
    routed = {c.request for c in index.candidates(query)}
    for stored in set(population):
        if query_contained_in(query, stored):
            assert stored in routed, (
                f"routing skipped containing query {stored} for {query}"
            )


# ----------------------------------------------------------------------
# completeness under churn: aliases, shared conjuncts, long values
# ----------------------------------------------------------------------

# Two spellings each of sn and cn; mail only ever takes equalities, so
# no guard posts a prefix on it; "abcdefghij" is longer than every
# initial a guard can post.
_CHURN_ATTRS = ["sn", "surname", "cn", "commonName", "uid"]
_CHURN_VALUES = ["a", "ab", "abc", "abcdefghij", "b", "ba"]
_churn_attr = st.sampled_from(_CHURN_ATTRS)
_churn_value = st.sampled_from(_CHURN_VALUES)
_churn_equality = st.builds(
    Equality, st.sampled_from(_CHURN_ATTRS + ["mail"]), _churn_value
)

_churn_leaves = st.one_of(
    _churn_equality,
    st.builds(GreaterOrEqual, _churn_attr, _churn_value),
    st.builds(Present, _churn_attr),
    st.builds(lambda a, v: Substring(a, initial=v), _churn_attr, st.sampled_from(_CHURN_VALUES[:3])),
    st.builds(lambda a, v: Substring(a, any_parts=(v,)), _churn_attr, _churn_value),
)

_churn_filters = st.recursive(
    _churn_leaves,
    lambda kids: st.one_of(
        st.lists(kids, min_size=1, max_size=3).map(lambda cs: And(tuple(cs))),
        st.lists(kids, min_size=1, max_size=3).map(lambda cs: Or(tuple(cs))),
        kids.map(Not),
    ),
    max_leaves=5,
)

# Stored ANDs of two or more equalities sharing one conjunct, under
# either spelling of its attribute; another conjunct may be an anchored
# substring, whose prefix length must be probed though nothing is
# posted under it, or an OR of equalities, which a probe meets through
# any one disjunct.
_shared_conjunct = st.sampled_from(
    [Equality("objectClass", "department"), Equality("objectclass", "Department")]
)
_shared_ands = st.builds(
    lambda shared, rest: And((shared,) + tuple(rest)),
    _shared_conjunct,
    st.lists(
        st.one_of(
            _churn_equality,
            st.builds(
                lambda a, v: Substring(a, initial=v), _churn_attr, st.sampled_from(_CHURN_VALUES[:3])
            ),
            st.lists(_churn_equality, min_size=2, max_size=2).map(lambda cs: Or(tuple(cs))),
        ),
        min_size=1,
        max_size=3,
    ),
)

_churn_requests = st.builds(
    SearchRequest,
    st.sampled_from(_BASES),
    st.just(Scope.SUB),
    st.one_of(_churn_filters, _shared_ands),
)


@pytest.mark.parametrize("order", ContainmentIndex.ORDERS)
@settings(max_examples=150, deadline=None)
@given(
    population=st.lists(_churn_requests, min_size=1, max_size=6),
    ops=st.lists(st.tuples(st.booleans(), st.integers(0, 5)), min_size=1, max_size=14),
    extra=st.lists(_churn_requests, max_size=3),
)
def test_candidates_complete_under_churn(order, population, ops, extra):
    """Every registered query containing a probe is routed after every
    add, remove and re-add, whatever spelling either side uses."""
    index = ContainmentIndex(order=order)
    live = set()
    for add, i in ops:
        stored = population[i % len(population)]
        if add:
            index.add(stored, stored)
            live.add(stored)
        else:
            index.remove(stored)
            live.discard(stored)
        for query in list(population) + list(extra):
            routed = {c.request for c in index.candidates(query)}
            assert routed <= live
            for held in live:
                if query_contained_in(query, held):
                    assert held in routed, (
                        f"routing skipped containing query {held} for {query}"
                    )
    for stored in list(live):
        index.remove(stored)
    assert not index._pfx_lens and not index._atom_postings
