"""One pass from plan to result, held to the region walk it replaced.

``DirectoryServer.evaluate`` settles a search's regions once and runs
one loop from the plan's candidates to the result (docs/PLANNER.md,
"From plan to result").  :func:`tests.oracles.reference_evaluate` is the
evaluation it replaced: per-context re-entry, a scope and a referral
test per candidate, a compile per re-entry.  On one server, for every
search drawn, the two must return the same images (by identity) in the
same order, the same continuation references, the same result code and
move every ``server.plan.*`` counter by the same amount.

The cost pins below count what the rewrite stopped paying for.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.ldap import DN, Entry, SearchRequest
from repro.ldap.controls import SortControl
from repro.ldap.query import Scope
from repro.server import DirectoryServer, LdapError
from repro.server.partition import make_referral_entry
from tests.oracles import reference_evaluate

#: Suffixes a drawn server may hold, nested and disjoint.
SUFFIXES = ("o=xyz", "ou=a,o=xyz", "o=abc", "ou=b,ou=a,o=xyz")
NAMES = ("a", "b", "c", "d")
VALUES = ("x", "y", "xy", "z")

FILTERS = (
    # indexable: equality, presence, substring, intersection
    "(sn=x)",
    "(sn=*)",
    "(cn=a*)",
    "(objectClass=*)",
    "(&(objectClass=person)(sn=y))",
    "(&(sn=x)(cn=b))",
    "(ref=*)",
    # planned as a scan: negation, OR, range
    "(!(sn=x))",
    "(|(sn=x)(cn=c))",
    "(sn>=xy)",
)

#: One step of a drawn DIT: (parent index, rdn name, sn value, is a referral).
_steps = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),
        st.sampled_from(NAMES),
        st.sampled_from(VALUES),
        st.integers(min_value=0, max_value=6).map(lambda n: n == 0),
    ),
    min_size=8,
    max_size=40,
)

_dits = st.fixed_dictionaries(
    {
        "suffixes": st.lists(
            st.sampled_from(SUFFIXES), min_size=1, max_size=3, unique=True
        ),
        # which suffix entries are held, and which as referral objects
        "held": st.lists(
            st.integers(min_value=0, max_value=4).map(lambda n: n != 0),
            min_size=3,
            max_size=3,
        ),
        "referral_suffix": st.lists(
            st.integers(min_value=0, max_value=5).map(lambda n: n == 0),
            min_size=3,
            max_size=3,
        ),
        "steps": _steps,
        "default_referral": st.integers(min_value=0, max_value=3).map(lambda n: n == 0),
        # the class's threshold, and two that send every SUBTREE
        # candidate set of a small DIT down the subtree-range path
        "threshold": st.sampled_from((64, 64, 3, 0)),
    }
)

BASE_KINDS = ("root", "suffix", "inner", "absent", "under_referral", "referral", "outside")

_searches = st.lists(
    st.tuples(
        st.sampled_from(BASE_KINDS),
        st.integers(min_value=0, max_value=40),
        st.sampled_from(list(Scope)),
        st.sampled_from(FILTERS),
        st.sampled_from((None, ("sn",), ("sn", "cn"))),
        st.booleans(),
    ),
    min_size=1,
    max_size=8,
)


def _person(dn: DN, value: str) -> Entry:
    return Entry(dn, {"objectClass": ["person"], "cn": dn.rdn.value, "sn": value})


def build(dit: Dict) -> DirectoryServer:
    server = DirectoryServer(
        "host", default_referral="ldap://up" if dit["default_referral"] else None
    )
    server.RANGE_SCAN_THRESHOLD = dit["threshold"]
    for suffix in dit["suffixes"]:
        server.add_naming_context(suffix)
    # Shallow suffixes first, so a nested suffix's superior may be held.
    for i, suffix in sorted(enumerate(dit["suffixes"]), key=lambda p: len(DN.parse(p[1]))):
        if not dit["held"][i]:
            continue
        dn = DN.parse(suffix)
        if dit["referral_suffix"][i]:
            server.add(make_referral_entry(dn, f"ldap://sub{i}"))
        else:
            server.add(Entry(dn, {"objectClass": ["organization"], "sn": "x"}))
    for parent_pick, name, value, referral in dit["steps"]:
        held = sorted(server.store.images(), key=str)
        if not held:
            break
        parent = held[parent_pick % len(held)]
        dn = parent.child(f"cn={name}{parent_pick % 3}")
        image = (
            make_referral_entry(dn, f"ldap://r{parent_pick}") if referral else _person(dn, value)
        )
        try:  # children of a referral object are glue: held, not answered
            server.add(image)
        except LdapError:
            pass
    return server


def base_of(server: DirectoryServer, kind: str, pick: int) -> DN:
    held = sorted(server.store.images(), key=str)
    referrals = sorted(server.store.referral_dns(), key=str)
    if kind == "root" or not held:
        return DN.parse("")
    if kind == "suffix":
        contexts = server.naming_contexts
        return contexts[pick % len(contexts)].suffix
    if kind == "inner":
        return held[pick % len(held)]
    if kind == "absent":
        return held[pick % len(held)].child("cn=absent")
    if kind == "under_referral" and referrals:
        below = referrals[pick % len(referrals)].child(f"cn={NAMES[pick % 4]}{pick % 3}")
        return below
    if kind == "referral" and referrals:
        return referrals[pick % len(referrals)]
    if kind == "outside":
        return DN.parse("o=nowhere")
    return held[pick % len(held)]


def _plan_counters(server: DirectoryServer) -> Dict[str, float]:
    return {
        name: value
        for name, value in server.metrics.to_dict().items()
        if name.startswith("server.plan.")
    }


def _moved(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {
        name: after.get(name, 0) - before.get(name, 0)
        for name in set(before) | set(after)
        if after.get(name, 0) != before.get(name, 0)
    }


def _refs(result) -> List[Tuple[str, str]]:
    return [(r.url, str(r.target)) for r in result.referrals]


def assert_same(server: DirectoryServer, request: SearchRequest, controls=()) -> None:
    before = _plan_counters(server)
    expected = reference_evaluate(server, request, controls)
    between = _plan_counters(server)
    got = server.evaluate(request, controls)
    after = _plan_counters(server)
    assert got.code is expected.code, request
    assert _refs(got) == _refs(expected), request
    assert len(got.entries) == len(expected.entries), request
    assert all(a is b for a, b in zip(got.entries, expected.entries)), request
    assert _moved(between, after) == _moved(before, between), request


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_dits, _searches)
def test_evaluate_equals_the_region_walk(dit, searches):
    server = build(dit)
    for kind, pick, scope, text, keys, reverse in searches:
        request = SearchRequest(base_of(server, kind, pick), scope, text)
        controls = (SortControl(keys=keys, reverse=reverse),) if keys else ()
        assert_same(server, request, controls)


# ----------------------------------------------------------------------
# pinned cases the draws reach only by luck
# ----------------------------------------------------------------------
def _nested_server() -> DirectoryServer:
    server = DirectoryServer("host")
    server.add_naming_context("o=xyz")
    server.add_naming_context("ou=a,o=xyz")
    server.add(Entry("o=xyz", {"objectClass": ["organization"]}))
    server.add(Entry("ou=a,o=xyz", {"objectClass": ["organizationalUnit"]}))
    for i in range(5):
        server.add(_person(DN.parse(f"cn=p{i},ou=a,o=xyz"), "x"))
    return server


def test_a_nested_context_is_met_twice_and_returned_once():
    server = _nested_server()
    request = SearchRequest("", Scope.SUB, "(sn=x)")
    expected = reference_evaluate(server, request)
    before = _plan_counters(server)
    got = server.evaluate(request)
    assert [e.dn for e in got.entries] == [e.dn for e in expected.entries]
    assert len(got.entries) == 5
    # Both regions count their matches, as the per-context re-entry did.
    assert _moved(before, _plan_counters(server))["server.plan.matched"] == 10


@pytest.mark.parametrize("text", ["(sn=x)", "(!(sn=nobody))"])
def test_a_suffix_held_as_a_referral_object_adds_no_region(text):
    # Neither its glue nor a plan: the re-entry on that suffix referred.
    server = DirectoryServer("host")
    server.add_naming_context("o=xyz")
    server.add_naming_context("o=abc")
    server.add(make_referral_entry("o=xyz", "ldap://sub"))
    server.add(_person(DN.parse("cn=glue,o=xyz"), "x"))
    server.add(Entry("o=abc", {"objectClass": ["organization"]}))
    server.add(_person(DN.parse("cn=p,o=abc"), "x"))
    assert_same(server, SearchRequest("", Scope.SUB, text))
    found = server.evaluate(SearchRequest("", Scope.SUB, text))
    assert "cn=p,o=abc" in {str(e.dn) for e in found.entries}
    assert "cn=glue,o=xyz" not in {str(e.dn) for e in found.entries}


@pytest.mark.parametrize("text", ["(sn=x)", "(!(sn=nobody))"])
def test_glue_below_a_referral_object_is_not_answered(text):
    # By candidates and by the walk a scan plan takes.
    server = _nested_server()
    server.add(make_referral_entry("ou=r,o=xyz", "ldap://sub"))
    server.add(_person(DN.parse("cn=glue,ou=r,o=xyz"), "x"))
    for base in ("", "o=xyz", "ou=r,o=xyz", "cn=glue,ou=r,o=xyz"):
        for scope in Scope:
            assert_same(server, SearchRequest(base, scope, text))
    found = server.evaluate(SearchRequest("o=xyz", Scope.SUB, text))
    assert "cn=glue,ou=r,o=xyz" not in {str(e.dn) for e in found.entries}
    assert _refs(found) == [("ldap://sub", "ou=r,o=xyz")]


def test_a_renamed_suffix_stays_inside_a_held_context():
    # The one way an entry could leave every held context: renaming the
    # suffix.  modify_dn refuses it, so a base that holds every context
    # suffix holds every stored DN.
    server = DirectoryServer("host")
    server.add_naming_context("o=xyz")
    server.add(Entry("o=xyz", {"objectClass": ["organization"]}))
    server.add(_person(DN.parse("cn=a,o=xyz"), "x"))
    with pytest.raises(LdapError):
        server.modify_dn("o=xyz", new_rdn="o=elsewhere")
    assert sorted(str(dn) for dn in server.store.images()) == ["cn=a,o=xyz", "o=xyz"]


# ----------------------------------------------------------------------
# cost pins: what a root-based subtree search no longer pays
# ----------------------------------------------------------------------
@pytest.fixture
def calls(monkeypatch):
    counts: Dict[str, int] = {}

    def spy(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for name in ("with_base", "in_scope"):
        spy(SearchRequest, name)
    spy(DirectoryServer, "_under_referral")
    spy(DN, "is_ancestor_or_self")
    return counts


def _one_context_server(people: int) -> DirectoryServer:
    server = DirectoryServer("host")
    server.add_naming_context("o=xyz")
    server.add(Entry("o=xyz", {"objectClass": ["organization"]}))
    server.add(Entry("ou=p,o=xyz", {"objectClass": ["organizationalUnit"]}))
    for i in range(people):
        server.add(_person(DN.parse(f"cn=p{i},ou=p,o=xyz"), "x" if i % 4 else "y"))
    return server


@pytest.mark.parametrize("base", ["", "o=xyz"])
def test_a_covering_subtree_search_tests_no_candidate_for_scope(calls, base):
    server = _one_context_server(40)
    request = SearchRequest(base, Scope.SUB, "(sn=y)")
    assert server.store.plan_for(request.filter).strategy == "equality"
    calls.clear()
    result = server.evaluate(request)
    assert len(result.entries) == 10
    assert calls.get("with_base", 0) == 0
    assert calls.get("in_scope", 0) == 0
    assert calls.get("_under_referral", 0) == 0
    # Per held context, one look to resolve the base and one to learn
    # that the region covers it; none per candidate.
    assert calls.get("is_ancestor_or_self", 0) <= 2


def test_an_inner_base_still_tests_its_candidates(calls):
    server = _one_context_server(40)
    server.add_naming_context("o=abc")
    server.add(Entry("o=abc", {"objectClass": ["organization"]}))
    server.add(_person(DN.parse("cn=q,o=abc"), "y"))
    calls.clear()
    result = server.evaluate(SearchRequest("o=xyz", Scope.SUB, "(sn=y)"))
    assert len(result.entries) == 10
    assert calls["is_ancestor_or_self"] >= 11  # every candidate, o=abc's too
