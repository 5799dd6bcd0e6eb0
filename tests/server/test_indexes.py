"""Tests for the attribute indexes."""

import gc
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.ldap import DN, Entry, Scope, SearchRequest, Substring, SyncAction
from repro.ldap.attributes import AttributeType
from repro.server import DirectoryServer
from repro.server.indexes import (
    AttributeIndexSet,
    EqualityIndex,
    SubstringIndex,
    _Assertions,
)
from repro.sync import SyncedContent, SyncUpdate
from repro.workload import DirectoryConfig, generate_directory
from tests.oracles import linear_substring_candidates, linear_substring_estimate


def dn(i: int) -> DN:
    return DN.parse(f"cn=e{i},o=xyz")


class TestEqualityIndex:
    def test_insert_lookup(self):
        idx = EqualityIndex(AttributeType("sn"))
        idx.insert(dn(1), ["Doe"])
        idx.insert(dn(2), ["doe"])
        assert idx.lookup("DOE") == {dn(1), dn(2)}

    def test_remove(self):
        idx = EqualityIndex(AttributeType("sn"))
        idx.insert(dn(1), ["Doe"])
        idx.remove(dn(1), ["Doe"])
        assert idx.lookup("Doe") == set()

    def test_assertion_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(_Assertions, "LIMIT", 4)
        idx = EqualityIndex(AttributeType("sn"))
        idx.insert(dn(1), ["Doe"])
        for i in range(10):
            assert idx.estimate(f"x{i}") == 0
        assert len(idx._assertions) <= 4
        assert idx.lookup("DOE") == {dn(1)}

    def test_remove_missing_is_noop(self):
        idx = EqualityIndex(AttributeType("sn"))
        idx.remove(dn(1), ["ghost"])

    def test_len(self):
        idx = EqualityIndex(AttributeType("sn"))
        idx.insert(dn(1), ["a", "b"])
        assert len(idx) == 2


class TestSubstringIndex:
    def test_candidates_superset(self):
        idx = SubstringIndex(AttributeType("serialNumber"))
        idx.insert(dn(1), ["004217IN"])
        idx.insert(dn(2), ["994299US"])
        cands = idx.candidates(["0042"])
        assert dn(1) in cands
        assert dn(2) not in cands

    def test_short_component_falls_back_to_gram_scan(self):
        idx = SubstringIndex(AttributeType("sn"))
        idx.insert(dn(1), ["abc"])
        idx.insert(dn(2), ["xyz"])
        # "ab" is below the trigram size; the gram-vocabulary fallback
        # still prunes to the values whose grams contain it.
        assert idx.candidates(["ab"]) == {dn(1)}
        assert idx.candidates(["yz"]) == {dn(2)}
        assert idx.candidates(["q"]) == set()

    def test_short_value_matches_short_component(self):
        idx = SubstringIndex(AttributeType("sn"))
        idx.insert(dn(1), ["ab"])  # shorter than the gram size itself
        assert dn(1) in idx.candidates(["a"])
        assert dn(1) in idx.candidates(["ab"])

    def test_multiple_components_intersect(self):
        idx = SubstringIndex(AttributeType("x"))
        idx.insert(dn(1), ["abcdef"])
        idx.insert(dn(2), ["abcxyz"])
        assert idx.candidates(["abc", "def"]) == {dn(1)}

    def test_remove(self):
        idx = SubstringIndex(AttributeType("x"))
        idx.insert(dn(1), ["abcdef"])
        idx.remove(dn(1), ["abcdef"])
        assert idx.candidates(["abc"]) == set()

    def test_empty_result_short_circuits(self):
        idx = SubstringIndex(AttributeType("x"))
        idx.insert(dn(1), ["abc"])
        assert idx.candidates(["zzz"]) == set()


# A small alphabet and short values, so values share grams, a removal
# can take the last posting of one (the gram key goes) and an insert
# brings new keys: the vocabulary changes between lookups.
_TEXT = st.text(alphabet="abAB1 ", max_size=5)
_ASSERTION = st.tuples(_TEXT, st.lists(_TEXT, max_size=2), _TEXT).map(
    lambda parts: (parts[0], *parts[1], parts[2])  # initial, any..., final
)
_INDEX_STEPS = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 7), st.lists(_TEXT, min_size=1, max_size=2)),
    st.tuples(st.just("remove"), st.integers(0, 7)),
    st.tuples(st.just("ask"), _ASSERTION),
    st.tuples(st.just("ask"), _ASSERTION),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(_INDEX_STEPS, max_size=40), st.lists(_ASSERTION, min_size=1, max_size=6))
def test_substring_lookups_equal_the_vocabulary_scan(steps, final_asks):
    """Whatever was inserted and removed between lookups, and wherever
    the short components sit (length 0-5, initial / any / final),
    ``candidates`` and ``estimate`` are the linear oracle's exactly — the
    same set, not a superset of it, and the same number.  The index is
    an attribute set's, so the first ask builds it from the images and
    every later step maintains it."""
    # A name -> values mapping reads like an Entry to the index set.
    images = {}
    ixs = AttributeIndexSet(AttributeType("sn"), images)
    held = {}

    def ask(components):
        idx = ixs.substring
        assert idx.candidates(components) == linear_substring_candidates(idx, components)
        assert idx.estimate(components) == linear_substring_estimate(idx, components)
        # asked again: the remembered gram lists answer the same
        assert idx.candidates(components) == linear_substring_candidates(idx, components)

    def remove(i):
        ixs.remove(dn(i), held.pop(i))
        del images[dn(i)]

    for step in steps:
        if step[0] == "insert":
            if step[1] in held:
                remove(step[1])
            held[step[1]] = step[2]
            images[dn(step[1])] = {"sn": step[2]}
            ixs.insert(dn(step[1]), step[2])
        elif step[0] == "remove" and step[1] in held:
            remove(step[1])
        elif step[0] == "ask":
            ask(step[1])
    for components in final_asks:
        ask(components)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(_INDEX_STEPS, max_size=40), st.lists(_ASSERTION, min_size=1, max_size=6))
def test_content_substring_lookups_equal_the_vocabulary_scan(steps, final_asks):
    """The same property over a replicated content's store: the index is
    built by the content's own evaluation of a substring query, and
    every later add, modify and delete PDU the content applies maintains
    it."""
    content = SyncedContent(SearchRequest("o=xyz", Scope.SUB, "(objectClass=*)"))

    def ask(components):
        initial, *any_parts, final = components
        if initial or final or any(any_parts):
            query = Substring("sn", initial=initial, any_parts=tuple(any_parts), final=final)
            content.evaluate(SearchRequest("o=xyz", Scope.SUB, query))
        idx = content._store.index_for("sn").substring
        assert idx.candidates(components) == linear_substring_candidates(idx, components)
        assert idx.estimate(components) == linear_substring_estimate(idx, components)

    for step in steps:
        if step[0] == "insert":
            image = Entry(dn(step[1]), {"objectClass": ["person"], "sn": step[2]})
            content.apply_notification(SyncUpdate(SyncAction.MODIFY, image.dn, image))
        elif step[0] == "remove":
            content.apply_notification(SyncUpdate.delete(dn(step[1])))
        elif step[0] == "ask":
            ask(step[1])
    for components in final_asks:
        ask(components)


class TestAttributeIndexSet:
    def test_consistent_insert_remove(self):
        ixs = AttributeIndexSet(AttributeType("sn"), {})
        ixs.insert(dn(1), ["Doe"])
        assert ixs.equality.lookup("doe") == {dn(1)}
        ixs.remove(dn(1), ["Doe"])
        assert ixs.equality.lookup("doe") == set()

    def test_substring_is_built_on_first_ask(self):
        atype = AttributeType("sn")
        images = {dn(i): Entry(dn(i), {"sn": [f"Doe{i}"]}).freeze() for i in range(3)}
        ixs = AttributeIndexSet(atype, images)
        for holder, image in images.items():
            ixs.insert(holder, image.get("sn"))
        assert ixs._substring is None
        assert ixs.substring.candidates(["doe1"]) == {dn(1)}
        # built, it is maintained
        images[dn(3)] = Entry(dn(3), {"sn": ["Doe10"]}).freeze()
        ixs.insert(dn(3), ["Doe10"])
        ixs.remove(dn(0), images.pop(dn(0)).get("sn"))
        assert ixs.substring.candidates(["doe1"]) == {dn(1), dn(3)}


# ----------------------------------------------------------------------
# the master's substring indexes exist once a query needs them
# ----------------------------------------------------------------------
SERIAL_BLOCK = "(serialNumber=0004*IN)"


@pytest.fixture(scope="module")
def directory():
    return generate_directory(DirectoryConfig(employees=1000, seed=20050607))


def loaded(directory, force=None) -> DirectoryServer:
    """A master loaded with *directory*; with *force*, that attribute's
    substring index is asked for before the load, so the load maintains
    it entry by entry."""
    master = DirectoryServer("master")
    master.add_naming_context(directory.suffix)
    if force is not None:
        master.store.index_for(force).substring
    master.load(directory.entries)
    return master


def built(master) -> set:
    """The attribute keys whose substring index has been built."""
    return {key for key, ixs in master.store._indexes.items() if ixs._substring is not None}


def test_load_builds_no_index_set_and_a_search_builds_only_its_own(directory):
    master = loaded(directory)
    assert master.store._indexes == {}
    mail = directory.entries[-1].first("mail")
    request = SearchRequest(directory.suffix, Scope.SUB, f"(mail={mail})")
    assert [e.dn for e in master.search(request).entries] == [directory.entries[-1].dn]
    assert list(master.store._indexes) == ["mail"]
    assert built(master) == set()


def test_load_builds_no_substring_index(directory):
    master = loaded(directory)
    assert built(master) == set()
    assert master.store.index_for("serialNumber").presence  # equality and presence are kept
    assert master.store.index_for("serialNumber").equality


def test_first_substring_search_builds_that_index_and_plans_as_if_kept(directory):
    lazy, kept = loaded(directory), loaded(directory, force="serialNumber")
    assert built(kept) == {"serialnumber"}
    request = SearchRequest(directory.suffix, Scope.SUB, SERIAL_BLOCK)
    results = {}
    for master in (lazy, kept):
        plan = master.store.plan_for(request.filter)
        found = master.search(request).entries
        examined = master.metrics.to_dict()["server.plan.examined"]
        results[master] = (plan.strategy, plan.estimate, plan.candidates, examined, found)
    assert built(lazy) == {"serialnumber"}
    assert results[lazy] == results[kept]
    strategy, _estimate, candidates, examined, found = results[lazy]
    assert strategy == "substring" and found
    assert examined == len(candidates) < len(lazy.store)


def test_master_holds_under_8_kb_per_entry(directory):
    """Traced bytes a load leaves held, per entry (keeping every index
    kind for every attribute held 11.4 kB here, n-gram postings the
    most)."""
    master = DirectoryServer("master")
    master.add_naming_context(directory.suffix)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        master.load(directory.entries)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(master.store) == len(directory.entries) == 1461
    assert held / len(master.store) <= 8 * 1024
