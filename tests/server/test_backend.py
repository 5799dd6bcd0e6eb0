"""Tests for the EntryStore backend, incl. index-consistency property."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ldap import DN, Entry, Scope, SearchRequest, parse_filter, matches
from repro.server import DirectoryServer, EntryStore, LdapError, ResultCode, backend


def entry(dn_text: str, **attrs) -> Entry:
    attrs.setdefault("objectClass", ["person"])
    return Entry(dn_text, attrs)


@pytest.fixture()
def store() -> EntryStore:
    s = EntryStore()
    s.put(entry("o=xyz", objectClass=["organization"], o="xyz"))
    s.put(entry("c=us,o=xyz", objectClass=["country"], c="us"))
    s.put(entry("cn=a,c=us,o=xyz", cn="a", sn="alpha"))
    s.put(entry("cn=b,c=us,o=xyz", cn="b", sn="beta"))
    s.put(entry("cn=x,cn=a,c=us,o=xyz", cn="x", sn="deep"))
    return s


class TestBasics:
    def test_len_contains_get(self, store):
        assert len(store) == 5
        assert DN.parse("cn=a,c=us,o=xyz") in store
        assert store.get(DN.parse("cn=zz,o=xyz")) is None

    def test_get_returns_stored_copy(self, store):
        e = store.get(DN.parse("cn=a,c=us,o=xyz"))
        assert e.first("sn") == "alpha"

    def test_children_sorted(self, store):
        kids = store.children_of(DN.parse("c=us,o=xyz"))
        assert [str(k) for k in kids] == ["cn=a,c=us,o=xyz", "cn=b,c=us,o=xyz"]

    def test_a_second_identical_scan_sorts_nothing(self, store, monkeypatch):
        """A parent's sorted children are kept until a child of it is put
        or deleted, and the walk order does not change."""
        server = DirectoryServer("m")
        server.add_naming_context("o=xyz")
        server.load(store.images().values())
        sorts = []

        def counting(items, **kwargs):
            sorts.append(kwargs.get("key"))
            return sorted(items, **kwargs)

        scan = SearchRequest("o=xyz", Scope.SUB, "(!(sn=none))")
        first = [str(e.dn) for e in server.search(scan).entries]
        monkeypatch.setattr(backend, "sorted", counting, raising=False)
        assert [str(e.dn) for e in server.search(scan).entries] == first
        assert sorts == []
        server.add(entry("cn=c,c=us,o=xyz", cn="c", sn="gamma"))
        server.delete("cn=x,cn=a,c=us,o=xyz")
        walked = [str(e.dn) for e in server.search(scan).entries]
        # c=us gained a child; cn=a lost its only one, leaving nothing to sort
        assert len(sorts) == 1
        assert walked == [
            "o=xyz", "c=us,o=xyz", "cn=c,c=us,o=xyz", "cn=b,c=us,o=xyz", "cn=a,c=us,o=xyz",
        ]
        sorts.clear()
        server.search(scan)
        assert sorts == []

    def test_put_replaces_and_reindexes(self, store):
        updated = entry("cn=a,c=us,o=xyz", cn="a", sn="renamed")
        store.put(updated)
        assert store.candidates_for(parse_filter("(sn=alpha)")) == set()
        assert store.candidates_for(parse_filter("(sn=renamed)")) == {updated.dn}

    def test_delete_updates_children(self, store):
        store.delete(DN.parse("cn=b,c=us,o=xyz"))
        kids = store.children_of(DN.parse("c=us,o=xyz"))
        assert [str(k) for k in kids] == ["cn=a,c=us,o=xyz"]

    def test_delete_missing_returns_none(self, store):
        assert store.delete(DN.parse("cn=ghost,o=xyz")) is None

    def test_has_children(self, store):
        assert store.has_children(DN.parse("cn=a,c=us,o=xyz"))
        assert not store.has_children(DN.parse("cn=b,c=us,o=xyz"))

    def test_referral_dns_tracked(self, store):
        ref = Entry(
            "c=in,o=xyz", {"objectClass": ["referral"], "ref": "ldap://hostC"}
        )
        store.put(ref)
        assert store.referral_dns() == {ref.dn}
        store.delete(ref.dn)
        assert store.referral_dns() == set()


class TestSuffixAsRoot:
    """The suffix-as-root rule is the server's: a naming-context suffix
    is a tree root, exempt from the parent-must-exist rule, and every
    other entry needs its parent."""

    @pytest.fixture()
    def server(self) -> DirectoryServer:
        s = DirectoryServer("M")
        s.add_naming_context("o=xyz")
        s.add(entry("o=xyz", objectClass=["organization"], o="xyz"))  # a root: no parent
        s.add(entry("c=us,o=xyz", objectClass=["country"], c="us"))
        return s

    def test_the_roots_are_the_suffixes(self, server):
        assert [c.suffix for c in server.naming_contexts] == [DN.parse("o=xyz")]
        assert DN.parse("o=xyz") in server.store

    def test_has_parent(self, server):
        server.add(entry("cn=new,c=us,o=xyz", cn="new"))
        with pytest.raises(LdapError) as refused:
            server.add(entry("cn=new,c=zz,o=xyz", cn="new"))
        assert refused.value.code is ResultCode.NO_SUCH_OBJECT
        assert DN.parse("cn=new,c=zz,o=xyz") not in server.store


class TestRegions:
    """A scope's region, read from the tree and order structures."""

    def test_base(self, store):
        assert str(store.get(DN.parse("c=us,o=xyz")).dn) == "c=us,o=xyz"
        assert store.subtree_region(DN.parse("cn=b,c=us,o=xyz")) == [DN.parse("cn=b,c=us,o=xyz")]

    def test_base_missing(self, store):
        assert store.get(DN.parse("c=zz,o=xyz")) is None
        assert store.subtree_region(DN.parse("c=zz,o=xyz")) == []

    def test_one(self, store):
        got = {str(dn) for dn in store.children_of(DN.parse("c=us,o=xyz"))}
        assert got == {"cn=a,c=us,o=xyz", "cn=b,c=us,o=xyz"}

    def test_sub_includes_base_and_deep(self, store):
        got = [str(dn) for dn in store.subtree_region(DN.parse("c=us,o=xyz"))]
        assert got[0] == "c=us,o=xyz"  # parents first
        assert set(got) == {
            "c=us,o=xyz",
            "cn=a,c=us,o=xyz",
            "cn=b,c=us,o=xyz",
            "cn=x,cn=a,c=us,o=xyz",
        }

    def test_sub_traverses_absent_root(self):
        s = EntryStore()
        s.put(entry("o=xyz", objectClass=["organization"], o="xyz"))
        assert [str(dn) for dn in s.subtree_region(DN(()))] == ["o=xyz"]
        assert s.children_of(DN(())) == [DN.parse("o=xyz")]

    def test_subtree_of_a_leaf_parent(self, store):
        dns = store.subtree_region(DN.parse("cn=a,c=us,o=xyz"))
        assert len(dns) == 2


class TestCandidates:
    def test_equality_candidates(self, store):
        cands = store.candidates_for(parse_filter("(sn=beta)"))
        assert cands == {DN.parse("cn=b,c=us,o=xyz")}

    def test_and_picks_most_selective(self, store):
        cands = store.candidates_for(parse_filter("(&(objectClass=person)(sn=beta))"))
        assert cands == {DN.parse("cn=b,c=us,o=xyz")}

    def test_or_not_narrowed(self, store):
        assert store.candidates_for(parse_filter("(|(sn=beta)(sn=alpha))")) is None
        assert store.plan_for(parse_filter("(|(sn=beta)(sn=alpha))")).strategy == "scan"

    def test_presence_uses_presence_index(self, store):
        # The store is tiny, so the planner returns the presence set
        # rather than degrading to a scan (see SearchPlanner.MIN_SCAN_SIZE).
        plan = store.plan_for(parse_filter("(sn=*)"))
        assert plan.strategy == "presence"
        assert plan.candidates == {
            DN.parse("cn=a,c=us,o=xyz"),
            DN.parse("cn=b,c=us,o=xyz"),
            DN.parse("cn=x,cn=a,c=us,o=xyz"),
        }

    def test_not_not_narrowed(self, store):
        assert store.candidates_for(parse_filter("(!(sn=beta))")) is None
        assert store.plan_for(parse_filter("(!(sn=beta))")).strategy == "scan"

    def test_missing_attribute_is_absent(self, store):
        plan = store.plan_for(parse_filter("(nosuchattr=x)"))
        assert plan.strategy == "absent"
        assert plan.candidates == set()

    def test_an_attribute_whose_last_holder_left_is_absent(self, store):
        assert store.plan_for(parse_filter("(c=us)")).strategy == "equality"
        store.delete(DN.parse("c=us,o=xyz"))  # c's set is built: kept up to date
        plan = store.plan_for(parse_filter("(c=us)"))
        assert (plan.strategy, plan.candidates) == ("absent", set())


# ----------------------------------------------------------------------
# property: candidates are always a superset of true matches
# ----------------------------------------------------------------------
_names = st.lists(
    st.text(alphabet="abcdef", min_size=1, max_size=4), min_size=1, max_size=12, unique=True
)


@settings(max_examples=50, deadline=None)
@given(_names, st.text(alphabet="abcdef", min_size=1, max_size=3))
def test_candidates_superset_property(names, needle):
    store = EntryStore()
    store.put(entry("o=xyz", objectClass=["organization"], o="xyz"))
    for i, name in enumerate(names):
        store.put(entry(f"cn=e{i},o=xyz", cn=f"e{i}", sn=name))
    for flt_text in (f"(sn={needle})", f"(sn={needle}*)", f"(sn>={needle})", f"(sn<={needle})"):
        flt = parse_filter(flt_text)
        true_matches = {e.dn for e in store.all_entries() if matches(flt, e)}
        cands = store.candidates_for(flt)
        if cands is not None:
            assert true_matches <= cands
