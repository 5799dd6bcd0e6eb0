"""Tests for the QC algorithm: region, attribute and full containment."""


from repro.core import (
    attributes_contained_in,
    query_contained_in,
    region_contained_in,
    template_key,
)
from repro.ldap import Scope, SearchRequest, parse_filter


def region(b, s, bs, ss) -> bool:
    return region_contained_in(
        SearchRequest(b, s, "(a=1)"), SearchRequest(bs, ss, "(a=1)")
    )


class TestRegionSameBase:
    def test_equal_scope(self):
        for s in Scope:
            assert region("o=xyz", s, "o=xyz", s)

    def test_subtree_contains_narrower(self):
        assert region("o=xyz", Scope.BASE, "o=xyz", Scope.SUB)
        assert region("o=xyz", Scope.ONE, "o=xyz", Scope.SUB)

    def test_narrower_scope_does_not_contain_wider(self):
        assert not region("o=xyz", Scope.SUB, "o=xyz", Scope.ONE)
        assert not region("o=xyz", Scope.ONE, "o=xyz", Scope.BASE)

    def test_base_not_in_one_level(self):
        """Documented deviation from the paper's pseudocode: a ONE
        search excludes the base entry, so BASE ⊄ ONE at equal bases."""
        assert not region("o=xyz", Scope.BASE, "o=xyz", Scope.ONE)


class TestRegionAncestorBase:
    def test_subtree_over_descendant(self):
        for s in Scope:
            assert region("c=us,o=xyz", s, "o=xyz", Scope.SUB)

    def test_one_level_over_child_base(self):
        assert region("c=us,o=xyz", Scope.BASE, "o=xyz", Scope.ONE)

    def test_one_level_not_over_grandchild(self):
        assert not region("cn=a,c=us,o=xyz", Scope.BASE, "o=xyz", Scope.ONE)

    def test_one_level_not_over_child_subtree(self):
        assert not region("c=us,o=xyz", Scope.SUB, "o=xyz", Scope.ONE)
        assert not region("c=us,o=xyz", Scope.ONE, "o=xyz", Scope.ONE)

    def test_base_scope_stored_covers_nothing_below(self):
        assert not region("c=us,o=xyz", Scope.BASE, "o=xyz", Scope.BASE)

    def test_unrelated_bases(self):
        assert not region("c=us,o=abc", Scope.BASE, "o=xyz", Scope.SUB)

    def test_descendant_does_not_cover_ancestor(self):
        assert not region("o=xyz", Scope.SUB, "c=us,o=xyz", Scope.SUB)

    def test_root_subtree_covers_everything(self):
        assert region("cn=deep,c=us,o=xyz", Scope.SUB, "", Scope.SUB)


class TestAttributeContainment:
    def test_star_contains_all(self):
        q = SearchRequest("o=xyz", attributes=["mail"])
        qs = SearchRequest("o=xyz")
        assert attributes_contained_in(q, qs)

    def test_all_not_in_subset(self):
        q = SearchRequest("o=xyz")
        qs = SearchRequest("o=xyz", attributes=["mail"])
        assert not attributes_contained_in(q, qs)

    def test_subset(self):
        # The filter tests only held attributes (condition (ii)'s second half).
        q = SearchRequest("o=xyz", filter="(mail=*)", attributes=["mail"])
        qs = SearchRequest("o=xyz", filter="(mail=*)", attributes=["mail", "cn"])
        assert attributes_contained_in(q, qs)
        assert not attributes_contained_in(qs, q)

    def test_case_insensitive(self):
        q = SearchRequest("o=xyz", attributes=["MAIL"])
        qs = SearchRequest("o=xyz", attributes=["mail"])
        assert attributes_contained_in(q, qs)

    def test_alias_insensitive(self):
        # Condition (ii), A ⊆ As, is over attribute types, not spellings.
        q = SearchRequest("o=xyz", filter="(surname=*)", attributes=["surname", "commonName"])
        qs = SearchRequest("o=xyz", attributes=["cn", "sn", "mail"])
        assert attributes_contained_in(q, qs)
        assert q.attributes == SearchRequest("o=xyz", attributes=["SN", "cn"]).attributes


class TestFullQc:
    def test_all_three_conditions(self):
        q = SearchRequest(
            "c=us,o=xyz", Scope.SUB, "(&(sn=Doe)(givenName=J))", ["mail"]
        )
        qs = SearchRequest("o=xyz", Scope.SUB, "(sn=Doe)", ["mail", "cn", "sn", "givenName"])
        assert query_contained_in(q, qs)

    def test_region_failure(self):
        q = SearchRequest("o=abc", Scope.SUB, "(sn=Doe)")
        qs = SearchRequest("o=xyz", Scope.SUB, "(sn=Doe)")
        assert not query_contained_in(q, qs)

    def test_attribute_failure(self):
        q = SearchRequest("o=xyz", Scope.SUB, "(sn=Doe)", ["mail", "cn"])
        qs = SearchRequest("o=xyz", Scope.SUB, "(sn=Doe)", ["mail"])
        assert not query_contained_in(q, qs)

    def test_filter_failure(self):
        q = SearchRequest("o=xyz", Scope.SUB, "(sn=Smith)")
        qs = SearchRequest("o=xyz", Scope.SUB, "(sn=Doe)")
        assert not query_contained_in(q, qs)

    def test_null_based_query_in_null_based_stored(self):
        """§3.1.1: filter replicas answer null-based queries."""
        q = SearchRequest("", Scope.SUB, "(serialNumber=004217IN)")
        qs = SearchRequest("", Scope.SUB, "(serialNumber=0042*IN)")
        assert query_contained_in(q, qs)

    def test_memoized_path_consistent(self):
        q = SearchRequest("o=xyz", Scope.SUB, "(sn=Doe)")
        qs = SearchRequest("o=xyz", Scope.SUB, "(sn=*)")
        assert query_contained_in(q, qs)
        assert query_contained_in(q, qs)  # cached second call

    def test_containment_does_not_depend_on_spelling(self):
        q = SearchRequest("o=xyz", Scope.SUB, "(surname=aa)")
        qs = SearchRequest("o=xyz", Scope.SUB, "(sn=a*)")
        assert query_contained_in(q, qs)
        assert query_contained_in(q, SearchRequest("o=xyz", Scope.SUB, "(SurName=*)"))
        assert not query_contained_in(q, SearchRequest("o=xyz", Scope.SUB, "(cn=a*)"))
        # ...and neither does the template a filter groups under.
        assert template_key(q.filter) == template_key(parse_filter("(sn=zz)"))
        assert template_key(parse_filter("(&(commonName=a)(surname=b*))")) == template_key(
            parse_filter("(&(sn=c*)(cn=d))")
        )

    def test_custom_registry_path(self):
        from repro.ldap import AttributeRegistry, AttributeType, Syntax

        reg = AttributeRegistry([AttributeType("age", syntax=Syntax.INTEGER)])
        q = SearchRequest("o=xyz", Scope.SUB, "(age=9)")
        qs = SearchRequest("o=xyz", Scope.SUB, "(age<=30)")
        assert query_contained_in(q, qs, registry=reg)
