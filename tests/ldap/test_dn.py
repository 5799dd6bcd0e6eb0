"""Tests for DN parsing, serialization and ancestry predicates."""

import pytest
from hypothesis import given, strategies as st

from repro.ldap import DN, DNParseError, RDN, ROOT_DN


class TestRdn:
    def test_single_valued(self):
        rdn = RDN.single("cn", "John Doe")
        assert rdn.attr == "cn"
        assert rdn.value == "John Doe"
        assert str(rdn) == "cn=John Doe"

    def test_multi_valued_sorted_equality(self):
        a = RDN([("cn", "John"), ("sn", "Doe")])
        b = RDN([("sn", "Doe"), ("cn", "John")])
        assert a == b
        assert hash(a) == hash(b)

    def test_case_insensitive_equality(self):
        assert RDN.single("CN", "John") == RDN.single("cn", "JOHN")

    def test_whitespace_insensitive_value(self):
        assert RDN.single("cn", "John  Doe") == RDN.single("cn", "John Doe")

    def test_empty_value_rejected(self):
        with pytest.raises(DNParseError):
            RDN.single("cn", "")

    def test_empty_attr_rejected(self):
        with pytest.raises(DNParseError):
            RDN.single("", "x")

    def test_no_avas_rejected(self):
        with pytest.raises(DNParseError):
            RDN([])

    def test_ordering_is_consistent(self):
        assert RDN.single("a", "1") < RDN.single("b", "1")

    def test_repr(self):
        assert "cn=x" in repr(RDN.single("cn", "x"))


class TestDnParse:
    def test_basic(self):
        dn = DN.parse("cn=John Doe,ou=research,c=us,o=xyz")
        assert dn.depth() == 4
        assert dn.rdn.value == "John Doe"
        assert str(dn.parent) == "ou=research,c=us,o=xyz"

    def test_empty_is_root(self):
        assert DN.parse("") is ROOT_DN
        assert DN.parse("   ").is_root

    def test_roundtrip(self):
        text = "cn=John Doe,ou=research,c=us,o=xyz"
        assert str(DN.parse(text)) == text

    def test_text_is_built_once(self):
        """A DN never changes, so it remembers its text: every ``str()``
        after the first is the same object (the sketch, the journal and
        the snapshot all render DNs)."""
        dn = DN.parse(r"cn=Doe\, John,o=xyz")
        assert str(dn) is str(dn) == r"cn=Doe\, John,o=xyz"
        assert repr(dn) == r"DN('cn=Doe\\, John,o=xyz')"

    def test_escaped_comma(self):
        dn = DN.parse(r"cn=Doe\, John,o=xyz")
        assert dn.rdn.value == "Doe, John"
        assert DN.parse(str(dn)) == dn

    def test_escaped_equals(self):
        dn = DN.parse(r"cn=a\=b,o=xyz")
        assert dn.rdn.value == "a=b"

    def test_escaped_plus_in_value(self):
        dn = DN.parse(r"cn=a\+b,o=xyz")
        assert dn.rdn.value == "a+b"
        assert len(dn.rdn.avas) == 1

    def test_multivalued_rdn(self):
        dn = DN.parse("cn=John+sn=Doe,o=xyz")
        assert len(dn.rdn.avas) == 2

    def test_missing_equals_rejected(self):
        with pytest.raises(DNParseError):
            DN.parse("nonsense,o=xyz")

    def test_dangling_escape_rejected(self):
        with pytest.raises(DNParseError):
            DN.parse("cn=x\\")

    def test_leading_trailing_space_escapes(self):
        dn = DN((RDN.single("cn", " padded "),))
        assert DN.parse(str(dn)) == dn


class TestDnStructure:
    def test_root_has_no_parent(self):
        with pytest.raises(ValueError):
            _ = ROOT_DN.parent

    def test_root_has_no_rdn(self):
        with pytest.raises(ValueError):
            _ = ROOT_DN.rdn

    def test_child(self):
        dn = DN.parse("o=xyz").child("c=us")
        assert str(dn) == "c=us,o=xyz"

    def test_child_with_rdn_object(self):
        dn = DN.parse("o=xyz").child(RDN.single("c", "us"))
        assert str(dn) == "c=us,o=xyz"

    def test_ancestors(self):
        dn = DN.parse("cn=a,c=us,o=xyz")
        chain = [str(d) for d in dn.ancestors()]
        assert chain == ["c=us,o=xyz", "o=xyz", ""]

    def test_ancestors_include_self(self):
        dn = DN.parse("c=us,o=xyz")
        assert list(dn.ancestors(include_self=True))[0] == dn

    def test_iteration_and_len(self):
        dn = DN.parse("cn=a,o=xyz")
        assert len(dn) == 2
        assert [r.attr for r in dn] == ["cn", "o"]


class TestSuffixPredicates:
    def test_is_suffix_of(self):
        ancestor = DN.parse("o=xyz")
        descendant = DN.parse("cn=a,c=us,o=xyz")
        assert ancestor.is_suffix_of(descendant)
        assert not descendant.is_suffix_of(ancestor)

    def test_not_suffix_of_self(self):
        dn = DN.parse("o=xyz")
        assert not dn.is_suffix_of(dn)
        assert dn.is_ancestor_or_self(dn)

    def test_root_is_suffix_of_everything(self):
        assert ROOT_DN.is_suffix_of(DN.parse("o=xyz"))
        assert not ROOT_DN.is_suffix_of(ROOT_DN)

    def test_case_insensitive_suffix(self):
        assert DN.parse("O=XYZ").is_suffix_of(DN.parse("c=us,o=xyz"))

    def test_sibling_not_suffix(self):
        assert not DN.parse("c=us,o=xyz").is_suffix_of(DN.parse("c=in,o=xyz"))

    def test_lookalike_value_not_suffix(self):
        # "...,o=xyzzy" does not end with the RDN o=xyz
        assert not DN.parse("o=xyz").is_suffix_of(DN.parse("c=us,o=xyzzy"))

    def test_is_parent_of(self):
        parent = DN.parse("c=us,o=xyz")
        child = DN.parse("cn=a,c=us,o=xyz")
        assert parent.is_parent_of(child)
        assert not parent.is_parent_of(DN.parse("cn=a,cn=b,c=us,o=xyz"))
        assert not parent.is_parent_of(parent)

    def test_relative_to(self):
        dn = DN.parse("cn=a,ou=r,o=xyz")
        rdns = dn.relative_to(DN.parse("o=xyz"))
        assert [str(r) for r in rdns] == ["cn=a", "ou=r"]

    def test_relative_to_rejects_non_ancestor(self):
        with pytest.raises(ValueError):
            DN.parse("cn=a,o=xyz").relative_to(DN.parse("c=us,o=xyz"))

    def test_rename(self):
        dn = DN.parse("cn=a,ou=r,o=xyz")
        moved = dn.rename(DN.parse("ou=r,o=xyz"), DN.parse("ou=s,o=abc"))
        assert str(moved) == "cn=a,ou=s,o=abc"


class TestDnEquality:
    def test_equal_ignoring_case_and_space(self):
        assert DN.parse("CN=John  Doe,O=XYZ") == DN.parse("cn=john doe,o=xyz")

    def test_hashable(self):
        assert len({DN.parse("o=xyz"), DN.parse("O=XYZ")}) == 1

    def test_ordering_groups_siblings(self):
        a = DN.parse("cn=a,o=xyz")
        b = DN.parse("cn=b,o=xyz")
        assert a < b
        assert a <= a

    def test_not_equal_other_types(self):
        assert DN.parse("o=xyz") != "o=xyz"


# ----------------------------------------------------------------------
# property-based tests
# ----------------------------------------------------------------------
_attr = st.sampled_from(["cn", "ou", "o", "c", "uid", "l"])
_value = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), max_codepoint=0x7F),
    min_size=1,
    max_size=8,
)
_rdns = st.lists(
    st.tuples(_attr, _value).map(lambda t: RDN.single(*t)), min_size=0, max_size=5
)


@given(_rdns)
def test_parse_str_roundtrip(rdns):
    dn = DN(rdns)
    assert DN.parse(str(dn)) == dn


@given(_rdns, _rdns)
def test_concatenation_makes_suffix(prefix, suffix):
    base = DN(suffix)
    full = DN(tuple(prefix) + tuple(suffix))
    assert base.is_ancestor_or_self(full)
    if prefix:
        assert base.is_suffix_of(full)


@given(_rdns, _rdns, _rdns)
def test_suffix_transitive(a, b, c):
    d1 = DN(c)
    d2 = DN(tuple(b) + tuple(c))
    d3 = DN(tuple(a) + tuple(b) + tuple(c))
    if d1.is_suffix_of(d2) and d2.is_suffix_of(d3):
        assert d1.is_suffix_of(d3)
