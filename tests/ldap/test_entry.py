"""Tests for the Entry model."""

import pytest

from repro.ldap import DN, Entry


def make_entry() -> Entry:
    return Entry(
        "cn=John Doe,ou=research,c=us,o=xyz",
        {
            "cn": ["John Doe", "John M Doe"],
            "objectClass": ["inetOrgPerson", "top"],
            "telephoneNumber": "2618-2618",
            "mail": "john@us.xyz.com",
            "serialNumber": "0456",
            "departmentNumber": 80,
        },
    )


class TestConstruction:
    def test_dn_parsing(self):
        entry = make_entry()
        assert entry.dn == DN.parse("cn=John Doe,ou=research,c=us,o=xyz")

    def test_scalar_and_int_values(self):
        entry = make_entry()
        assert entry.get("departmentNumber") == ["80"]
        assert entry.first("telephoneNumber") == "2618-2618"

    def test_multi_values_preserved(self):
        assert make_entry().get("cn") == ["John Doe", "John M Doe"]

    def test_object_classes(self):
        assert make_entry().object_classes == {"inetorgperson", "top"}


class TestMutation:
    def test_put_replaces(self):
        entry = make_entry()
        entry.put("mail", "new@x.com")
        assert entry.get("mail") == ["new@x.com"]

    def test_put_empty_removes(self):
        entry = make_entry()
        entry.put("mail", [])
        assert not entry.has_attribute("mail")

    def test_add_values_dedupes_normalized(self):
        entry = make_entry()
        entry.add_values("cn", ["JOHN DOE", "Johnny"])
        assert entry.get("cn") == ["John Doe", "John M Doe", "Johnny"]

    def test_add_values_new_attribute(self):
        entry = make_entry()
        entry.add_values("title", "Engineer")
        assert entry.get("title") == ["Engineer"]

    def test_remove_specific_values(self):
        entry = make_entry()
        entry.remove_values("cn", ["john m doe"])
        assert entry.get("cn") == ["John Doe"]

    def test_remove_last_value_drops_attribute(self):
        entry = make_entry()
        entry.remove_values("mail", ["john@us.xyz.com"])
        assert not entry.has_attribute("mail")

    def test_remove_whole_attribute(self):
        entry = make_entry()
        entry.remove_values("cn")
        assert not entry.has_attribute("cn")

    def test_remove_absent_is_noop(self):
        entry = make_entry()
        entry.remove_values("nonexistent")


class TestAccess:
    def test_case_insensitive_names(self):
        entry = make_entry()
        assert entry.get("MAIL") == ["john@us.xyz.com"]
        assert "Mail" in entry

    def test_first_absent_is_none(self):
        assert make_entry().first("nope") is None

    def test_normalized_values(self):
        assert make_entry().normalized_values("cn") == {"john doe", "john m doe"}

    def test_attribute_names_canonical(self):
        names = make_entry().attribute_names()
        assert "objectClass" in names

    def test_iteration(self):
        pairs = dict(iter(make_entry()))
        assert pairs["serialNumber"] == ["0456"]


class TestRemembered:
    """A frozen image derives its normalized values and its size once;
    a mutable entry derives them afresh, so an edit is never missed."""

    def test_normalized_values_in_value_order_under_any_spelling(self):
        entry = make_entry()
        assert entry.normalized("cn") == ("john doe", "john m doe")
        assert entry.normalized("commonName") == entry.normalized("CN")
        assert entry.normalized("departmentNumber") == ("80",)
        assert entry.normalized("nope") == ()

    def test_mutable_entry_reads_its_edits(self):
        entry = make_entry()
        assert entry.normalized("mail") == ("john@us.xyz.com",)
        size = entry.estimated_size()
        entry.put("mail", " New@X.com ")
        assert entry.normalized("mail") == ("New@X.com",)  # case-exact: strip only
        assert entry.estimated_size() == size + len(" New@X.com ") - len("john@us.xyz.com")

    def test_frozen_image_remembers_and_its_copy_does_not(self):
        entry = make_entry().freeze()
        first = entry.normalized("cn")
        assert entry.normalized("cn") is first
        assert entry.estimated_size() == make_entry().estimated_size()
        thawed = entry.copy()
        thawed.put("cn", "Jane")
        assert thawed.normalized("cn") == ("jane",)
        assert entry.normalized("cn") is first
        assert sorted(entry) == sorted(make_entry()) and entry == make_entry()

    def test_unchanged_values_are_shared_not_copied(self):
        entry = Entry("cn=a,o=xyz", {"objectClass": ["person", "Top "], "mail": "a@x"}).freeze()
        person, top = entry.normalized("objectClass")
        assert person is entry.values_by_key()["objectclass"][0]
        assert top == "top"
        assert entry.normalized("mail")[0] is entry.values_by_key()["mail"][0]


# every registered spelling of two types, plus an unregistered name
_SPELLINGS = [
    ("sn", "SN", "surname", "SurName"),
    ("l", "localityName", "location", "LOCATION"),
    ("x-extra", "X-Extra"),
]


class TestOneValueListPerAttribute:
    @pytest.mark.parametrize("spellings", _SPELLINGS)
    def test_every_accessor_resolves_every_spelling_to_one_slot(self, spellings):
        for stored in spellings:
            for read in spellings:
                entry = Entry("cn=a,o=xyz", {"cn": "a"})
                entry.put(stored, ["v", "w"])
                assert entry.get(read) == ["v", "w"]
                assert entry.first(read) == "v"
                assert entry.has_attribute(read) and read in entry
                assert entry.normalized_values(read) == {"v", "w"}
                assert dict(entry.project([read]))[entry.registry.canonical(stored)] == ["v", "w"]
                entry.add_values(read, ["W", "x"])
                assert entry.get(stored) == ["v", "w", "x"]
                entry.remove_values(read, ["V"])
                assert entry.get(stored) == ["w", "x"]
                entry.put(read, "y")  # replace, as SN over sn always did
                assert entry.get(stored) == ["y"]
                assert len(entry.attribute_names()) == 2
                entry.remove_values(read)
                assert not entry.has_attribute(stored)

    def test_two_spellings_in_one_mapping_fill_one_list_in_order(self):
        entry = Entry("cn=a,o=xyz", {"sn": ["a", "b"], "surname": "a", "SN": ["c"]})
        assert entry.get("sn") == ["a", "b", "a", "c"]  # verbatim, none dropped
        assert entry.attribute_names() == ["sn"]
        assert entry.values_by_key() == {"sn": ["a", "b", "a", "c"]}

    def test_spelling_is_not_semantic(self):
        a = Entry("cn=a,o=xyz", {"surname": "x", "commonName": "a"})
        b = Entry("cn=a,o=xyz", {"SN": "X", "cn": "A"})
        assert a.semantically_equal(b)
        assert not a.semantically_equal(Entry("cn=a,o=xyz", {"sn": "y", "cn": "a"}))


class TestCopyProject:
    def test_copy_is_independent(self):
        entry = make_entry()
        clone = entry.copy()
        clone.put("mail", "other@x.com")
        assert entry.first("mail") == "john@us.xyz.com"

    def test_with_dn(self):
        entry = make_entry()
        moved = entry.with_dn("cn=John Doe,c=in,o=xyz")
        assert moved.dn != entry.dn
        assert moved.get("cn") == entry.get("cn")

    def test_project_subset(self):
        projected = make_entry().project(["mail", "cn"])
        assert projected.has_attribute("mail")
        assert not projected.has_attribute("serialNumber")

    def test_project_star_keeps_all(self):
        projected = make_entry().project(["*"])
        assert projected.has_attribute("serialNumber")

    def test_project_none_keeps_all(self):
        assert make_entry().project(None).has_attribute("serialNumber")


class TestEqualityAndSize:
    def test_semantic_equality_ignores_case(self):
        a = make_entry()
        b = make_entry()
        b.put("cn", ["JOHN DOE", "john m doe"])
        assert a == b

    def test_different_dn_not_equal(self):
        assert make_entry() != make_entry().with_dn("cn=x,o=xyz")

    def test_different_attrs_not_equal(self):
        other = make_entry()
        other.put("title", "Boss")
        assert make_entry() != other

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(make_entry())

    def test_estimated_size_from_stamp(self):
        entry = make_entry()
        entry.put("entrySizeBytes", "6000")
        assert entry.estimated_size() == 6000

    def test_estimated_size_without_stamp(self):
        size = make_entry().estimated_size()
        assert size > len("cn=John Doe,ou=research,c=us,o=xyz")

    def test_bad_stamp_falls_back(self):
        entry = make_entry()
        entry.put("entrySizeBytes", "not-a-number")
        assert entry.estimated_size() > 0
