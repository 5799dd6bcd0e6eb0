"""Tests for the object-class schema registry and validation."""

from repro.ldap import DEFAULT_SCHEMA, Entry, ObjectClass, SchemaRegistry, validate_entry


class TestRegistry:
    def test_known_classes(self):
        for name in ("top", "person", "inetOrgPerson", "referral", "country"):
            assert DEFAULT_SCHEMA.known(name)

    def test_case_insensitive(self):
        assert DEFAULT_SCHEMA.get("INETORGPERSON") is DEFAULT_SCHEMA.get("inetOrgPerson")

    def test_superior_chain(self):
        chain = [oc.name for oc in DEFAULT_SCHEMA.superior_chain("inetOrgPerson")]
        assert chain == ["inetOrgPerson", "organizationalPerson", "person", "top"]

    def test_effective_must_inherits(self):
        must = DEFAULT_SCHEMA.effective_must("inetOrgPerson")
        assert {"cn", "sn", "objectclass"} <= must

    def test_effective_may_inherits(self):
        may = DEFAULT_SCHEMA.effective_may("inetOrgPerson")
        assert "mail" in may and "telephonenumber" in may

    def test_cycle_guard(self):
        reg = SchemaRegistry(
            [
                ObjectClass("a", superior="b"),
                ObjectClass("b", superior="a"),
            ]
        )
        chain = reg.superior_chain("a")
        assert len(chain) == 2  # terminates despite the cycle

    def test_unknown_get_returns_none(self):
        assert DEFAULT_SCHEMA.get("no-such-class") is None


class TestValidation:
    def test_valid_person(self):
        entry = Entry(
            "cn=a,o=xyz",
            {"objectClass": ["person", "top"], "cn": "a", "sn": "b"},
        )
        assert validate_entry(entry) == []

    def test_valid_person_spelled_with_aliases(self):
        # MUST attributes are held by key: `surname`/`commonName` carry
        # the person class's `sn`/`cn`.
        entry = Entry(
            "cn=a,o=xyz",
            {"objectClass": ["person", "top"], "commonName": "a", "surname": "b"},
        )
        assert validate_entry(entry) == []

    def test_missing_must(self):
        entry = Entry("cn=a,o=xyz", {"objectClass": ["person", "top"], "cn": "a"})
        problems = validate_entry(entry)
        assert any("sn" in v.problem for v in problems)

    def test_no_objectclass(self):
        problems = validate_entry(Entry("cn=a,o=xyz", {"cn": "a"}))
        assert len(problems) == 1
        assert "no objectClass" in problems[0].problem

    def test_unknown_class_reported(self):
        entry = Entry("cn=a,o=xyz", {"objectClass": ["martian"], "cn": "a"})
        problems = validate_entry(entry)
        assert any("unknown" in v.problem for v in problems)

    def test_referral_class(self):
        entry = Entry(
            "c=in,o=xyz",
            {"objectClass": ["referral", "top"], "ref": "ldap://hostC"},
        )
        assert validate_entry(entry) == []

    def test_may_attributes_not_policed(self):
        entry = Entry(
            "cn=a,o=xyz",
            {
                "objectClass": ["person", "top"],
                "cn": "a",
                "sn": "b",
                "x-extra": "tolerated",
            },
        )
        assert validate_entry(entry) == []
