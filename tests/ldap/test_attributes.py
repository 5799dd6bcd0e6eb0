"""Tests for attribute types, syntaxes and the registry."""


from repro.ldap import AttributeRegistry, AttributeType, DEFAULT_REGISTRY, Syntax
from repro.ldap.attributes import normalize_value


class TestNormalization:
    def test_directory_string_case_folds(self):
        at = AttributeType("cn")
        assert at.normalize("John  DOE ") == "john doe"

    def test_case_exact_keeps_case(self):
        at = AttributeType("mail", syntax=Syntax.CASE_EXACT_STRING)
        assert at.normalize(" John@x.com ") == "John@x.com"

    def test_integer_parses(self):
        at = AttributeType("age", syntax=Syntax.INTEGER)
        assert at.normalize("042") == 42
        assert at.normalize(" 7 ") == 7

    def test_integer_fallback_on_garbage(self):
        at = AttributeType("age", syntax=Syntax.INTEGER)
        assert at.normalize("unknown") == "unknown"

    def test_dn_string_case_folds(self):
        at = AttributeType("manager", syntax=Syntax.DN_STRING)
        assert at.normalize("CN=Boss,O=XYZ") == "cn=boss,o=xyz"


class TestRegistry:
    def test_known_types_resolve(self):
        assert DEFAULT_REGISTRY.get("sn").name == "sn"
        assert DEFAULT_REGISTRY.known("serialNumber")

    def test_aliases_resolve(self):
        assert DEFAULT_REGISTRY.get("surname").name == "sn"
        assert DEFAULT_REGISTRY.get("commonName").name == "cn"

    def test_case_insensitive_lookup(self):
        assert DEFAULT_REGISTRY.get("SERIALNUMBER").name == "serialNumber"

    def test_unknown_synthesized(self):
        at = DEFAULT_REGISTRY.get("x-custom-attr")
        assert at.name == "x-custom-attr"
        assert at.syntax is Syntax.DIRECTORY_STRING
        assert not DEFAULT_REGISTRY.known("x-custom-attr")

    def test_canonical_spelling(self):
        assert DEFAULT_REGISTRY.canonical("OBJECTCLASS") == "objectClass"
        assert DEFAULT_REGISTRY.canonical("never-seen") == "never-seen"

    def test_key_is_one_per_type(self):
        # Any case, any alias: the lower-cased canonical name.
        for spelling in ("sn", "SN", "surname", "SurName"):
            assert DEFAULT_REGISTRY.key(spelling) == "sn"
        assert DEFAULT_REGISTRY.key("localityName") == DEFAULT_REGISTRY.key("location") == "l"
        assert DEFAULT_REGISTRY.key("telephoneNumber") == "telephonenumber"
        # Unregistered: the lower-cased spelling; "*" stays itself.
        assert DEFAULT_REGISTRY.key("X-Custom") == "x-custom"
        assert DEFAULT_REGISTRY.key("*") == "*"
        # A key is its own key, and one shared string per attribute.
        assert DEFAULT_REGISTRY.key("sn") is DEFAULT_REGISTRY.key("SURNAME")

    def test_register_clears_the_key_memo(self):
        reg = AttributeRegistry()
        assert reg.key("Bar") == "bar"
        reg.register(AttributeType("foo", aliases=("bar",)))
        assert reg.key("Bar") == reg.key("FOO") == "foo"

    def test_custom_registry_registration(self):
        reg = AttributeRegistry()
        reg.register(AttributeType("foo", aliases=("bar",)))
        assert reg.get("BAR").name == "foo"

    def test_age_is_integer_syntax(self):
        assert DEFAULT_REGISTRY.get("age").syntax is Syntax.INTEGER

    def test_objectclass_not_ordered(self):
        assert not DEFAULT_REGISTRY.get("objectClass").ordered


class TestModuleHelpers:
    def test_normalize_value_defaults(self):
        assert normalize_value("cn", "ABC") == "abc"

    def test_normalize_value_custom_registry(self):
        reg = AttributeRegistry([AttributeType("n", syntax=Syntax.INTEGER)])
        assert normalize_value("n", "5", reg) == 5
