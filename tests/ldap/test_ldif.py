"""Tests for LDIF serialization and parsing."""

import hashlib
import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ldap import (
    Entry,
    Scope,
    SearchRequest,
    entries_to_ldif,
    entry_to_ldif,
    parse_ldif,
    write_ldif,
)
from repro.ldap.ldif import _is_safe
from repro.server import DirectoryServer
from repro.sync import ResyncProvider, SyncedContent
from repro.sync.snapshot import encode_snapshot
from repro.workload import DirectoryConfig, generate_directory
from tests.oracles import per_character_is_safe


def sample() -> Entry:
    return Entry(
        "cn=John Doe,o=xyz",
        {"objectClass": ["person"], "cn": "John Doe", "sn": "Doe"},
    )


class TestRender:
    def test_dn_first_line(self):
        assert entry_to_ldif(sample()).splitlines()[0] == "dn: cn=John Doe,o=xyz"

    def test_attributes_sorted(self):
        lines = entry_to_ldif(sample()).splitlines()[1:]
        names = [line.split(":")[0] for line in lines]
        assert names == sorted(names, key=str.lower)

    def test_unsafe_value_base64(self):
        entry = Entry("cn=x,o=xyz", {"objectClass": ["person"], "cn": "x", "sn": " café"})
        text = entry_to_ldif(entry)
        assert "sn:: " in text

    def test_leading_colon_base64(self):
        entry = Entry("cn=x,o=xyz", {"cn": ":odd"})
        assert "cn:: " in entry_to_ldif(entry)

    def test_entries_sorted_by_dn(self):
        a = Entry("cn=b,o=xyz", {"cn": "b"})
        b = Entry("cn=a,o=xyz", {"cn": "a"})
        text = entries_to_ldif([a, b])
        assert text.index("cn=a,o=xyz") < text.index("cn=b,o=xyz")


class TestParse:
    def test_roundtrip(self):
        entry = sample()
        parsed = list(parse_ldif(entry_to_ldif(entry)))
        assert len(parsed) == 1
        assert parsed[0] == entry

    def test_base64_roundtrip(self):
        entry = Entry("cn=x,o=xyz", {"objectClass": ["person"], "cn": "x", "sn": " café"})
        assert list(parse_ldif(entry_to_ldif(entry)))[0] == entry

    def test_roundtrip_of_an_entry_spelled_with_aliases(self):
        entry = Entry("cn=a,o=xyz", {"commonName": "a", "surname": ["aa", "AA "]})
        (parsed,) = parse_ldif(entry_to_ldif(entry))
        assert parsed.semantically_equal(entry)
        assert parsed.get("surname") == entry.get("sn") == ["aa", "AA "]

    def test_spellings_of_one_attribute_fill_one_list_in_record_order(self):
        (entry,) = parse_ldif("dn: cn=a,o=xyz\nsn: a\nsurname: b\nSN: a\ncn: a\n")
        assert entry.get("sn") == ["a", "b", "a"]
        assert entry.attribute_names() == ["sn", "cn"]

    def test_multiple_records(self):
        entries = [
            Entry("cn=a,o=xyz", {"cn": "a"}),
            Entry("cn=b,o=xyz", {"cn": "b"}),
        ]
        parsed = list(parse_ldif(entries_to_ldif(entries)))
        assert len(parsed) == 2

    def test_comments_skipped(self):
        text = "# header\ndn: cn=a,o=xyz\ncn: a\n"
        parsed = list(parse_ldif(text))
        assert parsed[0].first("cn") == "a"

    def test_continuation_lines(self):
        text = "dn: cn=a,o=xyz\ncn: long\n  value\n"
        parsed = list(parse_ldif(text))
        assert parsed[0].first("cn") == "long value"

    def test_missing_dn_rejected(self):
        with pytest.raises(ValueError):
            list(parse_ldif("cn: orphan\n"))

    def test_write_ldif(self):
        buf = io.StringIO()
        write_ldif([sample()], buf)
        assert "dn: cn=John Doe,o=xyz" in buf.getvalue()


class TestWhitespaceRoundTrip:
    """Leading/trailing whitespace must survive the dump exactly —
    a snapshot-restored replica must not silently differ from what was
    dumped (ISSUE 7 satellite: the old writer deemed ``"foo "`` safe
    while the old parser stripped it back to ``"foo"``)."""

    def test_trailing_space_base64(self):
        entry = Entry("cn=x,o=xyz", {"cn": ["x"], "sn": ["foo "]})
        assert "sn:: " in entry_to_ldif(entry)

    def test_trailing_space_roundtrip(self):
        entry = Entry("cn=x,o=xyz", {"cn": ["x"], "sn": ["foo "]})
        parsed = list(parse_ldif(entry_to_ldif(entry)))[0]
        assert parsed.get("sn") == ["foo "]

    def test_leading_space_roundtrip(self):
        entry = Entry("cn=x,o=xyz", {"cn": ["x"], "sn": [" foo"]})
        parsed = list(parse_ldif(entry_to_ldif(entry)))[0]
        assert parsed.get("sn") == [" foo"]

    def test_interior_whitespace_kept(self):
        # Safe values keep their interior spacing through the plain path.
        parsed = list(parse_ldif("dn: cn=a,o=xyz\ncn: two  spaces\n"))[0]
        assert parsed.get("cn") == ["two  spaces"]

    def test_empty_value_roundtrip(self):
        entry = Entry("cn=x,o=xyz", {"cn": ["x"], "description": [""]})
        parsed = list(parse_ldif(entry_to_ldif(entry)))[0]
        assert parsed.get("description") == [""]


class TestParseErrors:
    """Malformed lines fail with a ValueError naming the offending
    line — never a raw binascii traceback (ISSUE 7 satellite)."""

    def test_bad_base64_named(self):
        with pytest.raises(ValueError, match=r"sn:: %%%not-base64"):
            list(parse_ldif("dn: cn=a,o=xyz\nsn:: %%%not-base64\n"))

    def test_bad_utf8_named(self):
        # Valid base64, but the bytes are not UTF-8.
        with pytest.raises(ValueError, match=r"undecodable base64"):
            list(parse_ldif("dn: cn=a,o=xyz\nsn:: /w==\n"))

    def test_url_reference_rejected(self):
        with pytest.raises(ValueError, match=r"not supported.*file://"):
            list(parse_ldif("dn: cn=a,o=xyz\njpegPhoto:< file:///x.jpg\n"))

    def test_separatorless_line_named(self):
        with pytest.raises(ValueError, match=r"':' separator.*garbage"):
            list(parse_ldif("dn: cn=a,o=xyz\ngarbage\n"))

    def test_nameless_line_rejected(self):
        with pytest.raises(ValueError, match=r"attribute name"):
            list(parse_ldif("dn: cn=a,o=xyz\n: nameless\n"))


class TestVersionLine:
    """A leading RFC 2849 ``version: 1`` line is recognized and
    skipped, so foreign-tool LDIF parses (ISSUE 7 satellite)."""

    # The shape ldapsearch/OpenLDAP tools emit: version line, comments,
    # then records.
    FOREIGN = (
        "version: 1\n"
        "# extended LDIF\n"
        "#\n"
        "dn: cn=a,o=xyz\n"
        "cn: a\n"
        "\n"
        "dn: cn=b,o=xyz\n"
        "cn: b\n"
    )

    def test_version_line_skipped(self):
        parsed = list(parse_ldif(self.FOREIGN))
        assert [str(e.dn) for e in parsed] == ["cn=a,o=xyz", "cn=b,o=xyz"]

    def test_version_with_blank_line_after(self):
        parsed = list(parse_ldif("version: 1\n\ndn: cn=a,o=xyz\ncn: a\n"))
        assert len(parsed) == 1

    def test_version_attribute_inside_record_kept(self):
        # Only the file head is special: a ``version`` attribute inside
        # a record stays an attribute.
        parsed = list(parse_ldif("dn: cn=a,o=xyz\nversion: 1\n"))
        assert parsed[0].get("version") == ["1"]


# Attribute values: any UTF-8-encodable text (surrogates excluded) —
# leading/trailing/interior whitespace, colons, unicode, control chars.
_VALUES = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40
)
_NAMES = st.sampled_from(
    ["cn", "sn", "description", "title", "ou", "telephoneNumber"]
    + ["commonName", "surname", "SN", "organizationalUnitName"]  # other spellings
)
_DN_TOKEN = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=12
)


@st.composite
def entries(draw):
    token = draw(_DN_TOKEN)
    attrs = draw(
        st.dictionaries(
            _NAMES,
            st.lists(_VALUES, min_size=1, max_size=3, unique=True),
            min_size=1,
            max_size=4,
        )
    )
    entry = Entry(f"uid={token},o=xyz")
    for name, values in attrs.items():
        entry.add_values(name, values)
    return entry


class TestRoundTripProperty:
    @given(entries())
    def test_entry_ldif_entry_identity(self, entry):
        """entry → LDIF → entry is the identity on raw values.

        Raw ``get()`` lists are compared (not Entry equality): matching
        normalization collapses whitespace for directory strings, so it
        cannot distinguish ``"foo "`` from ``"foo"`` — exactly the
        corruption this property exists to rule out.
        """
        parsed = list(parse_ldif(entry_to_ldif(entry)))
        assert len(parsed) == 1
        got = parsed[0]
        assert str(got.dn) == str(entry.dn)
        assert sorted(got.attribute_names()) == sorted(entry.attribute_names())
        for name in entry.attribute_names():
            assert got.get(name) == entry.get(name)

    @given(st.lists(entries(), min_size=1, max_size=4))
    def test_multi_record_roundtrip(self, entry_list):
        # Deduplicate by DN — the dump keys records by DN.
        by_dn = {str(e.dn): e for e in entry_list}
        originals = list(by_dn.values())
        parsed = {str(e.dn): e for e in parse_ldif(entries_to_ldif(originals))}
        assert set(parsed) == set(by_dn)
        for dn, original in by_dn.items():
            for name in original.attribute_names():
                assert parsed[dn].get(name) == original.get(name)


class TestFrozenImages:
    """A frozen image renders its record once (DESIGN.md §8); what it
    renders is what its mutable copy renders, byte for byte."""

    @given(entries())
    def test_frozen_record_equals_its_mutable_copys(self, entry):
        image = entry.copy().freeze()
        text = entry_to_ldif(image)
        assert text == entry_to_ldif(image.copy()) == entry_to_ldif(entry)
        assert entry_to_ldif(image) is text  # remembered, not re-rendered
        (got,) = parse_ldif(text)
        assert str(got.dn) == str(image.dn)
        for name in image.attribute_names():
            assert got.get(name) == image.get(name)

    def test_a_mutable_entry_renders_its_current_values(self):
        entry = sample()
        before = entry_to_ldif(entry)
        entry.put("sn", "Roe")
        assert entry_to_ldif(entry) != before
        assert "sn: Roe" in entry_to_ldif(entry)


class TestSafeString:
    @given(st.text())
    def test_compiled_test_equals_the_per_character_one(self, value):
        assert _is_safe(value) == per_character_is_safe(value)

    @pytest.mark.parametrize(
        "value", ["", "a", "~", " a", "a ", ":a", "<a", "a:b", "a\x7f", "a\x1f", "é", "a\nb"]
    )
    def test_edges(self, value):
        assert _is_safe(value) == per_character_is_safe(value)


#: SHA-256 of the snapshot document of country ``in``'s content in a
#: 400-employee directory (seed 20050607), as the writer produced it
#: before frozen images remembered their records.  A change here is a
#: change of the dump format.
COUNTRY_SNAPSHOT_SHA256 = "c0218caa5dcf7d008b4343ec7edd530aaf01a842ec609ad3fec57d76514abd33"


def test_a_seeded_country_dump_is_byte_stable():
    directory = generate_directory(DirectoryConfig(employees=400, seed=20050607))
    master = DirectoryServer("M")
    master.add_naming_context(directory.suffix)
    master.load(directory.entries)
    content = SyncedContent(
        SearchRequest(f"c=in,{directory.suffix}", Scope.SUB, "(objectClass=*)")
    )
    content.poll(ResyncProvider(master))
    assert len(content.entries) == 73
    first = encode_snapshot(content.entries.values(), content.cookie)
    assert hashlib.sha256(first.encode("utf-8")).hexdigest() == COUNTRY_SNAPSHOT_SHA256
    assert encode_snapshot(content.entries.values(), content.cookie) == first
