"""Tests for BER encoding of LDAP protocol elements."""

import pytest
from hypothesis import given, strategies as st

from repro.ldap import Entry, Scope, SearchRequest, parse_filter
from repro.ldap.ber import (
    APP_SEARCH_RESULT_ENTRY,
    APP_SYNC_BATCH,
    TAG_ENUMERATED,
    TAG_SET,
    BerError,
    decode_filter,
    decode_integer,
    decode_search_request,
    decode_search_result_entry,
    decode_sync_batch,
    decode_tlv,
    encode_filter,
    encode_integer,
    encode_octet_string,
    encode_search_request,
    encode_search_result_entry,
    encode_sequence,
    encode_tlv,
    encoded_dn_size,
    encoded_entry_size,
    iter_tlvs,
)
from repro.ldap.dn import DN


class TestTlv:
    def test_short_length(self):
        data = encode_octet_string("abc")
        tag, value, end = decode_tlv(data)
        assert tag == 0x04 and value == b"abc" and end == len(data)

    def test_long_length(self):
        text = "x" * 300
        data = encode_octet_string(text)
        assert data[1] == 0x82  # two length bytes
        _tag, value, _end = decode_tlv(data)
        assert value == text.encode()

    def test_truncated_rejected(self):
        with pytest.raises(BerError):
            decode_tlv(b"\x04")
        with pytest.raises(BerError):
            decode_tlv(b"\x04\x05abc")

    def test_iter_tlvs(self):
        data = encode_octet_string("a") + encode_octet_string("b")
        assert [v for _t, v in iter_tlvs(data)] == [b"a", b"b"]


class TestInteger:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 255, 256, 65535, -1, -128, -129])
    def test_roundtrip(self, value):
        data = encode_integer(value)
        _tag, body, _ = decode_tlv(data)
        assert decode_integer(body) == value

    @given(st.integers(min_value=-(2**62), max_value=2**62))
    def test_roundtrip_property(self, value):
        _tag, body, _ = decode_tlv(encode_integer(value))
        assert decode_integer(body) == value

    def test_minimal_encoding(self):
        assert encode_integer(127)[1] == 1  # one content byte
        assert encode_integer(128)[1] == 2  # needs sign-bit headroom


class TestFilterEncoding:
    @pytest.mark.parametrize(
        "text",
        [
            "(sn=Doe)",
            "(age>=30)",
            "(age<=30)",
            "(sn~=doe)",
            "(objectClass=*)",
            "(sn=smi*)",
            "(sn=*th)",
            "(sn=a*b*c)",
            "(&(sn=Doe)(givenName=John))",
            "(|(a=1)(b=2)(c=3))",
            "(!(a=1))",
            "(&(|(a=1)(!(b=2)))(c>=3))",
        ],
    )
    def test_roundtrip(self, text):
        flt = parse_filter(text)
        decoded, end = decode_filter(encode_filter(flt))
        assert decoded == flt
        assert end == len(encode_filter(flt))

    def test_unknown_tag_rejected(self):
        with pytest.raises(BerError):
            decode_filter(b"\xbf\x01\x00")


class TestSearchRequest:
    def test_roundtrip(self):
        request = SearchRequest(
            "ou=research,c=us,o=xyz", Scope.ONE, "(&(sn=Doe)(age>=30))", ["cn", "mail"]
        )
        message_id, decoded = decode_search_request(encode_search_request(request, 7))
        assert message_id == 7
        assert decoded == request

    def test_star_attributes_roundtrip_as_all(self):
        request = SearchRequest("o=xyz", Scope.SUB, "(sn=Doe)")
        _mid, decoded = decode_search_request(encode_search_request(request))
        assert decoded.wants_all_attributes

    def test_root_base(self):
        request = SearchRequest("", Scope.SUB, "(sn=Doe)")
        _mid, decoded = decode_search_request(encode_search_request(request))
        assert decoded.base.is_root


class TestSearchResultEntry:
    def test_roundtrip(self):
        entry = Entry(
            "cn=John Doe,o=xyz",
            {
                "objectClass": ["inetOrgPerson", "top"],
                "cn": ["John Doe", "Johnny"],
                "sn": "Doe",
                "serialNumber": "004217IN",
            },
        )
        message_id, decoded = decode_search_result_entry(
            encode_search_result_entry(entry, 3)
        )
        assert message_id == 3
        assert decoded == entry

    def test_roundtrip_of_an_entry_spelled_with_aliases(self):
        entry = Entry("cn=a,o=xyz", {"commonName": "a", "surname": ["aa", "bb"]})
        _mid, decoded = decode_search_result_entry(encode_search_result_entry(entry))
        assert decoded.semantically_equal(entry)
        assert decoded.get("surname") == ["aa", "bb"]

    def test_unicode_values(self):
        entry = Entry("cn=café,o=xyz", {"cn": "café", "description": "naïve"})
        _mid, decoded = decode_search_result_entry(encode_search_result_entry(entry))
        assert decoded == entry


def _attribute_sequences(*pairs) -> bytes:
    """A PartialAttributeList written by hand, one sequence per pair —
    our own encoder writes one per attribute and never repeats one."""
    return b"".join(
        encode_sequence(
            encode_octet_string(name)
            + encode_tlv(TAG_SET, b"".join(encode_octet_string(v) for v in values))
        )
        for name, values in pairs
    )


#: One attribute in three sequences: two spellings, one of them twice.
SPLIT = (("cn", ["a"]), ("sn", ["s"]), ("commonName", ["b", "a "]), ("cn", ["c"]))


class TestOneAttributeInSeveralSequences:
    """A PDU that spells one attribute in several sequences decodes as
    the Entry constructor and the LDIF reader read it: one list, the
    values verbatim and in wire order."""

    def test_search_result_entry_merges(self):
        body = encode_octet_string("cn=a,o=xyz") + encode_sequence(
            _attribute_sequences(*SPLIT)
        )
        wire = encode_sequence(encode_integer(7) + encode_tlv(APP_SEARCH_RESULT_ENTRY, body))
        message_id, decoded = decode_search_result_entry(wire)
        assert message_id == 7
        assert decoded.get("cn") == ["a", "b", "a ", "c"]
        assert decoded.get("commonName") == decoded.get("cn")
        assert decoded.get("sn") == ["s"]
        assert decoded == Entry("cn=a,o=xyz", {"cn": ["a", "b", "a ", "c"], "sn": "s"})
        # ...which is what the constructor makes of two spellings
        assert Entry("cn=a,o=xyz", {"cn": "a", "commonName": "b"}).get("cn") == ["a", "b"]

    def test_sync_batch_merges(self):
        add = encode_sequence(
            encode_integer(0, tag=TAG_ENUMERATED)
            + encode_octet_string("cn=a,o=xyz")
            + encode_sequence(_attribute_sequences(*SPLIT))
        )
        delete = encode_sequence(
            encode_integer(2, tag=TAG_ENUMERATED) + encode_octet_string("cn=b,o=xyz")
        )
        wire = encode_sequence(encode_integer(1) + encode_tlv(APP_SYNC_BATCH, add + delete))
        _mid, (added, deleted) = decode_sync_batch(wire)
        assert added.entry.get("cn") == ["a", "b", "a ", "c"]
        assert added.entry.get("sn") == ["s"]
        assert added.entry.frozen
        assert deleted.entry is None and str(deleted.dn) == "cn=b,o=xyz"


class TestSizes:
    def test_entry_size_positive_and_plausible(self):
        entry = Entry("cn=a,o=xyz", {"cn": "a", "sn": "b"})
        size = encoded_entry_size(entry)
        assert 20 < size < 200

    def test_dn_size(self):
        assert encoded_dn_size(DN.parse("cn=a,o=xyz")) == len("cn=a,o=xyz") + 2

    def test_bigger_entries_encode_bigger(self):
        small = Entry("cn=a,o=xyz", {"cn": "a"})
        big = Entry("cn=a,o=xyz", {"cn": "a", "description": "x" * 500})
        assert encoded_entry_size(big) > encoded_entry_size(small) + 500


# property: random entries roundtrip
_values = st.lists(
    st.text(min_size=1, max_size=12).filter(lambda s: s == s.strip() and s.strip()),
    min_size=1,
    max_size=3,
)


@given(
    st.dictionaries(
        st.sampled_from(["cn", "sn", "mail", "description", "commonName", "surname", "SN"]),
        _values,
        min_size=1,
        max_size=4,
    )
)
def test_entry_roundtrip_property(attrs):
    attrs.setdefault("cn", ["probe"])
    entry = Entry("cn=probe,o=xyz", attrs)
    _mid, decoded = decode_search_result_entry(encode_search_result_entry(entry))
    assert decoded == entry
