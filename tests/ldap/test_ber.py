"""The oracle's BER primitives, read back by its decoders: the bytes
whose lengths the persist wire's size arithmetic is held equal to."""

import pytest
from hypothesis import given, strategies as st

from tests.oracles import (
    BerError,
    decode_integer,
    decode_tlv,
    encode_integer,
    encode_octet_string,
    iter_tlvs,
)


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
