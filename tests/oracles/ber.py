"""The persist wire's BER built and read back byte by byte.

A run never builds BER: the network charges each flushed batch
:func:`repro.ldap.ber.encoded_sync_batch_size`, frame arithmetic over
each update PDU's length, and each PDU's length is arithmetic too
(:func:`repro.ldap.ber.sync_update_size`).  The encoders here build the
bytes that arithmetic must measure, and the decoders read them back, so
``tests/ldap/test_ber_sizes.py`` and ``tests/ldap/test_ber_batch.py``
hold the properties against them: every size equals the length of what
:func:`encode_sync_update` and :func:`encode_sync_batch` build, and
decode∘encode is the identity.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.ldap import DN, Entry, SyncAction
from repro.sync import SyncUpdate

__all__ = [
    "APP_SYNC_BATCH",
    "BerError",
    "TAG_ENUMERATED",
    "TAG_INTEGER",
    "TAG_OCTET_STRING",
    "TAG_SEQUENCE",
    "TAG_SET",
    "decode_integer",
    "decode_sync_batch",
    "decode_sync_update",
    "decode_tlv",
    "encode_integer",
    "encode_octet_string",
    "encode_sequence",
    "encode_sync_batch",
    "encode_sync_update",
    "encode_tlv",
    "iter_tlvs",
]

# Universal tags
TAG_INTEGER = 0x02
TAG_OCTET_STRING = 0x04
TAG_ENUMERATED = 0x0A
TAG_SEQUENCE = 0x30
TAG_SET = 0x31

# Private-range application tag for a coalesced ReSync notification
# batch (docs/TRANSPORT.md §3) — RFC 2251 stops at 0x79, so 0x7A is
# free for the experiment's persist-mode framing.
APP_SYNC_BATCH = 0x7A

#: ENUMERATED codes of the per-update SyncAction, wire order fixed.
_SYNC_ACTION_CODES = {"add": 0, "modify": 1, "delete": 2, "retain": 3}
_SYNC_ACTION_NAMES = {code: name for name, code in _SYNC_ACTION_CODES.items()}


class BerError(ValueError):
    """Malformed BER data."""


# ----------------------------------------------------------------------
# encoders
# ----------------------------------------------------------------------
def _encode_length(length: int) -> bytes:
    if length < 0x80:
        return bytes([length])
    out = []
    while length:
        out.append(length & 0xFF)
        length >>= 8
    out.reverse()
    return bytes([0x80 | len(out)]) + bytes(out)


def encode_tlv(tag: int, value: bytes) -> bytes:
    """One tag-length-value element with a definite length."""
    return bytes([tag]) + _encode_length(len(value)) + value


def encode_integer(value: int, tag: int = TAG_INTEGER) -> bytes:
    if value == 0:
        body = b"\x00"
    else:
        length = (value.bit_length() + 8) // 8  # sign bit headroom
        body = value.to_bytes(length, "big", signed=True)
        # strip redundant leading byte while preserving the sign bit
        while (
            len(body) > 1
            and (
                (body[0] == 0x00 and body[1] < 0x80)
                or (body[0] == 0xFF and body[1] >= 0x80)
            )
        ):
            body = body[1:]
    return encode_tlv(tag, body)


def encode_octet_string(text: str, tag: int = TAG_OCTET_STRING) -> bytes:
    return encode_tlv(tag, text.encode("utf-8"))


def encode_sequence(*parts: bytes, tag: int = TAG_SEQUENCE) -> bytes:
    return encode_tlv(tag, b"".join(parts))


def _encode_attributes(entry: Entry) -> bytes:
    """PartialAttributeList: SEQUENCE OF { type, SET OF values }."""
    attributes = b""
    for name, values in sorted(entry, key=lambda item: item[0].lower()):
        vals = b"".join(encode_octet_string(v) for v in values)
        attributes += encode_sequence(
            encode_octet_string(name) + encode_tlv(TAG_SET, vals)
        )
    return attributes


def encode_sync_update(update) -> bytes:
    """One ReSync update PDU::

        SEQUENCE { action ENUMERATED, dn OCTET STRING,
                   attributes PartialAttributeList (present iff the
                   action carries an entry) }
    """
    code = _SYNC_ACTION_CODES.get(update.action.value)
    if code is None:
        raise BerError(f"cannot encode sync action {update.action!r}")
    body = encode_integer(code, tag=TAG_ENUMERATED) + encode_octet_string(
        str(update.dn)
    )
    if update.entry is not None:
        body += encode_sequence(_encode_attributes(update.entry))
    return encode_sequence(body)


def encode_sync_batch(updates, message_id: int = 1) -> bytes:
    """LDAPMessage { messageID, [APPLICATION 26] SEQUENCE OF update }:
    the frame whose length the network charges a flushed batch (a run's
    frames all carry message id 1)."""
    body = b"".join(encode_sync_update(update) for update in updates)
    operation = encode_tlv(APP_SYNC_BATCH, body)
    return encode_sequence(encode_integer(message_id) + operation)


# ----------------------------------------------------------------------
# decoders
# ----------------------------------------------------------------------
def decode_tlv(data: bytes, offset: int = 0) -> Tuple[int, bytes, int]:
    """Decode one TLV; returns (tag, value bytes, next offset)."""
    if offset >= len(data):
        raise BerError("truncated TLV: no tag byte")
    tag = data[offset]
    offset += 1
    if offset >= len(data):
        raise BerError("truncated TLV: no length byte")
    first = data[offset]
    offset += 1
    if first < 0x80:
        length = first
    else:
        n = first & 0x7F
        if n == 0 or n > 8:
            raise BerError(f"unsupported length-of-length {n}")
        if offset + n > len(data):
            raise BerError("truncated TLV: long-form length")
        length = int.from_bytes(data[offset : offset + n], "big")
        offset += n
    if offset + length > len(data):
        raise BerError("truncated TLV: value")
    return tag, data[offset : offset + length], offset + length


def iter_tlvs(data: bytes) -> Iterator[Tuple[int, bytes]]:
    """Iterate the TLVs packed inside a constructed value."""
    offset = 0
    while offset < len(data):
        tag, value, offset = decode_tlv(data, offset)
        yield tag, value


def decode_integer(value: bytes) -> int:
    if not value:
        raise BerError("empty INTEGER")
    return int.from_bytes(value, "big", signed=True)


def _decode_attributes(attrs_bytes: bytes, entry: Entry) -> None:
    for _t, attr_seq in iter_tlvs(attrs_bytes):
        attr_pieces = list(iter_tlvs(attr_seq))
        name = attr_pieces[0][1].decode("utf-8")
        values = [v.decode("utf-8") for _vt, v in iter_tlvs(attr_pieces[1][1])]
        # Appended, not put: a PDU may spell one attribute in several
        # sequences (our encoder never does), and they are one list.
        entry.append_values(name, values)


def decode_sync_update(data: bytes) -> SyncUpdate:
    """Inverse of :func:`encode_sync_update`."""
    tag, body, _ = decode_tlv(data)
    if tag != TAG_SEQUENCE:
        raise BerError("sync update PDU must be a SEQUENCE")
    return _decode_sync_update_body(body)


def _decode_sync_update_body(body: bytes) -> SyncUpdate:
    offset = 0
    tag, action_bytes, offset = decode_tlv(body, offset)
    if tag != TAG_ENUMERATED:
        raise BerError("sync update must start with an ENUMERATED action")
    name = _SYNC_ACTION_NAMES.get(decode_integer(action_bytes))
    if name is None:
        raise BerError(f"unknown sync action code in {action_bytes!r}")
    action = SyncAction(name)
    _tag, dn_bytes, offset = decode_tlv(body, offset)
    dn_text = dn_bytes.decode("utf-8")
    if offset >= len(body):
        return SyncUpdate(action, DN.parse(dn_text))
    _tag, attrs_bytes, offset = decode_tlv(body, offset)
    entry = Entry(dn_text)
    _decode_attributes(attrs_bytes, entry)
    return SyncUpdate(action, entry.dn, entry)


def decode_sync_batch(data: bytes):
    """Inverse of :func:`encode_sync_batch`: ``(message_id, updates)``."""
    tag, message, _ = decode_tlv(data)
    if tag != TAG_SEQUENCE:
        raise BerError("LDAPMessage must be a SEQUENCE")
    pieces = list(iter_tlvs(message))
    if len(pieces) != 2:
        raise BerError("LDAPMessage needs messageID + operation")
    message_id = decode_integer(pieces[0][1])
    if pieces[1][0] != APP_SYNC_BATCH:
        raise BerError("not a sync batch")
    updates = []
    for tag, body in iter_tlvs(pieces[1][1]):
        if tag != TAG_SEQUENCE:
            raise BerError("sync batch elements must be SEQUENCEs")
        updates.append(_decode_sync_update_body(body))
    return message_id, updates
