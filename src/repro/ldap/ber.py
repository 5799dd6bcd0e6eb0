"""BER sizes of what the persist wire charges (X.690 subset, RFC 2251 §5).

LDAP messages are BER: definite lengths, primitive-or-constructed
tag-length-value elements.  The one BER size a run charges is a persist
batch frame's: the network charges each flushed batch
:func:`encoded_sync_batch_size`, frame arithmetic over the length of
each update PDU (:func:`encode_sync_update`, computed once per PDU as
:attr:`SyncUpdate.encoded_size
<repro.sync.protocol.SyncUpdate.encoded_size>`).  The reconcile sketch's
wire size is its cells as INTEGER sequences (:func:`encode_integer`,
:func:`encode_sequence`).  Search results are charged by the entries'
modelled ``estimated_size()`` (``LdapClient.search``), polls by each
update's ``pdu_bytes``; neither is encoded.

Nothing here decodes.  The frame builder and the decoders are the
oracle in ``tests/oracles/ber.py``: ``encoded_sync_batch_size(u) ==
len(encode_sync_batch(u))`` and decode∘encode is the identity, both
property-tested in ``tests/ldap/test_ber_batch.py``.
"""

from __future__ import annotations

from .entry import Entry

__all__ = [
    "BerError",
    "encode_tlv",
    "encode_integer",
    "encode_octet_string",
    "encode_sequence",
    "encode_sync_update",
    "encoded_sync_batch_size",
]

# Universal tags
TAG_INTEGER = 0x02
TAG_OCTET_STRING = 0x04
TAG_ENUMERATED = 0x0A
TAG_SEQUENCE = 0x30
TAG_SET = 0x31


class BerError(ValueError):
    """Malformed BER data."""


# ----------------------------------------------------------------------
# primitive TLV machinery
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


def _tlv_size(length: int) -> int:
    """``len(encode_tlv(tag, value))`` for a value of *length* bytes:
    the tag, the length field, the value."""
    return 1 + len(_encode_length(length)) + length


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


# ----------------------------------------------------------------------
# coalesced ReSync notification batches (docs/TRANSPORT.md §3)
# ----------------------------------------------------------------------
#: ENUMERATED codes of the per-update SyncAction, wire order fixed.
_SYNC_ACTION_CODES = {"add": 0, "modify": 1, "delete": 2, "retain": 3}


def encode_sync_update(update) -> bytes:
    """One ReSync update PDU::

        SEQUENCE { action ENUMERATED, dn OCTET STRING,
                   attributes PartialAttributeList (present iff the
                   action carries an entry) }

    *update* is a :class:`repro.sync.protocol.SyncUpdate` (typed loosely
    here to keep the layering one-way: ``sync`` imports ``ldap``).
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


def encoded_sync_batch_size(updates, message_id: int = 1) -> int:
    """Wire size of *updates* framed as one sync batch PDU::

        LDAPMessage { messageID INTEGER,
                      [APPLICATION 26] SEQUENCE OF update }

    by frame arithmetic over the lengths each update computed once
    (:attr:`repro.sync.protocol.SyncUpdate.encoded_size`) — a PDU shared
    by many sessions' frames is not encoded again for each.  It equals
    the length of the frame ``tests.oracles.encode_sync_batch`` builds."""
    operation = _tlv_size(sum(update.encoded_size for update in updates))
    return _tlv_size(len(encode_integer(message_id)) + operation)

