"""BER encoding of LDAP protocol elements (RFC 2251 §5, X.690 subset).

LDAP is "the X.500 information model over TCP/IP" with messages encoded
in BER (definite lengths, primitive-or-constructed tag-length-value).
This module implements the subset needed to put this repository's
operations on a wire:

* primitive encoders/decoders (INTEGER, OCTET STRING, BOOLEAN, ENUMERATED,
  SEQUENCE/SET, context-specific tags),
* LDAPMessage framing with message IDs,
* the operations the simulation uses: SearchRequest, SearchResultEntry,
  SearchResultReference, SearchResultDone, and the update-operation
  bodies,
* filter encoding per RFC 2251 §4.5.1's tagged-choice grammar.

The one BER size a run charges is a persist batch frame's: the network
charges each flushed batch :func:`encoded_sync_batch_size`.  Search
results are charged by the entries' modelled ``estimated_size()``
(``LdapClient.search``); :func:`encoded_entry_size` measures one entry
exactly, for :meth:`SyncUpdate.measured_bytes
<repro.sync.protocol.SyncUpdate.measured_bytes>`.  Round trips are
property-tested: ``decode(encode(x)) == x`` for every element
implemented.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from .dn import DN
from .entry import Entry
from .filters import (
    And,
    Approx,
    Equality,
    Filter,
    GreaterOrEqual,
    LessOrEqual,
    Not,
    Or,
    Present,
    Substring,
)
from .query import Scope, SearchRequest

__all__ = [
    "BerError",
    "encode_tlv",
    "decode_tlv",
    "encode_integer",
    "decode_integer",
    "encode_octet_string",
    "encode_sequence",
    "encode_filter",
    "decode_filter",
    "encode_search_request",
    "decode_search_request",
    "encode_search_result_entry",
    "decode_search_result_entry",
    "encode_sync_update",
    "decode_sync_update",
    "encode_sync_batch",
    "decode_sync_batch",
    "encoded_sync_batch_size",
    "encoded_entry_size",
    "encoded_dn_size",
]

# Universal tags
TAG_BOOLEAN = 0x01
TAG_INTEGER = 0x02
TAG_OCTET_STRING = 0x04
TAG_ENUMERATED = 0x0A
TAG_SEQUENCE = 0x30
TAG_SET = 0x31

# LDAP application tags (RFC 2251 §4)
APP_SEARCH_REQUEST = 0x63
APP_SEARCH_RESULT_ENTRY = 0x64
# Private-range application tag for a coalesced ReSync notification
# batch (docs/TRANSPORT.md §3) — RFC 2251 stops at 0x79, so 0x7A is
# free for the experiment's persist-mode framing.
APP_SYNC_BATCH = 0x7A


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


def decode_integer(value: bytes) -> int:
    if not value:
        raise BerError("empty INTEGER")
    return int.from_bytes(value, "big", signed=True)


def encode_octet_string(text: str, tag: int = TAG_OCTET_STRING) -> bytes:
    return encode_tlv(tag, text.encode("utf-8"))


def encode_boolean(value: bool) -> bytes:
    return encode_tlv(TAG_BOOLEAN, b"\xff" if value else b"\x00")


def encode_sequence(*parts: bytes, tag: int = TAG_SEQUENCE) -> bytes:
    return encode_tlv(tag, b"".join(parts))


# ----------------------------------------------------------------------
# filters (RFC 2251 §4.5.1 tagged CHOICE)
# ----------------------------------------------------------------------
_CTX = 0x80  # context-specific, primitive
_CTXC = 0xA0  # context-specific, constructed

FILTER_AND = _CTXC | 0
FILTER_OR = _CTXC | 1
FILTER_NOT = _CTXC | 2
FILTER_EQUALITY = _CTXC | 3
FILTER_SUBSTRINGS = _CTXC | 4
FILTER_GE = _CTXC | 5
FILTER_LE = _CTXC | 6
FILTER_PRESENT = _CTX | 7
FILTER_APPROX = _CTXC | 8

_SUB_INITIAL = _CTX | 0
_SUB_ANY = _CTX | 1
_SUB_FINAL = _CTX | 2


def encode_filter(flt: Filter) -> bytes:
    """Encode a filter AST into its BER representation."""
    if isinstance(flt, And):
        return encode_tlv(FILTER_AND, b"".join(encode_filter(c) for c in flt.children))
    if isinstance(flt, Or):
        return encode_tlv(FILTER_OR, b"".join(encode_filter(c) for c in flt.children))
    if isinstance(flt, Not):
        return encode_tlv(FILTER_NOT, encode_filter(flt.child))
    if isinstance(flt, Equality):
        return encode_tlv(
            FILTER_EQUALITY,
            encode_octet_string(flt.attr) + encode_octet_string(flt.value),
        )
    if isinstance(flt, GreaterOrEqual):
        return encode_tlv(
            FILTER_GE,
            encode_octet_string(flt.attr) + encode_octet_string(flt.value),
        )
    if isinstance(flt, LessOrEqual):
        return encode_tlv(
            FILTER_LE,
            encode_octet_string(flt.attr) + encode_octet_string(flt.value),
        )
    if isinstance(flt, Approx):
        return encode_tlv(
            FILTER_APPROX,
            encode_octet_string(flt.attr) + encode_octet_string(flt.value),
        )
    if isinstance(flt, Present):
        return encode_tlv(FILTER_PRESENT, flt.attr.encode("utf-8"))
    if isinstance(flt, Substring):
        parts = [encode_octet_string(flt.attr)]
        subs = b""
        if flt.initial:
            subs += encode_tlv(_SUB_INITIAL, flt.initial.encode("utf-8"))
        for any_part in flt.any_parts:
            subs += encode_tlv(_SUB_ANY, any_part.encode("utf-8"))
        if flt.final:
            subs += encode_tlv(_SUB_FINAL, flt.final.encode("utf-8"))
        parts.append(encode_sequence(subs, tag=TAG_SEQUENCE))
        return encode_tlv(FILTER_SUBSTRINGS, b"".join(parts))
    raise BerError(f"cannot encode filter node {flt!r}")  # pragma: no cover


def decode_filter(data: bytes, offset: int = 0) -> Tuple[Filter, int]:
    """Decode one BER filter; returns (filter, next offset)."""
    tag, value, end = decode_tlv(data, offset)
    if tag in (FILTER_AND, FILTER_OR):
        children: List[Filter] = []
        inner = 0
        while inner < len(value):
            child, inner = decode_filter(value, inner)
            children.append(child)
        if not children:
            raise BerError("empty AND/OR filter")
        node = And(tuple(children)) if tag == FILTER_AND else Or(tuple(children))
        return node, end
    if tag == FILTER_NOT:
        child, _ = decode_filter(value, 0)
        return Not(child), end
    if tag in (FILTER_EQUALITY, FILTER_GE, FILTER_LE, FILTER_APPROX):
        pieces = list(iter_tlvs(value))
        if len(pieces) != 2:
            raise BerError("AttributeValueAssertion needs 2 elements")
        attr = pieces[0][1].decode("utf-8")
        assertion = pieces[1][1].decode("utf-8")
        cls = {
            FILTER_EQUALITY: Equality,
            FILTER_GE: GreaterOrEqual,
            FILTER_LE: LessOrEqual,
            FILTER_APPROX: Approx,
        }[tag]
        return cls(attr, assertion), end
    if tag == FILTER_PRESENT:
        return Present(value.decode("utf-8")), end
    if tag == FILTER_SUBSTRINGS:
        pieces = list(iter_tlvs(value))
        if len(pieces) != 2:
            raise BerError("SubstringFilter needs type + substrings")
        attr = pieces[0][1].decode("utf-8")
        initial, any_parts, final = "", [], ""
        for sub_tag, sub_value in iter_tlvs(pieces[1][1]):
            text = sub_value.decode("utf-8")
            if sub_tag == _SUB_INITIAL:
                initial = text
            elif sub_tag == _SUB_ANY:
                any_parts.append(text)
            elif sub_tag == _SUB_FINAL:
                final = text
            else:
                raise BerError(f"unknown substring tag {sub_tag:#x}")
        return Substring(attr, initial=initial, any_parts=tuple(any_parts), final=final), end
    raise BerError(f"unknown filter tag {tag:#x}")


# ----------------------------------------------------------------------
# search request / result entry
# ----------------------------------------------------------------------
_DEREF_NEVER = 0


def encode_search_request(request: SearchRequest, message_id: int = 1) -> bytes:
    """LDAPMessage { messageID, SearchRequest } (RFC 2251 §4.5.1)."""
    attrs = b"".join(
        encode_octet_string(a) for a in sorted(request.attributes) if a != "*"
    )
    body = (
        encode_octet_string(str(request.base))
        + encode_integer(int(request.scope), tag=TAG_ENUMERATED)
        + encode_integer(_DEREF_NEVER, tag=TAG_ENUMERATED)
        + encode_integer(0)  # sizeLimit
        + encode_integer(0)  # timeLimit
        + encode_boolean(False)  # typesOnly
        + encode_filter(request.filter)
        + encode_sequence(attrs)
    )
    operation = encode_tlv(APP_SEARCH_REQUEST, body)
    return encode_sequence(encode_integer(message_id) + operation)


def decode_search_request(data: bytes) -> Tuple[int, SearchRequest]:
    """Inverse of :func:`encode_search_request`."""
    tag, message, _ = decode_tlv(data)
    if tag != TAG_SEQUENCE:
        raise BerError("LDAPMessage must be a SEQUENCE")
    pieces = list(iter_tlvs(message))
    if len(pieces) != 2:
        raise BerError("LDAPMessage needs messageID + operation")
    message_id = decode_integer(pieces[0][1])
    if pieces[1][0] != APP_SEARCH_REQUEST:
        raise BerError("not a SearchRequest")
    body = pieces[1][1]
    offset = 0
    tag, base_bytes, offset = decode_tlv(body, offset)
    tag, scope_bytes, offset = decode_tlv(body, offset)
    tag, _deref, offset = decode_tlv(body, offset)
    tag, _size, offset = decode_tlv(body, offset)
    tag, _time, offset = decode_tlv(body, offset)
    tag, _types_only, offset = decode_tlv(body, offset)
    flt, offset = decode_filter(body, offset)
    tag, attrs_bytes, offset = decode_tlv(body, offset)
    attributes = [v.decode("utf-8") for _t, v in iter_tlvs(attrs_bytes)] or None
    request = SearchRequest(
        base_bytes.decode("utf-8"),
        Scope(decode_integer(scope_bytes)),
        flt,
        attributes,
    )
    return message_id, request


def _encode_attributes(entry: Entry) -> bytes:
    """PartialAttributeList: SEQUENCE OF { type, SET OF values }."""
    attributes = b""
    for name, values in sorted(entry, key=lambda item: item[0].lower()):
        vals = b"".join(encode_octet_string(v) for v in values)
        attributes += encode_sequence(
            encode_octet_string(name) + encode_tlv(TAG_SET, vals)
        )
    return attributes


def _decode_attributes(attrs_bytes: bytes, entry: Entry) -> None:
    for _t, attr_seq in iter_tlvs(attrs_bytes):
        attr_pieces = list(iter_tlvs(attr_seq))
        name = attr_pieces[0][1].decode("utf-8")
        values = [v.decode("utf-8") for _vt, v in iter_tlvs(attr_pieces[1][1])]
        # Appended, not put: a PDU may spell one attribute in several
        # sequences (our encoder never does), and they are one list.
        entry.append_values(name, values)


def encode_search_result_entry(entry: Entry, message_id: int = 1) -> bytes:
    """LDAPMessage { messageID, SearchResultEntry } (RFC 2251 §4.5.2)."""
    body = encode_octet_string(str(entry.dn)) + encode_sequence(
        _encode_attributes(entry)
    )
    operation = encode_tlv(APP_SEARCH_RESULT_ENTRY, body)
    return encode_sequence(encode_integer(message_id) + operation)


def decode_search_result_entry(data: bytes) -> Tuple[int, Entry]:
    """Inverse of :func:`encode_search_result_entry`."""
    tag, message, _ = decode_tlv(data)
    if tag != TAG_SEQUENCE:
        raise BerError("LDAPMessage must be a SEQUENCE")
    pieces = list(iter_tlvs(message))
    message_id = decode_integer(pieces[0][1])
    if pieces[1][0] != APP_SEARCH_RESULT_ENTRY:
        raise BerError("not a SearchResultEntry")
    body = pieces[1][1]
    offset = 0
    _tag, dn_bytes, offset = decode_tlv(body, offset)
    _tag, attrs_bytes, offset = decode_tlv(body, offset)
    entry = Entry(dn_bytes.decode("utf-8"))
    _decode_attributes(attrs_bytes, entry)
    return message_id, entry


# ----------------------------------------------------------------------
# coalesced ReSync notification batches (docs/TRANSPORT.md §3)
# ----------------------------------------------------------------------
#: ENUMERATED codes of the per-update SyncAction, wire order fixed.
_SYNC_ACTION_CODES = {"add": 0, "modify": 1, "delete": 2, "retain": 3}
_SYNC_ACTION_NAMES = {code: name for name, code in _SYNC_ACTION_CODES.items()}


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


def decode_sync_update(data: bytes):
    """Inverse of :func:`encode_sync_update`."""
    tag, body, _ = decode_tlv(data)
    if tag != TAG_SEQUENCE:
        raise BerError("sync update PDU must be a SEQUENCE")
    return _decode_sync_update_body(body)


def _decode_sync_update_body(body: bytes):
    from ..sync.protocol import SyncUpdate
    from .controls import SyncAction

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


def encode_sync_batch(updates, message_id: int = 1) -> bytes:
    """LDAPMessage { messageID, [APPLICATION 26] SEQUENCE OF update }.

    The wire frame of one coalesced persist-mode notification batch:
    the network's ``bytes_sent`` charges exactly
    ``len(encode_sync_batch(batch))`` (property-tested in
    ``tests/ldap/test_ber_batch.py``).
    """
    body = b"".join(encode_sync_update(update) for update in updates)
    operation = encode_tlv(APP_SYNC_BATCH, body)
    return encode_sequence(encode_integer(message_id) + operation)


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


def encoded_sync_batch_size(updates, message_id: int = 1) -> int:
    """Wire size of *updates* framed as one sync batch PDU: exactly
    ``len(encode_sync_batch(updates, message_id))``, by frame arithmetic
    over the lengths each update computed once
    (:attr:`repro.sync.protocol.SyncUpdate.encoded_size`) — a PDU shared
    by many sessions' frames is not encoded again for each."""
    operation = _tlv_size(sum(update.encoded_size for update in updates))
    return _tlv_size(len(encode_integer(message_id)) + operation)


# ----------------------------------------------------------------------
# measured sizes for traffic accounting
# ----------------------------------------------------------------------
def encoded_entry_size(entry: Entry, message_id: int = 1) -> int:
    """Wire size of *entry* as a SearchResultEntry PDU."""
    return len(encode_search_result_entry(entry, message_id))


def encoded_dn_size(dn: DN) -> int:
    """Wire size of a DN-only PDU body (delete/retain actions)."""
    return len(encode_octet_string(str(dn)))
