"""BER lengths of what the persist wire charges (X.690 subset, RFC 2251 §5).

LDAP messages are BER: definite lengths, primitive-or-constructed
tag-length-value elements.  A run charges BER lengths and never builds
BER bytes, so every size here is length arithmetic: one tag byte, a
length field of one byte below 128 and of ``1 + n`` bytes for an
``n``-byte length above, then the value.

* :func:`sync_update_size` — one ReSync update PDU, computed once per
  PDU as :attr:`SyncUpdate.encoded_size
  <repro.sync.protocol.SyncUpdate.encoded_size>`;
* :func:`encoded_sync_batch_size` — a persist batch frame around those
  PDUs, what the network charges each flushed batch;
* :func:`integer_size` — one INTEGER, the reconcile sketch's parameters
  and cells (:meth:`EntrySketch.encoded_size
  <repro.sync.reconcile.EntrySketch.encoded_size>`).

Search results are charged by the entries' modelled
``estimated_size()`` (``LdapClient.search``), polls by each update's
``pdu_bytes``; neither is BER.

The encoders whose output these lengths measure, and the decoders that
read that output back, are the oracle in ``tests/oracles/ber.py`` (the
sketch's encoder in ``tests/oracles/sketch.py``): each size equals the
length of the bytes the oracle builds (``tests/ldap/test_ber_sizes.py``),
and decode∘encode is the identity (``tests/ldap/test_ber_batch.py``).
"""

from __future__ import annotations

__all__ = ["tlv_size", "integer_size", "sync_update_size", "encoded_sync_batch_size"]


def tlv_size(length: int) -> int:
    """Bytes of one tag-length-value element whose value is *length*
    bytes: the tag, the length field, the value."""
    if length < 0x80:
        return length + 2
    return length + 2 + (length.bit_length() + 7) // 8


def integer_size(value: int) -> int:
    """Bytes of an INTEGER (or ENUMERATED) element holding *value*: the
    fewest two's-complement bytes that keep its sign, one of them for 0,
    after the tag and a one-byte length."""
    return (value if value >= 0 else ~value).bit_length() // 8 + 3


def _text_size(text: str) -> int:
    """UTF-8 bytes of *text*."""
    return len(text) if text.isascii() else len(text.encode("utf-8"))


#: The action of a sync update PDU: an ENUMERATED whose codes (add 0,
#: modify 1, delete 2, retain 3) all take one byte.
_ACTION_SIZE = integer_size(3)

#: The messageID of a sync batch frame, always 1.
_MESSAGE_ID_SIZE = integer_size(1)


def sync_update_size(update) -> int:
    """Bytes of one ReSync update PDU::

        SEQUENCE { action ENUMERATED, dn OCTET STRING,
                   attributes SEQUENCE OF SEQUENCE {
                       type OCTET STRING, vals SET OF OCTET STRING }
                   (present iff the action carries an entry) }

    summed over the entry's attributes in the order the entry holds
    them (order changes no length), without copying a value.  *update*
    is a :class:`repro.sync.protocol.SyncUpdate` (typed loosely here to
    keep the layering one-way: ``sync`` imports ``ldap``).
    """
    body = _ACTION_SIZE + tlv_size(_text_size(str(update.dn)))
    if update.entry is not None:
        attributes = 0
        for name, values in update.entry.items():
            vals = 0
            for value in values:
                vals += tlv_size(_text_size(value))
            attributes += tlv_size(tlv_size(_text_size(name)) + tlv_size(vals))
        body += tlv_size(attributes)
    return tlv_size(body)


def encoded_sync_batch_size(updates) -> int:
    """Bytes of *updates* framed as one sync batch PDU::

        LDAPMessage { messageID INTEGER (1),
                      [APPLICATION 26] SEQUENCE OF update }

    by arithmetic over the length each update computed once
    (:attr:`repro.sync.protocol.SyncUpdate.encoded_size`) — a PDU shared
    by many sessions' frames is not sized again for each.  It equals the
    length of the frame ``tests.oracles.encode_sync_batch`` builds."""
    body = 0
    for update in updates:
        body += update.encoded_size
    return tlv_size(_MESSAGE_ID_SIZE + tlv_size(body))
