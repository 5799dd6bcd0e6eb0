"""BER round-tripping of batched sync PDUs (docs/TRANSPORT.md §3).

The persist transport charges every coalesced batch the length of its
BER frame, computed by :func:`repro.ldap.ber.encoded_sync_batch_size`
without building the frame.  Against the frame builder and decoders of
``tests.oracles``: the size is exactly the frame's length, encode→decode
of *any* batch is identity (whatever its message id; a run's frames all
carry 1), and the charged byte delta is exactly the frame length.  ``add`` PDUs carry their entry through the attribute
codec, so the entry cases (several values, alias spellings, unicode,
one attribute over several sequences) are inputs here too.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ldap import DN, Entry, SyncAction
from repro.ldap.ber import encoded_sync_batch_size
from repro.server import SimulatedNetwork
from repro.sync import SyncUpdate
from tests.oracles import (
    APP_SYNC_BATCH,
    TAG_ENUMERATED,
    TAG_SET,
    BerError,
    copied_pdu,
    decode_sync_batch,
    decode_sync_update,
    encode_integer,
    encode_octet_string,
    encode_sequence,
    encode_sync_batch,
    encode_sync_update,
    encode_tlv,
)

# Printable, LDAP-safe attribute values (no RDN metacharacters in cn).
_names = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
    min_size=1,
    max_size=12,
)
_values = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    min_size=0,
    max_size=20,
)


@st.composite
def entries(draw):
    name = draw(_names)
    attrs = {"objectClass": ["person"], "cn": [name]}
    spelled = st.one_of(_names, st.sampled_from(["localityName", "surname", "SN", "CN"]))
    for attr in draw(st.lists(spelled, max_size=3, unique=True)):
        attrs[attr] = draw(st.lists(_values, min_size=1, max_size=3))
    return Entry(f"cn={name},o=xyz", attrs)


@st.composite
def sync_updates(draw):
    kind = draw(st.sampled_from(["add", "modify", "delete", "retain"]))
    if kind in ("add", "modify"):
        entry = draw(entries())
        return copied_pdu(SyncAction.ADD, entry) if kind == "add" else copied_pdu(SyncAction.MODIFY, entry)
    dn = DN.parse(f"cn={draw(_names)},o=xyz")
    return SyncUpdate.delete(dn) if kind == "delete" else SyncUpdate.retain(dn)


def assert_update_equal(a: SyncUpdate, b: SyncUpdate) -> None:
    assert a.action == b.action
    assert str(a.dn) == str(b.dn)
    if a.entry is None:
        assert b.entry is None
    else:
        assert str(a.entry.dn) == str(b.entry.dn)
        assert a.entry.semantically_equal(b.entry)


class TestSingleUpdate:
    @given(sync_updates())
    @settings(max_examples=150)
    def test_roundtrip_identity(self, update):
        assert_update_equal(decode_sync_update(encode_sync_update(update)), update)

    def test_garbage_rejected(self):
        with pytest.raises(BerError):
            decode_sync_update(b"\x04\x03abc")


class TestBatchFraming:
    @given(st.lists(sync_updates(), max_size=12), st.integers(1, 2**20))
    @settings(max_examples=100)
    def test_batch_roundtrip_identity(self, updates, message_id):
        frame = encode_sync_batch(updates, message_id=message_id)
        decoded_id, decoded = decode_sync_batch(frame)
        assert decoded_id == message_id
        assert len(decoded) == len(updates)
        for a, b in zip(updates, decoded):
            assert_update_equal(a, b)

    @given(st.lists(sync_updates(), max_size=12))
    @settings(max_examples=100)
    def test_size_helper_matches_encoding(self, updates):
        assert encoded_sync_batch_size(updates) == len(encode_sync_batch(updates))

    @pytest.mark.parametrize("step", [0x80, 0x100, 0x10000])
    def test_size_helper_across_length_of_length_steps(self, step):
        """The size is frame arithmetic over per-PDU lengths, so sweep a
        batch's body across each BER length-of-length step (127/128,
        255/256, 65 535/65 536 bytes) a byte at a time: the operation's
        and the message's length fields both cross it inside the sweep
        (the message body is the longer by the message id)."""
        bodies = set()
        for name in ("p", "pp", "ppp"):  # shifts where the inner fields step
            dn = DN.parse(f"cn={name},o=xyz")
            for pad in range(max(0, step - 120), step):
                entry = Entry(dn, {"objectClass": ["person"], "description": ["x" * pad]})
                updates = [SyncUpdate.delete(dn), copied_pdu(SyncAction.ADD, entry)]
                body = sum(len(encode_sync_update(update)) for update in updates)
                if not step - 12 <= body <= step + 2:
                    continue
                bodies.add(body)
                assert encoded_sync_batch_size(updates) == len(encode_sync_batch(updates)), body
        assert set(range(step - 12, step + 3)) <= bodies

    def test_size_helper_sizes_a_shared_pdu_once(self, monkeypatch):
        from repro.ldap import ber

        sized = []
        size = ber.sync_update_size
        monkeypatch.setattr(
            ber, "sync_update_size", lambda update: sized.append(update) or size(update)
        )
        shared = copied_pdu(SyncAction.ADD, Entry("cn=p,o=xyz", {"objectClass": ["person"], "cn": "p"}))
        other = SyncUpdate.delete(shared.dn)
        sizes = [encoded_sync_batch_size([shared, other][:n]) for n in (1, 2, 2, 1)]
        assert sized == [shared, other]
        monkeypatch.undo()
        assert sizes == [len(encode_sync_batch([shared, other][:n])) for n in (1, 2, 2, 1)]

    def test_garbage_rejected(self):
        with pytest.raises(BerError):
            decode_sync_batch(b"\x02\x01\x01")


class TestBytesCharged:
    @given(st.lists(sync_updates(), min_size=1, max_size=10))
    @settings(max_examples=60)
    def test_deliver_batch_charges_exact_frame_length(self, updates):
        net = SimulatedNetwork()
        before = net.stats.bytes_sent
        delivered = net.deliver_batch(lambda u: None, updates)
        assert delivered == len(updates)
        assert net.stats.bytes_sent - before == len(encode_sync_batch(updates))

    def test_empty_batch_charges_nothing(self):
        net = SimulatedNetwork()
        assert net.deliver_batch(lambda u: None, []) == 0
        assert net.stats.bytes_sent == 0


# ----------------------------------------------------------------------
# entries through the attribute codec, as add PDUs
# ----------------------------------------------------------------------
def roundtrip_entry(entry: Entry) -> Entry:
    """*entry* as an ``add`` PDU, alone and in a batch frame, decoded:
    the two decodings agree and the frame is the size charged."""
    update = copied_pdu(SyncAction.ADD, entry)
    alone = decode_sync_update(encode_sync_update(update)).entry
    assert encoded_sync_batch_size([update]) == len(encode_sync_batch([update]))
    frame = encode_sync_batch([update], message_id=3)
    message_id, (framed,) = decode_sync_batch(frame)
    assert message_id == 3
    assert framed.entry == alone and alone.frozen
    return alone


class TestEntryPdus:
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
        assert roundtrip_entry(entry) == entry

    def test_roundtrip_of_an_entry_spelled_with_aliases(self):
        entry = Entry("cn=a,o=xyz", {"commonName": "a", "surname": ["aa", "bb"]})
        decoded = roundtrip_entry(entry)
        assert decoded.semantically_equal(entry)
        assert decoded.get("surname") == ["aa", "bb"]

    def test_unicode_values(self):
        entry = Entry("cn=café,o=xyz", {"cn": "café", "description": "naïve"})
        assert roundtrip_entry(entry) == entry


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


def test_one_attribute_in_several_sequences_merges():
    """A PDU that spells one attribute in several sequences decodes as
    the Entry constructor and the LDIF reader read it: one list, the
    values verbatim and in wire order."""
    add = encode_sequence(
        encode_integer(0, tag=TAG_ENUMERATED)
        + encode_octet_string("cn=a,o=xyz")
        + encode_sequence(_attribute_sequences(*SPLIT))
    )
    delete = encode_sequence(
        encode_integer(2, tag=TAG_ENUMERATED) + encode_octet_string("cn=b,o=xyz")
    )
    wire = encode_sequence(encode_integer(7) + encode_tlv(APP_SYNC_BATCH, add + delete))
    message_id, (added, deleted) = decode_sync_batch(wire)
    assert message_id == 7
    assert added.entry.get("cn") == ["a", "b", "a ", "c"]
    assert added.entry.get("commonName") == added.entry.get("cn")
    assert added.entry.get("sn") == ["s"]
    assert added.entry == Entry("cn=a,o=xyz", {"cn": ["a", "b", "a ", "c"], "sn": "s"})
    assert added.entry.frozen
    assert deleted.entry is None and str(deleted.dn) == "cn=b,o=xyz"
    # ...which is what the constructor makes of two spellings
    assert Entry("cn=a,o=xyz", {"cn": "a", "commonName": "b"}).get("cn") == ["a", "b"]


_stripped_values = st.lists(
    st.text(min_size=1, max_size=12).filter(lambda s: s == s.strip() and s.strip()),
    min_size=1,
    max_size=3,
)


@given(
    st.dictionaries(
        st.sampled_from(["cn", "sn", "mail", "description", "commonName", "surname", "SN"]),
        _stripped_values,
        min_size=1,
        max_size=4,
    )
)
def test_entry_roundtrip_property(attrs):
    attrs.setdefault("cn", ["probe"])
    entry = Entry("cn=probe,o=xyz", attrs)
    assert roundtrip_entry(entry) == entry
