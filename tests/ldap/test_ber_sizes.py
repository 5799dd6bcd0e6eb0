"""Every wire size a run charges, held to the bytes the oracle builds.

A run sizes BER by length arithmetic and never builds it: an update PDU
(:attr:`SyncUpdate.encoded_size`, :func:`repro.ldap.ber.sync_update_size`),
a batch frame (:func:`repro.ldap.ber.encoded_sync_batch_size`, held to
``tests.oracles.encode_sync_batch`` in ``test_ber_batch.py``) and a
reconcile sketch (:meth:`EntrySketch.encoded_size`).  Each is checked
here against the length of what ``tests.oracles`` encodes: for every
action, for non-ASCII text, for lengths on both sides of each BER
length-of-length step (127/128, 255/256, 65 535/65 536 bytes), and for
sketches with zero, negative and full 64-bit cells.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ldap import DN, Entry, SyncAction
from repro.ldap.ber import integer_size, sync_update_size, tlv_size
from repro.sync import EntrySketch, SyncUpdate, build_sketch, ladder
from repro.sync.reconcile import cells_for_divergence, loaded_sketch_bytes
from tests.oracles import (
    copied_pdu,
    decode_tlv,
    encode_integer,
    encode_sync_update,
    encoded_bytes,
)
from tests.oracles.ber import _encode_length

#: The three BER length-of-length steps: a length field grows a byte at each.
STEPS = (0x80, 0x100, 0x10000)

FULL = (1 << 64) - 1


# ----------------------------------------------------------------------
# primitives
# ----------------------------------------------------------------------
@pytest.mark.parametrize("step", STEPS + (1 << 24, 1 << 32))
def test_tlv_size_across_each_length_step(step):
    for length in range(step - 2, step + 2):
        assert tlv_size(length) == 1 + len(_encode_length(length)) + length
    assert tlv_size(step) == tlv_size(step - 1) + 2


@pytest.mark.parametrize(
    "value",
    [0, 1, -1, 127, 128, -128, -129, 255, 256, -256, -257]
    + [2**63 - 1, 2**63, -(2**63), -(2**63) - 1, FULL, FULL + 1],
)
def test_integer_size_at_the_sign_bit(value):
    assert integer_size(value) == len(encode_integer(value))


@given(st.integers())
def test_integer_size_is_the_encoded_length(value):
    assert integer_size(value) == len(encode_integer(value))


# ----------------------------------------------------------------------
# update PDUs
# ----------------------------------------------------------------------
#: Attribute names and values over all of Unicode but surrogates: UTF-8
#: lengths differ from character counts.
_names = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Lo", "Nd")),
    min_size=1,
    max_size=10,
)
_values = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    max_size=40,
)


@st.composite
def entries(draw):
    rdn = draw(_names)
    attrs = {"objectClass": ["person"], "cn": [rdn]}
    spelled = st.one_of(_names, st.sampled_from(["surname", "SN", "CN", "commonName"]))
    for attr in draw(st.lists(spelled, max_size=4, unique=True)):
        attrs[attr] = draw(st.lists(_values, min_size=1, max_size=4))
    return Entry(f"cn={rdn},o=xyz", attrs)


@st.composite
def updates(draw):
    action = draw(st.sampled_from(list(SyncAction)))
    if action in (SyncAction.ADD, SyncAction.MODIFY):
        return copied_pdu(action, draw(entries()))
    dn = DN.parse(f"cn={draw(_names)},o=xyz")
    return SyncUpdate(action, dn)


@given(updates())
@settings(max_examples=300)
def test_encoded_size_is_the_encoded_pdu_length(update):
    assert update.encoded_size == len(encode_sync_update(update))


@pytest.mark.parametrize("action", list(SyncAction))
def test_every_action_is_sized(action):
    entry = Entry("cn=Zoë,o=xyz", {"objectClass": "person", "cn": ["Zoë", "zoe"], "sn": "Ωmega"})
    if action in (SyncAction.ADD, SyncAction.MODIFY):
        update = copied_pdu(action, entry)
    else:
        update = SyncUpdate(action, entry.dn)
    assert update.encoded_size == len(encode_sync_update(update))


def _utf8_text(length: int, wide: bool) -> str:
    """Text of *length* UTF-8 bytes: ASCII, or two-byte characters."""
    if not wide:
        return "x" * length
    return "é" * (length // 2) + "x" * (length % 2)


@pytest.mark.parametrize("wide", [False, True], ids=["ascii", "non_ascii"])
@pytest.mark.parametrize("step", STEPS)
def test_value_lengths_across_each_step(step, wide):
    """One value swept a byte at a time from well below *step* to just
    past it: the value, its SET, its attribute's SEQUENCE, the attribute
    list and the PDU each add a constant under 128 to the value's
    length, so every nested length field crosses the step in the sweep."""
    crossed = set()
    for length in range(step - 130, step + 3):
        entry = Entry(
            "cn=p,o=xyz", {"objectClass": ["person"], "description": [_utf8_text(length, wide)]}
        )
        for action in (SyncAction.ADD, SyncAction.MODIFY):
            update = copied_pdu(action, entry)
            wire = encode_sync_update(update)
            assert update.encoded_size == len(wire), length
            crossed.add(len(decode_tlv(wire)[1]) >= step)
    assert crossed == {False, True}


@pytest.mark.parametrize("wide", [False, True], ids=["ascii", "non_ascii"])
@pytest.mark.parametrize("step", STEPS)
def test_dn_lengths_across_each_step(step, wide):
    """A DN-only PDU whose DN is swept across *step*: the DN's OCTET
    STRING and the PDU's SEQUENCE both cross it."""
    for length in range(step - 12, step + 3):
        rdn = _utf8_text(length - len("cn=,o=xyz"), wide)
        dn = DN.parse(f"cn={rdn},o=xyz")
        for action in (SyncAction.DELETE, SyncAction.RETAIN):
            update = SyncUpdate(action, dn)
            assert sync_update_size(update) == len(encode_sync_update(update)), length


def test_attribute_order_does_not_change_the_size():
    """The oracle sorts attributes by name, the arithmetic takes them as
    the entry holds them."""
    one = Entry("cn=a,o=xyz", {"cn": "a", "sn": "b" * 200, "mail": "c"})
    other = Entry("cn=a,o=xyz", {"mail": "c", "sn": "b" * 200, "cn": "a"})
    sizes = {copied_pdu(SyncAction.ADD, e).encoded_size for e in (one, other)}
    assert sizes == {len(encode_sync_update(copied_pdu(SyncAction.ADD, one)))}


# ----------------------------------------------------------------------
# sketches
# ----------------------------------------------------------------------
_cell_values = st.one_of(
    st.sampled_from([0, 1, 127, 128, 2**63 - 1, 2**63, FULL]), st.integers(0, FULL)
)


@st.composite
def sketches(draw):
    hash_count = draw(st.integers(2, 4))
    size = draw(st.integers(hash_count, 40))
    sketch = EntrySketch(size, salt=draw(st.integers(0, 2**64)), hash_count=hash_count)
    n = sketch.size
    sketch.counts = draw(st.lists(st.integers(-300, 300), min_size=n, max_size=n))
    sketch.key_xor = draw(st.lists(_cell_values, min_size=n, max_size=n))
    sketch.fp_xor = draw(st.lists(_cell_values, min_size=n, max_size=n))
    sketch.check_xor = draw(st.lists(_cell_values, min_size=n, max_size=n))
    return sketch


@given(sketches())
@settings(max_examples=150)
def test_sketch_size_is_the_encoded_length(sketch):
    assert sketch.encoded_size() == len(encoded_bytes(sketch))


@pytest.mark.parametrize("cells", ["zero", "negative", "full"])
@pytest.mark.parametrize("size", [3, 24, 48, 4096])
def test_sketch_size_at_the_extremes(size, cells):
    sketch = EntrySketch(size, salt=FULL)
    if cells == "negative":
        sketch.counts = [-(2**40)] * sketch.size
    elif cells == "full":
        sketch.counts = [1] * sketch.size
        sketch.key_xor = sketch.fp_xor = sketch.check_xor = [FULL] * sketch.size
    assert sketch.encoded_size() == len(encoded_bytes(sketch))


def test_built_and_difference_sketches_are_sized():
    entries = [Entry(f"cn=E{i},o=xyz", {"cn": f"E{i}", "sn": "é"}) for i in range(30)]
    master = build_sketch(entries, 48, salt=3)
    replica = build_sketch(entries[5:] + [Entry("cn=X,o=xyz", {"cn": "X"})], 48, salt=3)
    difference = master.subtract(replica)
    assert any(count < 0 for count in difference.counts)
    for sketch in (master, replica, difference):
        assert sketch.encoded_size() == len(encoded_bytes(sketch))


def test_the_sketch_floor_is_929_bytes():
    """``SKETCH_FLOOR_BYTES`` is a loaded first sketch's length: 24
    cells, every count 1 and every XOR a full 64 bits."""
    cells = cells_for_divergence(ladder.INITIAL_DIVERGENCE)
    loaded = EntrySketch(cells)
    loaded.counts = [1] * loaded.size
    loaded.key_xor = loaded.fp_xor = loaded.check_xor = [FULL] * loaded.size
    assert ladder.SKETCH_FLOOR_BYTES == 929
    assert loaded_sketch_bytes(cells) == len(encoded_bytes(loaded)) == 929
