"""The production sketch against its reference construction (Hypothesis).

:func:`~repro.sync.reconcile.build_sketch` hashes each position once,
from a per-partition prefix and a per-item suffix, and takes an item's
checksum from the digest a frozen image remembers.  None of that may
move a bit: for any salt (past 2³¹ too), size and ``hash_count`` 2–4,
every cell of a built sketch, and of a difference sketch before and
after its peel, equals the cell :class:`tests.oracles.ReferenceSketch`
— the part-by-part construction it replaced — holds.
"""

from hypothesis import given, settings, strategies as st

from repro.ldap import Entry
from repro.sync import build_sketch
from repro.sync.reconcile import entry_digest
from tests.oracles import ReferenceSketch, reference_digest, reference_sketch

SALTS = st.one_of(
    st.integers(0, 2**31 - 1),
    st.integers(2**31, 2**64),
    st.sampled_from([2**31, 2**32 - 1, 2**32, 2**63]),
)
HASH_COUNTS = st.integers(2, 4)


def cells(sketch):
    return sketch.counts, sketch.key_xor, sketch.fp_xor, sketch.check_xor


def person(i: int, sn: str, frozen: bool) -> Entry:
    entry = Entry(
        f"cn=E{i},o=xyz",
        {"objectClass": ["person"], "cn": f"E{i}", "sn": sn, "departmentNumber": "42"},
    )
    return entry.freeze() if frozen else entry


PEOPLE = st.dictionaries(
    st.integers(0, 80), st.tuples(st.sampled_from(["a", "b", "c"]), st.booleans()), max_size=40
)


def people(drawn):
    return [person(i, sn, frozen) for i, (sn, frozen) in sorted(drawn.items())]


@given(drawn=PEOPLE, size=st.integers(4, 160), salt=SALTS, hash_count=HASH_COUNTS)
@settings(max_examples=80, deadline=None)
def test_a_built_sketch_is_the_reference_cell_for_cell(drawn, size, salt, hash_count):
    entries = people(drawn)
    for entry in entries:
        assert entry_digest(entry)[:2] == reference_digest(entry)
    built = build_sketch(entries, size, salt=salt, hash_count=hash_count)
    reference = reference_sketch(entries, size, salt=salt, hash_count=hash_count)
    assert cells(built) == cells(reference)
    # A second sketch of the same images, now digested, is the same.
    again = build_sketch(entries, size, salt=salt, hash_count=hash_count)
    assert cells(again) == cells(reference)


@given(
    master=PEOPLE,
    replica=PEOPLE,
    size=st.integers(4, 96),
    salt=SALTS,
    hash_count=HASH_COUNTS,
)
@settings(max_examples=80, deadline=None)
def test_a_peel_leaves_the_reference_cells_and_answer(master, replica, size, salt, hash_count):
    ours, theirs = people(master), people(replica)
    diff = build_sketch(ours, size, salt=salt, hash_count=hash_count).subtract(
        build_sketch(theirs, size, salt=salt, hash_count=hash_count)
    )
    reference = ReferenceSketch(size, salt=salt, hash_count=hash_count)
    for entries, sign in ((ours, 1), (theirs, -1)):
        for entry in entries:
            reference.insert(*reference_digest(entry), sign)
    assert cells(diff) == cells(reference)
    assert diff.decode() == reference.decode()
    assert cells(diff) == cells(reference)
