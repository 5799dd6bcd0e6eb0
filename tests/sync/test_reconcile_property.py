"""Reconciliation safety properties (Hypothesis).

Two claims (docs/RECOVERY.md tier 2):

* **Sketch soundness** — whenever :meth:`EntrySketch.decode` returns a
  difference (rather than None), it is *exactly* the symmetric
  difference of the two sets; a corrupted sketch either still yields
  the exact difference or fails detectably, never a wrong answer.
* **Ladder convergence** — for any seeded divergence schedule and any
  sketch-corruption rate, a consumer whose ``:h`` cookie died converges
  to the master (through reconciliation or the rebuild fallback), and
  at no point holds an entry version the master never had.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.chaos import ReferenceModel
from repro.ldap import Entry, Scope, SearchRequest
from repro.server import (
    DirectoryServer,
    FaultPlan,
    FaultSpec,
    FaultyNetwork,
    Modification,
)
from repro.sync import (
    DurabilityConfig,
    MemoryJournal,
    ResilientConsumer,
    ResyncProvider,
    RetryPolicy,
    build_sketch,
    corrupt_cell,
    entry_fingerprint,
    entry_key,
)
from repro.sync import ladder

REQUEST = SearchRequest("o=xyz", Scope.SUB, "(departmentNumber=42)")


def person(name: str, sn: str = "T") -> Entry:
    return Entry(
        f"cn={name},o=xyz",
        {"objectClass": ["person"], "cn": name, "sn": sn, "departmentNumber": "42"},
    )


def digest(entry: Entry):
    return (entry_key(entry.dn), entry_fingerprint(entry))


# ----------------------------------------------------------------------
# sketch soundness
# ----------------------------------------------------------------------
@given(
    master_names=st.sets(st.integers(0, 120), max_size=60),
    replica_names=st.sets(st.integers(0, 120), max_size=60),
    cells=st.sampled_from([12, 24, 48, 96]),
    salt=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_decode_is_exact_or_detected(master_names, replica_names, cells, salt):
    master = [person(f"E{i}") for i in sorted(master_names)]
    replica = [person(f"E{i}") for i in sorted(replica_names)]
    diff = build_sketch(master, cells, salt=salt).subtract(
        build_sketch(replica, cells, salt=salt)
    )
    decoded = diff.decode()
    if decoded is None:
        return  # detected failure: the caller doubles and retries
    positive, negative = decoded
    assert sorted(positive) == sorted(
        digest(e) for e in master if e.dn not in {r.dn for r in replica}
    )
    assert sorted(negative) == sorted(
        digest(e) for e in replica if e.dn not in {m.dn for m in master}
    )


@given(
    extra=st.integers(1, 8),
    cells=st.sampled_from([24, 48]),
    salt=st.integers(0, 2**32 - 1),
    position=st.floats(0.0, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_corruption_never_yields_a_wrong_difference(extra, cells, salt, position):
    shared = [person(f"S{i}") for i in range(20)]
    master = shared + [person(f"M{i}") for i in range(extra)]
    diff = build_sketch(master, cells, salt=salt).subtract(
        build_sketch(shared, cells, salt=salt)
    )
    corrupt_cell(diff, position)
    decoded = diff.decode()
    if decoded is not None:  # astronomically unlikely, but must be exact
        positive, negative = decoded
        assert sorted(positive) == sorted(digest(person(f"M{i}")) for i in range(extra))
        assert negative == []


# ----------------------------------------------------------------------
# the fingerprint is the entry: equal exactly when semantically equal
# ----------------------------------------------------------------------
# Every attribute under several spellings (case, alias, canonical; one
# unregistered name), every value under several that normalize alike —
# a universe small enough that equal pairs are common.
_SPELLINGS = [
    ["sn", "SN", "surname"],
    ["cn", "commonName", "COMMONNAME"],
    ["l", "localityName", "location"],
    ["age", "Age"],
    ["x-extra", "X-Extra"],
]
_VALUE_SPELLINGS = [["aa", "AA", " aa "], ["bb", "Bb"], ["7", "007"], ["8"]]

_spelled_values = st.lists(
    st.sampled_from(_VALUE_SPELLINGS).flatmap(st.sampled_from),
    min_size=1,
    max_size=3,
)
_spelled_entries = st.builds(
    lambda name, attrs: Entry(f"cn={name},o=xyz", dict(attrs)),
    st.sampled_from(["e", "f"]),
    st.lists(
        st.tuples(st.sampled_from(_SPELLINGS).flatmap(st.sampled_from), _spelled_values),
        max_size=5,
    ),
)


@given(_spelled_entries, _spelled_entries)
@settings(max_examples=400, deadline=None)
def test_fingerprints_agree_exactly_when_entries_are_semantically_equal(e1, e2):
    assert (entry_fingerprint(e1) == entry_fingerprint(e2)) == e1.semantically_equal(e2)


def test_the_fingerprint_universe_holds_both_outcomes_across_spellings():
    spelled = Entry("cn=e,o=xyz", {"surname": [" aa ", "Bb"], "Age": "007"})
    plain = Entry("cn=e,o=xyz", {"sn": ["bb", "AA"], "age": "7"})
    assert entry_fingerprint(spelled) == entry_fingerprint(plain)
    moved = Entry("cn=e,o=xyz", {"surname": ["bb"], "Age": "007"})
    assert entry_fingerprint(spelled) != entry_fingerprint(moved)
    assert not spelled.semantically_equal(moved)


# ----------------------------------------------------------------------
# ladder convergence under divergence + corruption
# ----------------------------------------------------------------------
def mutate(master: DirectoryServer, live: set, rng_value: int, step: int) -> None:
    name = f"E{rng_value % 24:03d}"
    dn = f"cn={name},o=xyz"
    kind = rng_value % 4
    if kind == 0 and dn in live:
        master.modify(dn, [Modification.replace("sn", f"S{step}")])
    elif kind == 1 and dn in live:
        master.delete(dn)
        live.discard(dn)
    elif kind == 2 and dn not in live:
        master.add(person(name))
        live.add(dn)
    else:
        master.add(person(f"X{step}"))
        live.add(f"cn=X{step},o=xyz")


@given(
    seed=st.integers(0, 2**32 - 1),
    ops=st.lists(st.integers(0, 2**16), min_size=1, max_size=20),
    corrupt_rate=st.sampled_from([0.0, 0.5, 1.0]),
    max_cells=st.sampled_from([48, 1024]),
)
@settings(max_examples=40, deadline=None)
def test_any_divergence_and_corruption_converges(seed, ops, corrupt_rate, max_cells):
    with mock.patch.object(ladder, "MAX_CELLS", max_cells):
        diverge_and_converge(seed, ops, corrupt_rate)


def diverge_and_converge(seed, ops, corrupt_rate):
    master = DirectoryServer("M")
    master.add_naming_context("o=xyz")
    master.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
    for i in range(24):
        master.add(person(f"E{i:03d}"))
    provider = ResyncProvider(
        master,
        durability=DurabilityConfig(history_max_entries=2),
        journal=MemoryJournal(),
    )
    net = FaultyNetwork(FaultPlan(FaultSpec(sketch_corrupt=corrupt_rate), seed=seed))
    consumer = ResilientConsumer(
        REQUEST,
        provider,
        network=net,
        seed=seed,
        policy=RetryPolicy(jitter=0.0),
    )
    consumer.sync_once()
    ever_valid = {digest(e) for e in master.search(REQUEST).entries}

    # Overflow the 2-entry history so the cookie carries :h …
    for i in range(4):
        master.modify(f"cn=E{i:03d},o=xyz", [Modification.replace("sn", "ovf")])
    consumer.sync_once()
    ever_valid |= {digest(e) for e in master.search(REQUEST).entries}
    assert consumer.content.cookie.endswith(":h")

    # …diverge by the seeded schedule, then kill the session.
    live = {f"cn=E{i:03d},o=xyz" for i in range(24)}
    for step, value in enumerate(ops):
        mutate(master, live, value, step)
    ever_valid |= {digest(e) for e in master.search(REQUEST).entries}
    provider.invalidate_cookie(consumer.content.cookie)

    cycles = ReferenceModel.of(master).converge(consumer.sync_once, [consumer.content], 8)
    assert cycles is not None, (
        f"no convergence (seed={seed}, corrupt={corrupt_rate}, "
        f"faults={net.fault_counts()})"
    )
    # Safety: the replica never held an entry version the master
    # didn't — a corrupted sketch can delay recovery, not poison it.
    held = {digest(e) for e in consumer.content.entries.values()}
    assert held <= ever_valid
    if corrupt_rate == 1.0:
        # Every sketch was corrupted: recovery must have come from the
        # rebuild fallback, never from a "successful" corrupt decode.
        assert net.registry.counter("sync.reconcile.decode_success").value == 0
