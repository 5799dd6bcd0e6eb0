"""One link round is one exchange (docs/PROTOCOL.md §4).

A :class:`~repro.sync.SyncLink` round carries every polled content's
``(request, cookie)`` pair in one ``poll`` exchange, and the provider
names only the sessions with something to say.  The differential
property drives random master update streams over N ≥ 3 overlapping
filters and compares each multiplexed round with the protocol
reference, :class:`tests.oracles.PerContentLink` — one single-session
poll per content, on a second provider of the same master: equal
contents, each the reference model's, equal sync PDU and byte counts,
one round trip against N, and the cookie of every session the reference
found empty left as it was.  A quiet poll is journaled, so a durable
provider that crashes between two polls resumes the unchanged cookie.
"""

import copy

from hypothesis import given, settings, strategies as st

from repro.ldap import Entry, Scope, SearchRequest
from repro.server import DirectoryServer, LdapError, Modification, SimulatedNetwork
from repro.sync import (
    DurabilityConfig,
    MemoryJournal,
    MemorySnapshotStore,
    ResilientConsumer,
    ResyncProvider,
    SyncedContent,
    SyncLink,
)
from repro.sync.durability import session_to_wire
from tests.oracles import PerContentLink, ReferenceModel

NAMES = [f"n{i}" for i in range(6)]
DEPARTMENTS = ["1", "2", "3"]
SURNAMES = ["a", "ab", "b"]
FILTERS = [
    "(departmentNumber=1)",
    "(departmentNumber=2)",
    "(sn=a*)",
    "(|(departmentNumber=3)(sn=b))",
    "(objectClass=person)",
]


def request(text: str) -> SearchRequest:
    return SearchRequest("o=xyz", Scope.SUB, text)


def person(name: str, dept: str, sn: str) -> Entry:
    return Entry(
        f"cn={name},o=xyz",
        {"objectClass": ["person"], "cn": name, "sn": sn, "departmentNumber": dept},
    )


def build_master() -> DirectoryServer:
    master = DirectoryServer("M")
    master.add_naming_context("o=xyz")
    master.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
    for i, name in enumerate(NAMES[:4]):
        master.add(person(name, DEPARTMENTS[i % 3], SURNAMES[i % 3]))
    return master


_ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "modify", "delete"]),
        st.sampled_from(NAMES),
        st.sampled_from(DEPARTMENTS),
        st.sampled_from(SURNAMES),
    ),
    max_size=5,
)


def apply(master: DirectoryServer, ops) -> None:
    for kind, name, dept, sn in ops:
        dn = f"cn={name},o=xyz"
        try:
            if kind == "add":
                master.add(person(name, dept, sn))
            elif kind == "modify":
                master.modify(
                    dn,
                    [Modification.replace("departmentNumber", dept), Modification.replace("sn", sn)],
                )
            else:
                master.delete(dn)
        except LdapError:
            pass  # already there / not there: the draw is a no-op


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=3, max_value=len(FILTERS)),
    rounds=st.lists(_ops, min_size=1, max_size=5),
)
def test_one_multiplexed_round_is_n_single_session_polls(n, rounds):
    master = build_master()
    requests = [request(text) for text in FILTERS[:n]]
    arms = []
    for link_class in (SyncLink, PerContentLink):
        net = SimulatedNetwork()
        link = link_class(ResyncProvider(master), network=net)
        contents = [SyncedContent(r, network=net) for r in requests]
        assert link.sync(contents) is not None  # the initial loads
        arms.append((net, link, contents))
    (multi_net, link, multi), (single_net, oracle, single) = arms

    for ops in rounds:
        apply(master, ops)
        cookies = [c.cookie for c in multi]
        applied = [c.updates_applied for c in single]
        before = multi_net.stats.snapshot(), single_net.stats.snapshot()
        assert link.sync(multi) is not None
        assert oracle.sync(single) is not None
        moved = multi_net.stats - before[0], single_net.stats - before[1]

        model = ReferenceModel.of(master)
        for mine, theirs, cookie, was in zip(multi, single, cookies, applied):
            assert model.holds(mine), str(mine.request)
            assert mine.entries == theirs.entries  # Entry == is semantic
            quiet = theirs.updates_applied == was  # the reference's batch was empty
            assert (mine.cookie == cookie) == quiet, str(mine.request)
        for field in ("sync_entry_pdus", "sync_dn_pdus", "bytes_sent"):
            assert getattr(moved[0], field) == getattr(moved[1], field), field
        assert (moved[0].round_trips, moved[1].round_trips) == (1, n)


def test_a_quiet_cookie_survives_a_crash_between_polls():
    """A quiet poll is journaled (``poll`` with ``quiet: true``): a
    durable provider that crashes and recovers between it and the next
    poll holds the session exactly as the live one did, and the
    consumer resumes its unchanged cookie — no sketch, no reload, one
    entry PDU for one change."""
    master = build_master()
    provider = ResyncProvider(master, journal=MemoryJournal())
    net = SimulatedNetwork()
    consumer = ResilientConsumer(request("(objectClass=person)"), provider, network=net)
    consumer.sync_once()
    master.modify("cn=n0,o=xyz", [Modification.replace("sn", "changed")])
    consumer.sync_once()
    cookie = consumer.content.cookie

    assert consumer.sync_once() is not None  # quiet: nothing to say
    assert consumer.content.cookie == cookie
    _snapshot, records, _dropped = copy.deepcopy(provider.journal).load()
    assert records[-1] == {"t": "poll", "sid": cookie.split(":")[0], "gen": 1,
                           "persist": False, "quiet": True}

    live = session_to_wire(provider.sessions.get(cookie))
    provider.restart()
    provider.recover()
    assert session_to_wire(provider.sessions.get(cookie)) == live

    master.modify("cn=n1,o=xyz", [Modification.replace("sn", "changed")])
    before = net.stats.snapshot()
    assert consumer.sync_once() is not None
    assert ReferenceModel.of(master).holds(consumer.content)
    assert (net.stats - before).sync_entry_pdus == 1
    assert net.registry.counter("sync.reconcile.attempts").value == 0
    assert net.registry.counter("sync.resilient.reloads").value == 0


def test_a_journal_without_the_field_replays_a_drain():
    """A ``poll`` record written before quiet polls existed has no
    ``quiet`` field and folds as the drain it was."""
    master = build_master()
    provider = ResyncProvider(master, journal=MemoryJournal())
    content = SyncedContent(request("(departmentNumber=1)"))
    content.poll(provider)  # the single-session exchange: always a drain
    content.poll(provider)
    _snapshot, records, _dropped = copy.deepcopy(provider.journal).load()
    assert records[-1]["t"] == "poll" and "quiet" not in records[-1]
    live = session_to_wire(provider.sessions.get(content.cookie))
    provider.restart()
    provider.recover()
    assert session_to_wire(provider.sessions.get(content.cookie)) == live


def _restart_from_snapshot(provider, store, net):
    """A replica restarted from its last snapshot, synced once."""
    restarted = ResilientConsumer(
        request("(objectClass=person)"), provider, network=net, snapshot_store=store
    )
    assert restarted.warm_started
    assert restarted.sync_once() is not None
    return restarted


def test_a_quiet_poll_keeps_the_batch_a_snapshot_cookie_still_needs():
    """A quiet poll leaves ``G`` as it is, so a snapshot saved at
    ``G-1`` — before the drain that reached ``G`` — still resumes after
    it.  The quiet poll must not have acknowledged that drain's batch:
    the ``G-1`` retry is re-served it, and the restarted replica holds
    the master's content."""
    master = build_master()
    provider = ResyncProvider(master)
    net = SimulatedNetwork()
    store = MemorySnapshotStore()
    consumer = ResilientConsumer(
        request("(objectClass=person)"), provider, network=net,
        snapshot_store=store, snapshot_interval=3,
    )
    for _ in range(3):  # load, two quiet polls, snapshot at G-1
        assert consumer.sync_once() is not None
    saved = consumer.content.cookie
    master.modify("cn=n0,o=xyz", [Modification.replace("sn", "changed")])
    assert consumer.sync_once() is not None  # drains the batch: G
    cookie = consumer.content.cookie
    assert cookie != saved
    assert consumer.sync_once() is not None  # quiet
    assert consumer.content.cookie == cookie
    session = provider.sessions.get(cookie)
    assert session.retained_count == 1

    restarted = _restart_from_snapshot(provider, store, net)
    assert ReferenceModel.of(master).holds(restarted.content)


def test_a_quiet_poll_keeps_a_degraded_resume_a_snapshot_cookie_still_needs():
    """The same for an eq.-3 resume: a quiet poll after it leaves the
    resume unacknowledged, so the snapshot's ``G-1`` cookie is re-served
    the resume, not an empty retransmit."""
    master = build_master()
    provider = ResyncProvider(
        master, durability=DurabilityConfig(history_max_entries=1), journal=MemoryJournal()
    )
    net = SimulatedNetwork()
    store = MemorySnapshotStore()
    consumer = ResilientConsumer(
        request("(objectClass=person)"), provider, network=net,
        snapshot_store=store, snapshot_interval=3,
    )
    for _ in range(3):
        assert consumer.sync_once() is not None
    for name in NAMES[:2]:  # two changes overflow a one-entry history
        master.modify(f"cn={name},o=xyz", [Modification.replace("sn", "changed")])
    assert consumer.sync_once() is not None  # the degraded resume: G
    assert consumer.content.cookie.endswith(":h")
    assert master.metrics.counter("sync.durability.degraded_resumes").value == 1
    assert consumer.sync_once() is not None  # quiet
    assert provider.sessions.get(consumer.content.cookie).degraded_since_csn is not None

    restarted = _restart_from_snapshot(provider, store, net)
    assert ReferenceModel.of(master).holds(restarted.content)
    assert master.metrics.counter("sync.durability.degraded_resumes").value == 2
