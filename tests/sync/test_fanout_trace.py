"""A golden seeded trace of the provider's update fan-out.

``fanout_trace.json`` was written by :func:`drive_trace` running on the
commit before a session's membership, routing summary and delivery
endpoint moved onto the one :class:`~repro.sync.session.Session` record
(when they lived in ``RoutedSession.held``, ``SessionRouter._sessions``
and ``ResyncProvider._persist_callbacks``).  It must replay identically
— per step every session's notifications, the ``sync.route.*`` counters
and the journal's size and record kinds, and at the end every session's
``session_to_wire`` image and the holder index — so the record is the
same provider, not a similar one.

The file was regenerated once since, when the byte cap on a session's
history went and ``session_to_wire`` lost its ``pending_bytes`` key:
that commit's tree, with only that key taken out of
``session_to_wire``/``session_from_wire``, writes the new file byte for
byte, and the diff against the old one touches only the ``pending_bytes``
keys of the final session images and seed 7's per-step journal sizes
(seed 12 runs journal-less).

The schedule: 320 seeded master ops (adds, modifies that make an entry
enter, leave or stay in a content, deletes, leaf renames, moves and
subtree renames) over fifteen overlapping sessions — poll and persist,
in-process and behind a network ``DeliveryQueue``, one NOT-shaped
(unanchored) filter, one rarely polled session overflowing the history
cap, one parked, one ended by ``sync_end``, one abandoned, one never
polled again (expired by ``idle_limit``) — on a journaled provider
crashed and recovered twice (odd seed) and on a journal-less one whose
widest persist callback updates the master from inside a delivery (even
seed).  The golden file keeps the two apart: the commit that wrote it
could write a snapshot from a nested ``on_update`` while the outer
record was half fanned out.  Snapshots now wait for the outermost
``on_update``, so a third arm — not in the golden file — runs both at
once and holds the journal to the live provider after every step
(:func:`test_reentrant_journaled_arm_recovers_the_live_state`).
"""

import copy
import json
import os
import random
import zlib

import pytest

from repro.ldap import DN, Entry, ReSyncControl, Scope, SearchRequest, SyncMode
from repro.server import DirectoryServer, LdapError, Modification, SimulatedNetwork
from repro.sync import (
    DurabilityConfig,
    MemoryJournal,
    ReconcileRequest,
    ResyncProvider,
    SyncProtocolError,
)
from repro.sync.durability import session_to_wire

TRACE = os.path.join(os.path.dirname(__file__), "fanout_trace.json")
TRACE_SEEDS = (7, 12)
TRACE_STEPS = 320
IDLE_LIMIT = 170
HISTORY_CAP = 16

_SN = ["a", "ab", "abc", "b", "ba", "c"]
_DEPT = ["1", "2", "3", "4"]
_HOMES = ["ou=a,o=xyz", "ou=b,o=xyz", "ou=t0,ou=a,o=xyz", "ou=t1,ou=a,o=xyz"]

#: label -> (base, scope, filter); every label is one poll session.
POLLED = {
    "wide": ("o=xyz", Scope.SUB, "(sn=*)"),  # polled rarely: overflows the cap
    "d1": ("o=xyz", Scope.SUB, "(departmentNumber=1)"),
    "d2": ("o=xyz", Scope.SUB, "(departmentNumber=2)"),
    "pfx": ("o=xyz", Scope.SUB, "(&(objectClass=person)(sn=a*))"),
    "not": ("ou=b,o=xyz", Scope.SUB, "(!(sn=a))"),  # unanchored
    "or": ("o=xyz", Scope.SUB, "(|(sn=b)(departmentNumber=3))"),
    "one": ("ou=a,o=xyz", Scope.ONE, "(sn=a)"),
    "parked": ("o=xyz", Scope.SUB, "(age>=5)"),
    "ended": ("o=xyz", Scope.SUB, "(departmentNumber=1)"),
    "idle": ("o=xyz", Scope.SUB, "(sn=b*)"),  # never polled again: expires
}
#: label -> (base, scope, filter); every label is one persist session.
PUSHED = {
    "p-wide": ("o=xyz", Scope.SUB, "(sn=*)"),  # journal-less: re-enters the master
    "p-d2": ("o=xyz", Scope.SUB, "(departmentNumber=2)"),
    "p-not": ("ou=a,o=xyz", Scope.SUB, "(!(departmentNumber=1))"),
    "p-left": ("o=xyz", Scope.SUB, "(sn=ab)"),  # abandoned mid-run
    "p-net": ("ou=a,o=xyz", Scope.SUB, "(departmentNumber=1)"),  # DeliveryQueue
}
#: Minted by a reconcile sketch at step 130, polled from then on.
SKETCHED = {"sketch": ("o=xyz", Scope.SUB, "(departmentNumber=4)")}
ROTATION = ["d1", "d2", "pfx", "not", "or", "one", "parked", "ended", "sketch"]
#: Journal record kind -> its letter in a row's journal column.
KIND_LETTERS = {
    "update": "u",
    "create": "c",
    "poll": "p",
    "touch": "t",
    "resume": "r",
    "park": "k",
    "end": "e",
}


def _request(spec) -> SearchRequest:
    base, scope, text = spec
    return SearchRequest(base, scope, text)


def _person(dn: str, rng: random.Random) -> Entry:
    return Entry(
        dn,
        {
            "objectClass": ["person"],
            "cn": dn.split(",", 1)[0].split("=", 1)[1],
            "sn": rng.choice(_SN),
            "departmentNumber": rng.choice(_DEPT),
            "age": str(rng.randrange(10)),
        },
    )


def build_master(rng: random.Random) -> DirectoryServer:
    master = DirectoryServer("M")
    master.add_naming_context("o=xyz")
    master.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
    for home in _HOMES:
        ou = home.split(",", 1)[0].split("=", 1)[1]
        master.add(Entry(home, {"objectClass": ["organizationalUnit"], "ou": ou}))
    for i in range(24):
        master.add(_person(f"cn=e{i},{_HOMES[i % len(_HOMES)]}", rng))
    return master


def _fingerprint(update) -> list:
    entry = update.entry
    attrs = (
        None
        if entry is None
        else sorted((name, list(entry.get(name))) for name in entry.attribute_names())
    )
    return [update.action.value, str(update.dn), attrs]


def _digest(items: list) -> list:
    """``[count, crc32]`` of one step's notifications for one session."""
    return [len(items), zlib.crc32(json.dumps(items, sort_keys=True).encode())]


def _people(master: DirectoryServer) -> list:
    found = master.search(SearchRequest("o=xyz", Scope.SUB, "(objectClass=person)"))
    return sorted(str(e.dn) for e in found.entries)


def _mutate(master: DirectoryServer, rng: random.Random, step: int) -> list:
    """One seeded master op; returns ``[kind, records committed]``."""
    people = _people(master)
    kind = rng.choice(
        ["add", "add", "sn", "dept", "age", "other", "delete", "rename", "move", "subtree"]
    )
    if not people and kind not in ("add", "subtree"):
        kind = "add"
    before = master.current_csn
    try:
        if kind == "add":
            master.add(_person(f"cn=n{step},{rng.choice(_HOMES)}", rng))
        elif kind == "sn":
            master.modify(rng.choice(people), [Modification.replace("sn", rng.choice(_SN))])
        elif kind == "dept":
            master.modify(
                rng.choice(people),
                [Modification.replace("departmentNumber", rng.choice(_DEPT))],
            )
        elif kind == "age":
            master.modify(
                rng.choice(people), [Modification.replace("age", str(rng.randrange(10)))]
            )
        elif kind == "other":  # an attribute no filter names: every holder stays
            master.modify(
                rng.choice(people), [Modification.replace("description", f"d{step}")]
            )
        elif kind == "delete":
            master.delete(rng.choice(people))
        elif kind == "rename":
            master.modify_dn(rng.choice(people), new_rdn=f"cn=r{step}")
        elif kind == "move":
            # Only under a superior that exists: the server would accept a
            # missing one and leave an orphan no region scan reaches.
            homes = [h for h in _HOMES if master.store.get(DN.parse(h)) is not None]
            master.modify_dn(rng.choice(people), new_superior=rng.choice(homes))
        else:  # a team and everyone in it changes DN
            team = rng.choice(["t0", "t1"])
            here = [
                str(e.dn)
                for e in master.search(
                    SearchRequest("ou=a,o=xyz", Scope.ONE, f"(ou={team})")
                ).entries
            ]
            other = "ou=b,o=xyz" if here else "ou=a,o=xyz"
            source = here[0] if here else f"ou={team},ou=b,o=xyz"
            master.modify_dn(source, new_superior=other)
    except LdapError:
        pass
    return [kind, master.current_csn - before]


class _Drive:
    """The provider under trace plus what the consumers of its fifteen
    sessions remember: a cookie per poll session, a handle and a
    notification log per persist session."""

    def __init__(self, seed: int, journaled=None, reenters=None, snapshot_interval=48):
        self.rng = random.Random(seed)
        self.master = build_master(self.rng)
        # The golden arms: journaled on an odd seed, re-entrant on an even.
        journaled = bool(seed % 2) if journaled is None else journaled
        self.reenters = not journaled if reenters is None else reenters
        self.journal = MemoryJournal() if journaled else None
        self.provider = ResyncProvider(
            self.master,
            idle_limit=IDLE_LIMIT,
            durability=DurabilityConfig(
                snapshot_interval=snapshot_interval, history_max_entries=HISTORY_CAP
            ),
            journal=self.journal,
        )
        self.net = SimulatedNetwork()
        self.cookies = {}
        self.previous = {}
        self.handles = {}
        self.seen = {}  # label -> this step's notifications
        self.nested = 0
        self.left_gone = False
        for label in POLLED:
            self.poll(label)
        self.subscribe_all()

    # -- consumers ------------------------------------------------------
    def note(self, label: str, item) -> None:
        self.seen.setdefault(label, []).append(item)

    def poll(self, label: str, cookie="current") -> None:
        request = _request({**POLLED, **SKETCHED}[label])
        if cookie == "current":
            cookie = self.cookies.get(label)
        control = ReSyncControl(mode=SyncMode.POLL, cookie=cookie)
        try:
            response = self.provider.handle(request, control)
        except SyncProtocolError as exc:
            self.note(label, ["refused", str(exc)])
            self.cookies.pop(label, None)
            return
        self.previous[label] = self.cookies.get(label)
        self.cookies[label] = response.cookie
        self.note(
            label,
            [
                "poll",
                response.cookie,
                response.initial,
                response.uses_retain,
                [_fingerprint(u) for u in response.updates],
            ],
        )

    def subscribe(self, label: str) -> None:
        request = _request(PUSHED[label])

        def deliver(update, label=label):
            self.note(label, _fingerprint(update))
            reenters = label == "p-wide" and self.reenters
            if reenters and update.entry is not None and self.nested < 40:
                # A delivery that updates the master: on_update re-enters
                # between this record's deliveries.
                self.nested += 1
                people = _people(self.master)
                self.master.modify(
                    people[self.nested % len(people)],
                    [Modification.replace("sn", _SN[self.nested % len(_SN)])],
                )

        if label == "p-net":
            deliveries, handle = self.net.persist_exchange(self.provider, request, deliver)
            response = deliveries[-1].response
        else:
            response, handle = self.provider.persist(request, deliver)
        self.handles[label] = handle
        self.note(
            label,
            ["subscribed", handle.session_id, [_fingerprint(u) for u in response.updates]],
        )

    def subscribe_all(self) -> None:
        for label in PUSHED:
            if not (label == "p-left" and self.left_gone):
                self.subscribe(label)

    # -- the schedule ---------------------------------------------------
    def step(self, i: int) -> list:
        self.seen = {}
        op = _mutate(self.master, self.rng, i)
        events = []
        if i == 60:
            events.append(["park", self.provider.park_session(self.cookies["parked"])])
        if i == 90:
            cookie = self.cookies.pop("ended")
            self.provider.handle(
                _request(POLLED["ended"]),
                ReSyncControl(mode=SyncMode.SYNC_END, cookie=cookie),
            )
            events.append(["end", cookie])
        if i == 120:  # d1's cookie with d2's request: refused, a ``touch``
            control = ReSyncControl(mode=SyncMode.POLL, cookie=self.cookies["d1"])
            try:
                self.provider.handle(_request(POLLED["d2"]), control)
            except SyncProtocolError as exc:
                events.append(["refuse", str(exc)])
        if i == 130:
            request = _request(SKETCHED["sketch"])
            served = self.provider.reconcile(
                request, ReconcileRequest(divergence_hint=4, salt=i)
            )
            self.cookies["sketch"] = served.cookie
            events.append(["sketch", served.cookie, served.content_count])
        if i == 150:
            self.left_gone = True
            self.handles["p-left"].abandon()
            events.append(["abandon", self.handles["p-left"].session_id])
        if i in (105, 210):
            if self.journal is not None:
                self.provider.restart()
                events.append(["recover", self.provider.recover()])
            else:
                # No crash to shed them: re-subscribe by hand so that the
                # persist sessions outlive the idle limit on this arm too.
                for label, handle in self.handles.items():
                    if not (label == "p-left" and self.left_gone):
                        handle.abandon()
                events.append(["resubscribe"])
            self.subscribe_all()
        label = ROTATION[i % len(ROTATION)]
        if label in self.cookies:
            self.poll(label)
            if i % 24 == 5:  # the response was lost: present the cookie before
                self.poll(label, cookie=self.previous[label])
        if i % 45 == 44 and "wide" in self.cookies:
            self.poll("wide")
        if i == 300:
            self.poll("idle")  # long expired: refused
        self.net.settle()
        metrics = self.master.metrics
        kinds = (
            "".join(KIND_LETTERS[rec["t"]] for rec in self.journal.load()[1])
            if self.journal is not None
            else ""
        )
        return [
            i,
            op,
            events,
            {label: _digest(items) for label, items in sorted(self.seen.items())},
            metrics.counter("sync.route.candidates").value,
            metrics.counter("sync.route.notified").value,
            self.journal.size_bytes if self.journal is not None else 0,
            kinds,
            self.provider.active_session_count,
        ]

    def final(self) -> dict:
        provider = self.provider
        return {
            "sessions": [session_to_wire(s) for s in provider.sessions.active_sessions()],
            "clock": [provider.sessions.tick, provider.sessions.next_id],
            "holders": sorted(
                [str(dn), sorted(s.session_id for s in bucket)]
                for dn, bucket in provider.router._holders.items()
            ),
            "overflows": self.master.metrics.counter(
                "sync.durability.history_overflow"
            ).value,
            "degraded_resumes": self.master.metrics.counter(
                "sync.durability.degraded_resumes"
            ).value,
            "nested": self.nested,
        }


def drive_trace(seed: int, steps: int = TRACE_STEPS) -> dict:
    drive = _Drive(seed)
    setup = {label: _digest(items) for label, items in sorted(drive.seen.items())}
    rows = [drive.step(i) for i in range(steps)]
    return {"setup": setup, "rows": rows, "final": drive.final()}


def _golden() -> dict:
    with open(TRACE, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("seed", TRACE_SEEDS)
def test_golden_fanout_trace_replays(seed):
    golden = _golden()[str(seed)]
    assert len(golden["rows"]) == TRACE_STEPS
    replayed = json.loads(json.dumps(drive_trace(seed)))
    assert replayed["setup"] == golden["setup"]
    for got, want in zip(replayed["rows"], golden["rows"]):
        assert got == want, f"seed {seed}: step {want[0]} ({want[1][0]}) diverged"
    assert replayed["final"] == golden["final"]


def _poll_session_images(provider: ResyncProvider) -> list:
    return [
        session_to_wire(s)
        for s in provider.sessions.active_sessions()
        if s.persist_queue is None
    ]


def test_reentrant_journaled_arm_recovers_the_live_state():
    """Re-entrancy and journaling on one arm: seed 12's schedule (the
    widest persist callback updates the master 40 times from inside a
    delivery) on a journaled provider snapshotting every 5 appends, so
    snapshots fall due inside nested ``on_update`` calls.  After every
    step, what a crash right now would recover — a second provider
    folding a copy of the journal — is the live provider's poll
    sessions, image for image (persist sessions are shed by recovery)."""
    drive = _Drive(12, journaled=True, reenters=True, snapshot_interval=5)
    # A poll session younger than the re-entering one: the fan-out
    # reaches it after the nested update has run.
    drive.poll("sketch")
    snapshots = drive.master.metrics.counter("sync.durability.snapshots")
    for i in range(TRACE_STEPS):
        taken = snapshots.value
        drive.step(i)
        shadow = ResyncProvider(
            drive.master,
            idle_limit=IDLE_LIMIT,
            durability=drive.provider.durability,
            journal=copy.deepcopy(drive.journal),
        )
        try:
            shadow.recover()
        finally:
            shadow.detach()
        assert _poll_session_images(shadow) == _poll_session_images(drive.provider), (
            f"step {i}: the journal no longer recovers the live sessions "
            f"({snapshots.value - taken} snapshots this step)"
        )
    assert drive.nested == 40


def test_golden_trace_reaches_what_it_pins():
    """The trace is worth pinning only while it holds every shape of
    update and every kind of session ending it was written to hold."""
    golden = _golden()
    assert len(POLLED) + len(PUSHED) >= 12
    for seed, trace in golden.items():
        rows, final = trace["rows"], trace["final"]
        assert sum(row[1][1] for row in rows) >= 300  # committed master updates
        committed = {row[1][0] for row in rows if row[1][1]}
        assert committed >= {"add", "sn", "dept", "age", "other", "delete", "rename", "move"}
        assert any(row[1][0] == "subtree" and row[1][1] > 1 for row in rows)
        notified = {label for row in rows for label in row[3]}
        assert notified >= set(PUSHED) | set(ROTATION) | {"wide", "idle"}
        assert final["overflows"] >= 1 and final["degraded_resumes"] >= 2
        assert final["nested"] == (0 if int(seed) % 2 else 40)
        events = {event[0] for row in rows for event in row[2]}
        assert events >= {"park", "end", "abandon", "refuse", "sketch"}
        # The idle session expired server-side: its poll at step 300 is refused.
        assert rows[300][3]["idle"][0] == 1
        assert all(s["sid"] != "s10" for s in final["sessions"])
        if int(seed) % 2:
            assert [e[0] for row in rows for e in row[2]].count("recover") == 2
            assert set(KIND_LETTERS.values()) == {k for row in rows for k in row[7]}
            assert any(rows[i + 1][6] < rows[i][6] for i in range(len(rows) - 1))  # compacted
        else:
            assert all(row[6] == 0 for row in rows)
