"""Crash-recovery properties: the journal replay oracle and convergence.

Two claims about the durable provider (docs/PROTOCOL.md §10):

* **Replay oracle** — a provider that crashes, replays its journal and
  resumes is *observationally identical* to one that never crashed: the
  notification streams served to the same consumers afterwards are
  byte-identical (same updates, same order, same PDU sizes, same
  cookies).  Checked by driving two mirrored masters through one
  deterministic schedule and crashing only one provider.  The schedule
  writes every journal record kind: capped histories overflow into
  ``resume``, sessions are parked, refused (``touch``), ended,
  reconcile-minted and persist-subscribed, entries are renamed.
* **State equality** — after any such schedule, a second provider
  recovering from a copy of the live one's journal holds
  ``session_to_wire``-identical sessions, the same store clock and the
  same router holdings — replay *is* the live fold — and counts
  nothing on ``sync.route.*`` while doing so.
* **Convergence** — for any seeded schedule of mutations, crashes and
  journal damage (truncation/corruption), every
  :class:`ResilientConsumer` reconverges to the master's content once
  the network heals, in both poll and persist modes.

Like the fault matrix, the fixed cells are selectable through
``RECOVERY_SEEDS`` / ``FAULT_MODES`` so the CI ``crash-recovery`` job
can shard one (seed, mode) cell per matrix entry and any cell can be
replayed locally verbatim:
``RECOVERY_SEEDS=202 FAULT_MODES=persist pytest
tests/sync/test_recovery_property.py``.
"""

import copy
import json
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos import ReferenceModel
from repro.ldap import Entry, ReSyncControl, Scope, SearchRequest, SyncMode
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
    ReconcileFetch,
    ReconcileRequest,
    ResilientConsumer,
    ResyncProvider,
    RetryPolicy,
    SyncedContent,
    SyncProtocolError,
)
from repro.sync.durability import session_to_wire, update_to_wire
from tests.oracles import holders_of
from tests.sync.test_fault_resilience_property import MODES, NAMES, REQUEST, build_master, person

BY_SN = SearchRequest("o=xyz", Scope.SUB, "(sn=T)")
SEEDS = [int(s) for s in os.environ.get("RECOVERY_SEEDS", "101,202,303").split(",")]


def mutate(master: DirectoryServer, step: int) -> None:
    """One deterministic master update, cycling through all kinds."""
    name = NAMES[step % len(NAMES)]
    dn = f"cn={name},o=xyz"
    kind = step % 6
    if kind == 5:  # rename an entry an earlier step added, if it is still there
        for earlier in range(step - 1, -1, -1):
            if master.store.get(f"cn=X{earlier},o=xyz") is not None:
                master.modify_dn(f"cn=X{earlier},o=xyz", new_rdn=f"cn=R{step}")
                return
        kind = 4
    if kind == 0:
        master.modify(dn, [Modification.replace("sn", f"S{step}")])
    elif kind == 1:
        master.modify(dn, [Modification.replace("departmentNumber", "42")])
    elif kind == 2:
        master.modify(dn, [Modification.replace("departmentNumber", "99")])
    elif kind == 3:
        master.delete(dn)
        master.add(person(name))
    else:
        master.add(person(f"X{step}"))


class KindLoggingJournal(MemoryJournal):
    """A memory journal that remembers every record kind appended to it
    (snapshots truncate the records themselves)."""

    def __init__(self):
        super().__init__()
        self.kinds = set()

    def append(self, record: dict) -> None:
        self.kinds.add(record["t"])
        super().append(record)


def durable(
    master: DirectoryServer, snapshot_interval: int = 8, history_cap=None
) -> ResyncProvider:
    return ResyncProvider(
        master,
        durability=DurabilityConfig(
            snapshot_interval=snapshot_interval, history_max_entries=history_cap
        ),
        journal=KindLoggingJournal(),
    )


def response_signature(response):
    """Everything a consumer can observe about one response."""
    return (
        [update_to_wire(u) for u in response.updates],
        [u.pdu_bytes for u in response.updates],
        response.cookie,
        response.initial,
        response.uses_retain,
    )


# ----------------------------------------------------------------------
# the journal replay oracle
# ----------------------------------------------------------------------
def assert_replay_equals_live(live: ResyncProvider) -> None:
    """A second provider recovering from a copy of *live*'s journal must
    land on *live*'s own state (persist sessions aside: recovery sheds
    them), without counting the replayed fan-out on ``sync.route.*``."""
    route = [
        live.server.metrics.counter(f"sync.route.{name}")
        for name in ("candidates", "notified")
    ]
    counted = [counter.value for counter in route]
    replayed = ResyncProvider(
        live.server, durability=live.durability, journal=copy.deepcopy(live.journal)
    )
    try:
        replayed.recover()
    finally:
        replayed.detach()
    assert [counter.value for counter in route] == counted

    resumable = [s for s in live.sessions.active_sessions() if s.persist_queue is None]
    assert [session_to_wire(s) for s in replayed.sessions.active_sessions()] == [
        session_to_wire(s) for s in resumable
    ]
    assert (replayed.sessions.tick, replayed.sessions.next_id) == (
        live.sessions.tick,
        live.sessions.next_id,
    )

    def holdings(provider):
        """(session id, held DNs) in the router's visiting order, under
        the one invariant left to hold them by."""
        assert provider.router._holders == holders_of(provider)
        return [
            (s.session_id, set(s.content_dns))
            for s in sorted(provider.sessions.active_sessions(), key=lambda s: s.serial)
            if s.persist_queue is None
        ]

    assert holdings(replayed) == holdings(live)
    assert replayed._watermark == live._watermark
    assert replayed._last_change == live._last_change


class Mirror:
    """One schedule applied to two masters and their providers; every
    observable of every action is compared between the two sides."""

    def __init__(self, snapshot_interval: int, history_cap):
        self.masters = (build_master(), build_master())
        self.providers = tuple(
            durable(master, snapshot_interval, history_cap) for master in self.masters
        )
        #: one (vs crashed, vs clean) replica pair per session
        self.pairs = [(SyncedContent(r), SyncedContent(r)) for r in (REQUEST, BY_SN)]
        self.streams = None  # the persist subscription's two notification logs

    def both(self, action):
        """Run *action(side)* on both sides; the outcomes must agree."""
        outcomes = []
        for side in (0, 1):
            try:
                outcomes.append(action(side))
            except SyncProtocolError as exc:
                outcomes.append(("refused", str(exc)))
        assert outcomes[0] == outcomes[1]
        return outcomes[0]

    def mutate(self, step: int) -> None:
        for master in self.masters:
            mutate(master, step)
        if self.streams is not None:
            assert self.streams[0] == self.streams[1]

    def crash(self) -> None:
        self.providers[0].restart()
        self.providers[0].recover()
        self.streams = None  # recovery sheds the persist session

    def poll(self, i: int) -> None:
        def action(side):
            content = self.pairs[i][side]
            try:
                return response_signature(content.poll(self.providers[side]))
            except SyncProtocolError:
                return ("reloaded", response_signature(content.reload(self.providers[side])))

        self.both(action)

    def park(self, i: int) -> None:
        self.both(
            lambda side: self.providers[side].park_session(self.pairs[i][side].cookie or "s0:0")
        )

    def refuse(self, i: int) -> None:
        """Present pair *i*'s cookie with another request: a ``touch``."""
        other = BY_SN if self.pairs[i][0].request == REQUEST else REQUEST

        def action(side):
            cookie = self.pairs[i][side].cookie
            if cookie is None:
                return None
            control = ReSyncControl(mode=SyncMode.POLL, cookie=cookie)
            return response_signature(self.providers[side].handle(other, control))

        assert self.both(action) in (None, ("refused", "cookie presented with a different search request"))

    def end(self, i: int) -> None:
        self.both(lambda side: self.pairs[i][side].end(self.providers[side]))

    def reconcile(self, salt: int) -> None:
        """A reconcile-minted session joins the pairs, as a replica that
        the (empty) fetch left holding the sketch-time content."""
        pair = (SyncedContent(REQUEST), SyncedContent(REQUEST))

        def action(side):
            provider = self.providers[side]
            sketch = provider.reconcile(REQUEST, ReconcileRequest(divergence_hint=2, salt=salt))
            fetch = provider.reconcile_fetch(
                REQUEST, ReconcileFetch(keys=(), cookie=sketch.cookie)
            )
            held = ReferenceModel.of(self.masters[side]).content(REQUEST)
            pair[side].entries = {e.dn: e for e in held.values()}
            pair[side].cookie = fetch.cookie
            return sketch.cookie, sketch.content_count, response_signature(fetch)

        self.both(action)
        self.pairs.append(pair)

    def persist(self) -> None:
        self.streams = ([], [])

        def action(side):
            log = self.streams[side]
            response, _handle = self.providers[side].persist(
                BY_SN, lambda update: log.append(update_to_wire(update))
            )
            return response_signature(response)

        self.both(action)


def run_oracle(seed: int, steps: int, snapshot_interval: int, history_cap=3) -> set:
    """Mirror one schedule onto two masters; crash only one provider.

    Every action — before and after the crash — must look the same from
    both sides, the replicas must converge, and a fresh replay of either
    provider's journal must reproduce that provider's state.  Returns
    the journal record kinds the never-crashed provider wrote.
    """
    rng = random.Random(seed)
    mirror = Mirror(snapshot_interval, history_cap)
    for i in range(len(mirror.pairs)):
        mirror.poll(i)

    crash_at = rng.randrange(steps) if steps else 0
    for step in range(steps):
        mirror.mutate(step)
        if step == crash_at:
            mirror.crash()
        i = rng.randrange(len(mirror.pairs))
        draw = rng.random()
        if draw < 0.45:
            mirror.poll(i)
        elif draw < 0.55:
            mirror.park(i)
        elif draw < 0.65:
            mirror.refuse(i)
        elif draw < 0.72:
            mirror.end(i)
        elif draw < 0.80:
            mirror.reconcile(salt=step)
        elif draw < 0.86 and mirror.streams is None:
            mirror.persist()
        for provider in mirror.providers:
            assert provider.router._holders == holders_of(provider)

    for provider in mirror.providers:
        assert_replay_equals_live(provider)
    models = [ReferenceModel.of(master) for master in mirror.masters]
    for i, pair in enumerate(mirror.pairs):
        mirror.poll(i)
        assert all(model.holds(content) for model, content in zip(models, pair))
    return mirror.providers[1].journal.kinds


def test_oracle_schedule_writes_every_record_kind():
    """The oracle is only as strong as its schedule: between them, the
    fixed cells must exercise every fold."""
    kinds = set()
    for seed in (101, 202, 303):
        kinds |= run_oracle(seed, steps=40, snapshot_interval=8)
    assert kinds == set(ResyncProvider.FOLDS)


@pytest.mark.parametrize("seed", SEEDS)
class TestReplayOracle:
    def test_recovered_stream_is_byte_identical(self, seed):
        run_oracle(seed, steps=14, snapshot_interval=8)

    def test_oracle_holds_without_snapshots(self, seed):
        run_oracle(seed, steps=10, snapshot_interval=10_000)

    def test_oracle_holds_under_repeated_crashes(self, seed):
        crashed_master, clean_master = build_master(), build_master()
        crashed, clean = durable(crashed_master, 4), durable(clean_master, 4)
        a, b = SyncedContent(REQUEST), SyncedContent(REQUEST)
        assert response_signature(a.poll(crashed)) == response_signature(b.poll(clean))
        for step in range(12):
            mutate(crashed_master, step)
            mutate(clean_master, step)
            crashed.restart()
            crashed.recover()  # crash between every single poll
            assert response_signature(a.poll(crashed)) == (
                response_signature(b.poll(clean))
            ), f"diverged at step {step} (seed={seed})"
        assert a.matches_master(crashed_master)


# ----------------------------------------------------------------------
# journal format: a journal the parent commit wrote must still replay
# ----------------------------------------------------------------------
#: Written by the commit before the fold existed (hand-mirrored
#: ``_replay_record``), by :func:`fixture_schedule` — one record of
#: every kind, one JSON document per line, exactly as MemoryJournal
#: holds them.
PARENT_FORMAT_JOURNAL = '''
{"content": ["cn=A,o=xyz"], "csn": 3, "persist": false, "req": {"attrs": ["*"], "base": "o=xyz", "filter": "(departmentNumber=42)", "scope": 2}, "sid": "s1", "t": "create"}
{"content": ["cn=A,o=xyz", "cn=B,o=xyz"], "csn": 3, "persist": false, "req": {"attrs": ["*"], "base": "o=xyz", "filter": "(sn=T)", "scope": 2}, "sid": "s2", "t": "create"}
{"after": {"attrs": {"cn": ["A"], "departmentNumber": ["42"], "objectClass": ["person"], "sn": ["S"]}, "dn": "cn=A,o=xyz"}, "before": {"attrs": {"cn": ["A"], "departmentNumber": ["42"], "objectClass": ["person"], "sn": ["T"]}, "dn": "cn=A,o=xyz"}, "csn": 4, "dn": "cn=A,o=xyz", "new_dn": null, "op": "modify", "t": "update"}
{"gen": 0, "persist": false, "sid": "s1", "t": "poll"}
{"sid": "s1", "t": "touch"}
{"after": {"attrs": {"cn": ["C"], "departmentNumber": ["42"], "objectClass": ["person"], "sn": ["T"]}, "dn": "cn=C,o=xyz"}, "before": null, "csn": 5, "dn": "cn=C,o=xyz", "new_dn": null, "op": "add", "t": "update"}
{"after": {"attrs": {"cn": ["D"], "departmentNumber": ["42"], "objectClass": ["person"], "sn": ["T"]}, "dn": "cn=D,o=xyz"}, "before": {"attrs": {"cn": ["C"], "departmentNumber": ["42"], "objectClass": ["person"], "sn": ["T"]}, "dn": "cn=C,o=xyz"}, "csn": 6, "dn": "cn=C,o=xyz", "new_dn": "cn=D,o=xyz", "op": "modify_dn", "t": "update"}
{"after": {"attrs": {"cn": ["B"], "departmentNumber": ["42"], "objectClass": ["person"], "sn": ["T"]}, "dn": "cn=B,o=xyz"}, "before": {"attrs": {"cn": ["B"], "departmentNumber": ["99"], "objectClass": ["person"], "sn": ["T"]}, "dn": "cn=B,o=xyz"}, "csn": 7, "dn": "cn=B,o=xyz", "new_dn": null, "op": "modify", "t": "update"}
{"content": ["cn=A,o=xyz", "cn=B,o=xyz", "cn=D,o=xyz"], "csn": 7, "first": true, "persist": false, "sid": "s1", "since": 4, "t": "resume"}
{"sid": "s2", "t": "park"}
{"content": ["cn=A,o=xyz", "cn=B,o=xyz", "cn=D,o=xyz"], "csn": 7, "persist": false, "req": {"attrs": ["*"], "base": "o=xyz", "filter": "(departmentNumber=42)", "scope": 2}, "sid": "s3", "t": "create"}
{"sid": "s3", "t": "touch"}
{"content": ["cn=B,o=xyz", "cn=D,o=xyz"], "csn": 7, "persist": true, "req": {"attrs": ["*"], "base": "o=xyz", "filter": "(sn=T)", "scope": 2}, "sid": "s4", "t": "create"}
{"sid": "s2", "t": "end"}
'''.strip().splitlines()


def build_small_master() -> DirectoryServer:
    master = DirectoryServer("M")
    master.add_naming_context("o=xyz")
    master.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
    master.add(person("A"))
    master.add(person("B", dept="99"))
    return master


def fixture_schedule(master: DirectoryServer, provider: ResyncProvider) -> SyncedContent:
    """The schedule behind :data:`PARENT_FORMAT_JOURNAL` (history cap 1)."""
    a, b = SyncedContent(REQUEST), SyncedContent(BY_SN)
    a.poll(provider)  # create s1
    b.poll(provider)  # create s2
    master.modify("cn=A,o=xyz", [Modification.replace("sn", "S")])  # update
    a.poll(provider)  # poll
    with pytest.raises(SyncProtocolError):  # touch
        provider.handle(BY_SN, ReSyncControl(mode=SyncMode.POLL, cookie=a.cookie))
    master.add(person("C"))
    master.modify_dn("cn=C,o=xyz", new_rdn="cn=D")
    master.modify(  # s1's history overflows
        "cn=B,o=xyz", [Modification.replace("departmentNumber", "42")]
    )
    a.poll(provider)  # resume
    provider.park_session(b.cookie)  # park
    sketch = provider.reconcile(REQUEST, ReconcileRequest(divergence_hint=2, salt=7))
    provider.reconcile_fetch(  # create s3, touch
        REQUEST, ReconcileFetch(keys=(), cookie=sketch.cookie)
    )
    provider.persist(BY_SN, lambda update: None)  # create s4
    b.end(provider)  # end
    return a


def test_parent_format_journal_still_replays():
    master = build_small_master()
    live = ResyncProvider(
        master,
        durability=DurabilityConfig(snapshot_interval=10_000, history_max_entries=1),
        journal=MemoryJournal(),
    )
    replica = fixture_schedule(master, live)
    # The record kinds and fields are a format: this commit writes what
    # the parent wrote, byte for byte...
    assert live.journal._records == PARENT_FORMAT_JOURNAL
    assert {json.loads(line)["t"] for line in PARENT_FORMAT_JOURNAL} == set(
        ResyncProvider.FOLDS
    )
    # ...and folds the parent's journal into the state the live handlers
    # built, so the replica resumes from the cookie it already holds.
    live.detach()
    journal = MemoryJournal()
    journal._records = list(PARENT_FORMAT_JOURNAL)
    recovered = ResyncProvider(master, durability=live.durability, journal=journal)
    assert recovered.recover() == len(PARENT_FORMAT_JOURNAL)
    assert [session_to_wire(s) for s in recovered.sessions.active_sessions()] == [
        session_to_wire(s)
        for s in live.sessions.active_sessions()
        if s.persist_queue is None
    ]
    master.modify("cn=D,o=xyz", [Modification.replace("sn", "Z")])
    response = replica.poll(recovered)
    assert not response.initial and len(response.updates) == 1
    assert replica.matches_master(master)


# ----------------------------------------------------------------------
# post-recovery traffic is O(delta)
# ----------------------------------------------------------------------
def test_post_recovery_poll_is_delta_sized():
    master = build_master()
    provider = durable(master)
    content = SyncedContent(REQUEST)
    initial = sum(u.pdu_bytes for u in content.poll(provider).updates)
    master.modify(f"cn={NAMES[0]},o=xyz", [Modification.replace("sn", "Z")])
    provider.restart()
    provider.recover()
    response = content.poll(provider)
    delta = sum(u.pdu_bytes for u in response.updates)
    assert len(response.updates) == 1  # just the touched entry...
    assert 0 < delta <= initial / 4  # ...one of four matching: not a reload


# ----------------------------------------------------------------------
# crash-recover-resume convergence under seeded faults
# ----------------------------------------------------------------------
def run_crash_scenario(
    seed: int,
    mode: str,
    rate: float = 0.3,
    steps: int = 12,
    policy: RetryPolicy = RetryPolicy(max_attempts=4, jitter=0.25, persist_refresh_interval=3),
) -> tuple:
    """Faulty phase with mid-schedule crashes (journal damage seeded by
    the plan), heal, converge, check; returns what a replay of the same
    cell must reproduce."""
    master = build_master()
    provider = durable(master)
    net = FaultyNetwork(FaultPlan(FaultSpec.uniform(rate), seed=seed))
    consumer = ResilientConsumer(
        REQUEST, provider, network=net, seed=seed, mode=mode, policy=policy
    )
    crash_rng = random.Random(f"{seed}:crashes")
    for step in range(steps):
        mutate(master, step)
        if crash_rng.random() < 0.25:
            net.crash(provider)  # restart + journal damage + recover
        consumer.sync_once()
    net.heal()
    cycles = ReferenceModel.of(master).converge(consumer.sync_once, [consumer.content], 16)
    assert cycles is not None, (
        f"no convergence within 16 clean cycles (seed={seed}, mode={mode}, "
        f"rate={rate}, faults={net.fault_counts()})"
    )
    recoveries = master.metrics.counter("sync.durability.recoveries").value
    replayed = master.metrics.counter("sync.durability.replayed_records").value
    return net.fault_counts(), net.stats.round_trips, recoveries, replayed


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", MODES)
class TestCrashRecoveryMatrix:
    """The CI crash-recovery matrix cells: fixed seeds × modes."""

    def test_converges_after_crashes(self, seed, mode):
        run_crash_scenario(seed, mode)

    def test_converges_with_hostile_journal(self, seed, mode):
        """Every crash damages the journal."""
        master = build_master()
        provider = durable(master)
        spec = FaultSpec(journal_truncate=0.5, journal_corrupt=0.5)
        net = FaultyNetwork(FaultPlan(spec, seed=seed))
        consumer = ResilientConsumer(
            REQUEST, provider, network=net, seed=seed, mode=mode
        )
        consumer.sync_once()
        for step in range(8):
            mutate(master, step)
            if step % 3 == 0:
                net.crash(provider)
            consumer.sync_once()
        net.heal()
        assert ReferenceModel.of(master).converge(consumer.sync_once, [consumer.content], 16)

    def test_crash_replay_is_deterministic(self, seed, mode):
        """The same seed injects the same crashes and journal damage,
        under the default retry policy."""
        runs = [run_crash_scenario(seed, mode, 0.4, 8, RetryPolicy()) for _ in range(2)]
        assert runs[0] == runs[1]


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rate=st.floats(min_value=0.0, max_value=0.5),
    steps=st.integers(min_value=1, max_value=10),
    mode=st.sampled_from(MODES),
)
@settings(max_examples=30, deadline=None)
def test_any_crash_schedule_converges(seed, rate, steps, mode):
    run_crash_scenario(seed, mode, rate=rate, steps=steps)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    steps=st.integers(min_value=1, max_value=24),
)
@settings(max_examples=25, deadline=None)
def test_replay_oracle_property(seed, steps):
    run_oracle(seed, steps=steps, snapshot_interval=4)
