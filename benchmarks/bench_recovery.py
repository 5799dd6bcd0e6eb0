"""E17, E18, E19, E22 — recovery benches: sketch reconciliation (E17),
consumer snapshot warm starts (E18), persist re-open (E19) and
provider crash recovery (E22).

``test_recovery`` — a durable :class:`ResyncProvider` journals session
state so a crash is survivable: consumers keep their cookies and the
first post-crash poll carries only the delta (docs/PROTOCOL.md §10).
Without the journal a provider restart voids every session and each
consumer must reload its full content.  This bench quantifies that
difference as the session count grows: post-crash traffic (bytes on
the wire after the crash) and recovery time for the journal replay
itself.

``test_reconcile_divergence`` — the divergence sweep for the third
recovery tier (docs/RECOVERY.md): a consumer whose ``:h`` cookie died
recovers through sketch reconciliation (docs/PROTOCOL.md §11) instead
of a full rebuild.  Sweeps the replica's divergence from 0.1% to 5% of
a 1000-entry content and compares bytes on the wire against the
rebuild path for the identical schedule.

``test_persist_reopen`` — a persist subscription over a warm
1000-entry content re-opens by sketch (docs/RECOVERY.md, "Opening a
subscription"): an idle subscription's periodic refresh, and its
re-subscription after ``network.crash(provider)`` with one entry
changed meanwhile, each against the null-cookie open every re-open used
to be.

``test_snapshot_warmstart`` — the recovery ladder's *first* rung
(docs/RECOVERY.md): a replica that dumped its content + cookie to a
:class:`~repro.sync.snapshot.SnapshotStore` restarts, warm-starts from
the verified dump and resumes via the cookie path, paying only for the
entries that changed while it was down.  Sweeps the divergence accrued
during the outage from 0.1% to 5% of a 1000-entry content and compares
recovery bytes on the wire against a cold consumer rebuilding the same
content from scratch.

All sweeps are deterministic (fixed directory, fixed update schedule,
no network faults), so their ``*_bytes_sent`` metrics are
regression-diffable by ``validate_results.py``; ``recovery_seconds``
is wall time, measured as a warm-up plus median-of-N replay cycles so
a cold start cannot land as the committed number, and is gated only by
the validator's generous ``*_seconds`` sanity bound.  The in-bench floors — reload
traffic at least 5x the durable resume at 100 sessions, rebuild
traffic at least 10x the reconcile tier at <=1% divergence, cold
rebuild at least 5x the warm start at <=5% divergence, the null-cookie
open at least 50x a persist re-open by sketch — fail on any
reversion to reload-after-restart independent of runner speed.
"""

from __future__ import annotations

import time
from statistics import median

from repro.chaos import ReferenceModel
from repro.ldap import Entry, Scope, SearchRequest
from repro.server import DirectoryServer, FaultyNetwork, Modification, SimulatedNetwork
from repro.sync import (
    DurabilityConfig,
    MemoryJournal,
    ResilientConsumer,
    ResyncProvider,
    RetryPolicy,
    SyncedContent,
    SyncProtocolError,
    build_sketch,
)

from .common import quiesced_gc, report

DEPARTMENTS = 12
PERSONS_PER_DEPT = 10
SESSION_COUNTS = (25, 50, 100)
UPDATES = DEPARTMENTS  # one touched entry per department
SNAPSHOT_INTERVAL = 64
MIN_TRAFFIC_RATIO = 5.0  # reload must cost >=5x the durable resume
TIMING_REPEATS = 5  # median-of-N journal replays per cell


def build_master() -> DirectoryServer:
    master = DirectoryServer("M")
    master.add_naming_context("o=xyz")
    master.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
    for dept in range(DEPARTMENTS):
        for person in range(PERSONS_PER_DEPT):
            name = f"P{dept:02d}-{person:02d}"
            master.add(
                Entry(
                    f"cn={name},o=xyz",
                    {
                        "objectClass": ["person"],
                        "cn": name,
                        "sn": "T",
                        "departmentNumber": f"D{dept:02d}",
                    },
                )
            )
    return master


def open_sessions(provider, count: int):
    """*count* consumers, one department filter each, initial content
    delivered; returns (consumers, initial bytes on the wire)."""
    consumers = []
    initial_bytes = 0
    for i in range(count):
        request = SearchRequest(
            "o=xyz", Scope.SUB, f"(departmentNumber=D{i % DEPARTMENTS:02d})"
        )
        content = SyncedContent(request)
        initial_bytes += sum(u.pdu_bytes for u in content.poll(provider).updates)
        consumers.append(content)
    return consumers, initial_bytes


def mutate(master: DirectoryServer) -> None:
    """One modified entry per department: every session has a 1-entry
    delta pending when the crash hits."""
    for dept in range(DEPARTMENTS):
        master.modify(
            f"cn=P{dept:02d}-00,o=xyz", [Modification.replace("sn", f"S{dept}")]
        )


def run_durable_cell(count: int) -> dict:
    master = build_master()
    journal = MemoryJournal()
    provider = ResyncProvider(
        master,
        durability=DurabilityConfig(snapshot_interval=SNAPSHOT_INTERVAL),
        journal=journal,
    )
    consumers, initial_bytes = open_sessions(provider, count)
    mutate(master)

    # recover() compacts the journal when it finishes, so each timed
    # cycle restores the crash-time image first and replays the
    # identical log; warm-up + median-of-N keeps a one-off cold start
    # out of the committed recovery time.
    crash_snapshot, crash_records, crash_dropped = journal.load()
    assert crash_dropped == 0
    samples = []
    replays = []
    with quiesced_gc():
        for _ in range(1 + TIMING_REPEATS):  # first cycle is the warm-up
            journal.write_snapshot(crash_snapshot)  # truncates the tail too
            for record in crash_records:
                journal.append(record)
            provider.restart()  # the crash
            started = time.perf_counter()
            replays.append(provider.recover())
            samples.append(time.perf_counter() - started)
    recovery_seconds = median(samples[1:])
    replayed = replays[-1]
    assert len(set(replays)) == 1  # every cycle folds the same journal
    post_bytes = 0
    for content in consumers:
        post_bytes += sum(u.pdu_bytes for u in content.poll(provider).updates)
        assert content.matches_master(master)
    assert provider.active_session_count == count
    return {
        "initial_bytes": initial_bytes,
        "post_bytes": post_bytes,
        "recovery_seconds": recovery_seconds,
        "replayed": replayed,
        "journal_records": journal.record_count,
    }


def run_reload_cell(count: int) -> dict:
    """The same schedule against a journal-less provider: the restart
    voids every session and consumers fall back to full reloads."""
    master = build_master()
    provider = ResyncProvider(master)
    consumers, initial_bytes = open_sessions(provider, count)
    mutate(master)
    provider.restart()  # the crash: nothing to recover from
    post_bytes = 0
    for content in consumers:
        post_bytes += sum(u.pdu_bytes for u in content.reload(provider).updates)
        assert content.matches_master(master)
    return {"initial_bytes": initial_bytes, "post_bytes": post_bytes}


def test_recovery(benchmark):
    rows = []
    metrics = {}
    for count in SESSION_COUNTS:
        durable = run_durable_cell(count)
        reload_ = run_reload_cell(count)
        ratio = reload_["post_bytes"] / max(durable["post_bytes"], 1)
        rows.append(
            [
                count,
                durable["post_bytes"],
                reload_["post_bytes"],
                round(ratio, 1),
                durable["replayed"],
                round(durable["recovery_seconds"] * 1000, 2),
            ]
        )
        metrics[f"s{count}_durable_bytes_sent"] = durable["post_bytes"]
        metrics[f"s{count}_reload_bytes_sent"] = reload_["post_bytes"]
        metrics[f"s{count}_replayed"] = durable["replayed"]
        metrics[f"s{count}_recovery_seconds"] = durable["recovery_seconds"]

    # Identical schedules: the durable resume must beat the reload by a
    # wide margin, not by noise — the headline robustness claim.
    assert (
        metrics["s100_reload_bytes_sent"]
        >= MIN_TRAFFIC_RATIO * metrics["s100_durable_bytes_sent"]
    )
    # The delta a recovered session serves never exceeds what a live one
    # would have: post-crash traffic is O(delta), not O(content).
    for count in SESSION_COUNTS:
        assert metrics[f"s{count}_durable_bytes_sent"] > 0

    report(
        "recovery",
        "Post-crash traffic and recovery time vs session count",
        [
            "sessions",
            "durable bytes",
            "reload bytes",
            "ratio",
            "replayed",
            "recover ms",
        ],
        rows,
        params={
            "departments": DEPARTMENTS,
            "persons_per_dept": PERSONS_PER_DEPT,
            "updates": UPDATES,
            "snapshot_interval": SNAPSHOT_INTERVAL,
            "session_counts": ",".join(str(c) for c in SESSION_COUNTS),
        },
        metrics=metrics,
        paper_expected=None,
    )

    # Timed unit: one full journal replay at the largest session count.
    master = build_master()
    provider = ResyncProvider(
        master,
        durability=DurabilityConfig(snapshot_interval=SNAPSHOT_INTERVAL),
        journal=MemoryJournal(),
    )
    open_sessions(provider, SESSION_COUNTS[-1])
    mutate(master)
    provider.restart()
    benchmark(provider.recover)


# ----------------------------------------------------------------------
# E17 — sketch reconciliation vs full rebuild across divergence
# ----------------------------------------------------------------------
RECONCILE_CONTENT = 1000
DIVERGENCES = (1, 5, 10, 50)  # 0.1% .. 5% of the content
MIN_RECONCILE_RATIO = 10.0  # rebuild must cost >=10x at <=1% divergence
RECONCILE_REQUEST = SearchRequest("o=xyz", Scope.SUB, "(departmentNumber=D00)")


def reconcile_person(name: str) -> Entry:
    return Entry(
        f"cn={name},o=xyz",
        {"objectClass": ["person"], "cn": name, "sn": "T", "departmentNumber": "D00"},
    )


def build_reconcile_master() -> DirectoryServer:
    master = DirectoryServer("M")
    master.add_naming_context("o=xyz")
    master.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
    for i in range(RECONCILE_CONTENT):
        master.add(reconcile_person(f"R{i:04d}"))
    return master


def diverge(master: DirectoryServer, amount: int) -> None:
    """*amount* entries' worth of divergence: mostly modifies, one
    delete and one add once the delta is big enough to carry them."""
    mods = amount
    if amount >= 3:
        mods = amount - 2
        master.delete(f"cn=R{RECONCILE_CONTENT - 1:04d},o=xyz")
        master.add(reconcile_person(f"N{amount:04d}"))
    for i in range(mods):
        master.modify(f"cn=R{i:04d},o=xyz", [Modification.replace("sn", f"Z{i}")])


def run_reconcile_cell(amount: int, tier_enabled: bool, plain: bool = False) -> dict:
    """One recovery after *amount* entries of divergence: the full
    ladder when *tier_enabled*; otherwise its bottom rung driven by
    hand — the refused poll, then the null-cookie rebuild.

    The default schedule mints an ``:h`` cookie (overflowing a 2-entry
    session history) and expires it; the *plain* one has a journal-less
    provider restart forget a never-overflowed session over the same
    warm content.  Either way the master diverges while the session is
    dead, and only the recovery cycle's bytes on the wire are measured.
    """
    master = build_reconcile_master()
    if plain:
        provider = ResyncProvider(master)  # no journal: a restart forgets all
    else:
        provider = ResyncProvider(
            master,
            durability=DurabilityConfig(history_max_entries=2),
            journal=MemoryJournal(),
        )
    net = SimulatedNetwork()
    consumer = ResilientConsumer(RECONCILE_REQUEST, provider, network=net)
    consumer.sync_once()
    if not plain:
        for i in range(4):  # overflow the history: the cookie gains :h
            master.modify(
                f"cn=R{900 + i:04d},o=xyz", [Modification.replace("sn", "ovf")]
            )
        consumer.sync_once()
    assert consumer.content.cookie.endswith(":h") != plain
    diverge(master, amount)
    if plain:
        provider.restart()
    else:
        provider.invalidate_cookie(consumer.content.cookie)

    before = net.stats.snapshot()
    if tier_enabled:
        assert consumer.sync_once() is not None
    else:
        try:
            consumer.content.poll(provider)
        except SyncProtocolError:
            consumer.content.reload(provider)
        else:
            raise AssertionError("the dead cookie was honoured")
    recovery = net.stats - before
    assert consumer.content.matches_master(master)
    registry = net.registry.to_dict()
    if tier_enabled:
        assert registry.get("sync.resilient.reloads", 0) == 0
        assert registry.get("sync.reconcile.decode_success", 0) == 1
    return {
        "bytes": recovery.bytes_sent,
        "round_trips": recovery.round_trips,
        "rounds": registry.get("sync.reconcile.rounds", 0),
        "sketch_bytes": registry.get("sync.reconcile.sketch_bytes", 0),
    }


def run_cap_fallback_cell() -> dict:
    """The price of entering the sketch tier on *every* refused cookie,
    at its worst: a plain dead cookie over content the master has since
    replaced wholesale (every entry modified, 60% more added), so the
    doubling ladder runs to ``repro.sync.ladder.MAX_CELLS``, fails —
    detectably — and the rebuild is paid on top."""
    master = build_reconcile_master()
    provider = ResyncProvider(master)
    net = SimulatedNetwork()
    consumer = ResilientConsumer(RECONCILE_REQUEST, provider, network=net)
    consumer.sync_once()
    for i in range(RECONCILE_CONTENT):
        master.modify(f"cn=R{i:04d},o=xyz", [Modification.replace("sn", f"W{i}")])
    for i in range(RECONCILE_CONTENT * 6 // 10):
        master.add(reconcile_person(f"W{i:04d}"))
    provider.restart()
    before = net.stats.snapshot()
    assert consumer.sync_once() is not None
    recovery = net.stats - before
    assert consumer.content.matches_master(master)
    registry = net.registry.to_dict()
    assert registry.get("sync.reconcile.fallbacks", 0) == 1
    assert registry.get("sync.resilient.reloads", 0) == 1
    assert provider.active_session_count == 1
    return {
        "bytes": recovery.bytes_sent,
        "rounds": registry.get("sync.reconcile.rounds", 0),
        "sketch_bytes": registry.get("sync.reconcile.sketch_bytes", 0),
    }


def test_reconcile_divergence(benchmark):
    rows = []
    metrics = {}
    for amount in DIVERGENCES:
        reconcile = run_reconcile_cell(amount, tier_enabled=True)
        plain = run_reconcile_cell(amount, tier_enabled=True, plain=True)
        rebuild = run_reconcile_cell(amount, tier_enabled=False)
        ratio = rebuild["bytes"] / max(reconcile["bytes"], 1)
        rows.append(
            [
                f"{100.0 * amount / RECONCILE_CONTENT:.1f}%",
                reconcile["bytes"],
                plain["bytes"],
                rebuild["bytes"],
                round(ratio, 1),
                reconcile["rounds"],
                reconcile["sketch_bytes"],
            ]
        )
        metrics[f"d{amount}_reconcile_bytes_sent"] = reconcile["bytes"]
        metrics[f"d{amount}_plain_reconcile_bytes_sent"] = plain["bytes"]
        metrics[f"d{amount}_rebuild_bytes_sent"] = rebuild["bytes"]
        metrics[f"d{amount}_sketch_rounds"] = reconcile["rounds"]

    # The headline claim of the tier: at realistic (<=1%) divergence the
    # rebuild costs an order of magnitude more than reconciliation —
    # whether the dead cookie carried the overflow stamp or not.
    for amount in DIVERGENCES:
        if amount <= RECONCILE_CONTENT // 100:
            for arm in ("reconcile", "plain_reconcile"):
                assert (
                    metrics[f"d{amount}_rebuild_bytes_sent"]
                    >= MIN_RECONCILE_RATIO * metrics[f"d{amount}_{arm}_bytes_sent"]
                ), f"{arm} lost its edge at divergence {amount}"

    # …and what that costs when the sketch cannot help at all.
    worst = run_cap_fallback_cell()
    metrics["capfallback_total_bytes_sent"] = worst["bytes"]
    metrics["capfallback_wasted_sketch_bytes_sent"] = worst["sketch_bytes"]
    metrics["capfallback_sketch_rounds"] = worst["rounds"]
    rows.append(
        [
            "replaced",
            "-",
            worst["bytes"],
            worst["bytes"] - worst["sketch_bytes"],
            "-",
            worst["rounds"],
            worst["sketch_bytes"],
        ]
    )

    report(
        "reconcile",
        "Recovery traffic: sketch reconciliation vs full rebuild",
        [
            "divergence",
            ":h cookie bytes",
            "plain cookie bytes",
            "rebuild bytes",
            "ratio",
            "rounds",
            "sketch bytes",
        ],
        rows,
        params={
            "content_entries": RECONCILE_CONTENT,
            "divergences": ",".join(str(d) for d in DIVERGENCES),
            "history_max_entries": 2,
        },
        metrics=metrics,
        paper_expected=None,
    )

    # Timed unit: building the master-side sketch over the full content
    # (the provider-side cost of serving one reconcile round).
    master = build_reconcile_master()
    provider = ResyncProvider(master)
    content = provider._search_content(RECONCILE_REQUEST)
    benchmark(lambda: build_sketch(content, 256))


# ----------------------------------------------------------------------
# persist re-open by sketch vs the null-cookie open
# ----------------------------------------------------------------------
REFRESH_INTERVAL = 4
MIN_REOPEN_RATIO = 50.0  # the null-cookie open must cost >=50x a re-open


def run_persist_reopen_cell(kind: str) -> dict:
    """One re-open of a persist subscription over the warm 1000-entry
    content, beside the null-cookie open that subscribed it (the cost
    of every re-open before subscriptions sketched).

    ``refresh``: an idle subscription's periodic refresh — nothing
    changed, a sketch audit.  ``crash``: the re-subscription after
    ``network.crash(provider)`` forgot every session, one entry
    modified meanwhile.  Only the re-opening cycle's bytes are measured.
    """
    master = build_reconcile_master()
    provider = ResyncProvider(master)
    net = FaultyNetwork()
    consumer = ResilientConsumer(
        RECONCILE_REQUEST,
        provider,
        network=net,
        mode="persist",
        policy=RetryPolicy(persist_refresh_interval=REFRESH_INTERVAL, jitter=0.0),
    )
    assert consumer.sync_once() is not None
    opened = net.stats.snapshot()
    if kind == "refresh":
        for _ in range(REFRESH_INTERVAL - 1):
            consumer.sync_once()
        assert net.stats.bytes_sent == opened.bytes_sent  # a live subscription is free
    else:
        net.crash(provider)
        diverge(master, 1)
    before = net.stats.snapshot()
    assert consumer.sync_once() is not None
    reopen = net.stats - before
    assert ReferenceModel.of(master).holds(consumer.content)
    registry = net.registry.to_dict()
    assert registry.get("sync.resilient.reloads", 0) == 0
    assert registry.get("sync.reconcile.decode_success", 0) == 1
    return {
        "open_bytes": opened.bytes_sent,
        "bytes": reopen.bytes_sent,
        "round_trips": reopen.round_trips,
        "entry_pdus": reopen.sync_entry_pdus,
        "sketch_bytes": registry.get("sync.reconcile.sketch_bytes", 0),
    }


def test_persist_reopen(benchmark):
    rows = []
    metrics = {}
    for kind in ("refresh", "crash"):
        cell = run_persist_reopen_cell(kind)
        rows.append(
            [
                kind,
                cell["bytes"],
                cell["open_bytes"],
                round(cell["open_bytes"] / max(cell["bytes"], 1), 1),
                cell["round_trips"],
                cell["entry_pdus"],
                cell["sketch_bytes"],
            ]
        )
        metrics[f"{kind}_reopen_bytes_sent"] = cell["bytes"]
        metrics[f"{kind}_reload_bytes_sent"] = cell["open_bytes"]
        metrics[f"{kind}_reopen_round_trips"] = cell["round_trips"]
        metrics[f"{kind}_reopen_entry_pdus"] = cell["entry_pdus"]

    # The headline claim: re-opening a warm subscription is O(delta), at
    # least 50x below the null-cookie open it used to be.
    for kind in ("refresh", "crash"):
        assert (
            metrics[f"{kind}_reload_bytes_sent"]
            >= MIN_REOPEN_RATIO * metrics[f"{kind}_reopen_bytes_sent"]
        ), f"the persist {kind} re-open lost its edge"
    assert metrics["refresh_reopen_entry_pdus"] == 0  # an audit of unchanged content

    report(
        "recovery_persist",
        "Persist re-open traffic: sketch open vs null-cookie open",
        ["re-open", "bytes", "null-cookie open bytes", "ratio", "round trips", "entry PDUs", "sketch bytes"],
        rows,
        params={
            "content_entries": RECONCILE_CONTENT,
            "refresh_interval": REFRESH_INTERVAL,
        },
        metrics=metrics,
        paper_expected=None,
    )

    # Timed unit: one idle refresh cycle — sketch both sides, empty
    # fetch, resume — over the full content.
    master = build_reconcile_master()
    provider = ResyncProvider(master)
    consumer = ResilientConsumer(
        RECONCILE_REQUEST,
        provider,
        network=SimulatedNetwork(),
        mode="persist",
        policy=RetryPolicy(persist_refresh_interval=1),
    )
    consumer.sync_once()
    benchmark(consumer.sync_once)


# ----------------------------------------------------------------------
# E18 — snapshot warm start vs cold rebuild across outage divergence
# ----------------------------------------------------------------------
MIN_WARMSTART_RATIO = 5.0  # cold rebuild must cost >=5x at <=5% divergence


def run_warmstart_cell(amount: int) -> dict:
    """One replica restart after *amount* entries diverged during the
    outage: warm start (snapshot + cookie resume) vs cold rebuild.

    The replica syncs and snapshots, "goes down" while the master
    diverges, then restarts from the store against the same provider
    (whose session survived the replica's outage) — only the restart
    cycle's bytes are measured.  The cold consumer replays the same
    recovery moment with no snapshot state.
    """
    from repro.sync import MemorySnapshotStore

    master = build_reconcile_master()
    provider = ResyncProvider(master)
    store = MemorySnapshotStore()

    warm_net = SimulatedNetwork()
    first = ResilientConsumer(
        RECONCILE_REQUEST, provider, network=warm_net, snapshot_store=store
    )
    first.sync_once()
    snapshot_size = store.size_bytes
    assert snapshot_size > 0

    diverge(master, amount)  # the outage: the master moves on

    before = warm_net.stats.snapshot()
    restarted = ResilientConsumer(
        RECONCILE_REQUEST, provider, network=warm_net, snapshot_store=store
    )
    assert restarted.warm_started
    started = time.perf_counter()
    assert restarted.sync_once() is not None
    warm_seconds = time.perf_counter() - started
    warm = warm_net.stats - before
    assert restarted.content.matches_master(master)
    registry = warm_net.registry.to_dict()
    assert registry.get("sync.resilient.reloads", 0) == 0
    assert registry.get("sync.snapshot.warm_starts", 0) == 1

    cold_net = SimulatedNetwork()
    cold = ResilientConsumer(RECONCILE_REQUEST, provider, network=cold_net)
    assert cold.sync_once() is not None
    assert cold.content.matches_master(master)

    return {
        "warm_bytes": warm.bytes_sent,
        "warm_round_trips": warm.round_trips,
        "warm_seconds": warm_seconds,
        "cold_bytes": cold_net.stats.bytes_sent,
        "snapshot_size": snapshot_size,
        "restored_entries": int(registry.get("sync.snapshot.restored_entries", 0)),
    }


def test_snapshot_warmstart(benchmark):
    rows = []
    metrics = {}
    for amount in DIVERGENCES:
        cell = run_warmstart_cell(amount)
        ratio = cell["cold_bytes"] / max(cell["warm_bytes"], 1)
        rows.append(
            [
                f"{100.0 * amount / RECONCILE_CONTENT:.1f}%",
                cell["warm_bytes"],
                cell["cold_bytes"],
                round(ratio, 1),
                cell["restored_entries"],
                cell["snapshot_size"],
            ]
        )
        metrics[f"d{amount}_warm_bytes_sent"] = cell["warm_bytes"]
        metrics[f"d{amount}_cold_bytes_sent"] = cell["cold_bytes"]
        metrics[f"d{amount}_warm_round_trips"] = cell["warm_round_trips"]
        metrics[f"d{amount}_snapshot_size"] = cell["snapshot_size"]

    # The headline claim of the tier (ISSUE 7 acceptance): across the
    # whole <=5% sweep the cold rebuild moves at least 5x the bytes the
    # warm start does.
    for amount in DIVERGENCES:
        assert (
            metrics[f"d{amount}_cold_bytes_sent"]
            >= MIN_WARMSTART_RATIO * metrics[f"d{amount}_warm_bytes_sent"]
        ), f"snapshot warm start lost its edge at divergence {amount}"

    report(
        "recovery_warmstart",
        "Replica restart traffic: snapshot warm start vs cold rebuild",
        [
            "divergence",
            "warm bytes",
            "cold bytes",
            "ratio",
            "restored",
            "snapshot B",
        ],
        rows,
        params={
            "content_entries": RECONCILE_CONTENT,
            "divergences": ",".join(str(d) for d in DIVERGENCES),
        },
        metrics=metrics,
        paper_expected=None,
    )

    # Timed unit: one staged warm start (load + verify + install) of
    # the full 1000-entry dump — the replica-side restart cost.
    from repro.sync import MemorySnapshotStore, SnapshotRecoverer, SyncedContent

    master = build_reconcile_master()
    provider = ResyncProvider(master)
    content = SyncedContent(RECONCILE_REQUEST)
    content.poll(provider)
    store = MemorySnapshotStore()
    store.save(content.entries.values(), content.cookie)

    def warm_start_once():
        recoverer = SnapshotRecoverer(store, SyncedContent(RECONCILE_REQUEST))
        assert recoverer.warm_start()

    benchmark(warm_start_once)
