"""Every cell of the ``FAULTS`` table, and a golden seeded trace.

``repro.server.faults.FAULTS`` says which fault kind reaches which
exchange (docs/FAULTS.md §3 renders it).  The parametrised test's ids
are the table's own cells — every fault kind against each of the four
consumer→provider exchanges, plus the non-exchange kinds at their own
site — so a cell added to the table is run.  A filled cell injects that
one fault against a real :class:`ResyncProvider` (the ``:x`` kinds
scripted through ``ScriptedPlan``, the others by a probability of 1)
and checks what the table row promises; an empty cell checks that the
same decision leaves the exchange untouched and uncounted.

Partitions and slow nodes are not table rows: no stream draws them.
They are windows opened and closed by hand (``partition`` /
``heal_partition``, ``set_slow`` / ``clear_slow``), and
:func:`test_every_exchange_honours_the_windows` checks that each of the
four exchanges honours an open one.

The golden trace pins the *seeded* behaviour of the whole seam: the
rows of ``exchange_trace.json`` were written by :func:`drive_trace`
and must replay identically — same outcome, fault counts, traffic and
per-stream decision indices, row for row.
"""

import json
import os
import zlib

import pytest

from repro.ldap import Entry, Scope, SearchRequest
from repro.ldap.controls import ReSyncControl, SyncMode
from repro.server import (
    DirectoryServer,
    ExchangeFaults,
    FaultPlan,
    FaultSpec,
    FaultyNetwork,
    Modification,
    NetworkPartitioned,
    RequestDropped,
    ResponseDropped,
    ResponseTruncated,
    ServerUnavailable,
    TransportError,
)
from repro.server.faults import FAULTS, STREAMS
from repro.server.network import EXCHANGES
from repro.sync import (
    MemoryJournal,
    MemorySnapshotStore,
    ReconcileFetch,
    ReconcileRequest,
    ResyncProvider,
    SyncProtocolError,
    build_sketch,
    entry_key,
)
from tests.oracles import encoded_bytes
from tests.sync.test_resilient import ScriptedPlan

REQUEST = SearchRequest("o=xyz", Scope.SUB, "(departmentNumber=42)")
TRACE = os.path.join(os.path.dirname(__file__), "exchange_trace.json")


def person(name: str, dept: str = "42") -> Entry:
    return Entry(
        f"cn={name},o=xyz",
        {"objectClass": ["person"], "cn": name, "sn": "T", "departmentNumber": dept},
    )


def build_master(n: int = 6) -> DirectoryServer:
    master = DirectoryServer("M")
    master.add_naming_context("o=xyz")
    master.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
    for i in range(n):
        master.add(person(f"E{i}"))
    return master


def fetch_keys(names):
    return tuple(entry_key(person(name).dn) for name in names)


# ----------------------------------------------------------------------
# the golden seeded trace
# ----------------------------------------------------------------------
TRACE_SPEC = FaultSpec.uniform(0.3)
TRACE_SEEDS = (11, 24)
TRACE_EXCHANGES = 208
#: The trace's explicit windows, by row modulo 64: a partition over one
#: exchange of each kind, then a slow node over the next four.
PARTITION_ROWS = range(20, 24)
SLOW_ROWS = range(24, 28)
SLOW_MS = 25.0
WINDOWS = ("partition", "slow")


def shape(deliveries) -> list:
    return [
        [len(d.response.updates), d.response.cookie, round(d.delay_ms, 6), d.duplicate]
        for d in deliveries
    ]


def drive_trace(seed: int, exchanges: int = TRACE_EXCHANGES) -> list:
    """``exchanges`` exchanges cycling poll → subscribe → sketch → fetch
    against one provider (journaled for odd seeds) under
    ``FaultSpec.uniform(0.3)``, with a partition window over
    :data:`PARTITION_ROWS` and a slow window over :data:`SLOW_ROWS`;
    one row each."""
    master = build_master()
    journal = MemoryJournal() if seed % 2 else None
    provider = ResyncProvider(master, journal=journal)
    net = FaultyNetwork(FaultPlan(TRACE_SPEC, seed=seed))
    store = MemorySnapshotStore()
    cookie = minted = None
    rows = []
    for i in range(exchanges):
        kind = ("poll", "subscribe", "sketch", "fetch")[i % 4]
        phase = i % 64
        if phase == PARTITION_ROWS.start:
            net.partition(provider)
        elif phase == PARTITION_ROWS.stop:
            net.heal_partition(provider)
        if phase == SLOW_ROWS.start:
            net.set_slow(provider, SLOW_MS)
        elif phase == SLOW_ROWS.stop:
            net.clear_slow(provider)
        # Keep every session's pending set non-empty: truncation needs
        # a response with updates.
        master.add(person(f"N{i}"))
        master.modify("cn=E1,o=xyz", [Modification.replace("sn", f"s{i}")])
        try:
            if kind == "poll":
                control = ReSyncControl(mode=SyncMode.POLL, cookie=cookie)
                deliveries = net.sync_exchange(provider, REQUEST, control)
                cookie = deliveries[-1].response.cookie
                outcome = ["ok", shape(deliveries)]
            elif kind == "subscribe":
                sink = []
                deliveries, handle = net.persist_exchange(
                    provider, REQUEST, sink.append, cookie=None
                )
                master.add(person(f"P{i}"))
                master.delete(f"cn=N{i},o=xyz")
                net.settle()
                handle.abandon()
                outcome = ["ok", shape(deliveries), len(sink)]
            elif kind == "sketch":
                rreq = ReconcileRequest(divergence_hint=4, salt=i, cookie=minted)
                response = net.reconcile_exchange(provider, REQUEST, rreq)[-1].response
                minted = response.cookie
                outcome = [
                    "ok",
                    response.cookie,
                    response.content_count,
                    response.pdu_bytes,
                    zlib.crc32(encoded_bytes(response.sketch)),
                ]
            else:
                fetch = ReconcileFetch(
                    keys=fetch_keys(["E0", "E1", f"N{i}"]),
                    cookie=minted or cookie or "s0:0",
                )
                deliveries = net.reconcile_fetch_exchange(provider, REQUEST, fetch)
                outcome = ["ok", shape(deliveries)]
        except TransportError as exc:
            outcome = [type(exc).__name__]
            partial = getattr(exc, "partial", None)
            if partial is not None:
                outcome.append([len(partial.updates), partial.cookie, partial.initial])
        except SyncProtocolError:
            outcome = ["SyncProtocolError"]
            if kind == "poll":
                cookie = None
            else:
                minted = None
        if i % 16 == 15:
            store.save(master.search(REQUEST).entries, cookie)
            net.damage_snapshot(store)
        rows.append(
            [
                kind,
                outcome,
                net.fault_counts(),
                list(net.stats.as_dict().values()),
                dict(net.plan.drawn),
                round(net.elapsed_ms, 6),
                provider.active_session_count,
            ]
        )
    return rows


@pytest.mark.parametrize("seed", TRACE_SEEDS)
def test_golden_seeded_trace_replays(seed):
    with open(TRACE, encoding="utf-8") as fh:
        golden = json.load(fh)[str(seed)]
    assert len(golden) == TRACE_EXCHANGES
    replayed = json.loads(json.dumps(drive_trace(seed)))
    for at, (got, want) in enumerate(zip(replayed, golden)):
        assert got == want, f"seed {seed}: row {at} ({want[0]}) diverged"


def test_golden_trace_reaches_the_table():
    """The trace is worth pinning only while, between its seeds, every
    stream was drawn, every exchange-reaching kind and both windows
    injected and every outcome met at every exchange."""
    with open(TRACE, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert all(any(rows[-1][4][s] for rows in golden.values()) for s in STREAMS)
    injected = set().union(*(rows[-1][2] for rows in golden.values()))
    assert injected >= {f for f, (_, sites) in FAULTS.items() if set(sites) & set(EXCHANGES)}
    assert injected >= set(WINDOWS)
    met = {(row[0], row[1][0]) for rows in golden.values() for row in rows}
    for kind in EXCHANGES:
        for outcome in ("ok", "RequestDropped", "ResponseDropped", "ServerUnavailable"):
            assert (kind, outcome) in met
        assert (kind, "NetworkPartitioned") in met
    assert {k for k, o in met if o == "ResponseTruncated"} == set(FAULTS["truncate"][1])


# ----------------------------------------------------------------------
# the cells
# ----------------------------------------------------------------------
class Cell:
    """One provider, warmed so that every exchange kind has a live
    cookie to present and a non-empty update stream to carry, and one
    way to make each kind of exchange against it."""

    def __init__(self):
        self.master = build_master()
        self.provider = ResyncProvider(self.master, journal=MemoryJournal())
        self.net = FaultyNetwork()
        self.served = 0
        for method in {method for _, method in EXCHANGES.values()}:
            setattr(self.provider, method, self.counting(getattr(self.provider, method)))
        self.cookie = self.exchange("poll", None)[0][-1].response.cookie
        self.minted = self.exchange("sketch", None)[0][-1].response.cookie
        self.master.add(person("NEW"))
        self.sessions = self.provider.active_session_count
        self.served = 0
        self.trips = self.net.stats.round_trips

    def counting(self, method):
        def counted(*args, **kwargs):
            self.served += 1
            return method(*args, **kwargs)

        return counted

    def exchange(self, kind, cookie):
        """(deliveries, handle) of one *kind* exchange presenting *cookie*."""
        entry = getattr(self.net, EXCHANGES[kind][0])
        if kind == "subscribe":
            self.sink = []
            return entry(self.provider, REQUEST, self.sink.append, cookie=cookie)
        payload = {
            "poll": ReSyncControl(mode=SyncMode.POLL, cookie=cookie),
            "sketch": ReconcileRequest(divergence_hint=4, salt=7, cookie=cookie),
            "fetch": ReconcileFetch(keys=fetch_keys(["E0", "E1", "NEW"]), cookie=cookie),
        }[kind]
        return entry(self.provider, REQUEST, payload), None

    def strike(self, fault, kind):
        """Arm *fault* alone and make one *kind* exchange; the outcome
        is returned, an exception as a value."""
        if FAULTS[fault][0] == "x":
            drawn = {"delay_ms": 900.0} if fault == "delay" else {fault: True}
            self.net.plan = ScriptedPlan(ExchangeFaults(truncate_keep=0.5, **drawn))
        else:
            self.net.plan = FaultPlan(FaultSpec(**{fault: 1.0}), seed=3)
        # A subscription opens with a null cookie, except to show that
        # a resumption cookie can be refused.
        return self.attempt(kind, resumed=self.cookie if fault == "cookie_invalidate" else None)

    def attempt(self, kind, resumed=None):
        """One *kind* exchange presenting the warmed cookie of its kind
        (*resumed* for a subscription); an exception as a value."""
        cookie = {"poll": self.cookie, "subscribe": resumed, "fetch": self.minted}.get(kind)
        try:
            return self.exchange(kind, cookie)
        except (TransportError, SyncProtocolError) as exc:
            return exc

    def counts(self):
        return self.net.fault_counts()


EXCHANGE_CELLS = [(fault, kind) for fault in FAULTS for kind in EXCHANGES]
SITE_CELLS = [
    (fault, site)
    for fault, (_, sites) in FAULTS.items()
    for site in sites
    if site not in EXCHANGES
]


def cell_id(cell) -> str:
    return f"{cell[0]}-{cell[1]}"


@pytest.mark.parametrize("cell", EXCHANGE_CELLS, ids=cell_id)
def test_every_exchange_cell_does_what_the_table_says(cell):
    fault, kind = cell
    c = Cell()
    outcome = c.strike(fault, kind)
    # Whatever happened, the client sent one request and waited.
    assert c.net.stats.round_trips - c.trips == 1
    if kind not in FAULTS[fault][1]:
        # An empty cell: the decision is drawn and nothing comes of it.
        deliveries, handle = outcome
        assert [(d.delay_ms, d.duplicate) for d in deliveries] == [(0.0, False)]
        assert c.counts() == {}
        assert c.served == 1
        return
    CHECKS[fault](c, kind, outcome)


def check_crash(c, kind, outcome):
    assert isinstance(outcome, ServerUnavailable)
    assert c.counts() == {"crash": 1, "unavailable": 1}
    assert c.net.crash_epoch == 1
    assert c.served == 0
    # The journaled provider recovered its sessions behind the window.
    assert c.provider.active_session_count == c.sessions


def check_cookie_invalidate(c, kind, outcome):
    assert isinstance(outcome, SyncProtocolError)
    assert c.counts() == {"cookie_invalidate": 1}
    assert c.served == 1  # the provider saw the request and refused it
    # Expired server-side, not merely garbled in flight: the session
    # the cookie named is gone.
    assert c.provider.active_session_count == c.sessions - 1


def check_drop_request(c, kind, outcome):
    assert isinstance(outcome, RequestDropped)
    assert c.counts() == {"drop_request": 1}
    assert c.served == 0
    assert c.provider.active_session_count == c.sessions


def check_drop_response(c, kind, outcome):
    assert isinstance(outcome, ResponseDropped)
    assert c.counts() == {"drop_response": 1}
    assert c.served == 1
    # A sketch mints its session before the response is lost; a
    # subscribe's half-open session is reset, not leaked.
    assert c.provider.active_session_count == c.sessions + (kind == "sketch")
    assert c.net.plan.drawn["r"] == 0


def check_truncate(c, kind, outcome):
    assert isinstance(outcome, ResponseTruncated)
    assert c.counts() == {"truncate": 1}
    assert c.served == 1
    whole = {"poll": 1, "subscribe": 7, "fetch": 3}[kind]
    assert len(outcome.partial.updates) == whole // 2
    assert outcome.partial.cookie is None  # it travels last
    assert outcome.partial.initial == (kind == "subscribe")
    assert c.provider.active_session_count == c.sessions


def check_delay(c, kind, outcome):
    deliveries, _ = outcome
    assert [d.delay_ms for d in deliveries] == [900.0]
    assert c.counts() == {"delay": 1}
    assert c.net.registry.gauge("net.fault.delay_ms").value == 900.0
    assert c.served == 1


def check_duplicate(c, kind, outcome):
    deliveries, _ = outcome
    assert [d.duplicate for d in deliveries] == [False, True]
    assert deliveries[0].response is deliveries[1].response
    assert c.counts() == {"duplicate": 1}
    assert c.served == 1


def check_sketch_corrupt(c, kind, outcome):
    deliveries, _ = outcome
    (delivery,) = deliveries
    intact = build_sketch(c.master.search(REQUEST).entries, delivery.response.sketch.size, salt=7)
    assert encoded_bytes(delivery.response.sketch) != encoded_bytes(intact)
    assert c.counts() == {"sketch_corrupt": 1}
    assert c.net.plan.drawn["r"] == 1


CHECKS = {
    "crash": check_crash,
    "cookie_invalidate": check_cookie_invalidate,
    "drop_request": check_drop_request,
    "drop_response": check_drop_response,
    "truncate": check_truncate,
    "delay": check_delay,
    "duplicate": check_duplicate,
    "sketch_corrupt": check_sketch_corrupt,
}


def test_every_exchange_reaching_kind_has_a_check():
    assert set(CHECKS) == {
        fault for fault, (_, sites) in FAULTS.items() if set(sites) & set(EXCHANGES)
    }


@pytest.mark.parametrize("kind", list(EXCHANGES))
@pytest.mark.parametrize("window", WINDOWS)
def test_every_exchange_honours_the_windows(window, kind):
    """A partition or slow node is a window opened by hand, not a
    table row a plan draws: inside a partition every exchange is
    refused before the provider sees it, and behind a slow node every
    one is served carrying exactly the added latency."""
    assert window not in FAULTS
    c = Cell()
    c.net.plan = FaultPlan(FaultSpec(), seed=3)
    if window == "partition":
        c.net.partition(c.provider)
    else:
        c.net.set_slow(c.provider, SLOW_MS)
    outcome = c.attempt(kind)
    assert c.net.stats.round_trips - c.trips == 1
    assert c.counts() == {window: 1}
    assert c.net.plan.drawn["x"] == 1
    if window == "partition":
        assert isinstance(outcome, NetworkPartitioned)
        assert c.net.is_partitioned(c.provider)
        assert c.net.crash_epoch == 0
        assert c.served == 0
        assert c.provider.active_session_count == c.sessions
        return
    deliveries, _ = outcome
    assert [d.delay_ms for d in deliveries] == [SLOW_MS]
    assert c.net.elapsed_ms == SLOW_MS
    assert c.net.registry.gauge("net.fault.delay_ms").value == SLOW_MS
    assert c.served == 1


@pytest.mark.parametrize("cell", SITE_CELLS, ids=cell_id)
def test_every_off_exchange_cell_is_drawn_at_its_site(cell):
    """The kinds that reach no exchange: each is drawn by its own
    stream at its own site, and counted there."""
    fault, site = cell
    stream = FAULTS[fault][0]
    c = Cell()
    if site == "batch":
        _, handle = c.exchange("subscribe", None)
    c.net.plan = FaultPlan(FaultSpec(**{fault: 1.0}), seed=3)
    if site == "batch":
        c.master.add(person("B1"))
        c.master.add(person("B2"))
        c.net.settle()
        delivered = {
            "batch_drop": 0,
            "batch_truncate": 1,
            "notification_drop": 0,
            "notification_duplicate": 4,
        }[fault]
        assert len(c.sink) == delivered
        handle.abandon()
        expected = 1 if stream == "b" else 2
    elif site == "journal":
        records = len(c.provider.journal._records)
        c.net.crash(c.provider)
        assert len(c.provider.journal._records) < records
        expected = 1
    else:
        store = MemorySnapshotStore()
        store.save(c.master.search(REQUEST).entries, c.cookie)
        intact = store.load()
        c.net.damage_snapshot(store)
        assert store.load() != intact
        expected = 1
    counts = c.counts()
    counts.pop("crash", None)
    assert counts == {fault: expected}
    assert c.net.plan.drawn[stream] == expected
    assert c.net.plan.drawn["x"] == 0


@pytest.mark.parametrize("fault", list(FAULTS))
def test_every_kind_is_a_probability_drawn_by_its_stream(fault):
    """The table's stream column: turning one kind on (and nothing
    else) makes exactly its stream's next decision come up, and the
    spec refuses a non-probability under that name."""
    stream = FAULTS[fault][0]
    plan = FaultPlan(FaultSpec(**{fault: 1.0}), seed=5)
    nexts = {
        "x": plan.next_exchange,
        "r": plan.next_reconcile,
        "b": plan.next_batch,
        "n": plan.next_notification,
        "j": plan.next_journal,
        "s": plan.next_snapshot,
    }
    assert set(nexts) == set(plan.drawn) == set(STREAMS)
    for name, draw in nexts.items():
        decision = draw()
        if name == "x":
            hits = [f for f in STREAMS["x"] if getattr(decision, f, False)]
            hits += ["delay"] * (decision.delay_ms > 0)
            assert hits == ([fault] if stream == "x" else [])
        else:
            assert sum(1 for d in decision if d is True) == (name == stream)
    assert [s for s in STREAMS if plan.enables(s)] == [stream]
    with pytest.raises(ValueError, match=fault):
        FaultSpec(**{fault: 1.5})
