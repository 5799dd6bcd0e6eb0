"""Simulated network joining clients, servers and replicas.

The paper's evaluation metrics are protocol-level — round trips between
client and servers (Figure 2, reproduced by E2 in docs/../EXPERIMENTS.md),
update PDUs and entries transferred (Figures 6/7, benches
``bench_fig6_update_traffic_serial.py`` / ``bench_fig7_update_traffic_dept.py``)
— so the "network" here is an in-process message bus that *counts*
rather than transports:

* one ``round_trip`` per request/response exchange with a server,
* per-message PDU and byte accounting (entry PDUs, referral PDUs,
  sync-update PDUs),
* optional fixed per-round-trip latency so examples can report
  wall-clock-style comparisons between referral chasing and local
  answering.

The network is the one writer of the seven ``net.traffic.<field>``
counters in its :class:`repro.obs.MetricsRegistry`: each ``charge_*``
method adds to them with ``Counter.inc``.  :attr:`SimulatedNetwork.stats`
is a read-only live view of those counters (:class:`TrafficStats`,
docs/OBSERVABILITY.md §3); ``stats.snapshot()`` freezes them into a
:class:`TrafficCounts` value, and ``stats - before`` is an interval's
delta.  Exporters read the same numbers through
``network.registry.to_dict()`` or ``to_prometheus_text()``.  Connection
accounting (§5.2's scaling metric — one open connection per persist
subscription) is ``net.connections.open`` / ``net.connections.total``.

The network is also the **fault-injection seam**.  A consumer reaches
a provider through one of four exchanges — :data:`EXCHANGES`: poll,
subscribe, sketch, fetch — and :func:`exchange` routes each through the
entry point of that name, so tests can override one and the e2e tracer
can wrap it.  All four entry points run one charge-and-serve step,
:meth:`SimulatedNetwork._exchange`; persist-mode notifications pass
:meth:`SimulatedNetwork.deliver_batch`.  On this perfect base network
that is all they do; :class:`repro.server.faults.FaultyNetwork`
overrides those two methods — and nothing else — to drop, duplicate,
delay, truncate and crash deterministically around them
(``net.fault.*`` metrics, docs/FAULTS.md §3).

A persist session opened through the network is always batched
(docs/TRANSPORT.md): a per-session
:class:`~repro.sync.delivery.DeliveryQueue` flushes encoded frames
through ``deliver_batch``.  A consumer that calls ``provider.persist``
itself speaks the protocol in-process and charges its own estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from ..ldap import ber
from ..ldap.controls import ReSyncControl, SyncMode
from ..obs.registry import Counter, MetricsRegistry
from .directory import DirectoryServer
from .scheduler import DeterministicScheduler

__all__ = [
    "TrafficStats",
    "TrafficCounts",
    "SimulatedNetwork",
    "TRAFFIC_FIELDS",
    "Delivery",
    "EXCHANGES",
    "exchange",
    "TransportError",
    "RequestDropped",
    "ResponseDropped",
    "ResponseTruncated",
    "ServerUnavailable",
    "NetworkPartitioned",
    "OperationTimeout",
]


class TransportError(Exception):
    """A message was lost to the network rather than refused by a peer.

    Base class of every injectable transport fault.  Consumers must
    treat these as *transient*: retry with backoff, never wipe local
    replica state (contrast :class:`repro.sync.SyncProtocolError`,
    whose recovery path is a cookie reload).  ``fault`` names the
    injected fault kind (matches the ``net.fault.<kind>`` counter).
    """

    fault = "transport"


class RequestDropped(TransportError):
    """The request never reached the server (no server-side effect)."""

    fault = "drop_request"


class ResponseDropped(TransportError):
    """The server processed the request but the response was lost."""

    fault = "drop_response"


class ResponseTruncated(TransportError):
    """The response stream was cut mid-delivery.

    ``partial`` carries the prefix that did arrive (cookie stripped —
    the cookie travels last; a multiplexed poll's: the answers whose
    cookie arrived, then the cut session's prefix).  Appliers may only
    use a cookie-less prefix when it is safe without the tail: not an
    initial-content response and not a retain-mode response
    (docs/PROTOCOL.md §9).
    """

    fault = "truncate"

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class ServerUnavailable(TransportError):
    """The server is inside a crash/restart window."""

    fault = "crash"


class NetworkPartitioned(TransportError):
    """No route between the consumer and the server: the network is
    partitioned.

    Unlike :class:`ServerUnavailable` the server itself is healthy —
    its session state survives, so a persist session resumes from its
    cookie once the partition heals (no crash epoch bump).  Cut and
    healed by hand, as a window: :meth:`repro.server.faults.FaultyNetwork.partition`
    / ``heal_partition``; no seed stream draws one.
    """

    fault = "partition"


class OperationTimeout(TransportError):
    """The response arrived later than the consumer's per-operation
    timeout; the consumer treats it exactly like a lost response."""

    fault = "timeout"


@dataclass
class Delivery:
    """One delivered copy of a synchronization response.

    A perfect network delivers exactly one; a faulty one may deliver
    two (duplication) or attach a latency the consumer can compare
    against its per-operation timeout.
    """

    response: object
    delay_ms: float = 0.0
    duplicate: bool = False


#: The consumer→provider exchanges: kind → (the network entry point it
#: enters by, the provider method that serves it).
EXCHANGES = {
    "poll": ("sync_exchange", "handle"),
    "subscribe": ("persist_exchange", "persist"),
    "sketch": ("reconcile_exchange", "reconcile"),
    "fetch": ("reconcile_fetch_exchange", "reconcile_fetch"),
}


def exchange(network: Optional["SimulatedNetwork"], kind: str, provider, request, *args):
    """One exchange of *kind* as a consumer makes it: through
    *network*'s entry point, or — a consumer built without a network —
    straight to the provider method, in-process and uncharged.  Either
    way the response comes back as a :class:`Delivery` list (a
    subscribe: ``(deliveries, handle)``)."""
    entry, method = EXCHANGES[kind]
    if network is not None:
        return getattr(network, entry)(provider, request, *args)
    served = getattr(provider, method)(request, *args)
    if kind == "subscribe":
        response, handle = served
        return [Delivery(response)], handle
    return [Delivery(served)]


class TrafficCounts(NamedTuple):
    """The seven protocol-level counts at one instant, or an interval's
    delta (``later - earlier``): a frozen value.

    ``entry_pdus``/``referral_pdus`` count search result messages;
    ``sync_entry_pdus``/``sync_dn_pdus`` count ReSync update messages
    carrying full entries vs DN-only actions (delete/retain);
    ``bytes_sent`` is the wire volume charged with them.
    """

    round_trips: int
    requests: int
    entry_pdus: int
    referral_pdus: int
    sync_entry_pdus: int
    sync_dn_pdus: int
    bytes_sent: int

    def as_dict(self) -> Dict[str, int]:
        """Field name → value, in :data:`TRAFFIC_FIELDS` order."""
        return self._asdict()

    def __sub__(self, other: "TrafficCounts") -> "TrafficCounts":
        return TrafficCounts(*[mine - theirs for mine, theirs in zip(self, other)])


#: The seven protocol-level counters, in declaration order.  Each is
#: the registry counter ``net.traffic.<field>``.
TRAFFIC_FIELDS = TrafficCounts._fields

_METRIC_PREFIX = "net.traffic."


class TrafficStats:
    """Read-only live view of a network's ``net.traffic.*`` counters
    (docs/OBSERVABILITY.md §3).

    A field read returns its counter's current value; there is no write
    path — :class:`SimulatedNetwork`'s ``charge_*`` methods are the one
    writer.  :meth:`snapshot` freezes the seven values, and
    ``live - snapshot`` is the interval's :class:`TrafficCounts`.
    """

    __slots__ = ("_counters",)

    def __init__(self, counters: Sequence[Counter]):
        self._counters = dict(zip(TRAFFIC_FIELDS, counters))

    def __getattr__(self, name: str) -> int:
        if name not in TRAFFIC_FIELDS:
            raise AttributeError(name)
        return self._counters[name].value

    def snapshot(self) -> TrafficCounts:
        """The counters' values now, detached from them."""
        return TrafficCounts(*[counter.value for counter in self._counters.values()])

    def as_dict(self) -> Dict[str, int]:
        """Field name → current value, in :data:`TRAFFIC_FIELDS` order."""
        return self.snapshot().as_dict()

    def __sub__(self, other: TrafficCounts) -> TrafficCounts:
        return self.snapshot() - other

    def __repr__(self) -> str:
        return f"TrafficStats({self.snapshot()!r})"


class SimulatedNetwork:
    """URL-addressed registry of servers plus shared traffic counters.

    Owns a :class:`repro.obs.MetricsRegistry` (``self.registry``) that
    holds the traffic counters :attr:`stats` reads and the
    connection/latency instruments — the single export point for one
    experiment's protocol traffic.

    An embedded :class:`~repro.server.scheduler.DeterministicScheduler`
    drives batched persist fan-out (per-session
    :class:`~repro.sync.delivery.DeliveryQueue`) and pipelined request
    completion (docs/TRANSPORT.md); :meth:`settle` drains it.

    Args:
        round_trip_latency_ms: simulated latency charged per round trip;
            purely additive bookkeeping (``elapsed_ms``), no sleeping.
        registry: metrics registry to report into (default: private).
        batch: batching/backpressure knobs for the persist queues
            (:class:`~repro.sync.delivery.BatchConfig`; default config
            when ``None``).
        scheduler: event loop to run on (default: a fresh
            :class:`DeterministicScheduler` seeded with *seed*, sharing
            this registry).
        seed: tie-break seed for the default scheduler.
    """

    def __init__(
        self,
        round_trip_latency_ms: float = 0.0,
        registry: Optional[MetricsRegistry] = None,
        batch=None,
        scheduler: Optional[DeterministicScheduler] = None,
        seed: int = 0,
    ):
        self._servers: Dict[str, DirectoryServer] = {}
        self.registry = registry if registry is not None else MetricsRegistry()
        traffic = [self.registry.counter(_METRIC_PREFIX + name) for name in TRAFFIC_FIELDS]
        (
            self._round_trips,
            self._requests,
            self._entry_pdus,
            self._referral_pdus,
            self._sync_entry_pdus,
            self._sync_dn_pdus,
            self._bytes_sent,
        ) = traffic
        #: Read-only live view of the traffic counters above.
        self.stats = TrafficStats(traffic)
        self.round_trip_latency_ms = round_trip_latency_ms
        self.batch_config = batch
        self.scheduler = (
            scheduler
            if scheduler is not None
            else DeterministicScheduler(seed, registry=self.registry)
        )
        #: Live persist delivery queues by session id; queues
        #: unregister themselves on close.
        self.persist_queues: Dict[str, object] = {}
        #: The update :meth:`deliver_batch` is handing to a deliver
        #: callback right now (None outside a delivery).  Its frame is
        #: already charged, so a consumer applying *this object* must
        #: not charge its own estimate on top.
        self.delivering = None
        self._elapsed = self.registry.gauge("net.latency.elapsed_ms")
        self._open = self.registry.gauge("net.connections.open")
        self._total = self.registry.counter("net.connections.total")
        # Live persist subscriptions keyed by id(), for forced
        # disconnection on a server crash window (see disconnect_server
        # / repro.server.faults).  A dict keeps open/close/crash
        # accounting O(1) per connection at 5k-session scale.
        self._live_connections: Dict[int, object] = {}
        #: Bumped once per simulated server crash; consumers holding a
        #: persist-mode subscription compare epochs to detect that their
        #: connection died with the old server incarnation.
        self.crash_epoch = 0

    def register(self, server: DirectoryServer) -> None:
        """Make *server* reachable at its URL."""
        self._servers[server.url] = server

    def resolve(self, url: str) -> DirectoryServer:
        """The server at *url*; raises :class:`KeyError` if unknown."""
        key = url.split("/", 3)[:3]
        normalized = "/".join(key)
        if normalized not in self._servers:
            raise KeyError(f"no server registered at {url!r}")
        return self._servers[normalized]

    def charge_round_trip(self) -> None:
        """Account one request/response exchange."""
        self._round_trips.inc()
        self._requests.inc()
        self._elapsed.inc(self.round_trip_latency_ms)

    def charge_entries(self, count: int, total_bytes: int = 0) -> None:
        """Account *count* search entry PDUs."""
        self._entry_pdus.inc(count)
        self._bytes_sent.inc(total_bytes)

    def charge_referrals(self, count: int) -> None:
        """Account *count* referral/continuation PDUs."""
        self._referral_pdus.inc(count)

    def charge_sync_entry(self, entry_bytes: int) -> None:
        """Account one full-entry sync PDU (add/modify action)."""
        self._sync_entry_pdus.inc()
        self._bytes_sent.inc(entry_bytes)

    def charge_sync_dn(self, dn_bytes: int) -> None:
        """Account one DN-only sync PDU (delete/retain action) of
        *dn_bytes* on the wire."""
        self._sync_dn_pdus.inc()
        self._bytes_sent.inc(dn_bytes)

    def connection_opened(self, connection: object) -> None:
        """Account one opened connection (§5.2's scaling metric, reported
        as ``net.connections.open``/``.total``) and register it for
        forced disconnection on a crash window.  *connection* is a
        link's persist :class:`~repro.sync.resilient.Subscription`: it
        has a ``server`` and a ``drop()`` (:meth:`disconnect_server`)."""
        self._open.inc()
        self._total.inc()
        self._live_connections[id(connection)] = connection

    def connection_closed(self, connection: object) -> None:
        self._open.set(max(0.0, self._open.value - 1))
        self._live_connections.pop(id(connection), None)

    def disconnect_server(self, url: str) -> int:
        """Forcibly drop every registered connection to the server at
        *url* — what a crash does to its TCP connections.

        Each dropped connection's ``drop()`` method runs (closing it and
        decrementing ``net.connections.open`` exactly once); returns the
        number of connections dropped.  A link's persist cycle sees a
        dropped subscription (or the moved :attr:`crash_epoch`) and
        re-opens it — re-counting the connection, not leaking it.
        """
        live = list(self._live_connections.values())
        victims = [conn for conn in live if getattr(conn.server, "url", None) == url]
        for conn in victims:
            conn.drop()
        return len(victims)

    # ------------------------------------------------------------------
    # synchronization exchanges (the fault-injection seam)
    # ------------------------------------------------------------------
    def sync_exchange(self, provider, request, control) -> List[Delivery]:
        """One poll-mode request/response exchange with *provider*: one
        session's (*request*, ``ReSyncControl``), or a link round's tuple
        of requests under one ``MultiPoll`` (docs/PROTOCOL.md §4).

        The perfect network charges one round trip and returns exactly
        one :class:`Delivery`.  A fault-injecting network may raise
        :class:`TransportError` (before or after the provider ran) or
        return a duplicated/delayed delivery — see
        :class:`repro.server.faults.FaultyNetwork`.
        """
        return self._exchange("poll", provider, request, control)[0]

    def persist_exchange(self, provider, request, deliver, cookie=None):
        """Open a persist-mode session on *provider*.

        Returns ``(deliveries, handle)`` where *deliveries* carries the
        initial response.  *deliver* is handed to a per-session
        :class:`~repro.sync.delivery.DeliveryQueue` that batches
        notifications on the scheduler's virtual clock and flushes them
        through :meth:`deliver_batch` (the persist fault seam).  The
        queue rides on the returned handle (``handle.delivery_queue``)
        and is closed with it.
        """
        control = ReSyncControl(mode=SyncMode.PERSIST, cookie=cookie)
        return self._exchange("subscribe", provider, request, control, deliver)

    def reconcile_exchange(self, provider, request, rreq) -> List[Delivery]:
        """One sketch solicitation/response exchange (anti-entropy
        reconciliation, docs/PROTOCOL.md §11).

        Charges a round trip plus the sketch's measured wire bytes and
        delivers the provider's
        :class:`~repro.sync.protocol.ReconcileResponse`.  A
        fault-injecting network may raise :class:`TransportError`, delay
        the delivery, or corrupt the sketch in flight (a *detected*
        decode failure at the consumer).
        """
        return self._exchange("sketch", provider, request, rreq)[0]

    def reconcile_fetch_exchange(self, provider, request, fetch) -> List[Delivery]:
        """The follow-up targeted fetch of decoded master-only keys.

        The request's key list is charged here; the returned entry PDUs
        are charged by the consumer as it applies them (the normal
        ``charge_sync_entry`` path).
        """
        return self._exchange("fetch", provider, request, fetch)[0]

    def _exchange(self, kind: str, provider, request, payload, deliver=None):
        """The charge-and-serve step every entry point above runs:
        ``(deliveries, handle)`` for one exchange of *kind* carrying
        *payload* (the control, sketch request or fetch — each names its
        ``cookie``); *handle* is None unless a subscription opened.

        What a kind puts on the wire beside its update PDUs (which the
        applying consumer charges) is charged here: a fetch's key list
        travels in the request, a sketch in the response.  The perfect
        network delivers the response once, undelayed;
        :class:`repro.server.faults.FaultyNetwork` wraps this step in
        its fault stages.
        """
        self.charge_round_trip()
        if kind == "poll":  # the hot one: a charge and a call
            return [Delivery(provider.handle(request, payload))], None
        if kind == "subscribe":
            response, handle = self._open_persist(provider, request, deliver, payload.cookie)
            return [Delivery(response)], handle
        if kind == "fetch":
            self._bytes_sent.inc(payload.pdu_bytes)
        response = getattr(provider, EXCHANGES[kind][1])(request, payload)
        if kind == "sketch":
            self._bytes_sent.inc(response.pdu_bytes)
        return [Delivery(response)], None

    def _open_persist(self, provider, request, deliver, cookie):
        """Open the server-side persist session behind a fresh
        :class:`~repro.sync.delivery.DeliveryQueue`."""
        from ..sync.delivery import DeliveryQueue

        queue = DeliveryQueue(
            deliver, network=self, scheduler=self.scheduler, config=self.batch_config
        )
        response, handle = provider.persist(request, queue, cookie=cookie)
        queue.session_id = handle.session_id
        self.persist_queues[handle.session_id] = queue
        queue.on_close = lambda q: self.persist_queues.pop(q.session_id, None)
        handle.delivery_queue = queue
        return response, handle

    def deliver_batch(self, deliver: Callable, updates: List) -> int:
        """Deliver one coalesced persist batch; returns PDUs delivered.

        Charges the batch's *encoded* wire length
        (:meth:`charge_sync_batch`) and invokes *deliver* per update,
        exposing the update in flight as :attr:`delivering`.
        Fault-injecting subclasses override this — the one persist
        fault seam — to drop or truncate whole batches (``:b`` stream)
        and drop or duplicate single PDUs inside one (``:n`` stream;
        docs/PROTOCOL.md §9, docs/TRANSPORT.md §4).
        """
        if not updates:
            return 0
        self.charge_sync_batch(updates)
        # A deliver callback may update the master and so flush another
        # queue from inside this loop; restore the outer delivery's
        # marker when the nested one returns.
        outer = self.delivering
        try:
            for update in updates:
                self.delivering = update
                deliver(update)
        finally:
            self.delivering = outer
        return len(updates)

    def charge_sync_batch(self, updates: List) -> None:
        """Account one sync batch frame.

        ``bytes_sent`` grows by the exact length of the frame's BER
        encoding (:func:`repro.ldap.ber.encoded_sync_batch_size`,
        arithmetic: no byte is built), so the byte metric is
        encoded-length-accurate for queued sessions; the per-kind PDU
        counters still count each carried update.
        """
        entries = 0
        for update in updates:
            if update.entry is not None:
                entries += 1
        self._sync_entry_pdus.inc(entries)
        self._sync_dn_pdus.inc(len(updates) - entries)
        self._bytes_sent.inc(ber.encoded_sync_batch_size(updates))

    def settle(self, max_events: int = 1_000_000) -> int:
        """Run the embedded scheduler until idle — every pending batch
        flush, ack and pipelined completion executes.  Returns events
        run (0 when nothing was pending)."""
        return self.scheduler.run_until_idle(max_events=max_events)

    @property
    def elapsed_ms(self) -> float:
        """Accumulated simulated latency (``net.latency.elapsed_ms``)."""
        return self._elapsed.value

    @elapsed_ms.setter
    def elapsed_ms(self, value: float) -> None:
        self._elapsed.set(value)

    @property
    def open_connections(self) -> int:
        return int(self._open.value)

    @property
    def total_connections(self) -> int:
        return self._total.value

    @property
    def servers(self) -> Dict[str, DirectoryServer]:
        """Registered servers by URL (read-only view by convention)."""
        return dict(self._servers)
