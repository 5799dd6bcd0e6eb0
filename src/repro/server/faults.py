"""Deterministic fault injection over the simulated network.

The paper sells ReSync (§5) on *convergence*: a cookie-based session
drives a filter replica back to exact master content even when sessions
are interrupted mid-stream.  The base
:class:`~repro.server.network.SimulatedNetwork` is a perfect counting
bus, so that claim would only ever be tested on a perfect network; this
module makes the network hostile, reproducibly.

* :class:`FaultSpec` — declarative per-exchange fault probabilities
  (drops, duplication, delay, truncation, crash windows, cookie
  invalidation).
* :class:`FaultPlan` — a seeded, replayable schedule of fault
  decisions.  Decision *i* is derived from ``(seed, i)`` alone, so two
  runs with the same seed see byte-identical fault sequences no matter
  how many random values each decision consumes.
* :class:`FaultyNetwork` — a :class:`SimulatedNetwork` whose exchange
  hooks consult the plan.  Every injected fault is recorded under the
  ``net.fault.injected`` counter (plus a ``kind``-labeled child per
  fault kind) in the network's metrics registry, so benches can report
  fault counts next to round trips.

Fault semantics (docs/PROTOCOL.md §9):

==================  ====================================================
fault               effect on one synchronization exchange
==================  ====================================================
drop_request        request lost before the server saw it
                    (:class:`RequestDropped`; no server-side effect)
drop_response       server processed the poll — the session's batch was
                    drained — but the response was lost
                    (:class:`ResponseDropped`)
duplicate           the response arrives twice (two
                    :class:`~repro.server.network.Delivery` copies);
                    consumers must re-apply idempotently
delay               the response arrives late; consumers with a
                    per-operation timeout treat it as lost
truncate            the update stream is cut mid-delivery; the prefix
                    travels in :class:`ResponseTruncated`, the cookie
                    (which travels last) does not
crash               the server crashes: in-memory session state is lost
                    (``provider.restart()``), open connections drop, and
                    the server stays unreachable for ``crash_length``
                    further exchanges (:class:`ServerUnavailable`).  A
                    *durable* provider (one with a journal) additionally
                    recovers from its journal (``provider.recover()``)
                    before the restart window ends
journal_truncate    the crash tears the journal tail: a fraction of the
                    trailing records is lost before recovery replays it
journal_corrupt     the crash corrupts one journal record (or the
                    snapshot); everything from that point on is
                    unreadable and dropped by recovery
cookie_invalidate   the presented session cookie is expired server-side
                    (or corrupted in flight) — the provider answers with
                    :class:`~repro.sync.SyncProtocolError`, exercising
                    the recovery ladder (docs/RECOVERY.md)
sketch_corrupt      one cell of a served reconcile sketch is damaged in
                    flight (:func:`repro.sync.reconcile.corrupt_cell`);
                    the consumer's verified decode detects it and
                    doubles or falls back to a rebuild — never applies
                    garbage (docs/PROTOCOL.md §11)
snapshot_truncate   the replica's crash tears the tail off its content
                    snapshot (:mod:`repro.sync.snapshot`); the restart's
                    checksum verification detects it and the snapshot is
                    discarded, never applied — a cold start
snapshot_corrupt    the replica's snapshot is bit-flipped at rest; same
                    detect-and-discard outcome as a torn one
snapshot_stale      the snapshot is intact but its cookie has aged out
                    of the provider's session table: content restores,
                    the first poll is refused, and the consumer climbs
                    the ladder (sketch reconcile, then rebuild)
partition           provider↔consumer reachability is cut: exchanges
                    raise :class:`NetworkPartitioned` until the window
                    ends (``partition_length`` exchanges, or an explicit
                    :meth:`FaultyNetwork.heal_partition`); the server is
                    healthy throughout — session state survives and
                    persist cookies resume after the heal
slow                slow-node injection: the exchange succeeds but
                    carries up to ``slow_latency_ms`` added latency,
                    charged to the virtual clock and to the delivery's
                    ``delay_ms`` (so per-operation timeouts fire)
==================  ====================================================

Partition and slow decisions ride their own ``:p`` stream, drawn only
when the spec enables them — plans without reachability faults keep
byte-identical schedules on every other stream for the same seed.
Explicit :meth:`FaultyNetwork.partition` / ``set_slow`` windows (the
chaos schedule's tool) need no plan at all.

Snapshot damage is applied at replica-restart time — the moment the
restarting consumer is about to read its snapshot — via
:meth:`FaultyNetwork.damage_snapshot`, on its own ``:s`` decision
stream so existing exchange/notification/journal schedules for a seed
stay byte-identical.

Persist-mode notification streams have one fault seam,
:meth:`FaultyNetwork.deliver_batch`, fed by two independent streams.
``:b`` decides per flushed batch: drop it whole (``batch_drop``) or
truncate it at a batch boundary (``batch_truncate`` — the delivered
prefix surfaces exactly like :class:`ResponseTruncated.partial` does
for a cut poll response).  ``:n`` decides per PDU inside a batch that
got through: ``notification_drop`` removes it from the frame,
``notification_duplicate`` carries it twice.  Like ``:p``, the ``:n``
stream is drawn only when the spec enables one of its faults.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from ..obs.registry import MetricsRegistry
from .network import (
    Delivery,
    NetworkPartitioned,
    RequestDropped,
    ResponseDropped,
    ResponseTruncated,
    ServerUnavailable,
    SimulatedNetwork,
)

__all__ = ["FaultSpec", "FaultPlan", "ExchangeFaults", "FaultyNetwork"]


@dataclass(frozen=True)
class FaultSpec:
    """Per-exchange fault probabilities (all in ``[0, 1]``).

    ``crash_length`` is the number of subsequent exchanges the crashed
    server stays unreachable for (the restart window).
    """

    drop_request: float = 0.0
    drop_response: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    max_delay_ms: float = 1000.0
    truncate: float = 0.0
    cookie_invalidate: float = 0.0
    crash: float = 0.0
    crash_length: int = 2
    notification_drop: float = 0.0
    notification_duplicate: float = 0.0
    batch_drop: float = 0.0
    batch_truncate: float = 0.0
    journal_truncate: float = 0.0
    journal_corrupt: float = 0.0
    sketch_corrupt: float = 0.0
    snapshot_truncate: float = 0.0
    snapshot_corrupt: float = 0.0
    snapshot_stale: float = 0.0
    partition: float = 0.0
    partition_length: int = 2
    slow: float = 0.0
    slow_latency_ms: float = 50.0

    def __post_init__(self):
        for name in (
            "drop_request",
            "drop_response",
            "duplicate",
            "delay",
            "truncate",
            "cookie_invalidate",
            "crash",
            "notification_drop",
            "notification_duplicate",
            "batch_drop",
            "batch_truncate",
            "journal_truncate",
            "journal_corrupt",
            "sketch_corrupt",
            "snapshot_truncate",
            "snapshot_corrupt",
            "snapshot_stale",
            "partition",
            "slow",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value!r}")
        if self.crash_length < 1:
            raise ValueError("crash_length must be >= 1")
        if self.partition_length < 1:
            raise ValueError("partition_length must be >= 1")
        if self.slow_latency_ms < 0:
            raise ValueError("slow_latency_ms must be >= 0")

    @classmethod
    def uniform(cls, rate: float, **overrides) -> "FaultSpec":
        """Every message-level fault at the same *rate* (the bench's
        one-knob sweep); crash/cookie faults default to ``rate / 4`` so
        a high-rate sweep is not dominated by restart windows."""
        params = dict(
            drop_request=rate,
            drop_response=rate,
            duplicate=rate,
            delay=rate,
            truncate=rate,
            cookie_invalidate=rate / 4,
            crash=rate / 4,
            notification_drop=rate,
            notification_duplicate=rate,
            # Only persist streams are affected (the :b stream, drawn
            # once per flushed batch).
            batch_drop=rate,
            batch_truncate=rate,
            # Only durable (journaled) providers are affected; a crash
            # damages the journal at the same modest rate it happens.
            journal_truncate=rate / 4,
            journal_corrupt=rate / 4,
            # Only reconcile exchanges are affected (the :r stream).
            sketch_corrupt=rate,
            # Only snapshotting consumers are affected, at restart time
            # (the :s stream); damaged at the journal's modest rate.
            snapshot_truncate=rate / 4,
            snapshot_corrupt=rate / 4,
            snapshot_stale=rate / 4,
            # Reachability faults (partition / slow, the :p stream) stay
            # opt-in: uniform() predates them and committed fault-matrix
            # baselines depend on its historical behavior.  Enable them
            # per-run via overrides or a chaos FaultSchedule window.
        )
        params.update(overrides)
        return cls(**params)


@dataclass(frozen=True)
class ExchangeFaults:
    """The fault decisions for one synchronization exchange."""

    crash: bool = False
    cookie_invalidate: bool = False
    drop_request: bool = False
    drop_response: bool = False
    truncate: bool = False
    truncate_keep: float = 0.0
    duplicate: bool = False
    delay_ms: float = 0.0

    @property
    def any(self) -> bool:
        return (
            self.crash
            or self.cookie_invalidate
            or self.drop_request
            or self.drop_response
            or self.truncate
            or self.duplicate
            or self.delay_ms > 0
        )


class FaultPlan:
    """A seeded, replayable schedule of fault decisions.

    Exchange *i*'s decisions are drawn from ``Random(f"{seed}:x{i}")``
    and notification *j*'s from ``Random(f"{seed}:n{j}")`` — fully
    deterministic, independent of how many prior decisions were made by
    other code paths, and independent between the two streams.
    """

    def __init__(self, spec: FaultSpec, seed: int = 0):
        self.spec = spec
        self.seed = seed
        self._exchange_index = 0
        self._notification_index = 0
        self._batch_index = 0
        self._journal_index = 0
        self._reconcile_index = 0
        self._snapshot_index = 0
        self._partition_index = 0

    def next_exchange(self) -> ExchangeFaults:
        """Fault decisions for the next poll/subscribe exchange."""
        rng = random.Random(f"{self.seed}:x{self._exchange_index}")
        self._exchange_index += 1
        spec = self.spec
        delay_hit = rng.random() < spec.delay
        return ExchangeFaults(
            crash=rng.random() < spec.crash,
            cookie_invalidate=rng.random() < spec.cookie_invalidate,
            drop_request=rng.random() < spec.drop_request,
            drop_response=rng.random() < spec.drop_response,
            truncate=rng.random() < spec.truncate,
            truncate_keep=rng.random(),
            duplicate=rng.random() < spec.duplicate,
            delay_ms=rng.uniform(0.0, spec.max_delay_ms) if delay_hit else 0.0,
        )

    def next_notification(self) -> Tuple[bool, bool]:
        """(drop, duplicate) decisions for the next notification PDU
        inside a delivered persist batch — its own ``:n`` stream."""
        rng = random.Random(f"{self.seed}:n{self._notification_index}")
        self._notification_index += 1
        return (
            rng.random() < self.spec.notification_drop,
            rng.random() < self.spec.notification_duplicate,
        )

    def next_batch(self) -> Tuple[bool, bool, float]:
        """(drop, truncate, keep position) decisions for the next
        flushed persist batch — its own ``:b`` stream, so poll-only
        runs (which never flush batches) keep byte-identical exchange
        schedules for the same seed."""
        rng = random.Random(f"{self.seed}:b{self._batch_index}")
        self._batch_index += 1
        return (
            rng.random() < self.spec.batch_drop,
            rng.random() < self.spec.batch_truncate,
            rng.random(),
        )

    def next_journal(self) -> Tuple[bool, bool, float]:
        """(truncate, corrupt, position) decisions for the next crash of
        a journaled provider — its own ``:j`` stream, so providers with
        and without journals see identical exchange/notification
        schedules for the same seed."""
        rng = random.Random(f"{self.seed}:j{self._journal_index}")
        self._journal_index += 1
        return (
            rng.random() < self.spec.journal_truncate,
            rng.random() < self.spec.journal_corrupt,
            rng.random(),
        )

    def next_reconcile(self) -> Tuple[bool, float]:
        """(corrupt, cell position) decisions for the next served
        sketch — its own ``:r`` stream, so runs that never reconcile
        see identical exchange/notification/journal schedules for the
        same seed."""
        rng = random.Random(f"{self.seed}:r{self._reconcile_index}")
        self._reconcile_index += 1
        return (rng.random() < self.spec.sketch_corrupt, rng.random())

    def next_partition(self) -> Tuple[bool, bool, float]:
        """(partition, slow, added latency ms) decisions for the next
        exchange's reachability — its own ``:p`` stream, drawn only
        when the spec enables partition or slow faults, so plans
        without reachability faults keep byte-identical schedules on
        every other stream for the same seed."""
        rng = random.Random(f"{self.seed}:p{self._partition_index}")
        self._partition_index += 1
        return (
            rng.random() < self.spec.partition,
            rng.random() < self.spec.slow,
            rng.uniform(0.0, self.spec.slow_latency_ms),
        )

    def next_snapshot(self) -> Tuple[bool, bool, bool, float]:
        """(truncate, corrupt, stale, position) decisions for the next
        replica restart that reads a content snapshot — its own ``:s``
        stream, so consumers with and without snapshot stores see
        identical exchange/notification/journal/reconcile schedules for
        the same seed."""
        rng = random.Random(f"{self.seed}:s{self._snapshot_index}")
        self._snapshot_index += 1
        return (
            rng.random() < self.spec.snapshot_truncate,
            rng.random() < self.spec.snapshot_corrupt,
            rng.random() < self.spec.snapshot_stale,
            rng.random(),
        )


class FaultyNetwork(SimulatedNetwork):
    """A :class:`SimulatedNetwork` that injects faults from a
    :class:`FaultPlan` into every synchronization exchange.

    With ``plan=None`` (or after :meth:`heal`) it behaves exactly like
    the perfect base network, so the same experiment object can run a
    faulty phase followed by a clean convergence check.
    """

    def __init__(
        self,
        plan: Optional[FaultPlan] = None,
        round_trip_latency_ms: float = 0.0,
        registry: Optional[MetricsRegistry] = None,
        **network_kwargs,
    ):
        super().__init__(
            round_trip_latency_ms=round_trip_latency_ms,
            registry=registry,
            **network_kwargs,
        )
        self.plan = plan
        # server key -> remaining exchanges the server stays down for.
        self._down_for: Dict[str, int] = {}
        # server key -> remaining exchanges unreachable; -1 = cut until
        # heal_partition() (the chaos schedule's explicit windows).
        self._partitioned: Dict[str, int] = {}
        # server key -> sustained added latency per exchange (slow node).
        self._slow: Dict[str, float] = {}
        self._fault_total = self.registry.counter("net.fault.injected")
        self._fault_delay_ms = self.registry.gauge("net.fault.delay_ms")

    # ------------------------------------------------------------------
    # plan control
    # ------------------------------------------------------------------
    def heal(self) -> None:
        """Stop injecting: drop the plan and end every crash window,
        partition and slow-node condition."""
        self.plan = None
        self._down_for.clear()
        self._partitioned.clear()
        self._slow.clear()

    def fault_counts(self) -> Dict[str, int]:
        """``{fault kind: injections}`` — the ``net.fault.injected``
        children, for bench reporting."""
        counts: Dict[str, int] = {}
        for instrument in self.registry:
            if instrument.name != "net.fault.injected":
                continue
            labels = dict(instrument.label_values)
            if "kind" in labels:
                counts[labels["kind"]] = instrument.value
        return counts

    def _record(self, kind: str) -> None:
        self._fault_total.inc()
        self._fault_total.labels(kind=kind).inc()

    # ------------------------------------------------------------------
    # crash windows
    # ------------------------------------------------------------------
    @staticmethod
    def _server_key(provider) -> str:
        url = getattr(getattr(provider, "server", None), "url", None)
        return url if url is not None else f"provider:{id(provider)}"

    def crash(self, provider) -> None:
        """Crash the provider's server now, regardless of the plan —
        for tests and benches that place crashes explicitly.  Persist
        consumers see it through :attr:`crash_epoch` and their dropped
        connections; pollers hit the restart window."""
        self._crash(provider)

    def _crash(self, provider) -> None:
        """Crash the provider's server: lose in-memory session state,
        drop its connections, open a restart window."""
        key = self._server_key(provider)
        self.crash_epoch += 1
        self._record("crash")
        self._down_for[key] = self.plan.spec.crash_length if self.plan else 1
        restart = getattr(provider, "restart", None)
        if restart is not None:
            restart()
        journal = getattr(provider, "journal", None)
        if journal is not None:
            # The journal is on disk: it survives the crash, possibly
            # damaged, and the restarting provider recovers from it.
            if self.plan is not None:
                truncate, corrupt, position = self.plan.next_journal()
                if truncate:
                    self._record("journal_truncate")
                    journal.damage_truncate(position)
                if corrupt:
                    self._record("journal_corrupt")
                    journal.damage_corrupt(position)
            recover = getattr(provider, "recover", None)
            if recover is not None:
                recover()
        self.disconnect_server(key)

    def _check_unavailable(self, provider) -> None:
        """Raise while the provider's server is inside a restart window.

        The attempt still costs a round trip (the client sent a request
        and waited out its timeout).
        """
        key = self._server_key(provider)
        remaining = self._down_for.get(key, 0)
        if remaining <= 0:
            return
        if remaining <= 1:
            self._down_for.pop(key, None)  # restarted after this attempt
        else:
            self._down_for[key] = remaining - 1
        self.charge_round_trip()
        self._record("unavailable")
        raise ServerUnavailable(f"server {key} is restarting")

    # ------------------------------------------------------------------
    # partitions and slow nodes
    # ------------------------------------------------------------------
    def partition(self, provider) -> None:
        """Cut provider↔consumer reachability until
        :meth:`heal_partition` — the chaos schedule's explicit window.

        Open connections drop (a partition looks like a dead TCP peer),
        but unlike :meth:`crash` the server's session state survives
        and ``crash_epoch`` does not bump: once healed, a persist
        session resumes from its cookie.
        """
        key = self._server_key(provider)
        self._partitioned[key] = -1
        self.disconnect_server(key)

    def heal_partition(self, provider=None) -> None:
        """End the partition for *provider* (every partition when
        ``None``); queued traffic flows again on the next exchange."""
        if provider is None:
            self._partitioned.clear()
        else:
            self._partitioned.pop(self._server_key(provider), None)

    def is_partitioned(self, provider) -> bool:
        return self._server_key(provider) in self._partitioned

    def set_slow(self, provider, added_latency_ms: float) -> None:
        """Inflate every exchange with *provider* by a fixed added
        latency (slow-node injection).  The surcharge lands on
        ``net.latency.elapsed_ms`` — the same virtual-clock ledger the
        scheduler and backoff ride — and on each delivery's
        ``delay_ms``, so per-operation timeouts fire exactly as they
        would against a congested peer.  ``0`` clears it.
        """
        key = self._server_key(provider)
        if added_latency_ms > 0:
            self._slow[key] = added_latency_ms
        else:
            self._slow.pop(key, None)

    def clear_slow(self, provider=None) -> None:
        if provider is None:
            self._slow.clear()
        else:
            self._slow.pop(self._server_key(provider), None)

    def _check_reachable(self, provider) -> float:
        """Partition and slow-node handling for one exchange attempt.

        Draws the plan's ``:p`` decisions (only when the spec enables
        them — the stream is independent, so other streams never
        shift), raises :class:`NetworkPartitioned` while a partition is
        cut (the attempt still costs a round trip: the client sent a
        request and waited out its timeout), and returns the added
        latency this exchange must carry.
        """
        key = self._server_key(provider)
        transient_ms = 0.0
        if self.plan is not None:
            spec = self.plan.spec
            if spec.partition > 0.0 or spec.slow > 0.0:
                cut, slow, added_ms = self.plan.next_partition()
                if cut and key not in self._partitioned:
                    self._partitioned[key] = spec.partition_length
                    self.disconnect_server(key)
                if slow:
                    transient_ms = added_ms
        remaining = self._partitioned.get(key)
        if remaining is not None:
            if remaining > 0:
                if remaining <= 1:
                    self._partitioned.pop(key, None)
                else:
                    self._partitioned[key] = remaining - 1
            self.charge_round_trip()
            self._record("partition")
            raise NetworkPartitioned(f"no route to server {key}")
        extra_ms = transient_ms + self._slow.get(key, 0.0)
        if extra_ms > 0:
            self._record("slow")
            self._fault_delay_ms.inc(extra_ms)
            self.elapsed_ms += extra_ms
        return extra_ms

    # ------------------------------------------------------------------
    # exchange hooks
    # ------------------------------------------------------------------
    def sync_exchange(self, provider, request, control) -> List[Delivery]:
        if self.plan is None:
            self._check_unavailable(provider)
            extra_ms = self._check_reachable(provider)
            deliveries = super().sync_exchange(provider, request, control)
            for delivery in deliveries:
                delivery.delay_ms += extra_ms
            return deliveries
        faults = self.plan.next_exchange()
        if faults.crash:
            self._crash(provider)
        self._check_unavailable(provider)
        extra_ms = self._check_reachable(provider)

        if faults.cookie_invalidate and control.cookie is not None:
            control = self._invalidate_cookie(provider, control)

        if faults.drop_request:
            self.charge_round_trip()
            self._record("drop_request")
            raise RequestDropped("request lost in flight")

        self.charge_round_trip()
        response = provider.handle(request, control)

        if faults.drop_response:
            self._record("drop_response")
            raise ResponseDropped("response lost in flight")
        if faults.truncate and response.updates:
            self._record("truncate")
            raise ResponseTruncated(
                "response stream cut mid-delivery",
                partial=self._truncated(response, faults.truncate_keep),
            )

        if faults.delay_ms > 0:
            self._record("delay")
            self._fault_delay_ms.inc(faults.delay_ms)
        delay_ms = faults.delay_ms + extra_ms
        deliveries = [Delivery(response, delay_ms=delay_ms)]
        if faults.duplicate:
            self._record("duplicate")
            deliveries.append(
                Delivery(response, delay_ms=delay_ms, duplicate=True)
            )
        return deliveries

    def persist_exchange(self, provider, request, deliver, cookie=None):
        faults = self.plan.next_exchange() if self.plan is not None else None
        if faults is not None and faults.crash:
            self._crash(provider)
        self._check_unavailable(provider)
        extra_ms = self._check_reachable(provider)

        if (
            faults is not None
            and faults.cookie_invalidate
            and cookie is not None
        ):
            # Corrupt the resumption cookie in flight; the provider
            # answers SyncProtocolError and the consumer re-subscribes
            # from scratch.
            self._record("cookie_invalidate")
            cookie = "<invalidated>"

        if faults is not None and faults.drop_request:
            self.charge_round_trip()
            self._record("drop_request")
            raise RequestDropped("subscribe request lost in flight")

        self.charge_round_trip()
        response, handle = self._open_persist(provider, request, deliver, cookie)

        if faults is not None and (faults.drop_response or faults.truncate):
            # The subscription opened server-side but the client never
            # saw the initial content: the client resets the connection,
            # ending the half-open session (no leak), and retries.
            handle.abandon()
            if faults.drop_response:
                self._record("drop_response")
                raise ResponseDropped("initial content lost in flight")
            self._record("truncate")
            raise ResponseTruncated(
                "initial content cut mid-delivery",
                partial=self._truncated(response, faults.truncate_keep),
            )
        return [Delivery(response, delay_ms=extra_ms)], handle

    def reconcile_exchange(self, provider, request, rreq):
        if self.plan is None:
            self._check_unavailable(provider)
            self._check_reachable(provider)
            return super().reconcile_exchange(provider, request, rreq)
        faults = self.plan.next_exchange()
        if faults.crash:
            self._crash(provider)
        self._check_unavailable(provider)
        self._check_reachable(provider)

        if faults.drop_request:
            self.charge_round_trip()
            self._record("drop_request")
            raise RequestDropped("reconcile request lost in flight")

        self.charge_round_trip()
        response = provider.reconcile(request, rreq)
        self.stats.bytes_sent += response.pdu_bytes

        if faults.drop_response:
            self._record("drop_response")
            raise ResponseDropped("sketch lost in flight")

        corrupt, position = self.plan.next_reconcile()
        if corrupt:
            # In-flight sketch damage: the consumer's verified decode
            # detects it (checksummed peel + zero-residue rule) and
            # doubles or falls back — never applies garbage.
            from ..sync.reconcile import corrupt_cell

            self._record("sketch_corrupt")
            corrupt_cell(response.sketch, position)

        if faults.delay_ms > 0:
            self._record("delay")
            self._fault_delay_ms.inc(faults.delay_ms)
        return response

    def reconcile_fetch_exchange(self, provider, request, fetch):
        if self.plan is None:
            self._check_unavailable(provider)
            extra_ms = self._check_reachable(provider)
            deliveries = super().reconcile_fetch_exchange(provider, request, fetch)
            for delivery in deliveries:
                delivery.delay_ms += extra_ms
            return deliveries
        faults = self.plan.next_exchange()
        if faults.crash:
            self._crash(provider)
        self._check_unavailable(provider)
        extra_ms = self._check_reachable(provider)

        if faults.drop_request:
            self.charge_round_trip()
            self._record("drop_request")
            raise RequestDropped("fetch request lost in flight")

        self.charge_round_trip()
        self.stats.bytes_sent += fetch.pdu_bytes
        response = provider.reconcile_fetch(request, fetch)

        if faults.drop_response:
            self._record("drop_response")
            raise ResponseDropped("fetch response lost in flight")
        if faults.truncate and response.updates:
            self._record("truncate")
            raise ResponseTruncated(
                "fetch stream cut mid-delivery",
                partial=self._truncated(response, faults.truncate_keep),
            )

        if faults.delay_ms > 0:
            self._record("delay")
            self._fault_delay_ms.inc(faults.delay_ms)
        delay_ms = faults.delay_ms + extra_ms
        deliveries = [Delivery(response, delay_ms=delay_ms)]
        if faults.duplicate:
            self._record("duplicate")
            deliveries.append(
                Delivery(response, delay_ms=delay_ms, duplicate=True)
            )
        return deliveries

    def damage_snapshot(self, store) -> None:
        """Apply the plan's snapshot-damage decisions to *store*.

        Called by tests and benches at the moment a replica restarts —
        just before the restarting consumer reads its
        :class:`~repro.sync.snapshot.SnapshotStore` — mirroring how
        :meth:`_crash` damages a provider's journal at crash time.
        Truncation and corruption are *detectable* damage (the
        restart's checksum verification discards the snapshot); a
        stale cookie is intact-but-aged damage the provider refuses,
        exercising the ladder's fall-through instead.
        """
        if self.plan is None:
            return
        truncate, corrupt, stale, position = self.plan.next_snapshot()
        if truncate:
            self._record("snapshot_truncate")
            store.damage_truncate(position)
        if corrupt:
            self._record("snapshot_corrupt")
            store.damage_corrupt(position)
        if stale:
            self._record("snapshot_stale")
            store.damage_stale_cookie()

    def deliver_batch(self, deliver: Callable, updates: List) -> int:
        """Apply persist-stream faults to one flushed batch — the only
        place persist notifications are damaged.

        Batch-boundary faults draw from the ``:b`` stream.  A dropped
        batch never reaches the wire (nothing charged, 0 delivered); a
        truncated batch delivers — and charges — a proper prefix,
        exactly as :class:`ResponseTruncated.partial` surfaces the
        delivered prefix of a cut poll response.  What gets through is
        then screened per PDU on the ``:n`` stream (drawn only when the
        spec enables it): a dropped notification leaves the frame
        before encoding, a duplicated one travels — and is charged —
        twice.  The delivering
        :class:`~repro.sync.delivery.DeliveryQueue` reports the
        delivered count back to the caller, and whatever was *not*
        delivered is simply gone — convergence then rides on the
        consumer's resilience ladder, as with every other transport
        fault.
        """
        if self.plan is None or not updates:
            return super().deliver_batch(deliver, updates)
        drop, truncate, keep_position = self.plan.next_batch()
        if drop:
            self._record("batch_drop")
            return 0
        if truncate and len(updates) > 1:
            keep = min(int(keep_position * len(updates)), len(updates) - 1)
            self._record("batch_truncate")
            updates = updates[:keep]
        spec = self.plan.spec
        if spec.notification_drop > 0.0 or spec.notification_duplicate > 0.0:
            carried = []
            for update in updates:
                lost, duplicate = self.plan.next_notification()
                if lost:
                    self._record("notification_drop")
                    continue
                carried.append(update)
                if duplicate:
                    self._record("notification_duplicate")
                    carried.append(update)
            updates = carried
        return super().deliver_batch(deliver, updates)

    # ------------------------------------------------------------------
    # fault construction helpers
    # ------------------------------------------------------------------
    def _invalidate_cookie(self, provider, control):
        """Expire the presented cookie: server-side when the provider
        supports it (the admin time limit firing), else by corrupting
        the cookie in flight.  Either way the provider answers with
        ``SyncProtocolError`` — the recovery ladder's entry."""
        self._record("cookie_invalidate")
        invalidate = getattr(provider, "invalidate_cookie", None)
        if invalidate is not None:
            invalidate(control.cookie)
            return control
        return replace(control, cookie="<invalidated>")

    @staticmethod
    def _truncated(response, keep_fraction: float):
        """A proper prefix of *response*, cookie stripped (it travels
        last, after the update stream)."""
        from ..sync.protocol import SyncResponse

        keep = min(
            int(keep_fraction * len(response.updates)),
            len(response.updates) - 1,
        )
        return SyncResponse(
            updates=list(response.updates[:keep]),
            cookie=None,
            initial=response.initial,
            uses_retain=response.uses_retain,
        )
