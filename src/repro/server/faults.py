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

What each fault kind does, which seed stream draws it and which
exchange it reaches is :data:`FAULTS` below, rendered as docs/FAULTS.md
§2–§3 (``tools/check_docs.py`` holds the two together).  The
consumer→provider exchanges all run :meth:`FaultyNetwork._exchange`;
persist-mode notifications pass :meth:`FaultyNetwork.deliver_batch`;
journal and snapshot damage land at crash and replica-restart time.
Partitions and slow nodes are windows, not draws: the chaos schedule
opens them with :meth:`FaultyNetwork.partition` / ``set_slow`` and
closes them with ``heal_partition`` / ``clear_slow``, plan or none.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..obs.registry import MetricsRegistry
from .network import (
    EXCHANGES,
    Delivery,
    NetworkPartitioned,
    RequestDropped,
    ResponseDropped,
    ResponseTruncated,
    ServerUnavailable,
    SimulatedNetwork,
)

__all__ = ["FAULTS", "FaultSpec", "FaultPlan", "ExchangeFaults", "FaultyNetwork"]

_EVERY = tuple(EXCHANGES)

#: Fault kind → (the seed stream that draws it, where it applies): the
#: exchange kinds of :data:`~repro.server.network.EXCHANGES` it reaches,
#: or — off the exchange path — ``batch`` (a flushed persist batch),
#: ``journal`` (a journaled provider's crash) or ``snapshot`` (a replica
#: restart).  The one list of kinds: a :class:`FaultSpec` probability
#: each, the cells :meth:`FaultyNetwork._exchange` consults, the streams
#: a :class:`FaultPlan` counts.  An empty cell is a decision drawn and
#: not applied; filling one shifts no stream but moves every seeded
#: baseline that reaches it.
FAULTS = {
    "crash": ("x", _EVERY),
    "cookie_invalidate": ("x", ("poll", "subscribe")),
    "drop_request": ("x", _EVERY),
    "drop_response": ("x", _EVERY),
    "truncate": ("x", ("poll", "subscribe", "fetch")),
    "delay": ("x", ("poll", "sketch", "fetch")),
    "duplicate": ("x", ("poll", "fetch")),
    "sketch_corrupt": ("r", ("sketch",)),
    "batch_drop": ("b", ("batch",)),
    "batch_truncate": ("b", ("batch",)),
    "notification_drop": ("n", ("batch",)),
    "notification_duplicate": ("n", ("batch",)),
    "journal_truncate": ("j", ("journal",)),
    "journal_corrupt": ("j", ("journal",)),
    "snapshot_truncate": ("s", ("snapshot",)),
    "snapshot_corrupt": ("s", ("snapshot",)),
    "snapshot_stale": ("s", ("snapshot",)),
}

#: Seed stream → the kinds it draws (:data:`FAULTS`, regrouped).
STREAMS: Dict[str, Tuple[str, ...]] = {}
for _kind, (_stream, _) in FAULTS.items():
    STREAMS[_stream] = STREAMS.get(_stream, ()) + (_kind,)


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

    def __post_init__(self):
        for name in FAULTS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value!r}")
        if self.crash_length < 1:
            raise ValueError("crash_length must be >= 1")

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


class FaultPlan:
    """A seeded, replayable schedule of fault decisions.

    Decision *i* of stream *s* is drawn from ``Random(f"{seed}:{s}{i}")``
    — fully deterministic, independent of how many prior decisions were
    made by other code paths, and independent between streams: a run
    that never reaches a stream's draw site leaves every other stream's
    schedule byte-identical.  :attr:`drawn` counts the decisions made
    per stream.
    """

    def __init__(self, spec: FaultSpec, seed: int = 0):
        self.spec = spec
        self.seed = seed
        self.drawn: Dict[str, int] = dict.fromkeys(STREAMS, 0)

    def _rng(self, stream: str) -> random.Random:
        """The generator of *stream*'s next decision."""
        index = self.drawn[stream]
        self.drawn[stream] = index + 1
        return random.Random(f"{self.seed}:{stream}{index}")

    def enables(self, stream: str) -> bool:
        """True when the spec turns on any fault *stream* draws.  The
        ``:n`` stream is drawn only then, so a plan without it stays at
        decision 0 there."""
        return any(getattr(self.spec, kind) > 0.0 for kind in STREAMS[stream])

    def next_exchange(self) -> ExchangeFaults:
        """Fault decisions for the next consumer→provider exchange."""
        rng = self._rng("x")
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
        inside a delivered persist batch."""
        rng = self._rng("n")
        return (
            rng.random() < self.spec.notification_drop,
            rng.random() < self.spec.notification_duplicate,
        )

    def next_batch(self) -> Tuple[bool, bool, float]:
        """(drop, truncate, keep position) decisions for the next
        flushed persist batch."""
        rng = self._rng("b")
        return (
            rng.random() < self.spec.batch_drop,
            rng.random() < self.spec.batch_truncate,
            rng.random(),
        )

    def next_journal(self) -> Tuple[bool, bool, float]:
        """(truncate, corrupt, position) decisions for the next crash of
        a journaled provider."""
        rng = self._rng("j")
        return (
            rng.random() < self.spec.journal_truncate,
            rng.random() < self.spec.journal_corrupt,
            rng.random(),
        )

    def next_reconcile(self) -> Tuple[bool, float]:
        """(corrupt, cell position) decisions for the next served
        sketch."""
        rng = self._rng("r")
        return (rng.random() < self.spec.sketch_corrupt, rng.random())

    def next_snapshot(self) -> Tuple[bool, bool, bool, float]:
        """(truncate, corrupt, stale, position) decisions for the next
        replica restart that reads a content snapshot."""
        rng = self._rng("s")
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
        # server keys cut until heal_partition().
        self._partitioned: Set[str] = set()
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
        """Crash the provider's server: lose in-memory session state,
        drop its connections, open a restart window.  The plan's
        ``crash`` decision lands here; tests and benches call it to
        place a crash explicitly.  Persist consumers see it through
        :attr:`crash_epoch` and their dropped connections; pollers hit
        the restart window."""
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

    def _refuse(self, key: str, kind: str, error) -> None:
        """Refuse one attempt with *error*.  The attempt still costs a
        round trip: the client sent a request and waited out its
        timeout."""
        self.charge_round_trip()
        self._record(kind)
        raise error(f"server {key}: {kind}")

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
        self._partitioned.add(key)
        self.disconnect_server(key)

    def heal_partition(self, provider=None) -> None:
        """End the partition for *provider* (every partition when
        ``None``); queued traffic flows again on the next exchange."""
        if provider is None:
            self._partitioned.clear()
        else:
            self._partitioned.discard(self._server_key(provider))

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
        """Restart window, partition and slow-node handling for one
        exchange attempt.

        Refuses the attempt inside the server's restart window
        (:class:`ServerUnavailable`) or while a partition window is open
        (:class:`NetworkPartitioned`); returns the added latency an open
        slow window makes the exchange carry.
        """
        key = self._server_key(provider)
        remaining = self._down_for.get(key, 0)
        if remaining:
            # The attempt spends one exchange of the window.
            if remaining == 1:
                del self._down_for[key]
            else:
                self._down_for[key] = remaining - 1
            self._refuse(key, "unavailable", ServerUnavailable)
        if key in self._partitioned:
            self._refuse(key, "partition", NetworkPartitioned)
        extra_ms = self._slow.get(key, 0.0)
        if extra_ms > 0:
            self._record("slow")
            self._fault_delay_ms.inc(extra_ms)
            self.elapsed_ms += extra_ms
        return extra_ms

    # ------------------------------------------------------------------
    # the exchange pipeline
    # ------------------------------------------------------------------
    def _exchange(self, kind: str, provider, request, payload, deliver=None):
        """One consumer→provider exchange of *kind* under the plan.

        The base network's charge-and-serve step between a *before*
        stage — crash, restart window, reachability, cookie
        invalidation, lost request — and an *after* stage — lost or cut
        response, damaged sketch, delay, duplication.  Every ``:x``
        decision is drawn whatever *kind* is (so the stream never
        shifts) and applied only where :data:`FAULTS` fills the cell.
        """
        faults = self.plan.next_exchange() if self.plan is not None else ExchangeFaults()

        def struck(fault: str) -> bool:
            """*fault* was drawn and reaches this exchange — counted."""
            if not getattr(faults, fault) or kind not in FAULTS[fault][1]:
                return False
            self._record(fault)
            return True

        if faults.crash and kind in FAULTS["crash"][1]:
            self.crash(provider)  # counts itself, as when placed by hand
        extra_ms = self._check_reachable(provider)
        presented = self._presented_cookie(payload, faults.truncate_keep)
        if presented is not None and struck("cookie_invalidate"):
            index, cookie = presented
            cookie = self._invalidate_cookie(provider, cookie)
            payload = replace(payload, cookie=cookie) if index is None else payload.with_cookie(index, cookie)
        if struck("drop_request"):
            self.charge_round_trip()
            raise RequestDropped(f"{kind} request lost in flight")

        deliveries, handle = super()._exchange(kind, provider, request, payload, deliver)
        response = deliveries[0].response

        dropped = struck("drop_response")
        # A cut needs a stream to cut; an opening subscription's initial
        # content counts as one even when empty.
        cuttable = handle is not None or getattr(response, "updates", None)
        cut = not dropped and cuttable and struck("truncate")
        if (dropped or cut) and handle is not None:
            # The subscription opened server-side but the client never
            # saw the initial content: it resets the connection, ending
            # the half-open session (no leak).
            handle.abandon()
        if dropped:
            raise ResponseDropped(f"{kind} response lost in flight")
        if cut:
            raise ResponseTruncated(
                f"{kind} response cut mid-delivery",
                partial=response.cut(faults.truncate_keep),
            )

        if self.plan is not None and kind in FAULTS["sketch_corrupt"][1]:
            corrupt, position = self.plan.next_reconcile()
            if corrupt:
                # In-flight sketch damage: the consumer's verified
                # decode detects it (checksummed peel + zero-residue
                # rule) and doubles or falls back — never applies
                # garbage.
                from ..sync.reconcile import corrupt_cell

                self._record("sketch_corrupt")
                corrupt_cell(response.sketch, position)

        delay_ms = extra_ms
        if faults.delay_ms > 0 and kind in FAULTS["delay"][1]:
            self._record("delay")
            self._fault_delay_ms.inc(faults.delay_ms)
            delay_ms += faults.delay_ms
        deliveries[0].delay_ms = delay_ms
        if struck("duplicate"):
            deliveries.append(Delivery(response, delay_ms=delay_ms, duplicate=True))
        return deliveries, handle

    def damage_snapshot(self, store) -> None:
        """Apply the plan's snapshot-damage decisions to *store*.

        Called by tests and benches at the moment a replica restarts —
        just before the restarting consumer reads its
        :class:`~repro.sync.snapshot.SnapshotStore` — mirroring how
        :meth:`crash` damages a provider's journal at crash time.
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
        if self.plan.enables("n"):
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
    @staticmethod
    def _presented_cookie(payload, position: float) -> Optional[Tuple[Optional[int], str]]:
        """The cookie a ``cookie_invalidate`` fault expires, as
        ``(index, cookie)``, or None when the request presents none: the
        payload's own cookie (index None) or — a multiplexed poll — the
        one at *position* among the cookies it carries, so one session
        of the N is refused (docs/FAULTS.md §3)."""
        cookies = getattr(payload, "cookies", None)
        if cookies is None:
            return None if payload.cookie is None else (None, payload.cookie)
        held = [i for i, cookie in enumerate(cookies) if cookie is not None]
        if not held:
            return None
        index = held[min(int(position * len(held)), len(held) - 1)]
        return index, cookies[index]

    def _invalidate_cookie(self, provider, cookie: str) -> str:
        """Expire *cookie*: server-side when the provider supports it
        (the admin time limit firing), else by corrupting it in flight.
        Returns the cookie to present; either way the provider answers
        it with ``SyncProtocolError`` — the recovery ladder's entry."""
        invalidate = getattr(provider, "invalidate_cookie", None)
        if invalidate is None:
            return "<invalidated>"
        invalidate(cookie)
        return cookie
