"""Per-session batching of persist-mode notifications.

Delivering every persist notification inline with the master update —
one callback, one charge, one consumer apply per update per session —
is what §5.2 worries about: at thousands of live persist sessions that
per-notification overhead dominates.  The network's persist transport
(docs/TRANSPORT.md) instead hands each session's deliveries to a
:class:`DeliveryQueue` that:

* **batches** — notifications accumulate and flush as one batch,
  charged its BER frame's length, computed without building the frame
  (:func:`repro.ldap.ber.encoded_sync_batch_size`), when the batch reaches
  ``max_batch`` PDUs or the oldest pending PDU reaches ``max_age_ms``
  on the scheduler's virtual clock (the delivery-latency bound);
* **applies backpressure** — a consumer that is still applying the
  previous batch (``consumer_delay_ms`` of virtual time, stamped as the
  time it is busy until, not scheduled as an event) defers the next
  flush instead of overrunning it: a flush attempted before that time
  schedules the one retry, at that time;
* **bounds memory under backpressure** — when a deferred queue grows
  past ``high_water`` pending PDUs it *degrades to coalesced-retain*:
  the exact notification sequence is folded into one net update per DN
  (eq. 3's "keep only the net effect" idea), so a slow consumer's queue
  is bounded by its content size, never by the update rate.  Every
  action is an idempotent state-setter and delete-of-absent is a no-op
  at the consumer, so the net-effect stream converges to the same
  content as the full sequence (property-tested in
  ``tests/sync/test_transport_equivalence.py``).

Below the high-water mark the queue preserves the exact per-update
sequence, so the delivered stream is byte-identical to what an
in-process ``provider.persist`` callback receives (the reference of
that test module).

Faults apply where the queue meets the wire: it delivers through
:meth:`repro.server.network.SimulatedNetwork.deliver_batch`, which
`FaultyNetwork` overrides with its independent ``:b`` (whole-batch
drop, prefix truncation) and ``:n`` (per-PDU drop, duplication)
decision streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..ldap.dn import DN
from .protocol import SyncUpdate

__all__ = ["BatchConfig", "DeliveryQueue"]


@dataclass(frozen=True)
class BatchConfig:
    """Batching/backpressure knobs of one network's persist queues.

    Attributes:
        max_batch: flush when this many PDUs are pending (size bound).
        max_age_ms: flush no later than this after the oldest pending
            PDU was offered (the per-update delivery-latency bound, on
            the virtual clock).
        high_water: pending PDUs at which a (backpressured) queue
            degrades to per-DN coalesced-retain instead of growing.
    """

    max_batch: int = 64
    max_age_ms: float = 5.0
    high_water: int = 256

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_age_ms < 0:
            raise ValueError("max_age_ms must be >= 0")
        if self.high_water < self.max_batch:
            raise ValueError("high_water must be >= max_batch")


class DeliveryQueue:
    """Batches one persist session's notifications (docs/TRANSPORT.md §3).

    Passed to ``provider.persist`` in place of a per-update deliver
    callback; ``Session.flush`` detects :meth:`offer_many` and hands
    whole queued runs over in one call.
    """

    def __init__(
        self,
        deliver: Callable[[SyncUpdate], None],
        network,
        scheduler,
        config: Optional[BatchConfig] = None,
        session_id: Optional[str] = None,
    ):
        self._deliver = deliver
        self._network = network
        self._scheduler = scheduler
        self.config = config if config is not None else BatchConfig()
        # BatchConfig is frozen; bind the bounds once for the offer hot
        # path (one provider flush per master update per session).
        self._max_batch = self.config.max_batch
        self._max_age_ms = self.config.max_age_ms
        self._high_water = self.config.high_water
        self.session_id = session_id
        #: Exact notification sequence (update, offered_at_ms) — the
        #: byte-identical tier.
        self._pending: List[Tuple[SyncUpdate, float]] = []
        #: Net effect per DN (update, earliest offered_at_ms) — the
        #: degraded coalesced-retain tier.
        self._coalesced: Dict[DN, Tuple[SyncUpdate, float]] = {}
        self._degraded = False
        self._timer = None
        #: The consumer applies the last batch until this virtual time;
        #: a flush attempted before it arms the one ``_retry`` there.
        self._busy_until = 0.0
        self._retry = None
        self._closed = False
        #: Simulated per-batch consumer apply time; >0 exercises the
        #: backpressure path (set by benches/tests per session).
        self.consumer_delay_ms = 0.0
        #: Virtual delivery latencies (flush - offer) of every PDU this
        #: queue delivered, for bench percentile exports.
        self.latencies: List[float] = []
        self.on_close: Optional[Callable[["DeliveryQueue"], None]] = None
        registry = network.registry
        self._offered = registry.counter("sync.batch.offered")
        self._flushes = registry.counter("sync.batch.flushes")
        self._delivered = registry.counter("sync.batch.delivered")
        self._coalesced_away = registry.counter("sync.batch.coalesced")
        self._degradations = registry.counter("sync.batch.degraded")
        self._deferred = registry.counter("sync.batch.deferred")
        self._depth_gauge = registry.gauge("sync.batch.queue_depth")
        self._latency_hist = registry.histogram("sync.batch.latency_ms")

    # ------------------------------------------------------------------
    # offering (the provider side)
    # ------------------------------------------------------------------
    def offer_many(self, updates: List[SyncUpdate]) -> None:
        """Queue a run of notifications (one provider flush) at once.

        The provider-side hot path at high session counts: one call per
        fan-out flush, bulk counter updates, and a tight per-DN merge
        loop once degraded.
        """
        if self._closed or not updates:
            return
        self._offered.inc(len(updates))
        now = self._scheduler.now
        if not self._degraded:
            pending = self._pending
            pending.extend((update, now) for update in updates)
            if len(pending) > self._high_water:
                self._degrade()
            depth = len(self._coalesced) if self._degraded else len(pending)
        else:
            merged = self._coalesced
            away = 0
            for update in updates:
                dn = update.dn
                existing = merged.get(dn)
                if existing is not None:
                    away += 1
                    merged[dn] = (update, existing[1])
                else:
                    merged[dn] = (update, now)
            if away:
                self._coalesced_away.inc(away)
            depth = len(merged)
        if depth > self._depth_gauge.value:
            self._depth_gauge.set(depth)
        if depth >= self._max_batch:
            self.flush()
        else:
            self._arm_timer(now)

    @property
    def pending_count(self) -> int:
        return len(self._coalesced) if self._degraded else len(self._pending)

    @property
    def degraded(self) -> bool:
        return self._degraded

    @property
    def busy(self) -> bool:
        """True while the consumer is still applying the last batch."""
        return self._scheduler.now < self._busy_until

    # ------------------------------------------------------------------
    # coalesced-retain degradation
    # ------------------------------------------------------------------
    def _degrade(self) -> None:
        self._degradations.inc()
        self._degraded = True
        pending, self._pending = self._pending, []
        for update, offered_at in pending:
            existing = self._coalesced.get(update.dn)
            if existing is not None:
                self._coalesced_away.inc()
                self._coalesced[update.dn] = (update, existing[1])
            else:
                self._coalesced[update.dn] = (update, offered_at)

    # ------------------------------------------------------------------
    # flushing (the wire side)
    # ------------------------------------------------------------------
    def _arm_timer(self, first_offer_ms: float) -> None:
        if self._timer is not None or self.pending_count == 0:
            return
        self._timer = self._scheduler.call_later(
            self._max_age_ms, self._on_timer
        )

    def _on_timer(self) -> None:
        self._timer = None
        self.flush()

    def flush(self) -> int:
        """Deliver everything pending as one batch; returns PDUs
        delivered (0 when empty, backpressured, or dropped in flight).
        """
        if self._closed or self.pending_count == 0:
            return 0
        if self.busy:
            # Backpressure: the consumer is still applying the previous
            # batch.  Leave the data queued (degrading bounds it); the
            # one retry runs when the consumer is done.
            self._deferred.inc()
            if self._retry is None:
                self._retry = self._scheduler.call_at(self._busy_until, self._on_ready)
            return 0
        if self._timer is not None:
            self._scheduler.cancel(self._timer)
            self._timer = None
        if self._degraded:
            items = list(self._coalesced.values())
            self._coalesced.clear()
            self._degraded = False
        else:
            items, self._pending = self._pending, []
        batch = [update for update, _ in items]
        self._flushes.inc()
        delivered = self._network.deliver_batch(self._deliver, batch)
        self._delivered.inc(delivered)
        now = self._scheduler.now
        for update, offered_at in items[:delivered]:
            latency = now - offered_at
            self._latency_hist.observe(latency)
            self.latencies.append(latency)
        if self.consumer_delay_ms > 0:
            self._busy_until = now + self.consumer_delay_ms
            self._scheduler.hold_until(self._busy_until)
        # Offers made reentrantly by the deliver callbacks stay queued;
        # re-arm so they flush by the age bound at the latest.
        if self.pending_count >= self._max_batch and not self.busy:
            self._scheduler.call_soon(self.flush)
        elif self.pending_count:
            self._arm_timer(now)
        return delivered

    def _on_ready(self) -> None:
        """The consumer is done with the last batch and a flush was
        held back meanwhile: send what is due."""
        self._retry = None
        if self._closed:
            return
        if self.pending_count >= self._max_batch:
            self.flush()
        elif self.pending_count:
            self._arm_timer(self._scheduler.now)

    def close(self) -> None:
        """End of subscription: discard pending, cancel the timer."""
        if self._closed:
            return
        self._closed = True
        for event in (self._timer, self._retry):
            if event is not None:
                self._scheduler.cancel(event)
        self._timer = self._retry = None
        self._pending.clear()
        self._coalesced.clear()
        self._degraded = False
        if self.on_close is not None:
            self.on_close(self)
