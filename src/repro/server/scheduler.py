"""Deterministic event-loop scheduler for the pipelined transport.

The transport refactor (docs/TRANSPORT.md) needs an event loop —
pipelined requests complete asynchronously, persist batches flush on
age timers, backpressured consumers acknowledge later — but asyncio
would destroy the property this repository is built on: **replayable
runs**.  `FaultyNetwork` seeds, crash windows and every Hypothesis
equivalence property assume that the same seed produces byte-identical
executions; an OS-clock-driven loop cannot promise that.

So the loop here is explicit:

* a **virtual clock** (`now`, in milliseconds) that only advances when
  the run loop pops an event — no sleeping, no wall-clock reads;
* an explicit **run queue** (a heap of scheduled callbacks) ordered by
  ``(due_ms, tie, seq)``;
* **seeded tie-breaking**: events scheduled for the same due time run
  in an order fixed by the scheduler's seed (each event draws its tie
  key from a seeded RNG at schedule time), with the monotonically
  increasing sequence number as the final total-order guarantee.

Determinism contract (regression-tested in
``tests/server/test_scheduler.py``): for a fixed seed and a fixed
sequence of ``call_later``/``call_soon``/``cancel`` calls, the
execution order, the virtual clock trajectory and the instrument
values are identical across runs and across processes.
"""

from __future__ import annotations

import heapq
import random
from typing import Callable, List, Optional

from ..obs.registry import MetricsRegistry

__all__ = ["ScheduledEvent", "DeterministicScheduler"]


class ScheduledEvent:
    """One pending callback; compare by ``(due_ms, tie, seq)``."""

    __slots__ = ("due_ms", "tie", "seq", "callback", "args", "cancelled")

    def __init__(self, due_ms: float, tie: float, seq: int, callback, args):
        self.due_ms = due_ms
        self.tie = tie
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def __lt__(self, other: "ScheduledEvent") -> bool:
        return (self.due_ms, self.tie, self.seq) < (
            other.due_ms,
            other.tie,
            other.seq,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<ScheduledEvent due={self.due_ms} seq={self.seq} {state}>"


class DeterministicScheduler:
    """Explicit run-queue + virtual clock with seeded tie-breaking.

    Args:
        seed: fixes the tie-break order of same-due-time events.
        registry: metrics registry for ``net.sched.*`` instruments
            (default: a private one).
    """

    def __init__(self, seed: int = 0, registry: Optional[MetricsRegistry] = None):
        self.seed = seed
        self.registry = registry if registry is not None else MetricsRegistry()
        self._heap: List[ScheduledEvent] = []
        self._seq = 0
        self._now = 0.0
        #: virtual time something occupies without an event of its own
        #: (:meth:`hold_until`); the run loop ends no earlier.
        self._held_until = 0.0
        self._rng = random.Random(f"sched:{seed}")
        self._events_run = self.registry.counter("net.sched.events")
        self._now_gauge = self.registry.gauge("net.sched.now_ms")

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """The virtual clock, in milliseconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Scheduled-and-not-cancelled events still in the queue."""
        return sum(1 for event in self._heap if not event.cancelled)

    @property
    def idle(self) -> bool:
        return self.pending == 0

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def call_later(
        self, delay_ms: float, callback: Callable, *args
    ) -> ScheduledEvent:
        """Schedule *callback(*args)* at ``now + delay_ms``."""
        if delay_ms < 0:
            raise ValueError(f"negative delay {delay_ms!r}")
        return self.call_at(self._now + delay_ms, callback, *args)

    def call_soon(self, callback: Callable, *args) -> ScheduledEvent:
        """Schedule *callback(*args)* at the current virtual time."""
        return self.call_later(0.0, callback, *args)

    def call_at(self, due_ms: float, callback: Callable, *args) -> ScheduledEvent:
        """Schedule *callback(*args)* at the absolute virtual time
        *due_ms* (clamped to now — the past runs immediately, like
        :meth:`run_next`'s no-backwards-clock rule).  The chaos
        :class:`~repro.chaos.FaultSchedule` arms its fault windows with
        this, so window boundaries land at exact virtual-clock stamps
        independent of when the schedule was armed."""
        event = ScheduledEvent(
            max(due_ms, self._now), self._rng.random(), self._seq, callback, args
        )
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    def hold_until(self, due_ms: float) -> None:
        """Occupy the clock until *due_ms* without scheduling an event:
        :meth:`run_until_idle` leaves the clock there at the earliest.
        A persist queue's consumer is busy applying a batch until a
        stamped time (:class:`~repro.sync.delivery.DeliveryQueue`); a
        settled network has waited it out, event or not."""
        if due_ms > self._held_until:
            self._held_until = due_ms

    def cancel(self, event: ScheduledEvent) -> None:
        """Cancel a scheduled event (no-op if it already ran)."""
        event.cancelled = True

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run_next(self) -> bool:
        """Pop and run the next due event; False when the queue is empty.

        The virtual clock jumps to the event's due time (it never runs
        backwards: events scheduled in the past run at the current
        time).
        """
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            if event.due_ms > self._now:
                self._now = event.due_ms
                self._now_gauge.set(self._now)
            self._events_run.inc()
            event.callback(*event.args)
            return True
        return False

    def run_until_idle(self, max_events: int = 1_000_000) -> int:
        """Run events (advancing the clock) until none remain, and no
        earlier than what :meth:`hold_until` holds.

        *max_events* is a runaway-loop backstop — a callback chain that
        keeps rescheduling itself forever raises instead of hanging.
        """
        ran = 0
        while self.run_next():
            ran += 1
            if ran >= max_events:
                raise RuntimeError(
                    f"scheduler did not go idle within {max_events} events"
                )
        if self._held_until > self._now:
            self._now = self._held_until
            self._now_gauge.set(self._now)
        return ran

    def run_for(self, duration_ms: float, max_events: int = 1_000_000) -> int:
        """Advance the clock by *duration_ms*, running every event due
        in the window; events due later stay queued."""
        deadline = self._now + duration_ms
        ran = 0
        while self._heap:
            head = self._heap[0]
            if head.cancelled:
                heapq.heappop(self._heap)
                continue
            if head.due_ms > deadline:
                break
            self.run_next()
            ran += 1
            if ran >= max_events:
                raise RuntimeError(
                    f"scheduler ran {max_events} events without draining the window"
                )
        if deadline > self._now:
            self._now = deadline
            self._now_gauge.set(self._now)
        return ran

    @property
    def events_run(self) -> int:
        return self._events_run.value
