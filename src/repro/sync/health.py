"""The link's attempt loop and health state machine (docs/FAULTS.md §4).

:class:`HealthMachine` decides *whether and how hard* one (replica,
provider) link (:class:`~repro.sync.resilient.SyncLink`) keeps asking:
it runs the one transport-attempt loop (:meth:`~HealthMachine.attempt`:
a round's polls, the persist subscription, both sketch-tier exchanges),
charges every :class:`~repro.server.network.TransportError` to one
lifetime budget, and walks an explicit machine on a bare clock ledger.

Where it stands is one variable (:attr:`HealthMachine.position`, a key
of :data:`POSITIONS`) plus the degraded-reads flag and one wake-up
deadline; every move is a row of ``HEALTH[(position, event)]``.  The
events are the four a round has — its **gate**, a **charged transport fault**,
**succeeded**, **failed** — the fault named by what its charge crossed:

* ``fault`` — nothing: back off and retry;
* ``trip`` — ``breaker_threshold`` consecutive faults with the breaker
  not already open: it opens for ``breaker_cooldown_ms``, then the gate
  lets one **half-open** probe through;
* ``last_trip`` — the ``quarantine_after``-th trip: **quarantined** —
  stood down at the provider, reads degraded, one re-probe per
  ``quarantine_probe_ms``; a successful re-probe clears the trips;
* ``spent`` — a lifetime budget (attempts, or backoff wait) ran out:
  ``gave_up``, terminally — no provider contact, no clock advance.

Cooldowns and quarantine waits pass on the virtual clock, uncharged;
nothing sleeps for real.  ``health_state``, ``breaker_state`` and the
``sync.health.*`` metrics are all derived from the position.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

from ..obs.registry import MetricsRegistry
from ..server.network import TransportError

__all__ = ["RetryPolicy", "HealthPolicy", "HealthMachine", "HEALTH", "HEALTH_STATES"]

#: The consumer health states, in escalation order; the
#: ``sync.health.state`` gauge carries the index.
HEALTH_STATES = ("healthy", "degraded", "quarantined", "recovering", "gave_up")

_BREAKER_STATES = ("closed", "open", "half_open")

#: position → (health state shown — None: ``healthy``/``degraded`` by
#: the flag, breaker state shown, policy field the gate waits out,
#: ``sync.health.probes`` origin when the position is a one-attempt probe)
POSITIONS = {
    "closed": (None, "closed", None, None),
    "open": (None, "open", "breaker_cooldown_ms", None),
    "half_open": ("recovering", "half_open", None, "breaker"),
    "quarantined": ("quarantined", "open", "quarantine_probe_ms", None),
    "reprobing": ("recovering", "open", None, "quarantine"),
    "gave_up": ("gave_up", "open", None, None),
}

#: ``(position, event) → next position``: every move the machine makes;
#: any other event leaves the position where it is (docs/FAULTS.md §4
#: renders the table, ``tools/check_docs.py`` compares the two).
HEALTH = {
    ("closed", "trip"): "open",
    ("closed", "last_trip"): "quarantined",
    ("closed", "spent"): "gave_up",
    ("open", "gate"): "half_open",
    ("half_open", "trip"): "open",
    ("half_open", "last_trip"): "quarantined",
    ("half_open", "spent"): "gave_up",
    ("half_open", "succeeded"): "closed",
    ("quarantined", "gate"): "reprobing",
    ("reprobing", "spent"): "gave_up",
    ("reprobing", "succeeded"): "closed",
    ("reprobing", "failed"): "quarantined",
}


@dataclass(frozen=True)
class RetryPolicy:
    """How hard one synchronization cycle tries before giving up.

    Attributes:
        max_attempts: transport failures tolerated per cycle.
        base_backoff_ms / max_backoff_ms: capped doubling backoff;
            failure *n* waits ``min(base * 2**n, max)`` milliseconds.
        jitter: fraction of the backoff randomized away (deterministic,
            from the consumer's seed): the wait is uniform in
            ``[backoff * (1 - jitter), backoff]``.
        timeout_ms: per-operation timeout — deliveries arriving later
            count as lost (None: wait forever).
        degraded_after: consecutive *failed cycles* (all attempts
            exhausted) before the consumer enters degraded mode.
        persist_refresh_interval: persist-mode cycles between
            subscription refreshes — a sketch audit of warm content,
            which bounds divergence from dropped notifications at
            O(delta) bytes (docs/RECOVERY.md, "Opening a
            subscription").
    """

    max_attempts: int = 8
    base_backoff_ms: float = 10.0
    max_backoff_ms: float = 2000.0
    jitter: float = 0.25
    timeout_ms: Optional[float] = None
    degraded_after: int = 3
    persist_refresh_interval: int = 8

    def backoff_ms(self, failure: int, rng: random.Random) -> float:
        """Backoff before retrying after the (zero-based) *failure*-th
        transport failure, jittered deterministically by *rng*."""
        base = min(
            self.base_backoff_ms * 2.0**failure,
            self.max_backoff_ms,
        )
        if self.jitter <= 0:
            return base
        return base * (1.0 - self.jitter * rng.random())


@dataclass(frozen=True)
class HealthPolicy:
    """Caps and thresholds for the consumer health state machine.

    Attributes:
        max_total_attempts: lifetime transport-attempt budget; spent
            attempts never replenish, and exhaustion lands the consumer
            terminally in ``gave_up``.
        max_total_backoff_ms: lifetime retry-wait budget on the virtual
            clock (backoff sleeps only — breaker cooldowns and
            quarantine parking are the *graceful* part and do not burn
            it); exhaustion also lands in ``gave_up``.
        breaker_threshold: consecutive transport faults that trip the
            circuit breaker open.
        breaker_cooldown_ms: virtual-clock wait while the breaker is
            open, before the single half-open probe.
        quarantine_after: breaker trips before the consumer is
            quarantined (parked at the provider's eq.-3 retain tier).
        quarantine_probe_ms: virtual-clock interval between quarantine
            re-probes.
    """

    max_total_attempts: int = 64
    max_total_backoff_ms: float = 600_000.0
    breaker_threshold: int = 5
    breaker_cooldown_ms: float = 5_000.0
    quarantine_after: int = 2
    quarantine_probe_ms: float = 30_000.0

    def __post_init__(self):
        if self.max_total_attempts < 1:
            raise ValueError("max_total_attempts must be >= 1")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if self.quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")


class HealthMachine:
    """The attempt loop and the ``HEALTH`` table of one (replica,
    provider) link, however many contents are synced over it.

    *clock* is the virtual-time ledger: anything with a writable
    ``elapsed_ms`` (and maybe a ``scheduler.now``) — the link's
    network, or a private one.  *name* labels the per-link
    ``sync.health.*`` metrics.
    """

    def __init__(
        self,
        policy: RetryPolicy,
        health: HealthPolicy,
        clock=None,
        registry: Optional[MetricsRegistry] = None,
        name: str = "consumer",
        seed: int = 0,
    ):
        self.policy = policy
        self.health = health
        self.clock = clock if clock is not None else SimpleNamespace(elapsed_ms=0.0)
        self._rng = random.Random(f"resilient:{seed}")
        self.position = "closed"
        self.degraded = False
        self._deadline = 0.0
        self.consecutive_faults = 0
        self.breaker_trips = 0
        self.attempts_spent = 0
        self.backoff_spent_ms = 0.0
        self.failed_cycles = 0

        registry = registry if registry is not None else MetricsRegistry()
        labels = {"consumer": name}
        self._retries = registry.counter("sync.resilient.retries")
        self._exhausted = registry.counter("sync.resilient.exhausted")
        self._backoff_total = registry.gauge("sync.resilient.backoff_ms")
        self._degraded_gauge = registry.gauge("sync.resilient.degraded")
        self._h_state = registry.gauge("sync.health.state").labels(**labels)
        self._h_breaker = registry.gauge("sync.health.breaker_state").labels(**labels)
        self._h_transitions = registry.counter("sync.health.transitions")
        self._h_trips = registry.counter("sync.health.breaker_trips")
        self._h_probes = registry.counter("sync.health.probes")
        #: the two fault events that stand the consumer down
        self._h_stood_down = {
            "last_trip": registry.counter("sync.health.quarantines"),
            "spent": registry.counter("sync.health.gave_up"),
        }
        self._h_attempts = registry.counter(
            "sync.health.attempts_spent"
        ).labels(**labels)
        self._h_budget_ms = registry.gauge(
            "sync.health.backoff_budget_ms"
        ).labels(**labels)

    # ------------------------------------------------------------------
    # what the position shows
    # ------------------------------------------------------------------
    @property
    def health_state(self) -> str:
        """The current health state (one of :data:`HEALTH_STATES`)."""
        shown = POSITIONS[self.position][0]
        return shown or ("degraded" if self.degraded else "healthy")

    @property
    def breaker_state(self) -> str:
        """Circuit breaker state: ``closed`` / ``open`` / ``half_open``."""
        return POSITIONS[self.position][1]

    @property
    def suspended(self) -> bool:
        """True when further retries this cycle are wasted provider work
        (breaker no longer closed, parked, or out of budget)."""
        return self.position != "closed"

    def attempt_cap(self) -> int:
        """Transport attempts this cycle may spend: one for a probe,
        the policy's cap otherwise, never more than the remaining
        lifetime budget."""
        probing = POSITIONS[self.position][3]
        cap = 1 if probing else self.policy.max_attempts
        remaining = self.health.max_total_attempts - self.attempts_spent
        return max(0, min(cap, remaining))

    def _now_ms(self) -> float:
        """Monotone virtual time: the ledger's accumulated simulated
        latency plus its scheduler's event-loop time, if it has one."""
        scheduler = getattr(self.clock, "scheduler", None)
        return self.clock.elapsed_ms + (scheduler.now if scheduler else 0.0)

    # ------------------------------------------------------------------
    # the attempt loop
    # ------------------------------------------------------------------
    def attempt(self, exchange, cap: int, charge_last: bool = True, failures: int = 0):
        """Run *exchange* until it returns or *cap* failures are reached
        (*failures* of them already spent).

        Each :class:`TransportError` is one failure and is charged
        (:meth:`fault`: backoff, lifetime budget, breaker), after which
        the machine may suspend retries.  The sketch tier leaves its
        cap-th failure uncharged: it falls back to the rebuild at once,
        with no retry to back off for.  Returns ``(result, failures)``,
        the result None when the loop gave out; protocol errors
        propagate.
        """
        while failures < cap:
            try:
                return exchange(), failures
            except TransportError as exc:
                failures += 1
                if failures < cap or charge_last:
                    self.fault(exc, failures - 1)
                    if self.suspended:
                        break
        return None, failures

    # ------------------------------------------------------------------
    # the four events
    # ------------------------------------------------------------------
    def gate(self) -> bool:
        """Cycle gate: may this cycle contact the provider?  ``gave_up``
        blocks forever (and advances nothing); an open breaker or a
        quarantine window is slept out, then the cycle proceeds as a
        single-attempt probe."""
        self._move("gate")
        return self.position != "gave_up"

    def fault(self, exc: TransportError, failure: int) -> None:
        """Charge one transport fault — count it, wait out its backoff,
        debit the lifetime budget — and move by what the charge
        crossed."""
        self._retries.inc()
        self._retries.labels(kind=exc.fault).inc()
        delay = self.policy.backoff_ms(failure, self._rng)
        self._backoff_total.inc(delay)
        self.clock.elapsed_ms += delay
        self.attempts_spent += 1
        self._h_attempts.inc()
        self.backoff_spent_ms += delay
        self._h_budget_ms.set(self.backoff_spent_ms)
        self.consecutive_faults += 1
        health = self.health
        if (
            self.attempts_spent >= health.max_total_attempts
            or self.backoff_spent_ms >= health.max_total_backoff_ms
        ):
            event = "spent"
        elif (
            self.breaker_state == "open"
            or self.consecutive_faults < health.breaker_threshold
        ):
            event = "fault"
        else:
            self.breaker_trips += 1
            self._h_trips.inc()
            parked = self.breaker_trips >= health.quarantine_after
            event = "last_trip" if parked else "trip"
        # Parked or retired, the content is stale by definition and must
        # never be served as fresh — and it stops costing the provider.
        stood_down = self._h_stood_down.get(event)
        self._move(event, degraded=True if stood_down is not None else None)
        if stood_down is not None:
            stood_down.inc()
            self._stand_down()

    def succeeded(self) -> None:
        """The cycle applied a response: a clean slate — and, out of
        quarantine, a fresh start for the trip history that parked us."""
        self.failed_cycles = 0
        self.consecutive_faults = 0
        if self.position == "reprobing":
            self.breaker_trips = 0
        self._move("succeeded", degraded=False)

    def failed(self) -> None:
        """Every attempt of the cycle failed; ``degraded_after`` such
        cycles in a row degrade the reads."""
        self._exhausted.inc()
        self.failed_cycles += 1
        late = self.failed_cycles >= self.policy.degraded_after
        self._move("failed", degraded=late or None)

    def _stand_down(self) -> None:
        """Hook, on ``quarantined``/``gave_up``: stop costing the provider."""

    def _move(self, event: str, degraded: Optional[bool] = None) -> None:
        """Apply *event*: look the next position up, sleep out the
        deadline on the way into a probe or set one on the way into a
        wait, flip the degraded flag when told to, publish the rest."""
        origin = self.position
        target = HEALTH.get((origin, event), origin)
        if target == origin and degraded in (None, self.degraded):
            return  # the healthy round's gate and verdict: nothing to publish
        shown = (self.health_state, self.breaker_state)
        self.position = target
        if target != origin:
            _, _, wait, probe = POSITIONS[self.position]
            if probe is not None:
                self.clock.elapsed_ms += max(0.0, self._deadline - self._now_ms())
                self._h_probes.inc()
                self._h_probes.labels(origin=probe).inc()
            if wait is not None:
                self._deadline = self._now_ms() + getattr(self.health, wait)
        if degraded is not None and degraded != self.degraded:
            self.degraded = degraded
            self._degraded_gauge.set(int(degraded))
        health_state, breaker_state = self.health_state, self.breaker_state
        if breaker_state != shown[1]:
            self._h_breaker.set(_BREAKER_STATES.index(breaker_state))
        if health_state != shown[0]:
            self._h_state.set(HEALTH_STATES.index(health_state))
            self._h_transitions.inc()
            self._h_transitions.labels(to=health_state).inc()
