"""Fault-tolerant ReSync consumption: retries, backoff, degraded reads.

:class:`SyncedContent` applies responses; :class:`ResilientConsumer`
decides *when and how to keep asking* on a network that drops,
duplicates, delays and truncates messages and whose servers crash
(:mod:`repro.server.faults`).  The division of labour:

* transport faults (:class:`~repro.server.network.TransportError`) are
  transient — retry with capped exponential backoff and deterministic
  jitter, never touching local content;
* a consumer built with a :class:`~repro.sync.snapshot.SnapshotStore`
  **warm-starts**: on construction it restores the last verified
  point-in-time dump (content + cookie) through a staged
  :class:`~repro.sync.snapshot.SnapshotRecoverer`, so the first poll
  after a replica restart costs O(delta) instead of the O(content)
  cold rebuild — the recovery ladder's first rung (docs/RECOVERY.md);
  a corrupt or torn snapshot is detected, discarded and never applied;
* protocol errors (:class:`~repro.sync.protocol.SyncProtocolError` —
  expired, unknown or too-old cookies) mean the session is gone — the
  consumer climbs the **recovery ladder** (docs/RECOVERY.md): a cookie
  stamped ``:h`` (the session went through a history overflow, so the
  divergence is real but typically small) — or a just-restored
  snapshot cookie the provider refused (divergence bounded by the
  snapshot's age) — first tries sketch-based anti-entropy
  reconciliation (:mod:`repro.sync.reconcile`, O(delta) traffic); a
  plain cookie — the provider simply restarted or expired the session,
  with the replica still a faithful prefix — and any failed
  reconciliation fall back to the paper's §5 recovery path: a full
  reload with a null cookie (poll mode) or a fresh subscription
  (persist mode);
* duplicated deliveries are re-applied; every ReSync action is an
  idempotent state-setter, so over-delivery is harmless;
* when every attempt of a cycle fails, the consumer (and optionally the
  :class:`~repro.server.directory.DirectoryServer` serving this
  replica's clients) enters **degraded** mode: reads keep answering
  from the last synchronized content, stamped
  ``SearchResult.degraded=True`` — availability over freshness.  The
  first successful cycle exits degraded mode.

Persist mode additionally bounds divergence from undetectable
notification loss: the subscription is refreshed — torn down and
re-opened with a null cookie, replacing the whole content — every
``persist_refresh_interval`` cycles, and immediately when the consumer
detects its connection died with a crashed server incarnation
(``network.crash_epoch``).

All pacing is simulated: backoff accumulates into the network's
``net.latency.elapsed_ms`` clock, no real sleeping.  Retry traffic is
recorded under ``sync.resilient.*`` metrics (docs/OBSERVABILITY.md §2)
next to the network's ``net.fault.*`` counters, so benches can report
convergence cost against fault rates
(``benchmarks/bench_fault_convergence.py``).

**Health state machine** (:class:`HealthPolicy`, docs/FAULTS.md §4):
retrying is bounded.  Every transport fault — in the poll loop, the
persist subscription or the sketch tier — is charged to one lifetime
budget, and the consumer walks an explicit machine::

    healthy → degraded → quarantined → recovering → gave_up

* a **capped total retry budget** (attempts and virtual wall-clock):
  once either cap is spent the consumer lands terminally in
  ``gave_up`` — zero further provider attempts, zero busy-looping;
* a **circuit breaker** trips open after ``breaker_threshold``
  consecutive transport faults; while open the consumer sleeps out the
  cooldown on the virtual clock, then probes **half-open** with a
  single attempt (state ``recovering``) before resuming full service;
* after ``quarantine_after`` breaker trips the consumer is
  **quarantined**: its persist subscription is torn down, its poll
  session is parked at the provider's eq.-3 retain tier
  (:meth:`~repro.sync.resync.ResyncProvider.park_session`) so the
  provider stops accumulating history for it, and it re-probes only on
  ``quarantine_probe_ms`` intervals instead of hammering the provider.

Every transition lands on ``sync.health.*`` metrics (per-consumer
labels), rolled up fleet-wide by ``repro-ldap soak`` and the chaos
:class:`~repro.chaos.SoakRunner`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..ldap.controls import ReSyncControl, SyncMode
from ..ldap.query import SearchRequest
from ..obs.registry import MetricsRegistry
from ..server.directory import DirectoryServer
from ..server.network import (
    Delivery,
    ResponseTruncated,
    SimulatedNetwork,
    TransportError,
)
from .consumer import SyncedContent
from .protocol import (
    ReconcileFetch,
    ReconcileRequest,
    SyncProtocolError,
    SyncResponse,
)
from .reconcile import (
    ReconcileConfig,
    build_sketch,
    entry_fingerprint,
    entry_key,
)
from .snapshot import SnapshotRecoverer, SnapshotStore

__all__ = ["RetryPolicy", "HealthPolicy", "ResilientConsumer", "HEALTH_STATES"]

#: The consumer health states, in escalation order; the
#: ``sync.health.state`` gauge carries the index.
HEALTH_STATES = ("healthy", "degraded", "quarantined", "recovering", "gave_up")

_BREAKER_STATES = ("closed", "open", "half_open")


@dataclass(frozen=True)
class RetryPolicy:
    """How hard one synchronization cycle tries before giving up.

    Attributes:
        max_attempts: transport failures tolerated per cycle.
        base_backoff_ms / backoff_factor / max_backoff_ms: capped
            exponential backoff; failure *n* waits
            ``min(base * factor**n, max)`` milliseconds.
        jitter: fraction of the backoff randomized away (deterministic,
            from the consumer's seed): the wait is uniform in
            ``[backoff * (1 - jitter), backoff]``.
        timeout_ms: per-operation timeout — deliveries arriving later
            count as lost (None: wait forever).
        degraded_after: consecutive *failed cycles* (all attempts
            exhausted) before the consumer enters degraded mode.
        persist_refresh_interval: persist-mode cycles between full
            subscription refreshes (bounds divergence from dropped
            notifications).
    """

    max_attempts: int = 8
    base_backoff_ms: float = 10.0
    backoff_factor: float = 2.0
    max_backoff_ms: float = 2000.0
    jitter: float = 0.25
    timeout_ms: Optional[float] = None
    degraded_after: int = 3
    persist_refresh_interval: int = 8

    def backoff_ms(self, failure: int, rng: random.Random) -> float:
        """Backoff before retrying after the (zero-based) *failure*-th
        transport failure, jittered deterministically by *rng*."""
        base = min(
            self.base_backoff_ms * self.backoff_factor**failure,
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


class ResilientConsumer:
    """A replica-side sync driver that survives an unreliable network.

    Args:
        request: the replicated search request (the unit of replication).
        provider: the master-side provider (any ``handle``-speaking
            provider; persist mode additionally needs ``persist``).
        network: network joining consumer and master; faults are
            injected here (:class:`repro.server.faults.FaultyNetwork`).
        policy: retry/backoff/timeout policy.
        seed: seeds the deterministic backoff jitter.
        replica_server: optional :class:`DirectoryServer` serving this
            replica's clients; flipped into degraded stale-read mode
            while the master is unreachable.
        mode: ``"poll"`` (cookie sessions) or ``"persist"`` (an open
            connection carrying change notifications).
        reconcile_config: sizing policy for the sketch-reconciliation
            recovery tier (docs/RECOVERY.md).
        snapshot_store: optional :class:`SnapshotStore` — when given,
            the consumer warm-starts from it on construction (the
            ladder's first rung) and re-dumps its content every
            *snapshot_interval* successful cycles; None disables the
            tier (a restarted replica boots empty, the pre-snapshot
            behavior).
        snapshot_interval: successful cycles between snapshot saves.
        health: the :class:`HealthPolicy` of the health state machine
            (budgeted retries, circuit breaker, quarantine); a caller
            whose schedule needs more retries than the default budget
            passes one sized to it.
        name: fleet identity for per-consumer ``sync.health.*`` metric
            labels and status rollups (default: ``consumer-<seed>``).
    """

    def __init__(
        self,
        request: SearchRequest,
        provider,
        network: Optional[SimulatedNetwork] = None,
        policy: Optional[RetryPolicy] = None,
        seed: int = 0,
        replica_server: Optional[DirectoryServer] = None,
        mode: str = "poll",
        reconcile_config: ReconcileConfig = ReconcileConfig(),
        snapshot_store: Optional[SnapshotStore] = None,
        snapshot_interval: int = 1,
        health: HealthPolicy = HealthPolicy(),
        name: Optional[str] = None,
    ):
        if mode not in ("poll", "persist"):
            raise ValueError(f"mode must be 'poll' or 'persist', got {mode!r}")
        self.provider = provider
        self.network = network
        self.policy = policy if policy is not None else RetryPolicy()
        self.reconcile_config = reconcile_config
        self.replica_server = replica_server
        self.mode = mode
        self.name = name if name is not None else f"consumer-{seed}"
        self.content = SyncedContent(request, network=network)
        self._rng = random.Random(f"resilient:{seed}")
        # The reconcile sketch salt draws from its own stream: sharing
        # the jitter RNG would shift every backoff draw after the first
        # reconcile, making fault traces depend on whether the ladder
        # ran (the cross-stream coupling tests/server/test_faults.py
        # guards against at the network layer).
        self._salt_rng = random.Random(f"resilient-salt:{seed}")
        self._is_degraded = False
        self._consecutive_failed_cycles = 0
        # persist-mode subscription state
        self._handle = None
        self._subscribed_epoch = -1
        self._cycles_since_refresh = 0
        self._last_response: Optional[SyncResponse] = None

        registry = network.registry if network is not None else MetricsRegistry()
        self._retries = registry.counter("sync.resilient.retries")
        self._reloads = registry.counter("sync.resilient.reloads")
        self._refreshes = registry.counter("sync.resilient.refreshes")
        self._exhausted = registry.counter("sync.resilient.exhausted")
        self._cycles = registry.counter("sync.resilient.cycles")
        self._backoff_total = registry.gauge("sync.resilient.backoff_ms")
        self._degraded_gauge = registry.gauge("sync.resilient.degraded")
        self._rec_attempts = registry.counter("sync.reconcile.attempts")
        self._rec_rounds = registry.counter("sync.reconcile.rounds")
        self._rec_success = registry.counter("sync.reconcile.decode_success")
        self._rec_failures = registry.counter("sync.reconcile.decode_failure")
        self._rec_fallbacks = registry.counter("sync.reconcile.fallbacks")
        self._rec_sketch_bytes = registry.counter("sync.reconcile.sketch_bytes")
        self._rec_delta = registry.counter("sync.reconcile.delta_entries")
        self._rec_fetched = registry.counter("sync.reconcile.fetched_entries")
        self._rec_deleted = registry.counter("sync.reconcile.deleted_entries")

        # Health state machine (docs/FAULTS.md §4).
        self.health = health
        self._health_state = "healthy"
        self._breaker = "closed"
        self._consecutive_faults = 0
        self._breaker_trips = 0
        self._attempts_spent = 0
        self._backoff_budget_spent = 0.0
        self._breaker_open_until: Optional[float] = None
        self._quarantine_until: Optional[float] = None
        self._probe_origin: Optional[str] = None
        labels = {"consumer": self.name}
        self._h_state = registry.gauge("sync.health.state").labels(**labels)
        self._h_breaker = registry.gauge("sync.health.breaker_state").labels(**labels)
        self._h_transitions = registry.counter("sync.health.transitions")
        self._h_trips = registry.counter("sync.health.breaker_trips")
        self._h_probes = registry.counter("sync.health.probes")
        self._h_quarantines = registry.counter("sync.health.quarantines")
        self._h_parked = registry.counter("sync.health.parked")
        self._h_gave_up = registry.counter("sync.health.gave_up")
        self._h_attempts = registry.counter(
            "sync.health.attempts_spent"
        ).labels(**labels)
        self._h_budget_ms = registry.gauge(
            "sync.health.backoff_budget_ms"
        ).labels(**labels)

        # Snapshot warm-start tier (docs/RECOVERY.md first rung): a
        # store means this consumer is a restart of a replica that may
        # have dumped content before — restore it now, so the first
        # cycle resumes at the snapshot's generation.
        if snapshot_interval < 1:
            raise ValueError("snapshot_interval must be >= 1")
        self.snapshot_interval = snapshot_interval
        self._recoverer: Optional[SnapshotRecoverer] = None
        self._snapshot_restored = False
        self._cycles_since_snapshot = 0
        if snapshot_store is not None:
            self._recoverer = SnapshotRecoverer(
                snapshot_store, self.content, registry=registry
            )
            self._snapshot_restored = self._recoverer.warm_start()

    # ------------------------------------------------------------------
    # public surface
    # ------------------------------------------------------------------
    @property
    def request(self) -> SearchRequest:
        return self.content.request

    @property
    def server(self):
        """The master server behind :attr:`provider` (for the network's
        per-server crash bookkeeping), or None."""
        return getattr(self.provider, "server", None)

    @property
    def degraded(self) -> bool:
        """True while the master is considered unreachable and local
        reads are stale."""
        return self._is_degraded

    @property
    def health_state(self) -> str:
        """The consumer's current health state (one of
        :data:`HEALTH_STATES`)."""
        return self._health_state

    @property
    def breaker_state(self) -> str:
        """Circuit breaker state: ``closed`` / ``open`` / ``half_open``."""
        return self._breaker

    def health_snapshot(self) -> dict:
        """One fleet-status row: the machine's externally visible state
        (rolled up by ``repro-ldap soak`` and the chaos SoakRunner)."""
        return {
            "name": self.name,
            "mode": self.mode,
            "state": self.health_state,
            "breaker": self._breaker,
            "degraded": self._is_degraded,
            "breaker_trips": self._breaker_trips,
            "attempts_spent": self._attempts_spent,
            "backoff_budget_ms": round(self._backoff_budget_spent, 3),
            "consecutive_faults": self._consecutive_faults,
            "failed_cycles": self._consecutive_failed_cycles,
            "entries": len(self.content),
        }

    @property
    def snapshot_recoverer(self) -> Optional[SnapshotRecoverer]:
        """The warm-start driver (stage inspection), or None when the
        consumer was built without a snapshot store."""
        return self._recoverer

    @property
    def warm_started(self) -> bool:
        """True when construction restored a verified snapshot."""
        return self._recoverer is not None and self._recoverer.stage in (
            "resuming",
            "live",
        )

    def sync_once(self) -> Optional[SyncResponse]:
        """One resilient synchronization cycle.

        Polls (or, in persist mode, verifies/refreshes the
        subscription), retrying transport failures per the policy with
        backoff, and climbing the recovery ladder (docs/RECOVERY.md) on
        protocol errors: cookie resume → sketch reconciliation (``:h``
        cookies only) → paced full rebuild.  Returns the last applied
        response, or None when every attempt failed — the consumer is
        then counting toward (or in) degraded mode.  Local content
        survives any failure.

        The health state machine gates the cycle first: ``gave_up`` is
        terminal (no provider contact, no clock advance), an open
        breaker or a quarantine window is slept out on the virtual
        clock before a single-attempt ``recovering`` probe, and every
        transport fault — the sketch tier's included — is charged
        against the lifetime retry budget.
        """
        if not self._health_gate():
            return None
        self._cycles.inc()
        response, _ = self._attempt(self._cycle_exchange, self._cycle_attempt_cap())
        if response is None:
            self._cycle_failed()
        else:
            self._cycle_succeeded()
        return response

    def _cycle_exchange(self) -> Optional[SyncResponse]:
        """One poll (or one look at the persist subscription), climbing
        the recovery ladder when the provider refuses the cookie.
        Returns the applied response; None when the sketch tier spent
        the cycle."""
        while True:
            try:
                if self.mode == "persist":
                    return self._persist_cycle()
                return self.content.poll(
                    self.provider, timeout_ms=self.policy.timeout_ms
                )
            except TransportError as exc:
                self._apply_safe_prefix(exc)
                raise
            except SyncProtocolError:
                # The session is gone — but *why* matters.  A provider
                # restart with an intact journal never lands here (the
                # cookie resolves after recover()); a plain cookie that
                # died means the replica is still a faithful prefix of
                # the master, so a reload is the honest price.  Only a
                # ``:h`` cookie — the session overflowed its history and
                # the chain has since broken — names a replica whose
                # divergence is real but typically small: that (and only
                # that) case — plus a freshly warm-started snapshot
                # whose cookie aged out (divergence bounded by the
                # snapshot's age) — enters the sketch-reconciliation
                # tier before falling back to the paced full rebuild.
                if self.mode == "poll" and self.content.cookie is None:
                    raise  # a fresh session was refused — not recoverable
                if self.mode == "poll" and self._should_reconcile():
                    reconciled = self.reconcile()
                    if reconciled is not None or self._retries_suspended():
                        return reconciled  # None: no reload on a spent cycle
                self._reloads.inc()
                self.content.cookie = None
                if self.mode == "persist":
                    self._teardown_subscription()

    def _attempt(self, exchange, cap: int, charge_last: bool = True, failures: int = 0):
        """The one transport-attempt loop, of the poll/persist cycle and
        of both sketch-tier exchanges: run *exchange* until it returns
        or *cap* failures are reached (*failures* of them already spent).

        Each :class:`TransportError` is one failure and is charged
        (:meth:`_note_transport_fault`: backoff, lifetime budget,
        breaker), after which the health machine may suspend retries.
        The sketch tier leaves its cap-th failure uncharged: it falls
        back to the rebuild at once, with no retry to back off for.
        Returns ``(result, failures)``, the result None when the loop
        gave out; protocol errors propagate.
        """
        while failures < cap:
            try:
                return exchange(), failures
            except TransportError as exc:
                failures += 1
                if failures < cap or charge_last:
                    self._note_transport_fault(exc, failures - 1)
                    if self._retries_suspended():
                        break
        return None, failures

    def converge(
        self, master: DirectoryServer, max_cycles: int = 64
    ) -> Optional[int]:
        """Drive :meth:`sync_once` until the replica content matches
        *master*; returns the number of cycles taken (≥ 1), or None if
        *max_cycles* was not enough."""
        for cycle in range(1, max_cycles + 1):
            self.sync_once()
            if self.content.matches_master(master):
                return cycle
        return None

    def close(self) -> None:
        """Tear down any persist subscription (client-side abandon)."""
        self._teardown_subscription()

    # ------------------------------------------------------------------
    # sketch reconciliation (recovery tier 2, docs/RECOVERY.md)
    # ------------------------------------------------------------------
    def _should_reconcile(self) -> bool:
        """Whether this dead cookie qualifies for the reconcile tier.

        Only the history-overflow chain (``:h``-stamped cookies,
        docs/PROTOCOL.md §10.4) does: it names a replica that *has*
        diverged, by an amount the sketch can recover in O(delta).  A
        plain cookie (provider restarted and forgot us, admin expiry)
        leaves the replica a faithful prefix — reloading is correct and
        reconciling would only add a round of sketch traffic.  An empty
        replica has no delta to exploit, and a provider without a
        ``reconcile`` operation (the retain/baseline providers) cannot
        serve the tier.

        A snapshot-restored replica whose *first* cycle is refused is
        the other qualifying case: its divergence is bounded by the
        snapshot's age (typically small), so the sketch tier beats the
        full rebuild even though the refused cookie carries no ``:h``.
        The exemption lasts exactly until the first successful cycle —
        after that the replica is live and a later dead cookie means
        what it always meant.
        """
        return (
            (self._cookie_overflowed() or self._snapshot_restored)
            and len(self.content) > 0
            and callable(getattr(self.provider, "reconcile", None))
        )

    def _cookie_overflowed(self) -> bool:
        """True when the held cookie carries the ``:h`` flag."""
        cookie = self.content.cookie
        return cookie is not None and "h" in cookie.split(":")[2:]

    def reconcile(self) -> Optional[SyncResponse]:
        """One sketch-reconciliation ladder against the provider.

        Solicits an invertible sketch of the master's content, subtracts
        the local one, decodes the symmetric difference, and converts it
        into targeted per-entry fetches plus local deletes — O(delta)
        bytes instead of the O(content) rebuild.  On a decode failure
        (undersized or corrupted sketch — always *detected*, see
        :meth:`EntrySketch.decode <repro.sync.reconcile.EntrySketch>`)
        the cell count doubles with a fresh salt, up to the config cap.

        Returns the applied fetch response — the replica then holds the
        master's sketch-time content and a live session cookie — or
        None when the ladder failed and the caller should fall back to
        a paced full rebuild.  Transport faults are retried with the
        policy's backoff; protocol errors (the fetch session died under
        us) abort the ladder, and so does the health machine once a
        charged fault suspends retries (breaker open, quarantined, out
        of budget).  Local content is only touched by a successful,
        validated decode.
        """
        cfg = self.reconcile_config
        self._rec_attempts.inc()
        cells: Optional[int] = None
        salt = self._salt_rng.getrandbits(32)
        prev_cookie: Optional[str] = None
        failures = 0
        while True:
            rreq = ReconcileRequest(
                divergence_hint=cfg.initial_divergence,
                cells=cells,
                salt=salt,
                cookie=prev_cookie,
            )
            try:
                response, failures = self._attempt(
                    lambda: self._reconcile_exchange(rreq),
                    self.policy.max_attempts,
                    charge_last=False,
                    failures=failures,
                )
            except SyncProtocolError:
                response = None
            if response is None:
                self._rec_fallbacks.inc()
                return None
            self._rec_rounds.inc()
            self._rec_sketch_bytes.inc(response.pdu_bytes)
            prev_cookie = response.cookie
            sketch = response.sketch
            local = build_sketch(
                self.content.entries.values(),
                sketch.size,
                salt=sketch.salt,
                hash_count=sketch.hash_count,
            )
            decoded = sketch.subtract(local).decode()
            plan = self._plan_reconcile(decoded) if decoded is not None else None
            if plan is not None:
                applied = self._fetch_and_apply(plan, response.cookie)
                if applied is not None:
                    return applied
                self._rec_fallbacks.inc()
                return None
            # Undersized or corrupted sketch — a *detected* failure:
            # double the cells, re-salt, bounded by the config cap.
            self._rec_failures.inc()
            next_cells = sketch.size * 2
            salt += 1
            if next_cells > cfg.max_cells:
                self._rec_fallbacks.inc()
                self._end_reconcile_session(prev_cookie)
                return None
            cells = next_cells

    def _plan_reconcile(self, decoded):
        """Validate a decoded difference against local content.

        Every negative (replica-only) item must name an entry the
        replica actually holds, fingerprint and all; a positive item
        exactly matching a local digest is equally impossible (it would
        have cancelled in the subtraction).  Either contradiction means
        the peel produced garbage that slipped past the checksums —
        treated as a decode failure, never applied.  Returns
        ``(fetch_keys, delete_dns)`` or None.
        """
        master_only, replica_only = decoded
        local_by_key = {entry_key(dn): dn for dn in self.content.entries}
        master_keys = {key for key, _ in master_only}
        delete_dns = []
        for key, fp in replica_only:
            dn = local_by_key.get(key)
            if dn is None or entry_fingerprint(self.content.entries[dn]) != fp:
                return None
            if key not in master_keys:
                delete_dns.append(dn)
        for key, fp in master_only:
            dn = local_by_key.get(key)
            if dn is not None and entry_fingerprint(self.content.entries[dn]) == fp:
                return None
        return sorted(master_keys), delete_dns

    def _fetch_and_apply(self, plan, cookie: str) -> Optional[SyncResponse]:
        """Pull the master-only entries and fold the difference in.

        The fetch travels even when there is nothing to pull: its
        response carries the session cookie that makes the reconciled
        replica resumable.  Duplicated deliveries re-apply idempotently,
        like every ReSync action.
        """
        fetch_keys, delete_dns = plan
        fetch = ReconcileFetch(keys=tuple(fetch_keys), cookie=cookie)
        try:
            deliveries, _ = self._attempt(
                lambda: self._reconcile_fetch_exchange(fetch),
                self.policy.max_attempts,
                charge_last=False,
            )
        except SyncProtocolError:
            return None
        if deliveries is None:
            return None
        self._rec_success.inc()
        self._rec_delta.inc(len(fetch_keys) + len(delete_dns))
        fetched = 0
        for delivery in deliveries:
            self.content.apply_reconcile(delivery.response, delete_dns)
            fetched += len(delivery.response.updates)
        self._rec_fetched.inc(fetched)
        self._rec_deleted.inc(len(delete_dns))
        return deliveries[-1].response

    def _reconcile_exchange(self, rreq: ReconcileRequest):
        if self.network is not None:
            return self.network.reconcile_exchange(self.provider, self.request, rreq)
        return self.provider.reconcile(self.request, rreq)

    def _reconcile_fetch_exchange(self, fetch: ReconcileFetch):
        """The fetch deliveries that beat the per-operation timeout."""
        if self.network is not None:
            deliveries = self.network.reconcile_fetch_exchange(
                self.provider, self.request, fetch
            )
        else:
            deliveries = [Delivery(self.provider.reconcile_fetch(self.request, fetch))]
        return SyncedContent.timely(deliveries, self.policy.timeout_ms)

    def _note_transport_fault(self, exc: TransportError, failure: int) -> None:
        """Count one transport fault, wait out its backoff and charge it
        against the lifetime budget, possibly tripping the circuit
        breaker (shared by the poll loop and the reconcile ladder)."""
        self._retries.inc()
        self._retries.labels(kind=exc.fault).inc()
        delay = self._backoff(failure, minimum=getattr(exc, "retry_after_ms", 0.0))
        self._attempts_spent += 1
        self._h_attempts.inc()
        self._backoff_budget_spent += delay
        self._h_budget_ms.set(self._backoff_budget_spent)
        self._consecutive_faults += 1
        if (
            self._attempts_spent >= self.health.max_total_attempts
            or self._backoff_budget_spent >= self.health.max_total_backoff_ms
        ):
            self._give_up()
            return
        if self._breaker == "half_open":
            # The half-open probe failed: reopen with a fresh cooldown.
            self._trip_breaker()
        elif (
            self._breaker == "closed"
            and self._consecutive_faults >= self.health.breaker_threshold
        ):
            self._trip_breaker()

    def _end_reconcile_session(self, cookie: Optional[str]) -> None:
        """Best-effort sync_end for an abandoned reconcile session, so
        the ladder's cap fallback does not strand provider state until
        idle expiry."""
        if cookie is None:
            return
        try:
            self.provider.handle(
                self.request, ReSyncControl(mode=SyncMode.SYNC_END, cookie=cookie)
            )
        except (SyncProtocolError, TransportError):
            return
        if self.network is not None:
            self.network.charge_round_trip()

    # ------------------------------------------------------------------
    # persist-mode subscription management
    # ------------------------------------------------------------------
    def _persist_cycle(self) -> Optional[SyncResponse]:
        """Keep the persist subscription alive and fresh.

        Re-subscribes when the connection died with a crashed server
        incarnation (epoch mismatch) or the handle was torn down; also
        refreshes on the policy's interval so divergence from dropped
        notifications is bounded by ``persist_refresh_interval`` cycles.
        """
        # Flush in-flight delivery batches first: a refresh tears the
        # subscription (and its queue) down, and liveness decisions
        # should see the delivered state.
        if self.network is not None:
            self.network.settle()
        dead = (
            self._handle is None
            or not self._handle.active
            or self._current_epoch() != self._subscribed_epoch
        )
        refresh_due = (
            self._cycles_since_refresh + 1 >= self.policy.persist_refresh_interval
        )
        if dead or refresh_due:
            if not dead:
                self._refreshes.inc()
            self._teardown_subscription()
            self._subscribe()
        else:
            self._cycles_since_refresh += 1
        return self._last_response

    def _subscribe(self) -> None:
        """Open a fresh persist subscription (null cookie: the initial
        response replaces the whole local content on arrival)."""
        epoch = self._current_epoch()
        if self.network is not None:
            deliveries, handle = self.network.persist_exchange(
                self.provider,
                self.request,
                self.content.apply_notification,
                cookie=None,
            )
            response = deliveries[-1].response
        else:
            response, handle = self.provider.persist(
                self.request, self.content.apply_notification, cookie=None
            )
        self.content.apply(response)
        self._handle = handle
        self._subscribed_epoch = epoch
        self._cycles_since_refresh = 0
        self._last_response = response
        if self.network is not None:
            # One open connection per persist-mode subscription — §5.2's
            # scaling metric; re-counted (not leaked) across crashes.
            self.network.connection_opened(self)

    def _teardown_subscription(self) -> None:
        """Voluntarily end the subscription (sync_end semantics)."""
        if self._handle is None:
            return
        handle, self._handle = self._handle, None
        self._subscribed_epoch = -1
        handle.abandon()
        if self.network is not None:
            self.network.connection_closed(self)

    def drop(self) -> None:
        """Forced disconnect: our persist connection died with a crashed
        server (called by the network's crash handling).  The server
        side is already gone; only account the close locally."""
        if self._handle is None:
            return
        handle, self._handle = self._handle, None
        self._subscribed_epoch = -1
        if handle.delivery_queue is not None:
            # The subscription died with the server incarnation: close
            # the stale batching queue so nothing queued before the
            # crash is delivered into the re-subscribed content.
            handle.delivery_queue.close()
        if self.network is not None:
            self.network.connection_closed(self)

    def _current_epoch(self) -> int:
        return getattr(self.network, "crash_epoch", 0) if self.network else 0

    def _apply_safe_prefix(self, exc: TransportError) -> None:
        """Apply the delivered prefix of a truncated response when that
        is safe (docs/PROTOCOL.md §9).

        Update batches order deletes before adds and every action is an
        idempotent state-setter, so a *plain update* prefix only moves
        the replica closer to the master; the cookie travels last, so
        the retry at the old generation retransmits the full batch.  An
        ``initial`` prefix is NOT safe (applying it would replace the
        whole content with a fragment), nor is a ``retain`` response
        (the retain set is only meaningful complete) — those are
        retried wholesale.
        """
        if not isinstance(exc, ResponseTruncated) or exc.partial is None:
            return
        partial = exc.partial
        if partial.initial or partial.uses_retain:
            return
        self.content.apply(partial)

    # ------------------------------------------------------------------
    # pacing and degradation
    # ------------------------------------------------------------------
    def _backoff(self, failure: int, minimum: float = 0.0) -> float:
        """Wait out the backoff for the zero-based *failure*-th failure —
        on the network's simulated clock, no real sleeping.  *minimum*
        floors the jittered delay (a ``ServerBusy`` retry-after hint).
        Returns the waited delay (budget accounting)."""
        delay = max(self.policy.backoff_ms(failure, self._rng), minimum)
        self._backoff_total.inc(delay)
        if self.network is not None:
            self.network.elapsed_ms += delay
        return delay

    def _cycle_succeeded(self) -> None:
        self._consecutive_failed_cycles = 0
        if self._is_degraded:
            self._is_degraded = False
            self._degraded_gauge.set(0)
            if self.replica_server is not None:
                self.replica_server.exit_degraded()
        self._consecutive_faults = 0
        if self._probe_origin == "quarantine":
            # A successful re-probe out of quarantine is a fresh
            # start: the trip history that parked us is spent.
            self._breaker_trips = 0
        self._probe_origin = None
        self._breaker_set("closed")
        self._breaker_open_until = None
        self._quarantine_until = None
        self._transition("healthy")
        if self._recoverer is not None:
            if self._snapshot_restored:
                self._snapshot_restored = False
                self._recoverer.mark_live()
            self._cycles_since_snapshot += 1
            if self._cycles_since_snapshot >= self.snapshot_interval:
                self._cycles_since_snapshot = 0
                self._recoverer.save()

    def _cycle_failed(self) -> None:
        self._exhausted.inc()
        self._consecutive_failed_cycles += 1
        if (
            not self._is_degraded
            and self._consecutive_failed_cycles >= self.policy.degraded_after
        ):
            self._enter_degraded()
        if self._health_state == "recovering":
            origin, self._probe_origin = self._probe_origin, None
            if origin == "quarantine":
                # The re-probe failed: back to the bench for another
                # interval, never a tight retry loop.
                self._quarantine_until = (
                    self._virtual_now_ms() + self.health.quarantine_probe_ms
                )
                self._transition("quarantined")
                return
            # A failed half-open probe: _note_transport_fault already
            # re-tripped the breaker (possibly into quarantine or
            # gave_up); if we are still nominally recovering, settle
            # back on the read-path truth.
            self._transition("degraded" if self._is_degraded else "healthy")
        if self._health_state == "healthy" and self._is_degraded:
            self._transition("degraded")

    def _enter_degraded(self) -> None:
        if self._is_degraded:
            return
        self._is_degraded = True
        self._degraded_gauge.set(1)
        if self.replica_server is not None:
            self.replica_server.enter_degraded()

    # ------------------------------------------------------------------
    # health state machine (docs/FAULTS.md §4)
    # ------------------------------------------------------------------
    def _health_gate(self) -> bool:
        """Decide whether this cycle may contact the provider.

        ``gave_up`` blocks forever (and advances nothing — no busy
        loop, no clock drift).  A quarantine window or an open breaker
        is slept out on the virtual clock, then the cycle proceeds as a
        single-attempt ``recovering`` probe.
        """
        if self._health_state == "gave_up":
            return False
        now = self._virtual_now_ms()
        if self._health_state == "quarantined":
            if self._quarantine_until is not None and now < self._quarantine_until:
                self._sleep_ms(self._quarantine_until - now)
            self._quarantine_until = None
            self._probe_origin = "quarantine"
            self._h_probes.inc()
            self._h_probes.labels(origin="quarantine").inc()
            self._transition("recovering")
            return True
        if self._breaker == "open":
            if (
                self._breaker_open_until is not None
                and now < self._breaker_open_until
            ):
                self._sleep_ms(self._breaker_open_until - now)
            self._breaker_open_until = None
            self._breaker_set("half_open")
            self._probe_origin = "breaker"
            self._h_probes.inc()
            self._h_probes.labels(origin="breaker").inc()
            self._transition("recovering")
        return True

    def _cycle_attempt_cap(self) -> int:
        """Transport attempts this cycle may spend: one for a probe,
        the policy's cap otherwise, never more than the remaining
        lifetime budget."""
        cap = 1 if self._health_state == "recovering" else self.policy.max_attempts
        remaining = self.health.max_total_attempts - self._attempts_spent
        return max(0, min(cap, remaining))

    def _retries_suspended(self) -> bool:
        """True when the machine decided mid-cycle that further retries
        are wasted provider work (breaker no longer closed, parked, or
        out of budget)."""
        return (
            self._health_state in ("gave_up", "quarantined")
            or self._breaker != "closed"
        )

    def _trip_breaker(self) -> None:
        """One breaker trip: open with a cooldown, or — for a repeat
        offender — escalate to quarantine."""
        self._breaker_trips += 1
        self._h_trips.inc()
        if self._breaker_trips >= self.health.quarantine_after:
            self._enter_quarantine()
            return
        self._breaker_set("open")
        self._breaker_open_until = (
            self._virtual_now_ms() + self.health.breaker_cooldown_ms
        )

    def _enter_quarantine(self) -> None:
        """Park a flapping consumer: tear down any persist subscription,
        park the poll session at the provider's eq.-3 retain tier, and
        re-probe only on the configured interval.  Reads go degraded —
        quarantined content is stale by definition, and it must never
        be served as fresh."""
        self._h_quarantines.inc()
        self._breaker_set("open")
        self._breaker_open_until = None
        if self.mode == "persist":
            self._teardown_subscription()
        else:
            cookie = self.content.cookie
            park = getattr(self.provider, "park_session", None)
            if cookie is not None and callable(park) and park(cookie):
                self._h_parked.inc()
        self._enter_degraded()
        self._quarantine_until = (
            self._virtual_now_ms() + self.health.quarantine_probe_ms
        )
        self._transition("quarantined")

    def _give_up(self) -> None:
        """Terminal: the lifetime retry budget is spent.  The final
        ``sync.health.state`` sample is the gave_up index; no further
        provider attempts, ever."""
        self._h_gave_up.inc()
        if self.mode == "persist":
            self._teardown_subscription()
        self._quarantine_until = None
        self._breaker_open_until = None
        self._enter_degraded()
        self._transition("gave_up")

    def _transition(self, state: str) -> None:
        if state == self._health_state:
            return
        self._health_state = state
        self._h_state.set(HEALTH_STATES.index(state))
        self._h_transitions.inc()
        self._h_transitions.labels(to=state).inc()

    def _breaker_set(self, state: str) -> None:
        if state != self._breaker:
            self._breaker = state
            self._h_breaker.set(_BREAKER_STATES.index(state))

    def _virtual_now_ms(self) -> float:
        """The consumer's monotone virtual clock: accumulated simulated
        latency plus the scheduler's event-loop time (both only ever
        advance)."""
        if self.network is None:
            return 0.0
        scheduler = getattr(self.network, "scheduler", None)
        now = self.network.elapsed_ms
        if scheduler is not None:
            now += scheduler.now
        return now

    def _sleep_ms(self, delay: float) -> None:
        """Sleep on the virtual clock (cooldowns and quarantine waits —
        deliberately not charged to the retry budget)."""
        if self.network is not None and delay > 0:
            self.network.elapsed_ms += delay
