"""Fault-tolerant ReSync consumption: retries, recovery, degraded reads.

:class:`SyncedContent` applies responses; a :class:`SyncLink` — one per
(replica, provider), :class:`ResilientConsumer` being the link with one
content of its own — decides *when and how to keep asking* on a network
that drops, duplicates, delays and truncates messages and whose servers
crash (:mod:`repro.server.faults`).  Three parts:

* :mod:`repro.sync.health` — transport faults
  (:class:`~repro.server.network.TransportError`) are transient: one
  attempt loop retries them with capped, jittered exponential backoff,
  never touching local content, and charges each to the health machine
  (budget, breaker, quarantine).  After ``degraded_after`` failed
  rounds in a row the link is **degraded**: reads keep answering from
  the last synchronized content, stamped ``degraded=True``;
* :mod:`repro.sync.ladder` — a protocol error
  (:class:`~repro.sync.protocol.SyncProtocolError`) means the session
  is gone, and the tier taken is one lookup in ``LADDER``
  (docs/RECOVERY.md): sketch reconciliation over warm content, else the
  paper's §5 reload with a null cookie;
* this module — the round, the persist subscriptions, and the snapshot
  warm start: built with a :class:`~repro.sync.snapshot.SnapshotStore`,
  a consumer restores the last verified dump (content + cookie) on
  construction, so the first poll after a replica restart costs
  O(delta); a corrupt or torn snapshot is discarded, never applied.

Duplicated deliveries are re-applied (every ReSync action is an
idempotent state-setter).  A subscribed content's turn in a round is
its persist cycle (:meth:`SyncLink._persist`), which re-opens a dead
subscription and refreshes a live one, bounding undetectable
notification loss; over warm content either open is a sketch and a
resume, O(delta).  Retry traffic lands on ``sync.resilient.*``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..ldap.query import SearchRequest
from ..obs.registry import MetricsRegistry
from ..obs.tracing import span
from ..server.network import (
    OperationTimeout,
    ResponseTruncated,
    SimulatedNetwork,
    exchange,
)
from .consumer import SyncedContent
from .health import HEALTH_STATES, HealthMachine, HealthPolicy, RetryPolicy
from .ladder import LADDER, SketchTier
from .protocol import MultiPoll, SyncProtocolError, SyncResponse
from .snapshot import SnapshotRecoverer, SnapshotStore

__all__ = ["RetryPolicy", "HealthPolicy", "SyncLink", "ResilientConsumer", "HEALTH_STATES"]


class Subscription:
    """One persist subscription of a :class:`SyncLink`: the connection a
    crash drops (``server``, :meth:`drop`) and what the persist cycle
    reads — handle (None while closed), opening epoch, cycles since,
    opening response.  No reference back to the link (a cycle delays
    freeing a replaced consumer's content to the cyclic collector)."""

    __slots__ = ("network", "server", "handle", "epoch", "cycles", "response")

    def __init__(self, network: Optional[SimulatedNetwork], server):
        self.network = network
        self.server = server
        self.handle = None
        self.epoch = self.cycles = 0
        self.response: Optional[SyncResponse] = None

    def close(self) -> None:
        """End the subscription client-side (a no-op when closed)."""
        if self.handle is not None:
            self.handle.abandon()
            self.drop()

    def drop(self) -> None:
        """Forced disconnect: the connection died with its server.  No
        message reaches the provider; the batching queue is closed, so
        nothing queued before is delivered into a re-opened content."""
        handle, self.handle = self.handle, None
        if handle is not None and self.network is not None:
            handle.delivery_queue.close()
            self.network.connection_closed(self)


class SyncLink(HealthMachine):
    """One (replica, provider) link: the resilient round for whichever
    contents it is handed.

    A breaker, a quarantine and a retry budget are facts about the
    link, not about one stored filter, so the link *is* the
    :class:`~repro.sync.health.HealthMachine` (``health_state``,
    ``breaker_state`` and ``degraded`` are the machine's) and its
    contents share it, the ``LADDER`` lookup, the safe-prefix rule and
    one :class:`~repro.sync.ladder.SketchTier`.  A content is polled or,
    from :meth:`subscribe` to :meth:`unsubscribe`, held by a persist
    :class:`Subscription`.  A replica keeps one link per provider.

    Args:
        provider: the master's :class:`~repro.sync.ResyncProvider`.
        network: network joining replica and master; faults are
            injected here (:class:`repro.server.faults.FaultyNetwork`).
        policy: retry/backoff/timeout policy.
        seed: seeds the deterministic backoff jitter.
        health: the :class:`HealthPolicy` (budgeted retries, circuit
            breaker, quarantine); a caller whose schedule needs more
            retries than the default budget passes one sized to it.
        name: fleet identity for the ``sync.health.*`` metric labels
            and status rollups (default: ``consumer-<seed>``).
    """

    def __init__(
        self,
        provider,
        network: Optional[SimulatedNetwork] = None,
        policy: Optional[RetryPolicy] = None,
        seed=0,
        health: HealthPolicy = HealthPolicy(),
        name: Optional[str] = None,
    ):
        self.provider = provider
        self.network = network
        self.name = name if name is not None else f"consumer-{seed}"
        self.registry = registry = network.registry if network is not None else MetricsRegistry()
        policy = policy if policy is not None else RetryPolicy()
        super().__init__(policy, health, network, registry, self.name, seed)
        self._sketch = SketchTier(provider, seed, registry)
        self._reloads = registry.counter("sync.resilient.reloads")
        self._cycles = registry.counter("sync.resilient.cycles")
        self._refreshes = registry.counter("sync.resilient.refreshes")
        self._h_parked = registry.counter("sync.health.parked")
        #: every content polled over this link: what a quarantine parks
        self._polled: Dict[int, SyncedContent] = {}
        #: content serial → its persist subscription
        self._subscriptions: Dict[int, Subscription] = {}

    def sync(self, contents: Sequence[SyncedContent]) -> Optional[SyncResponse]:
        """One resilient round over *contents*: one gate, one retry
        budget, one verdict.

        The polled contents travel as one multiplexed ``poll`` exchange
        (:meth:`_poll`); each subscribed one then runs its persist cycle.
        Transport failures are retried with backoff, a refused cookie
        climbs that content's row of the recovery ladder
        (docs/RECOVERY.md), and the failure count is carried from
        exchange to exchange: a dead link spends ``max_attempts``
        failures and one backoff schedule, a probe round one request.
        The first exchange whose attempts give out fails the round and
        ends it; it succeeded only when every content was answered.
        Returns the last applied response (an empty one when every
        polled session was quiet); None when the round failed, the gate
        stayed shut, or *contents* is empty (a no-op that does not ask
        the gate).  Never raises a
        :class:`~repro.server.network.TransportError`; local content
        survives any failure.
        """
        if not contents or not self.gate():
            return None
        self._cycles.inc()
        cap = self.attempt_cap()
        polled, subscribed = [], []
        for content in contents:
            self._polled[content.serial] = content
            (subscribed if content.serial in self._subscriptions else polled).append(content)
        response, failures = SyncResponse(), 0
        if polled:
            response, failures = self._poll(polled, cap, failures)
        for content in subscribed:
            if response is None:
                break
            response, failures = self.attempt(lambda: self._persist(content), cap, failures=failures)
        if response is None:
            self.failed()
            return None
        self.succeeded()
        return response

    def _poll(self, contents: List[SyncedContent], cap: int, failures: int):
        """The polled contents' part of a round: one multiplexed
        exchange (:meth:`_exchange`), then one more for whatever a
        refusal sent to the rebuild rung, until every content is
        answered.  Returns ``(the last applied response — an empty one
        when every session was quiet —, failures)``; the response is
        None when the attempts gave out or the sketch tier spent the
        round.  A refused *null* cookie is raised."""
        waiting, last = list(contents), SyncResponse()
        while waiting:
            answered, failures = self.attempt(lambda: self._exchange(waiting), cap, failures=failures)
            if answered is None:
                return None, failures
            applied, refused = answered
            last = applied or last
            waiting = []
            for content, cookie, refusal in refused:
                for tier in LADDER[cookie is not None, self._sketch.pays(content)]:
                    if tier == "raise":
                        raise refusal  # a fresh session was refused — not recoverable
                    if tier == "sketch":
                        reconciled = self.reconcile(content)
                        if reconciled is not None:
                            last = reconciled
                            break
                        if self.suspended:
                            return None, failures  # no reload on a spent round
                    else:  # rebuild: the next request is the initial load
                        self._reloads.inc()
                        content.cookie = None
                        waiting.append(content)
        return last, failures

    def _exchange(self, waiting: List[SyncedContent]):
        """One multiplexed poll of *waiting*: every answer applied, every
        quiet session left holding its cookie.  Returns ``(the last
        applied response or None, [(content, cookie, refusal)])``.

        A cut response applies what arrived safely — each session whose
        cookie arrived in full, the cut session's safe prefix
        (:meth:`_apply_safe_prefix`) — and leaves in *waiting* only the
        sessions still to ask before the error propagates."""
        cookies = tuple(content.cookie for content in waiting)
        with span("sync.resync.cookie_round_trip") as sp:
            try:
                deliveries = SyncedContent.timely(
                    exchange(
                        self.network, "poll", self.provider,
                        tuple(content.request for content in waiting), MultiPoll(cookies),
                    ),
                    self.policy.timeout_ms,
                )
            except ResponseTruncated as exc:
                if exc.partial is not None:
                    done = set()
                    for index, answer in exc.partial.answers:
                        if isinstance(answer, SyncResponse):
                            if answer.cookie is None:
                                self._apply_safe_prefix(waiting[index], answer)
                            else:
                                waiting[index].apply(answer)
                                done.add(index)
                    waiting[:] = [c for i, c in enumerate(waiting) if i not in done]
                raise
            applied, refusals, updates = None, {}, 0
            for delivery in deliveries:
                for index, answer in delivery.response.answers:
                    if isinstance(answer, SyncProtocolError):
                        refusals[index] = answer
                    else:
                        waiting[index].apply(answer)
                        applied = answer
                        updates += len(answer.updates)
            sp.add("updates_applied", updates)
        return applied, [(waiting[i], cookies[i], refusal) for i, refusal in refusals.items()]

    def forget(self, content: SyncedContent) -> None:
        """*content* left the link: its subscription is torn down and a
        quarantine parks nothing of its."""
        self._polled.pop(content.serial, None)
        self.unsubscribe(content)

    def adopt(self, content: SyncedContent, other: Optional["SyncLink"]) -> "SyncLink":
        """*content* moves here from *other* with its subscription: kept
        open when both links reach one provider over one network, else
        re-opened by this link's next round.  Returns this link."""
        if other is not None and other is not self:
            subscription = other._subscriptions.pop(content.serial, None)
            other.forget(content)
            if subscription is not None:
                if other.provider is not self.provider or other.network is not self.network:
                    subscription.close()
                    subscription = Subscription(self.network, self.provider.server)
                self._subscriptions[content.serial] = subscription
        return self

    def subscribe(self, content: SyncedContent) -> None:
        """Hold *content* by a persist subscription: the next round that
        reaches it opens one (a no-op when already subscribed)."""
        if content.serial not in self._subscriptions:
            self._subscriptions[content.serial] = Subscription(self.network, self.provider.server)

    def unsubscribe(self, content: SyncedContent) -> None:
        """Tear *content*'s subscription down; rounds poll it again."""
        subscription = self._subscriptions.pop(content.serial, None)
        if subscription is not None:
            subscription.close()

    def subscription(self, content: SyncedContent) -> Optional[Subscription]:
        """*content*'s persist subscription, open or not; None if polled."""
        return self._subscriptions.get(content.serial)

    def _persist(self, content: SyncedContent) -> Optional[SyncResponse]:
        """The persist cycle of a subscribed *content*; returns the
        response its subscription opened with, or None when the sketch
        tier spent the round.

        Liveness is judged after in-flight batches are delivered.  A
        subscription that is closed, ended (here, server-side or by a
        provider restart) or from an older crash epoch is re-opened, a
        live one refreshed — ended and re-opened — every
        ``persist_refresh_interval`` cycles.  Opening over warm content
        with no cookie to present enters the sketch tier by choice: the
        sketch and targeted fetch bring the content to the master's
        sketch-time state and leave it holding the session the sketch
        minted, which the subscription then resumes — O(delta) bytes
        where the paper's §5 re-subscription resends the whole content.
        So a refresh is a sketch audit, still the bound on undetected
        notification loss.  A tier that gives up falls back to the
        null-cookie load.  A refused resume takes its ``LADDER`` row
        (at most one sketch per open, then a rebuild), a refused null
        cookie raises; a late opening response is a lost one and resets
        the half-open session.  Opening clears the content's cookie.
        """
        subscription = self._subscriptions[content.serial]
        network = self.network
        if network is not None:
            network.settle()
        handle = subscription.handle
        epoch = network.crash_epoch if network is not None else 0
        if handle is not None and handle.active and subscription.epoch == epoch:
            subscription.cycles += 1
            if subscription.cycles < self.policy.persist_refresh_interval:
                return subscription.response
            self._refreshes.inc()
        subscription.close()
        warm = self._sketch.pays(content)
        sketched = content.cookie is None and warm
        if sketched and self.reconcile(content) is None and self.suspended:
            return None  # no reload on a spent round
        while True:
            cookie = content.cookie
            try:
                deliveries, handle = exchange(
                    network, "subscribe", self.provider, content.request,
                    content.apply_notification, cookie,
                )
                break
            except SyncProtocolError:
                for tier in LADDER[cookie is not None, warm]:
                    if tier == "raise":
                        raise
                    if tier == "sketch":
                        if sketched:
                            continue  # one sketch per open
                        sketched = True
                        if self.reconcile(content) is not None:
                            break  # resume the minted session
                        if self.suspended:
                            return None
                    else:  # rebuild
                        self._reloads.inc()
                        content.cookie = None
        try:
            timely = SyncedContent.timely(deliveries, self.policy.timeout_ms)
        except OperationTimeout:
            handle.abandon()
            raise
        response = subscription.response = timely[-1].response
        content.apply(response)
        content.cookie = None
        subscription.handle, subscription.epoch, subscription.cycles = handle, epoch, 0
        if network is not None:
            network.connection_opened(subscription)  # §5.2's scaling metric
        return response

    def reconcile(self, content: SyncedContent) -> Optional[SyncResponse]:
        """The sketch tier over *content*: the applied fetch response,
        or None to fall back to a rebuild."""
        return self._sketch.run(self, content)

    def _stand_down(self) -> None:
        """Quarantined or given up: every subscription is torn down and,
        quarantined, every polled session parked at the provider's eq.-3
        retain tier, so it stops accumulating history for us."""
        for subscription in self._subscriptions.values():
            subscription.close()
        if self.position != "quarantined":
            return
        for content in self._polled.values():
            if content.cookie is not None and self.provider.park_session(content.cookie):
                self._h_parked.inc()

    @staticmethod
    def _apply_safe_prefix(content: SyncedContent, partial: SyncResponse) -> None:
        """Apply the delivered prefix of a cut response when that is
        safe (docs/PROTOCOL.md §9).

        Update batches order deletes before adds and every action is an
        idempotent state-setter, so a *plain update* prefix only moves
        the replica closer to the master, and the cookie travels last,
        so the retry retransmits the full batch.  An ``initial`` prefix
        (a fragment replacing the whole content) and a ``retain``
        response (only meaningful complete) are retried wholesale.
        """
        if not (partial.initial or partial.uses_retain):
            content.apply(partial)


class ResilientConsumer(SyncLink):
    """The N = 1 link: a :class:`SyncLink` with one content of its own,
    plus what is still per-consumer — the mode and the snapshot warm
    start.

    Args (beyond :class:`SyncLink`'s):
        request: the replicated search request (the unit of replication).
        mode: ``"poll"`` (cookie sessions) or ``"persist"`` (the content
            is subscribed on construction: an open connection carrying
            change notifications).
        snapshot_store: optional :class:`SnapshotStore` — when given,
            the consumer warm-starts from it on construction (the
            ladder's first rung) and re-dumps its content every
            *snapshot_interval* successful cycles; None disables the
            tier (a restarted replica boots empty, the pre-snapshot
            behavior).
        snapshot_interval: successful cycles between snapshot saves.
    """

    def __init__(
        self,
        request: SearchRequest,
        provider,
        network: Optional[SimulatedNetwork] = None,
        policy: Optional[RetryPolicy] = None,
        seed: int = 0,
        mode: str = "poll",
        snapshot_store: Optional[SnapshotStore] = None,
        snapshot_interval: int = 1,
        health: HealthPolicy = HealthPolicy(),
        name: Optional[str] = None,
    ):
        if mode not in ("poll", "persist"):
            raise ValueError(f"mode must be 'poll' or 'persist', got {mode!r}")
        if snapshot_interval < 1:
            raise ValueError("snapshot_interval must be >= 1")
        super().__init__(provider, network, policy, seed, health, name)
        self.mode = mode
        self.content = SyncedContent(request, network=network)
        self._round = (self.content,)
        if mode == "persist":
            self.subscribe(self.content)

        # Snapshot warm-start tier (docs/RECOVERY.md first rung): a
        # store means this consumer is a restart of a replica that may
        # have dumped content before — restore it now, so the first
        # cycle resumes at the snapshot's generation.
        self.snapshot_interval = snapshot_interval
        self._recoverer: Optional[SnapshotRecoverer] = None
        self._cycles_since_snapshot = 0
        if snapshot_store is not None:
            self._recoverer = SnapshotRecoverer(snapshot_store, self.content, registry=self.registry)
            self._recoverer.warm_start()

    # ------------------------------------------------------------------
    # public surface
    # ------------------------------------------------------------------
    @property
    def request(self) -> SearchRequest:
        return self.content.request

    def health_snapshot(self) -> dict:
        """One fleet-status row: the machine's externally visible state
        (rolled up by ``repro-ldap soak`` and the chaos SoakRunner)."""
        return {
            "name": self.name,
            "mode": self.mode,
            "state": self.health_state,
            "breaker": self.breaker_state,
            "degraded": self.degraded,
            "breaker_trips": self.breaker_trips,
            "attempts_spent": self.attempts_spent,
            "backoff_budget_ms": round(self.backoff_spent_ms, 3),
            "consecutive_faults": self.consecutive_faults,
            "failed_cycles": self.failed_cycles,
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
        """One resilient synchronization cycle: the link's round
        (:meth:`SyncLink.sync`) over this consumer's one content — a
        poll or, in persist mode, the subscription's persist cycle —
        then the snapshot dump when one is due."""
        response = self.sync(self._round)
        if response is not None and self._recoverer is not None:
            self._recoverer.mark_live()
            self._cycles_since_snapshot += 1
            if self._cycles_since_snapshot >= self.snapshot_interval:
                self._cycles_since_snapshot = 0
                self._recoverer.save()
        return response

    def reconcile(self, content: Optional[SyncedContent] = None) -> Optional[SyncResponse]:
        """The sketch tier over this consumer's one content (callable bare)."""
        return super().reconcile(self.content)

    def close(self) -> None:
        """Tear down any persist subscription (client-side abandon); it
        stays held, so a later cycle re-opens it."""
        for subscription in self._subscriptions.values():
            subscription.close()
