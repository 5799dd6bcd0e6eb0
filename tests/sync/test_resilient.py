"""The resilient consumer: retries, backoff, reloads, degraded reads.

Fault schedules here are *scripted* (an explicit list of
:class:`ExchangeFaults`, then a perfect network) rather than drawn from
probabilities, so each test controls exactly which exchange fails and
how.  The seeded-probabilistic end-to-end runs live in
``test_fault_resilience_property.py``.
"""

import random

import pytest

from repro.chaos import ReferenceModel
from repro.ldap import Entry, Scope, SearchRequest
from repro.server import (
    DirectoryServer,
    ExchangeFaults,
    FaultPlan,
    FaultSpec,
    FaultyNetwork,
    Modification,
    OperationTimeout,
    ResponseDropped,
)
from repro.sync import (
    DurabilityConfig,
    HealthPolicy,
    MemoryJournal,
    ResilientConsumer,
    ResyncProvider,
    RetryPolicy,
    SyncedContent,
    SyncProtocolError,
)
from tests.oracles import RetainResyncProvider

REQUEST = SearchRequest("o=xyz", Scope.SUB, "(departmentNumber=42)")


def person(name: str) -> Entry:
    return Entry(
        f"cn={name},o=xyz",
        {"objectClass": ["person"], "cn": name, "sn": "T", "departmentNumber": "42"},
    )


def build_master(n: int = 4) -> DirectoryServer:
    master = DirectoryServer("M")
    master.add_naming_context("o=xyz")
    master.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
    for i in range(n):
        master.add(person(f"E{i}"))
    return master


class ScriptedPlan(FaultPlan):
    """A plan that plays back an explicit list of exchange faults, then
    behaves perfectly (empty decisions)."""

    def __init__(self, *script: ExchangeFaults, spec: FaultSpec = FaultSpec()):
        super().__init__(spec, seed=0)
        self._script = list(script)

    def next_exchange(self) -> ExchangeFaults:
        if self._script:
            return self._script.pop(0)
        return ExchangeFaults()


class TestDroppedResponseRegression:
    """A transient transport fault must never wipe the replica.

    Regression for the seed's retry helper, whose only recovery path was
    a reload that cleared all local entries before re-fetching: a single
    dropped response emptied the replica until the next successful poll.
    """

    @staticmethod
    def synced(net, **policy):
        master = build_master()
        provider = ResyncProvider(master)
        consumer = ResilientConsumer(
            REQUEST, provider, network=net, policy=RetryPolicy(jitter=0.0, **policy)
        )
        assert consumer.sync_once() is not None
        assert len(consumer.content) == 4
        return master, provider, consumer

    def test_single_drop_does_not_empty_replica(self):
        net = FaultyNetwork(ScriptedPlan())
        master, provider, consumer = self.synced(net)

        master.delete("cn=E0,o=xyz")
        net.plan = ScriptedPlan(ExchangeFaults(drop_response=True))
        consumer.sync_once()  # drop, then clean retry
        assert consumer.content.matches_master(master)
        # The retry reused the session (no reload): exactly one session,
        # and the replica was never empty in between.
        assert provider.active_session_count == 1
        assert net.registry.counter("sync.resilient.reloads").value == 0

    def test_drop_leaves_content_untouched_until_retry(self):
        net = FaultyNetwork(ScriptedPlan())
        master, provider, consumer = self.synced(net, max_attempts=4)

        net.plan = ScriptedPlan(*[ExchangeFaults(drop_response=True)] * 4)
        assert consumer.sync_once() is None
        assert net.registry.counter("sync.resilient.exhausted").value == 1
        # Even after exhausting every attempt the stale content stands.
        assert len(consumer.content) == 4

    def test_failed_reload_keeps_stale_content(self):
        net = FaultyNetwork(ScriptedPlan())
        master, provider, consumer = self.synced(net)

        net.plan = ScriptedPlan(ExchangeFaults(drop_response=True))
        with pytest.raises(ResponseDropped):
            consumer.content.reload(provider)
        assert len(consumer.content) == 4  # stale but serviceable


class TestRetryPolicy:
    def test_backoff_is_capped_exponential(self):
        policy = RetryPolicy(base_backoff_ms=10.0, max_backoff_ms=50.0, jitter=0.0)
        rng = random.Random(0)
        waits = [policy.backoff_ms(i, rng) for i in range(5)]
        assert waits == [10.0, 20.0, 40.0, 50.0, 50.0]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_backoff_ms=100.0, jitter=0.25)
        a = [policy.backoff_ms(0, random.Random("s")) for _ in range(3)]
        b = [policy.backoff_ms(0, random.Random("s")) for _ in range(3)]
        assert a == b
        assert all(75.0 <= w <= 100.0 for w in a)

    def test_mode_validated(self):
        with pytest.raises(ValueError):
            ResilientConsumer(REQUEST, object(), mode="push")


class TestResilientPoll:
    def test_retries_accumulate_backoff_on_simulated_clock(self):
        master = build_master()
        provider = ResyncProvider(master)
        net = FaultyNetwork(
            ScriptedPlan(
                ExchangeFaults(drop_request=True), ExchangeFaults(drop_response=True)
            )
        )
        consumer = ResilientConsumer(
            REQUEST,
            provider,
            network=net,
            policy=RetryPolicy(base_backoff_ms=10.0, jitter=0.0),
        )
        assert consumer.sync_once() is not None
        assert consumer.content.matches_master(master)
        assert net.elapsed_ms == 30.0  # 10 + 20, no real sleeping
        registry = net.registry
        assert registry.counter("sync.resilient.retries").value == 2
        assert (
            registry.counter("sync.resilient.retries").labels(kind="drop_request").value
            == 1
        )

    def test_timeout_treats_late_delivery_as_lost(self):
        master = build_master()
        provider = ResyncProvider(master)
        net = FaultyNetwork(ScriptedPlan(ExchangeFaults(delay_ms=5000.0)))
        consumer = ResilientConsumer(
            REQUEST,
            provider,
            network=net,
            policy=RetryPolicy(timeout_ms=100.0, jitter=0.0),
        )
        assert consumer.sync_once() is not None  # timed out once, retried
        assert consumer.content.matches_master(master)
        assert (
            net.registry.counter("sync.resilient.retries").labels(kind="timeout").value
            == 1
        )

    def test_bare_timeout_raises_operation_timeout(self):
        provider = ResyncProvider(build_master())
        net = FaultyNetwork(ScriptedPlan(ExchangeFaults(delay_ms=5000.0)))
        content = SyncedContent(REQUEST, network=net)
        with pytest.raises(OperationTimeout):
            content.poll(provider, timeout_ms=100.0)

    def test_timeout_applies_to_the_sketch_tier_fetch(self):
        """Regression: the reconcile fetch applied deliveries however
        late, ignoring ``RetryPolicy.timeout_ms``."""
        master = build_master(20)
        provider = ResyncProvider(
            master,
            durability=DurabilityConfig(history_max_entries=2),
            journal=MemoryJournal(),
        )
        net = FaultyNetwork(ScriptedPlan())
        consumer = ResilientConsumer(
            REQUEST,
            provider,
            network=net,
            policy=RetryPolicy(timeout_ms=100.0, jitter=0.0),
        )
        consumer.sync_once()
        for i in range(4):  # overflow the history: the cookie gains :h
            master.modify(f"cn=E{i},o=xyz", [Modification.replace("sn", "ovf")])
        consumer.sync_once()
        master.modify("cn=E9,o=xyz", [Modification.replace("sn", "late")])
        provider.invalidate_cookie(consumer.content.cookie)
        # refused poll, sketch, then a fetch response 5 s late
        net.plan = ScriptedPlan(
            ExchangeFaults(), ExchangeFaults(), ExchangeFaults(delay_ms=5000.0)
        )
        assert consumer.sync_once() is not None
        assert consumer.content.matches_master(master)
        registry = net.registry
        assert registry.counter("sync.resilient.retries").labels(kind="timeout").value == 1
        assert registry.counter("sync.reconcile.decode_success").value == 1
        assert registry.counter("sync.resilient.reloads").value == 0

    def test_timeout_applies_to_the_sketch_solicitation(self):
        """Regression: the sketch came back as a bare response, so its
        ``delay`` was counted but rode on nothing
        ``RetryPolicy.timeout_ms`` could see — the last exchange that
        ignored it."""
        master = build_master(20)
        provider = ResyncProvider(master)
        net = FaultyNetwork(ScriptedPlan())
        consumer = ResilientConsumer(
            REQUEST,
            provider,
            network=net,
            policy=RetryPolicy(timeout_ms=100.0, jitter=0.0),
        )
        consumer.sync_once()
        master.modify("cn=E9,o=xyz", [Modification.replace("sn", "late")])
        provider.invalidate_cookie(consumer.content.cookie)
        # refused poll, then a sketch 5 s late
        net.plan = ScriptedPlan(ExchangeFaults(), ExchangeFaults(delay_ms=5000.0))
        assert consumer.sync_once() is not None
        assert consumer.content.matches_master(master)
        registry = net.registry
        assert registry.counter("sync.resilient.retries").labels(kind="timeout").value == 1
        # The late sketch was discarded unread; its retry is round one.
        assert registry.counter("sync.reconcile.rounds").value == 1
        assert registry.counter("sync.reconcile.decode_success").value == 1
        assert registry.counter("sync.resilient.reloads").value == 0

    def test_timeout_applies_to_the_persist_subscription(self):
        """Regression: the subscribe path took the initial response
        however late, so ``RetryPolicy.timeout_ms`` bound poll consumers
        and not persist ones."""
        master = build_master()
        provider = ResyncProvider(master)
        net = FaultyNetwork()
        consumer = ResilientConsumer(
            REQUEST,
            provider,
            network=net,
            mode="persist",
            policy=RetryPolicy(max_attempts=3, timeout_ms=100.0, jitter=0.0),
        )
        net.set_slow(provider, 500.0)
        assert consumer.sync_once() is None  # every initial response late
        assert len(consumer.content) == 0  # …and none of them applied
        retries = net.registry.counter("sync.resilient.retries")
        assert retries.labels(kind="timeout").value == 3
        # Each late response abandoned its half-open session.
        assert provider.active_session_count == 0
        assert net.open_connections == 0
        net.clear_slow(provider)
        assert consumer.sync_once() is not None
        assert consumer.content.matches_master(master)
        assert provider.active_session_count == 1

    def test_dead_cookie_never_outlives_its_cycle(self):
        """After a journal-less restart the provider numbers sessions
        from s1 again, so a refused cookie that survived a failed sketch
        tier would come to name the very session that tier minted and
        lost — whose history assumes content the replica never got."""
        master = build_master()
        provider = ResyncProvider(master)
        net = FaultyNetwork(ScriptedPlan())
        consumer = ResilientConsumer(
            REQUEST,
            provider,
            network=net,
            policy=RetryPolicy(jitter=0.0),
            health=HealthPolicy(breaker_threshold=1, breaker_cooldown_ms=50.0),
        )
        consumer.sync_once()
        dead = consumer.content.cookie
        provider.restart()
        master.add(person("E9"))
        # refused poll, then the sketch response is lost: the provider
        # minted a session named like the dead cookie, the breaker trips
        net.plan = ScriptedPlan(ExchangeFaults(), ExchangeFaults(drop_response=True))
        assert consumer.sync_once() is None
        assert provider.active_session_count == 1
        assert provider.sessions.get(dead.split(":")[0]) is not None
        assert consumer.content.cookie is None
        assert consumer.sync_once() is not None  # half-open probe: initial load
        assert consumer.content.matches_master(master)

    def test_truncated_prefix_applied_then_retried(self):
        master = build_master()
        provider = ResyncProvider(master)
        net = FaultyNetwork(ScriptedPlan())
        consumer = ResilientConsumer(
            REQUEST, provider, network=net, policy=RetryPolicy(jitter=0.0)
        )
        consumer.sync_once()

        for name in ("E0", "E1", "E2"):
            master.delete(f"cn={name},o=xyz")
        net.plan = ScriptedPlan(ExchangeFaults(truncate=True, truncate_keep=0.7))
        before = consumer.content.updates_applied
        consumer.sync_once()
        assert consumer.content.matches_master(master)
        # The safe prefix (2 of 3 deletes) was applied, then the retry
        # retransmitted the full batch: 2 + 3 update applications.
        assert consumer.content.updates_applied - before == 5

    def test_truncated_initial_response_not_partially_applied(self):
        master = build_master()
        provider = ResyncProvider(master)
        net = FaultyNetwork(ScriptedPlan(ExchangeFaults(truncate=True, truncate_keep=0.5)))
        consumer = ResilientConsumer(
            REQUEST, provider, network=net, policy=RetryPolicy(jitter=0.0)
        )
        consumer.sync_once()  # truncated initial is retried wholesale
        assert consumer.content.matches_master(master)
        assert len(consumer.content) == 4

    def test_retain_provider_truncation_retried_wholesale(self):
        master = build_master()
        provider = RetainResyncProvider(master)
        net = FaultyNetwork(ScriptedPlan())
        consumer = ResilientConsumer(
            REQUEST, provider, network=net, policy=RetryPolicy(jitter=0.0)
        )
        consumer.sync_once()
        master.delete("cn=E3,o=xyz")
        net.plan = ScriptedPlan(ExchangeFaults(truncate=True, truncate_keep=0.5))
        consumer.sync_once()
        assert consumer.content.matches_master(master)

    def test_degraded_resume_truncation_retried_wholesale(self):
        """A durable provider's eq.-3 resume is only meaningful
        complete: a cut one applies nothing, and the retry with the old
        cookie is served the whole resume again."""
        master = build_master()
        provider = ResyncProvider(
            master, durability=DurabilityConfig(history_max_entries=2), journal=MemoryJournal()
        )
        net = FaultyNetwork(ScriptedPlan())
        consumer = ResilientConsumer(
            REQUEST, provider, network=net, policy=RetryPolicy(jitter=0.0)
        )
        consumer.sync_once()
        for name in ("E0", "E1", "E2"):
            master.modify(f"cn={name},o=xyz", [Modification.replace("sn", "changed")])
        net.plan = ScriptedPlan(ExchangeFaults(truncate=True, truncate_keep=0.5))
        before = consumer.content.updates_applied
        assert consumer.sync_once() is not None
        assert consumer.content.matches_master(master)
        # No prefix applied: three adds and a retain, once.
        assert consumer.content.updates_applied - before == 4
        assert master.metrics.counter("sync.durability.degraded_resumes").value == 2
        assert consumer.content.cookie.endswith(":h")


class TestDegradedMode:
    def unreachable_net(self):
        # Every exchange drops: the master is effectively unreachable.
        return FaultyNetwork(FaultPlan(FaultSpec(drop_response=1.0), seed=0))

    def test_enters_and_exits_degraded(self):
        master = build_master()
        provider = ResyncProvider(master)
        net = self.unreachable_net()
        consumer = ResilientConsumer(
            REQUEST,
            provider,
            network=net,
            policy=RetryPolicy(max_attempts=2, degraded_after=2, jitter=0.0),
        )
        assert consumer.sync_once() is None
        assert not consumer.degraded  # one failed cycle: not yet
        assert consumer.sync_once() is None
        assert consumer.degraded
        assert net.registry.gauge("sync.resilient.degraded").value == 1

        net.heal()
        assert consumer.sync_once() is not None
        assert not consumer.degraded
        assert net.registry.gauge("sync.resilient.degraded").value == 0

    def test_content_survives_degradation(self):
        master = build_master()
        provider = ResyncProvider(master)
        net = FaultyNetwork(ScriptedPlan())
        consumer = ResilientConsumer(
            REQUEST,
            provider,
            network=net,
            policy=RetryPolicy(max_attempts=2, degraded_after=1, jitter=0.0),
        )
        consumer.sync_once()
        net.plan = FaultPlan(FaultSpec(drop_response=1.0), seed=0)
        assert consumer.sync_once() is None
        assert consumer.degraded
        assert len(consumer.content) == 4  # last synchronized content


class TestPersistResilience:
    def test_subscription_counts_one_connection(self):
        master = build_master()
        provider = ResyncProvider(master)
        net = FaultyNetwork()
        consumer = ResilientConsumer(
            REQUEST, provider, network=net, mode="persist"
        )
        consumer.sync_once()
        assert net.open_connections == 1
        consumer.close()
        assert net.open_connections == 0

    def test_a_cycle_after_close_resubscribes(self):
        master = build_master()
        provider = ResyncProvider(master)
        net = FaultyNetwork()
        consumer = ResilientConsumer(REQUEST, provider, network=net, mode="persist")
        consumer.sync_once()
        consumer.close()
        assert provider.active_session_count == 0
        master.add(person("E9"))
        consumer.sync_once()
        assert consumer.subscription(consumer.content).handle.active
        assert consumer.content.cookie is None  # no poll session opened
        assert (net.open_connections, provider.active_session_count) == (1, 1)
        net.settle()
        assert consumer.content.matches_master(master)

    def test_crash_recounts_connection_without_leak(self):
        master = build_master()
        provider = ResyncProvider(master)
        net = FaultyNetwork(ScriptedPlan())
        consumer = ResilientConsumer(
            REQUEST,
            provider,
            network=net,
            mode="persist",
            policy=RetryPolicy(jitter=0.0),
        )
        consumer.sync_once()
        assert net.open_connections == 1

        net.plan = ScriptedPlan(spec=FaultSpec(crash_length=1))
        net.crash(provider)  # connection force-dropped, session state lost
        assert net.open_connections == 0
        master.add(person("E9"))
        consumer.sync_once()  # epoch mismatch detected -> re-subscribe
        assert consumer.content.matches_master(master)
        assert net.open_connections == 1  # re-counted, not leaked
        assert net.total_connections == 2

    def test_resubscription_after_a_crash_costs_less_than_a_load(self):
        """After ``network.crash(provider)`` a persist consumer re-opens
        over warm content by sketch: the sketch, the fetch of what
        changed and the resume cost fewer bytes than the one full load
        the subscription opened with.  Regression: the re-subscription
        presented a null cookie and resent the whole content."""
        master = build_master(40)
        provider = ResyncProvider(master)
        net = FaultyNetwork()
        consumer = ResilientConsumer(
            REQUEST, provider, network=net, mode="persist", policy=RetryPolicy(jitter=0.0)
        )
        consumer.sync_once()
        load = net.stats.bytes_sent
        net.crash(provider)
        master.add(person("E99"))
        before = net.stats.bytes_sent
        assert consumer.sync_once() is not None
        assert ReferenceModel.of(master).holds(consumer.content)
        assert net.stats.bytes_sent - before < load
        assert net.registry.counter("sync.reconcile.decode_success").value == 1
        assert net.registry.counter("sync.resilient.reloads").value == 0
        assert (net.open_connections, provider.active_session_count) == (1, 1)
        master.add(person("E100"))  # the resumed session notifies
        net.settle()
        assert ReferenceModel.of(master).holds(consumer.content)

    def test_a_refused_resume_sketches_once_then_rebuilds(self):
        """A subscription presenting a dead cookie over warm content
        takes its ``LADDER`` row — sketch, then rebuild — and sketches at
        most once per open: when the minted session is refused too, the
        open rebuilds instead of sketching again."""

        class RefusesResumes(ResyncProvider):
            def persist(self, request, deliver, cookie=None):
                if cookie is not None:  # every session expires as it resumes
                    self.invalidate_cookie(cookie)
                    raise SyncProtocolError("session expired")
                return super().persist(request, deliver, cookie)

        master = build_master(20)  # warm: more than the sketch floor
        provider = RefusesResumes(master)
        net = FaultyNetwork()
        consumer = ResilientConsumer(REQUEST, provider, network=net, policy=RetryPolicy(jitter=0.0))
        consumer.sync_once()  # polled: the content holds a cookie
        consumer.subscribe(consumer.content)
        assert consumer.sync_once() is not None
        registry = net.registry
        assert registry.counter("sync.reconcile.attempts").value == 1
        assert registry.counter("sync.resilient.reloads").value == 1
        assert consumer.subscription(consumer.content).handle.active
        assert provider.active_session_count == 1  # no orphan
        assert ReferenceModel.of(master).holds(consumer.content)

    def test_periodic_refresh_bounds_notification_loss(self):
        master = build_master()
        provider = ResyncProvider(master)
        net = FaultyNetwork(FaultPlan(FaultSpec(notification_drop=1.0), seed=0))
        consumer = ResilientConsumer(
            REQUEST,
            provider,
            network=net,
            mode="persist",
            policy=RetryPolicy(persist_refresh_interval=2, jitter=0.0),
        )
        consumer.sync_once()
        master.add(person("E9"))  # notification dropped: silent divergence
        model = ReferenceModel.of(master)
        assert not model.holds(consumer.content)
        assert model.converge(consumer.sync_once, [consumer.content], 4)  # the refresh audit repairs it
        assert net.registry.counter("sync.resilient.refreshes").value >= 1

    def test_refused_subscription_raises_instead_of_looping(self):
        """Regression: a refused *null-cookie* request was re-raised in
        poll mode but torn down and re-subscribed forever in persist
        mode — one ``sync_once()`` never returned."""

        class RefusesEverySubscription:
            server = None
            calls = 0

            def persist(self, request, deliver, cookie=None):
                self.calls += 1
                if self.calls > 50:
                    raise AssertionError("sync_once() is looping on the refusal")
                raise SyncProtocolError("persist mode not offered")

        provider = RefusesEverySubscription()
        consumer = ResilientConsumer(REQUEST, provider, mode="persist")
        with pytest.raises(SyncProtocolError):
            consumer.sync_once()
        assert provider.calls == 1

    def test_subscribe_failure_does_not_leak_half_open_session(self):
        master = build_master()
        provider = ResyncProvider(master)
        net = FaultyNetwork(
            ScriptedPlan(ExchangeFaults(drop_response=True))
        )
        consumer = ResilientConsumer(
            REQUEST,
            provider,
            network=net,
            mode="persist",
            policy=RetryPolicy(jitter=0.0),
        )
        consumer.sync_once()  # first subscribe lost, retried
        assert consumer.content.matches_master(master)
        assert net.open_connections == 1
        assert provider.active_session_count == 1  # half-open one was reset

    @pytest.mark.parametrize("ending", ["expiry", "invalidate_cookie"])
    def test_subscription_ended_server_side_is_seen_and_reopened(self, ending):
        """Regression: a handle outlived its session.  The provider
        ended the subscription (idle expiry, admin invalidation) and the
        consumer kept reading ``handle.active`` — healthy, not degraded,
        stale — until ``persist_refresh_interval`` happened to fire."""
        master = build_master()
        provider = ResyncProvider(master, idle_limit=2)
        net = FaultyNetwork()
        consumer = ResilientConsumer(
            REQUEST,
            provider,
            network=net,
            mode="persist",
            policy=RetryPolicy(persist_refresh_interval=10_000),
        )
        consumer.sync_once()
        handle = consumer.subscription(consumer.content).handle
        assert handle.active and list(net.persist_queues) == [handle.session_id]
        if ending == "expiry":  # another session's polls run the idle clock out
            other = SyncedContent(SearchRequest("o=xyz", Scope.SUB, "(sn=*)"))
            for _ in range(5):
                other.poll(provider)
            assert provider.active_session_count == 1
        else:
            provider.invalidate_cookie(handle.session_id)
            assert provider.active_session_count == 0
        assert not handle.active
        assert net.persist_queues == {}  # the endpoint closed with the session
        master.add(person("E9"))
        consumer.sync_once()  # dead handle seen: re-subscribed
        reopened = consumer.subscription(consumer.content).handle
        assert reopened is not handle and reopened.active
        assert consumer.content.matches_master(master)
        assert (net.open_connections, net.total_connections) == (1, 2)
