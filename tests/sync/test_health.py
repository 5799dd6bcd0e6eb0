"""The consumer health state machine: terminal states, quarantine
re-probes, breaker half-open behavior (docs/FAULTS.md §4).

Every test drives a :class:`ResilientConsumer` with a small
:class:`HealthPolicy` against an explicitly partitioned provider — the
cleanest sustained-fault source: every attempt raises
``NetworkPartitioned``, costs one round trip and nothing else.  The
load-bearing properties:

* budget exhaustion lands terminally in ``gave_up`` with the final
  ``sync.health.state`` sample at the gave_up index — and *stays* there
  without busy-looping (zero further round trips, zero clock drift);
* a quarantined consumer re-probes only on the configured virtual-clock
  interval, never in a tight loop;
* an open breaker sleeps out its cooldown, probes half-open with a
  single attempt, and either closes (success) or re-trips (failure).
"""

from repro.ldap import Entry, Scope, SearchRequest
from repro.server import DirectoryServer, FaultyNetwork, NetworkPartitioned, ResponseTruncated
from repro.sync import (
    HEALTH_STATES,
    DurabilityConfig,
    HealthPolicy,
    MemoryJournal,
    MemorySnapshotStore,
    ResilientConsumer,
    ResyncProvider,
    RetryPolicy,
    SyncedContent,
    SyncLink,
)

REQUEST = SearchRequest("o=xyz", Scope.SUB, "(departmentNumber=42)")

POLICY = RetryPolicy(
    max_attempts=2, base_backoff_ms=10.0, max_backoff_ms=100.0, degraded_after=2
)


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


def build_cell(health: HealthPolicy, name: str = "cell", mode: str = "poll"):
    """(master, provider, net, consumer) with one clean initial sync,
    then the provider partitioned away."""
    master = build_master()
    provider = ResyncProvider(master)
    net = FaultyNetwork()
    consumer = ResilientConsumer(
        REQUEST,
        provider,
        network=net,
        seed=1,
        mode=mode,
        policy=POLICY,
        health=health,
        name=name,
    )
    assert consumer.sync_once() is not None
    assert consumer.health_state == "healthy"
    net.partition(provider)
    return master, provider, net, consumer


def state_gauge(net: FaultyNetwork, name: str) -> float:
    return net.registry.gauge("sync.health.state").labels(consumer=name).value


class TestTerminalGaveUp:
    def test_attempt_budget_exhaustion_lands_in_gave_up(self):
        health = HealthPolicy(
            max_total_attempts=6,
            breaker_threshold=100,  # keep the breaker out of the way
            quarantine_after=100,
        )
        _, _, net, consumer = build_cell(health, name="budget")
        for _ in range(10):
            consumer.sync_once()
            if consumer.health_state == "gave_up":
                break
        assert consumer.health_state == "gave_up"
        snap = consumer.health_snapshot()
        assert snap["attempts_spent"] == health.max_total_attempts
        # The final state sample is the terminal index.
        assert state_gauge(net, "budget") == HEALTH_STATES.index("gave_up")
        assert net.registry.counter("sync.health.gave_up").value == 1
        # gave_up reads are stale by definition: degraded, never fresh.
        assert consumer.degraded

    def test_backoff_budget_exhaustion_also_gives_up(self):
        health = HealthPolicy(
            max_total_attempts=10_000,
            max_total_backoff_ms=30.0,  # a handful of 10ms-scale waits
            breaker_threshold=100,
            quarantine_after=100,
        )
        _, _, _, consumer = build_cell(health, name="wallclock")
        for _ in range(20):
            consumer.sync_once()
            if consumer.health_state == "gave_up":
                break
        assert consumer.health_state == "gave_up"
        snap = consumer.health_snapshot()
        assert snap["backoff_budget_ms"] >= health.max_total_backoff_ms

    def test_gave_up_is_terminal_and_never_busy_loops(self):
        health = HealthPolicy(
            max_total_attempts=4, breaker_threshold=100, quarantine_after=100
        )
        _, _, net, consumer = build_cell(health, name="terminal")
        while consumer.health_state != "gave_up":
            consumer.sync_once()
        trips = net.stats.round_trips
        clock = net.elapsed_ms + net.scheduler.now
        for _ in range(50):
            assert consumer.sync_once() is None
        # Zero further provider contact, zero virtual-clock drift: the
        # terminal state costs nothing, forever.
        assert net.stats.round_trips == trips
        assert net.elapsed_ms + net.scheduler.now == clock
        assert consumer.health_state == "gave_up"


class TestQuarantineReprobe:
    HEALTH = HealthPolicy(
        max_total_attempts=10_000,
        max_total_backoff_ms=10_000_000.0,
        breaker_threshold=2,
        breaker_cooldown_ms=500.0,
        quarantine_after=1,  # first trip escalates straight to quarantine
        quarantine_probe_ms=5_000.0,
    )

    def test_quarantined_reprobes_on_the_configured_interval(self):
        _, _, net, consumer = build_cell(self.HEALTH, name="parked")
        consumer.sync_once()  # 2 faults -> breaker trip -> quarantine
        assert consumer.health_state == "quarantined"
        for _ in range(3):
            before = net.stats.round_trips
            clock = net.elapsed_ms + net.scheduler.now
            consumer.sync_once()  # sleeps the interval, probes once
            assert net.stats.round_trips == before + 1  # single attempt
            waited = (net.elapsed_ms + net.scheduler.now) - clock
            assert waited >= self.HEALTH.quarantine_probe_ms
            assert consumer.health_state == "quarantined"  # re-benched
        assert net.registry.counter("sync.health.probes").value == 3

    def test_quarantine_parks_the_poll_session(self):
        # Parking is the durable provider's eq.-3 retain tier; a
        # provider without a journal refuses (best-effort relief).
        master = build_master()
        provider = ResyncProvider(
            master, durability=DurabilityConfig(), journal=MemoryJournal()
        )
        net = FaultyNetwork()
        consumer = ResilientConsumer(
            REQUEST,
            provider,
            network=net,
            seed=1,
            policy=POLICY,
            health=self.HEALTH,
            name="eq3",
        )
        assert consumer.sync_once() is not None
        net.partition(provider)
        assert consumer.content.cookie is not None
        consumer.sync_once()
        assert consumer.health_state == "quarantined"
        # The provider stopped accumulating per-session history: the
        # session was parked at the eq.-3 retain tier.
        assert net.registry.counter("sync.health.parked").value == 1
        assert (
            provider.server.metrics.counter("sync.durability.parked_sessions").value
            == 1
        )

    def test_successful_probe_leaves_quarantine_with_clean_slate(self):
        master, _, net, consumer = build_cell(self.HEALTH, name="comeback")
        consumer.sync_once()
        assert consumer.health_state == "quarantined"
        master.add(person("E9"))
        net.heal_partition()
        assert consumer.sync_once() is not None  # the probe succeeds
        assert consumer.health_state == "healthy"
        assert consumer.breaker_state == "closed"
        # The trip history that benched us is spent: the next fault
        # storm gets the full escalation ladder again.
        assert consumer.health_snapshot()["breaker_trips"] == 0
        assert not consumer.degraded
        assert consumer.content.matches_master(master)


class TestBreakerHalfOpen:
    HEALTH = HealthPolicy(
        max_total_attempts=10_000,
        max_total_backoff_ms=10_000_000.0,
        breaker_threshold=2,
        breaker_cooldown_ms=500.0,
        quarantine_after=10,
        quarantine_probe_ms=5_000.0,
    )

    def test_open_breaker_cools_down_then_probes_half_open(self):
        _, _, net, consumer = build_cell(self.HEALTH, name="breaker")
        consumer.sync_once()  # 2 consecutive faults trip the breaker
        assert consumer.breaker_state == "open"
        clock = net.elapsed_ms + net.scheduler.now
        before = net.stats.round_trips
        consumer.sync_once()  # cooldown sleep + single half-open probe
        assert (net.elapsed_ms + net.scheduler.now) - clock >= (
            self.HEALTH.breaker_cooldown_ms
        )
        assert net.stats.round_trips == before + 1
        # The failed probe re-tripped the breaker open.
        assert consumer.breaker_state == "open"
        assert consumer.health_snapshot()["breaker_trips"] == 2

    def test_successful_half_open_probe_closes_the_breaker(self):
        master, _, net, consumer = build_cell(self.HEALTH, name="closer")
        consumer.sync_once()
        assert consumer.breaker_state == "open"
        master.add(person("E9"))
        net.heal_partition()
        assert consumer.sync_once() is not None
        assert consumer.breaker_state == "closed"
        assert consumer.health_state == "healthy"
        assert consumer.content.matches_master(master)


class TestPersistModeHealth:
    def test_gave_up_persist_consumer_tears_down_its_subscription(self):
        health = HealthPolicy(
            max_total_attempts=4, breaker_threshold=100, quarantine_after=100
        )
        master = build_master()
        provider = ResyncProvider(master)
        net = FaultyNetwork()
        consumer = ResilientConsumer(
            REQUEST,
            provider,
            network=net,
            seed=2,
            mode="persist",
            policy=POLICY,
            health=health,
            name="persist-giveup",
        )
        assert consumer.sync_once() is not None
        net.partition(provider)
        while consumer.health_state != "gave_up":
            consumer.sync_once()
        # No orphaned subscription keeps charging the provider.
        assert consumer.subscription(consumer.content).handle is None
        trips = net.stats.round_trips
        for _ in range(20):
            assert consumer.sync_once() is None
        assert net.stats.round_trips == trips


class SketchCutNetwork(FaultyNetwork):
    """Polls get through; every sketch solicitation is partitioned."""

    def reconcile_exchange(self, provider, request, rreq):
        self.charge_round_trip()
        raise NetworkPartitioned("no route for the sketch exchange")


class TestSketchTierHonoursTheMachine:
    def test_gave_up_inside_the_sketch_tier_ends_the_cycle(self):
        """Regression: the reconcile ladder kept retrying after the
        budget ran out, fired ``gave_up`` once per extra fault, and
        ``sync_once`` then reloaded in the same cycle and ended
        ``healthy``."""
        master = build_master(20)  # warm: the refusal sketches
        provider = ResyncProvider(master)
        store = MemorySnapshotStore()
        first = ResilientConsumer(
            REQUEST, provider, network=FaultyNetwork(), snapshot_store=store
        )
        assert first.sync_once() is not None  # dumps content + cookie
        provider.invalidate_cookie(first.content.cookie)

        net = SketchCutNetwork()
        consumer = ResilientConsumer(
            REQUEST,
            provider,
            network=net,
            policy=RetryPolicy(max_attempts=8, base_backoff_ms=10.0),
            snapshot_store=store,
            health=HealthPolicy(max_total_attempts=2),
            name="sketch-cut",
        )
        assert consumer.warm_started
        reloads = net.registry.counter("sync.resilient.reloads")

        assert consumer.sync_once() is None  # refused cookie -> sketch tier
        assert consumer.health_snapshot()["attempts_spent"] == 2
        assert net.registry.counter("sync.health.gave_up").value == 1
        assert consumer.health_state == "gave_up"
        assert reloads.value == 0
        assert len(consumer.content) == 20  # the restored content stands

        trips = net.stats.round_trips
        assert consumer.sync_once() is None
        assert net.stats.round_trips == trips
        assert reloads.value == 0


class CountingLink(SyncLink):
    """Counts the round verdicts the machine is told."""

    verdicts = ()

    def succeeded(self) -> None:
        self.verdicts += ("succeeded",)
        super().succeeded()

    def failed(self) -> None:
        self.verdicts += ("failed",)
        super().failed()


class TestRoundSemantics:
    """One round over N contents is one gate, one retry budget and one
    verdict — counted in requests and calls, not on a clock."""

    ATTEMPTS = 4

    def build(self, contents: int = 12):
        master = build_master(contents)
        provider = ResyncProvider(master)
        net = FaultyNetwork()
        link = CountingLink(
            provider,
            network=net,
            policy=RetryPolicy(max_attempts=self.ATTEMPTS, base_backoff_ms=1.0),
            health=HealthPolicy(
                breaker_threshold=self.ATTEMPTS, breaker_cooldown_ms=500.0, quarantine_after=9
            ),
            name="round",
        )
        held = [
            SyncedContent(SearchRequest("o=xyz", Scope.SUB, f"(cn=E{i})"), network=net)
            for i in range(contents)
        ]
        assert link.sync(held) is not None
        assert all(len(content) == 1 for content in held)
        assert link.verdicts == ("succeeded",)
        return master, provider, net, link, held

    def test_a_dead_link_costs_one_retry_budget_however_many_contents(self):
        _, provider, net, link, held = self.build()
        net.partition(provider)
        trips = net.stats.round_trips
        assert link.sync(held) is None
        assert net.stats.round_trips - trips == self.ATTEMPTS
        assert link.attempts_spent == self.ATTEMPTS
        assert link.breaker_trips == 1 and link.position == "open"
        assert link.verdicts == ("succeeded", "failed")

    def test_a_half_open_round_sends_one_request(self):
        _, provider, net, link, held = self.build()
        net.partition(provider)
        link.sync(held)  # trips the breaker
        trips = net.stats.round_trips
        assert link.sync(held) is None  # cooldown slept out, one probe
        assert net.stats.round_trips - trips == 1
        assert net.registry.counter("sync.health.probes").value == 1
        assert link.position == "open"  # the failed probe re-tripped it

    def test_an_empty_round_leaves_the_machine_where_it_was(self):
        _, provider, net, link, held = self.build()
        net.partition(provider)
        link.sync(held)
        clock, trips = net.elapsed_ms, net.stats.round_trips
        assert link.sync([]) is None
        assert link.position == "open"  # the gate was not asked
        assert (net.elapsed_ms, net.stats.round_trips) == (clock, trips)
        assert link.verdicts == ("succeeded", "failed")

    def test_a_round_succeeded_only_when_every_content_applied(self):
        master, provider, net, link, held = self.build()
        net.partition(provider)
        link.sync(held)
        net.heal_partition(provider)
        master.delete("cn=E0,o=xyz")
        master.delete("cn=E11,o=xyz")

        polls = []
        serve = net.sync_exchange

        def cut_after_the_first(prov, requests, control):
            polls.append(requests)
            response = serve(prov, requests, control)[-1].response
            raise ResponseTruncated("cut before the twelfth", partial=response.cut(0.75))

        net.sync_exchange = cut_after_the_first
        assert link.sync(held) is None  # a probe round: one attempt
        assert [len(requests) for requests in polls] == [len(held)]  # one exchange
        assert len(held[0]) == 0 and len(held[11]) == 1  # the first's prefix applied, the twelfth did not
        assert link.verdicts == ("succeeded", "failed", "failed")
        assert link.failed_cycles == 2

        del net.sync_exchange
        assert link.sync(held) is not None
        assert len(held[11]) == 0
        assert link.verdicts == ("succeeded", "failed", "failed", "succeeded")
        assert link.failed_cycles == 0 and link.position == "closed"
