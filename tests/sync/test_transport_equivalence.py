"""The network's batched persist transport vs the in-process stream.

``provider.persist(request, callback)`` *is* the protocol: the callback
receives every notification inline with the master update, in order.
The network's transport (docs/TRANSPORT.md §5) puts a
:class:`~repro.sync.delivery.DeliveryQueue` in between, so its
observable behaviour must be provably tied to that direct stream:

* **Byte identity** (no overflow): for any update schedule, the
  concatenated encoded notification stream a persist session receives
  through the network is byte-for-byte the stream a direct
  ``provider.persist`` callback receives, and the applied contents
  match.
* **Content equivalence** (with overflow): past the high-water mark
  the queue coalesces per DN — the stream shrinks, but the applied
  content still converges to the reference's.
* **Fault equivalence**: under a seeded fault schedule the resilient
  consumer, after heal, converges to the content the fault-free direct
  stream holds.
* **Determinism**: same seed → identical scheduler event order, clock,
  metrics and delivered bytes across two in-process runs.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos import ReferenceModel
from repro.ldap import DN, Entry, Scope, SearchRequest
from repro.server import (
    DirectoryServer,
    FaultPlan,
    FaultSpec,
    FaultyNetwork,
    Modification,
    SimulatedNetwork,
)
from repro.sync import (
    BatchConfig,
    ResilientConsumer,
    ResyncProvider,
    RetryPolicy,
    SyncedContent,
)
from tests.oracles import encode_sync_update

REQUEST = SearchRequest("o=xyz", Scope.SUB, "(departmentNumber=42)")
NAMES = [f"P{i}" for i in range(6)]


def person(name: str, dept: str = "42", sn: str = "T") -> Entry:
    return Entry(
        f"cn={name},o=xyz",
        {"objectClass": ["person"], "cn": name, "sn": sn, "departmentNumber": dept},
    )


def build_master() -> DirectoryServer:
    master = DirectoryServer("M")
    master.add_naming_context("o=xyz")
    master.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
    for i, name in enumerate(NAMES):
        master.add(person(name, dept="42" if i % 2 == 0 else "99"))
    return master


def mutate(master: DirectoryServer, step: int) -> None:
    name = NAMES[step % len(NAMES)]
    dn = f"cn={name},o=xyz"
    kind = step % 5
    if kind == 0:
        master.modify(dn, [Modification.replace("sn", f"S{step}")])
    elif kind == 1:
        master.modify(dn, [Modification.replace("departmentNumber", "42")])
    elif kind == 2:
        master.modify(dn, [Modification.replace("departmentNumber", "99")])
    elif kind == 3:
        master.delete(dn)
        master.add(person(name))
    else:
        extra = f"cn=X{step},o=xyz"
        if DN.parse(extra) in master.store:  # Hypothesis may repeat a step
            master.modify(extra, [Modification.replace("sn", f"A{step}")])
        else:
            master.add(person(f"X{step}"))


def run_persist(steps, net, settle_each=False):
    """Drive one persist session over *net* through the update schedule;
    returns (master, content, delivered-notification byte stream, handle)."""
    master = build_master()
    provider = ResyncProvider(master)
    net.register(master)
    content = SyncedContent(REQUEST, network=net)
    stream = bytearray()

    def deliver(update):
        stream.extend(encode_sync_update(update))
        content.apply_notification(update)

    deliveries, handle = net.persist_exchange(provider, REQUEST, deliver)
    content.apply(deliveries[-1].response)
    for step in steps:
        mutate(master, step)
        if settle_each:
            net.settle()
    net.settle()
    return master, content, bytes(stream), handle


def run_direct(steps):
    """The reference: the same schedule into an in-process
    ``provider.persist`` callback; returns (master, content, stream)."""
    master = build_master()
    provider = ResyncProvider(master)
    content = SyncedContent(REQUEST)
    stream = bytearray()

    def deliver(update):
        stream.extend(encode_sync_update(update))
        content.apply_notification(update)

    response, _handle = provider.persist(REQUEST, deliver)
    content.apply(response)
    for step in steps:
        mutate(master, step)
    return master, content, bytes(stream)


def assert_same_content(a: SyncedContent, b: SyncedContent) -> None:
    assert {str(dn) for dn in a.entries} == {str(dn) for dn in b.entries}
    for dn in a.entries:
        assert a.entries[dn].semantically_equal(b.entries[dn])


class TestByteIdentity:
    @given(st.lists(st.integers(min_value=0, max_value=29), max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_delivered_stream_is_byte_identical(self, steps):
        """Below the high-water mark (settled every step so batches stay
        small), the queued session receives the direct stream's exact
        notification sequence — same payload bytes, same content."""
        _, direct, direct_stream = run_direct(steps)
        _, queued, queued_stream, _ = run_persist(
            steps,
            SimulatedNetwork(
                batch=BatchConfig(max_batch=64, max_age_ms=2.0, high_water=4096),
                seed=1,
            ),
            settle_each=True,
        )
        assert queued_stream == direct_stream
        assert_same_content(direct, queued)

    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_byte_identity_is_seed_independent(self, seed):
        steps = list(range(20))
        _, _, direct_stream = run_direct(steps)
        _, _, queued_stream, _ = run_persist(
            steps, SimulatedNetwork(seed=seed), settle_each=True
        )
        assert queued_stream == direct_stream


class TestContentEquivalenceUnderCoalescing:
    @given(st.lists(st.integers(min_value=0, max_value=29), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_coalesced_stream_converges_to_oracle_content(self, steps):
        """Never settled mid-run and squeezed through a tiny high-water
        mark, the queue degrades to per-DN coalescing: fewer bytes, the
        same final content."""
        _, direct, direct_stream = run_direct(steps)
        _, queued, queued_stream, handle = run_persist(
            steps,
            SimulatedNetwork(
                batch=BatchConfig(max_batch=4, max_age_ms=5.0, high_water=4),
                seed=2,
            ),
            settle_each=False,
        )
        assert_same_content(direct, queued)
        assert len(queued_stream) <= len(direct_stream)

    def test_backpressured_consumer_still_converges(self):
        net = SimulatedNetwork(
            batch=BatchConfig(max_batch=4, max_age_ms=2.0, high_water=4),
            seed=3,
        )
        master = build_master()
        provider = ResyncProvider(master)
        net.register(master)
        content = SyncedContent(REQUEST, network=net)
        deliveries, handle = net.persist_exchange(
            provider, REQUEST, content.apply_notification
        )
        content.apply(deliveries[-1].response)
        handle.delivery_queue.consumer_delay_ms = 100.0  # slow consumer
        for round_ in range(30):
            for step in range(6):
                mutate(master, step)
        # Queue memory stayed bounded by distinct DNs despite 180
        # updates against a consumer 100ms-per-batch slow.
        assert handle.delivery_queue.pending_count <= 8
        net.settle()
        assert content.matches_master(master)


class TestFaultEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        rate=st.floats(min_value=0.0, max_value=0.5),
        steps=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=30, deadline=None)
    def test_same_fault_schedule_same_converged_content(self, seed, rate, steps):
        """One seeded fault schedule over the network, the fault-free
        direct stream beside it: after heal the resilient consumer holds
        exactly what the direct callback was told."""
        master = build_master()
        provider = ResyncProvider(master)
        net = FaultyNetwork(
            FaultPlan(FaultSpec.uniform(rate), seed=seed),
            batch=BatchConfig(max_batch=4, max_age_ms=2.0, high_water=8),
            seed=seed,
        )
        net.register(master)
        consumer = ResilientConsumer(
            REQUEST,
            provider,
            network=net,
            seed=seed,
            mode="persist",
            policy=RetryPolicy(max_attempts=4, jitter=0.25, persist_refresh_interval=3),
        )
        for step in range(steps):
            mutate(master, step)
            consumer.sync_once()
        net.heal()
        assert ReferenceModel.of(master).converge(consumer.sync_once, [consumer.content], 16)

        master_d, direct, _ = run_direct(range(steps))
        # Identical mutation schedule → identical masters; both replicas
        # track them → identical replica content.
        assert direct.matches_master(master_d)
        assert_same_content(direct, consumer.content)


class TestDeterminism:
    def test_two_runs_identical_events_clock_and_bytes(self):
        def run():
            net = SimulatedNetwork(
                batch=BatchConfig(max_batch=4, max_age_ms=2.0, high_water=8),
                seed=11,
            )
            master, content, stream, handle = run_persist(
                list(range(25)), net, settle_each=False
            )
            return (
                stream,
                net.scheduler.events_run,
                net.scheduler.now,
                net.stats.as_dict(),
            )

        assert run() == run()

    def test_two_faulty_runs_identical(self):
        def run():
            net = FaultyNetwork(
                FaultPlan(FaultSpec.uniform(0.3), seed=5),
                batch=BatchConfig(max_batch=4, max_age_ms=2.0, high_water=8),
                seed=5,
            )
            try:
                master, content, stream, handle = run_persist(
                    list(range(20)), net, settle_each=False
                )
            except Exception as exc:  # a seeded subscribe fault is itself replayable
                return ("raised", type(exc).__name__)
            return (
                stream,
                net.fault_counts(),
                net.scheduler.events_run,
                net.scheduler.now,
                net.stats.as_dict(),
            )

        assert run() == run()


class TestCrashMidFlush:
    """Crash-mid-flush: batches deferred under backpressure when the
    server dies must be neither lost (the re-subscribed refresh covers
    them) nor double-applied (the stale queue dies with the old server
    incarnation and delivers nothing into the new one)."""

    @staticmethod
    def _small_batch_faulty(seed: int) -> FaultyNetwork:
        return FaultyNetwork(
            batch=BatchConfig(max_batch=4, max_age_ms=2.0, high_water=8),
            seed=seed,
        )

    def test_backpressured_batches_survive_crash_resubscribe(self):
        master = build_master()
        provider = ResyncProvider(master)
        net = self._small_batch_faulty(seed=13)
        net.register(master)
        consumer = ResilientConsumer(
            REQUEST,
            provider,
            network=net,
            seed=13,
            mode="persist",
            policy=RetryPolicy(max_attempts=6, persist_refresh_interval=10_000),
        )
        assert consumer.sync_once() is not None
        stale_handle = consumer.subscription(consumer.content).handle
        queue = stale_handle.delivery_queue
        queue.consumer_delay_ms = 50.0  # backpressure: defer flushes
        for step in range(12):
            mutate(master, step)
        assert queue.busy or queue.pending_count > 0  # work in flight
        epoch = net.crash_epoch
        net.crash(provider)
        # The connection dropped with the server incarnation: the
        # consumer was forcibly disconnected and the stale queue closed
        # with its pending batches discarded (they were never acked).
        assert net.crash_epoch == epoch + 1
        assert consumer.subscription(consumer.content).handle is None
        assert queue.pending_count == 0
        assert queue.flush() == 0
        # Re-subscribing replaces the content wholesale, so nothing the
        # stale queue held is lost; the live tail then flows through
        # the *new* incarnation's queue only.
        assert consumer.sync_once() is not None
        assert consumer.subscription(consumer.content).handle is not None
        assert consumer.subscription(consumer.content).handle is not stale_handle
        for step in range(6):
            mutate(master, step + 100)
        net.settle()
        assert consumer.content.matches_master(master)

    def test_stale_queue_never_delivers_after_crash(self):
        master = build_master()
        provider = ResyncProvider(master)
        net = self._small_batch_faulty(seed=17)
        net.register(master)
        content = SyncedContent(REQUEST, network=net)
        applied = []

        def deliver(update):
            applied.append(str(update.dn))
            content.apply_notification(update)

        deliveries, handle = net.persist_exchange(provider, REQUEST, deliver)
        content.apply(deliveries[-1].response)
        queue = handle.delivery_queue
        queue.consumer_delay_ms = 50.0
        for step in range(10):
            mutate(master, step)
        # Mid-flight: the consumer is busy applying a batch and/or more
        # batches sit deferred behind it, with retry/ack events armed
        # on the scheduler.
        assert queue.busy or queue.pending_count > 0
        before = len(applied)
        net.crash(provider)
        handle.abandon()  # what the forced disconnect does client-side
        net.settle()
        # Every armed retry/ack ran — and the closed queue delivered
        # nothing: no double-apply into the next incarnation.
        assert len(applied) == before
        assert queue.pending_count == 0

        # Re-subscribe past the restart window: the initial refresh
        # replaces the content, covering whatever the stale queue
        # discarded; the live tail applies exactly once per update.
        with pytest.raises(Exception):
            net.persist_exchange(provider, REQUEST, deliver)  # restarting
        deliveries2, handle2 = net.persist_exchange(provider, REQUEST, deliver)
        content.apply(deliveries2[-1].response)
        for step in range(6):
            mutate(master, step + 50)
        net.settle()
        assert content.matches_master(master)
        handle2.abandon()
