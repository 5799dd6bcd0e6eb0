"""Deterministic fault injection: plans, fault kinds, crash windows.

Every fault kind of :mod:`repro.server.faults` is exercised in
isolation with probability 1, asserting both the transport-level effect
(the raised :class:`TransportError` subclass or the shape of the
deliveries) and the ``net.fault.*`` accounting.  Determinism is the
load-bearing property — two plans with the same seed must produce
byte-identical schedules — because the fault matrix replays fixed
seeds.
"""

from dataclasses import replace

import pytest

from repro.ldap import Entry, ReSyncControl, Scope, SearchRequest, SyncMode
from repro.server import (
    DirectoryServer,
    FaultPlan,
    FaultSpec,
    FaultyNetwork,
    NetworkPartitioned,
    RequestDropped,
    ResponseDropped,
    ResponseTruncated,
    ServerUnavailable,
    TransportError,
    connect,
)
from repro.sync import (
    ResilientConsumer,
    ResyncProvider,
    SyncProtocolError,
    SyncedContent,
)

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


def poll_control(content: SyncedContent) -> ReSyncControl:
    return ReSyncControl(mode=SyncMode.POLL, cookie=content.cookie)


class TestFaultSpec:
    def test_probability_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(drop_request=1.5)
        with pytest.raises(ValueError):
            FaultSpec(crash=-0.1)
        with pytest.raises(ValueError):
            FaultSpec(crash_length=0)

    def test_uniform_scales_crash_down(self):
        spec = FaultSpec.uniform(0.4)
        assert spec.drop_request == 0.4
        assert spec.crash == 0.1
        assert spec.cookie_invalidate == 0.1

    def test_uniform_overrides(self):
        spec = FaultSpec.uniform(0.4, crash=0.0, max_delay_ms=50.0)
        assert spec.crash == 0.0
        assert spec.max_delay_ms == 50.0


class TestFaultPlanDeterminism:
    def test_same_seed_same_schedule(self):
        spec = FaultSpec.uniform(0.3)
        a = FaultPlan(spec, seed=42)
        b = FaultPlan(spec, seed=42)
        assert [a.next_exchange() for _ in range(50)] == [
            b.next_exchange() for _ in range(50)
        ]
        assert [a.next_notification() for _ in range(50)] == [
            b.next_notification() for _ in range(50)
        ]

    def test_different_seeds_differ(self):
        spec = FaultSpec.uniform(0.3)
        a = [FaultPlan(spec, seed=1).next_exchange() for _ in range(20)]
        b = [FaultPlan(spec, seed=2).next_exchange() for _ in range(20)]
        assert a != b

    def test_streams_independent(self):
        # Drawing notifications between exchanges must not shift the
        # exchange schedule (decision i depends on (seed, i) alone).
        spec = FaultSpec.uniform(0.3)
        plain = FaultPlan(spec, seed=7)
        interleaved = FaultPlan(spec, seed=7)
        expected = [plain.next_exchange() for _ in range(10)]
        got = []
        for _ in range(10):
            interleaved.next_notification()
            got.append(interleaved.next_exchange())
        assert got == expected


def faulty(spec: FaultSpec, seed: int = 0) -> FaultyNetwork:
    return FaultyNetwork(FaultPlan(spec, seed=seed))


class TestFaultKinds:
    def test_drop_request_charges_and_records(self):
        net = faulty(FaultSpec(drop_request=1.0))
        provider = ResyncProvider(build_master())
        content = SyncedContent(REQUEST, network=net)
        with pytest.raises(RequestDropped):
            content.poll(provider)
        assert net.fault_counts() == {"drop_request": 1}
        assert net.stats.round_trips == 1  # the attempt still cost a trip
        assert provider.active_session_count == 0  # server never saw it

    def test_drop_response_after_server_processed(self):
        net = faulty(FaultSpec(drop_response=1.0))
        provider = ResyncProvider(build_master())
        content = SyncedContent(REQUEST, network=net)
        with pytest.raises(ResponseDropped):
            content.poll(provider)
        # The poll executed at the master: a session exists even though
        # the consumer saw nothing.
        assert provider.active_session_count == 1
        assert net.fault_counts() == {"drop_response": 1}

    def test_duplicate_delivers_twice(self):
        net = faulty(FaultSpec(duplicate=1.0))
        provider = ResyncProvider(build_master(n=3))
        content = SyncedContent(REQUEST, network=net)
        content.poll(provider)
        assert content.matches_master(provider.server)
        assert content.updates_applied == 6  # 3 entries applied twice
        assert net.fault_counts() == {"duplicate": 1}

    def test_delay_is_carried_on_delivery(self):
        net = faulty(FaultSpec(delay=1.0, max_delay_ms=500.0))
        provider = ResyncProvider(build_master())
        deliveries = net.sync_exchange(
            provider, REQUEST, ReSyncControl(mode=SyncMode.POLL, cookie=None)
        )
        assert len(deliveries) == 1
        assert 0.0 < deliveries[0].delay_ms <= 500.0
        assert net.fault_counts() == {"delay": 1}

    def test_truncate_carries_cookieless_prefix(self):
        net = faulty(FaultSpec(truncate=1.0))
        provider = ResyncProvider(build_master(n=4))
        content = SyncedContent(REQUEST, network=net)
        with pytest.raises(ResponseTruncated) as excinfo:
            content.poll(provider)
        partial = excinfo.value.partial
        assert partial is not None
        assert partial.cookie is None  # the cookie travels last
        assert len(partial.updates) < 4  # a proper prefix
        assert net.fault_counts() == {"truncate": 1}

    def test_cookie_invalidate_forces_reload_path(self):
        net = faulty(FaultSpec())  # first poll clean
        master = build_master()
        provider = ResyncProvider(master)
        content = SyncedContent(REQUEST, network=net)
        content.poll(provider)
        net.plan = FaultPlan(FaultSpec(cookie_invalidate=1.0), seed=0)
        with pytest.raises(SyncProtocolError):
            content.poll(provider)
        assert net.fault_counts() == {"cookie_invalidate": 1}
        # §5 recovery: a reload converges (fresh sessions are unaffected
        # because invalidation only applies to presented cookies).
        content.reload(provider)
        assert content.matches_master(master)

    def test_cookie_invalidate_ends_a_resumed_subscription_server_side(self):
        """Regression: ``persist_exchange`` garbled a resumption cookie
        in flight with its own copy of the invalidator and never asked
        the provider, so the refused session stayed alive server-side
        where the poll path's invalidator ends it."""
        net = faulty(FaultSpec())
        provider = ResyncProvider(build_master())
        content = SyncedContent(REQUEST, network=net)
        content.poll(provider)
        assert provider.active_session_count == 1
        net.plan = FaultPlan(FaultSpec(cookie_invalidate=1.0), seed=0)
        with pytest.raises(SyncProtocolError):
            net.persist_exchange(
                provider, REQUEST, content.apply_notification, cookie=content.cookie
            )
        assert net.fault_counts() == {"cookie_invalidate": 1}
        assert provider.active_session_count == 0
        assert net.persist_queues == {}


class TestCrashWindows:
    def test_crash_loses_sessions_and_opens_window(self):
        master = build_master()
        provider = ResyncProvider(master)
        net = FaultyNetwork()  # plan-less: perfect
        content = SyncedContent(REQUEST, network=net)
        content.poll(provider)
        assert provider.active_session_count == 1

        net.plan = FaultPlan(FaultSpec(crash=1.0, crash_length=2), seed=0)
        epoch_before = net.crash_epoch
        with pytest.raises(ServerUnavailable):
            content.poll(provider)  # crash + first unavailable attempt
        assert net.crash_epoch == epoch_before + 1
        assert provider.active_session_count == 0  # session state died

        net.plan = None  # no further faults; the window still runs
        with pytest.raises(ServerUnavailable):
            content.poll(provider)  # second (last) unavailable attempt
        # Server is back up, but it forgot the cookie: §5's reload path.
        with pytest.raises(SyncProtocolError):
            content.poll(provider)
        content.reload(provider)
        assert content.matches_master(master)
        counts = net.fault_counts()
        assert counts["crash"] == 1
        assert counts["unavailable"] == 2

    def test_crash_drops_registered_connections(self):
        net = FaultyNetwork()
        server = build_master()
        net.register(server)
        provider = ResyncProvider(server)
        conn = connect(net, server.url)
        assert net.open_connections == 1

        net.plan = FaultPlan(FaultSpec(crash=1.0, crash_length=1), seed=0)
        content = SyncedContent(REQUEST, network=net)
        with pytest.raises(ServerUnavailable):
            content.poll(provider)
        assert net.open_connections == 0  # forced drop, not a leak
        conn.drop()  # idempotent: a second close must not go negative
        assert net.open_connections == 0

    def test_unavailability_charges_round_trips(self):
        net = faulty(FaultSpec(crash=1.0, crash_length=3))
        provider = ResyncProvider(build_master())
        content = SyncedContent(REQUEST, network=net)
        with pytest.raises(ServerUnavailable):
            content.poll(provider)
        assert net.stats.round_trips == 1  # the timed-out attempt cost one


class TestHealAndCounts:
    def test_heal_restores_perfect_network(self):
        net = faulty(FaultSpec(drop_response=1.0))
        master = build_master()
        provider = ResyncProvider(master)
        content = SyncedContent(REQUEST, network=net)
        with pytest.raises(ResponseDropped):
            content.poll(provider)
        net.heal()
        content.poll(provider)
        assert content.matches_master(master)

    def test_heal_ends_crash_window(self):
        net = faulty(FaultSpec(crash=1.0, crash_length=10))
        provider = ResyncProvider(build_master())
        content = SyncedContent(REQUEST, network=net)
        with pytest.raises(ServerUnavailable):
            content.poll(provider)
        net.heal()
        content.poll(provider)  # no residual window

    def test_fault_counts_aggregate_by_kind(self):
        net = faulty(FaultSpec(drop_request=1.0))
        provider = ResyncProvider(build_master())
        content = SyncedContent(REQUEST, network=net)
        for _ in range(3):
            with pytest.raises(RequestDropped):
                content.poll(provider)
        assert net.fault_counts() == {"drop_request": 3}
        assert net.registry.counter("net.fault.injected").value == 3


class TestNotificationFaults:
    """Per-PDU faults inside a delivered batch (the ``:n`` stream at the
    ``deliver_batch`` seam)."""

    @staticmethod
    def subscribed(master):
        provider = ResyncProvider(master)
        net = FaultyNetwork()  # subscribe cleanly
        content = SyncedContent(REQUEST, network=net)
        deliveries, handle = net.persist_exchange(
            provider, REQUEST, content.apply_notification
        )
        content.apply(deliveries[-1].response)
        assert content.matches_master(master)
        return net, content, handle

    def test_dropped_and_duplicated_notifications(self):
        master = build_master(n=2)
        net, content, handle = self.subscribed(master)

        # Every notification dropped: the replica silently diverges —
        # exactly why persist consumers need periodic refreshes.
        net.plan = FaultPlan(FaultSpec(notification_drop=1.0), seed=0)
        before = net.stats.as_dict()
        master.add(person("E9"))
        net.settle()
        assert not content.matches_master(master)
        assert net.fault_counts() == {"notification_drop": 1}
        # Dropped provider-side, before encoding: nothing on the wire.
        assert net.stats.as_dict() == before

        # Every notification duplicated: harmless (idempotent apply),
        # and both copies travel in — and are charged with — the frame.
        net.plan = FaultPlan(FaultSpec(notification_duplicate=1.0), seed=0)
        master.add(person("E10"))
        net.settle()
        assert "cn=E10,o=xyz" in {str(dn) for dn in content.dns()}
        assert net.fault_counts()["notification_duplicate"] == 1
        assert net.stats.sync_entry_pdus - before["sync_entry_pdus"] == 2
        handle.abandon()

    def test_one_pdu_dropped_inside_a_batch(self):
        """A drop takes one PDU out of the frame; its batch-mates arrive."""

        class DropSecond(FaultPlan):
            def next_notification(self):
                super().next_notification()  # advances the :n index
                return (self.drawn["n"] == 2, False)

        master = build_master(n=2)
        net, content, handle = self.subscribed(master)
        net.plan = DropSecond(FaultSpec(notification_drop=0.5), seed=0)
        for name in ("E7", "E8", "E9"):
            master.add(person(name))
        assert net.settle() >= 1  # one age-timer flush carries all three
        added = {str(dn) for dn in content.dns()} & {f"cn=E{i},o=xyz" for i in (7, 8, 9)}
        assert added == {"cn=E7,o=xyz", "cn=E9,o=xyz"}
        assert net.fault_counts() == {"notification_drop": 1}
        assert net.registry.counter("sync.batch.delivered").value == 2
        handle.abandon()

    def test_one_pdu_duplicated_inside_a_batch(self):
        """A duplicate rides the same frame: three PDUs for two updates."""

        class DuplicateFirst(FaultPlan):
            def next_notification(self):
                super().next_notification()  # advances the :n index
                return (False, self.drawn["n"] == 1)

        master = build_master(n=2)
        net, content, handle = self.subscribed(master)
        net.plan = DuplicateFirst(FaultSpec(notification_duplicate=0.5), seed=0)
        applied = content.updates_applied
        pdus = net.stats.sync_entry_pdus
        master.add(person("E8"))
        master.add(person("E9"))
        net.settle()
        assert content.matches_master(master)
        assert content.updates_applied - applied == 3
        assert net.stats.sync_entry_pdus - pdus == 3
        assert net.fault_counts() == {"notification_duplicate": 1}
        handle.abandon()

    def test_notification_stream_is_gated_by_the_spec(self):
        """Like ``:p``: a spec without notification faults never draws
        from ``:n``, so enabling them later starts at decision 0."""
        master = build_master(n=2)
        net, content, handle = self.subscribed(master)
        net.plan = FaultPlan(FaultSpec(drop_request=0.3), seed=0)
        master.add(person("E9"))
        net.settle()
        assert net.plan.drawn["n"] == 0
        assert net.plan.drawn["b"] == 1
        assert content.matches_master(master)
        handle.abandon()


class TestReachabilityFaults:
    def test_explicit_partition_heals_with_session_intact(self):
        net = FaultyNetwork()
        master = build_master()
        provider = ResyncProvider(master)
        content = SyncedContent(REQUEST, network=net)
        content.poll(provider)
        epoch = net.crash_epoch
        net.partition(provider)
        assert net.is_partitioned(provider)
        with pytest.raises(NetworkPartitioned):
            content.poll(provider)
        # The attempt still cost a round trip (request sent, timeout
        # waited out) and was recorded under the partition kind.
        assert net.fault_counts() == {"partition": 1}
        assert net.stats.round_trips == 2
        net.heal_partition(provider)
        assert not net.is_partitioned(provider)
        # Unlike a crash, the server's session state survived: the same
        # cookie resumes and crash_epoch never bumped.
        master.add(person("E9"))
        content.poll(provider)
        assert net.crash_epoch == epoch
        assert "cn=E9,o=xyz" in {str(dn) for dn in content.dns()}
        assert provider.active_session_count == 1

    def test_plan_driven_partition_window_self_heals(self):
        net = faulty(FaultSpec(partition=1.0, partition_length=2))
        provider = ResyncProvider(build_master())
        content = SyncedContent(REQUEST, network=net)
        for _ in range(2):
            with pytest.raises(NetworkPartitioned):
                content.poll(provider)
        # The cut lasted partition_length attempts; with the plan
        # swapped idle the window has expired and service resumes.
        net.plan = FaultPlan(FaultSpec(), seed=0)
        content.poll(provider)
        assert net.fault_counts() == {"partition": 2}
        assert len(content) == 4

    def test_slow_node_inflates_elapsed_and_records(self):
        net = FaultyNetwork()
        provider = ResyncProvider(build_master())
        content = SyncedContent(REQUEST, network=net)
        content.poll(provider)
        base = net.elapsed_ms
        net.set_slow(provider, 40.0)
        content.poll(provider)
        assert net.elapsed_ms >= base + 40.0
        assert net.fault_counts() == {"slow": 1}
        net.clear_slow(provider)
        content.poll(provider)
        assert net.fault_counts() == {"slow": 1}  # surcharge gone

    def test_plan_driven_slow_adds_transient_latency(self):
        net = faulty(FaultSpec(slow=1.0, slow_latency_ms=25.0))
        provider = ResyncProvider(build_master())
        content = SyncedContent(REQUEST, network=net)
        content.poll(provider)
        counts = net.fault_counts()
        assert counts.get("slow") == 1
        assert net.elapsed_ms > 0


class TestStreamIndependence:
    """Satellite regression: enabling one seed stream must never shift
    another stream's draw sequence (each decision *i* of stream *s* is
    ``Random(f"{seed}:{s}{i}")``, keyed by index alone)."""

    def test_unrelated_draws_do_not_shift_exchange_stream(self):
        spec = FaultSpec.uniform(0.3)
        plain = FaultPlan(spec, seed=9)
        expected = [plain.next_exchange() for _ in range(10)]
        noisy = FaultPlan(spec, seed=9)
        got = []
        for _ in range(10):
            noisy.next_batch()
            noisy.next_journal()
            noisy.next_reconcile()
            noisy.next_snapshot()
            noisy.next_partition()
            got.append(noisy.next_exchange())
        assert got == expected
        # One counter per stream of the table, each advanced only by
        # its own draws.
        assert plain.drawn == {"x": 10, "p": 0, "r": 0, "b": 0, "n": 0, "j": 0, "s": 0}
        assert noisy.drawn == {"x": 10, "p": 10, "r": 10, "b": 10, "n": 0, "j": 10, "s": 10}

    @staticmethod
    def _drive(spec: FaultSpec, cycles: int = 12):
        """A fixed mutate+poll loop; returns the observable trace."""
        net = faulty(spec, seed=5)
        master = build_master()
        provider = ResyncProvider(master)
        content = SyncedContent(REQUEST, network=net)
        for i in range(cycles):
            master.add(person(f"X{i}"))
            try:
                content.poll(provider)
            except TransportError:
                pass
        return {
            "faults": net.fault_counts(),
            "drawn": {s: n for s, n in net.plan.drawn.items() if s != "p"},
            "round_trips": net.stats.round_trips,
            "elapsed_ms": net.elapsed_ms,
            "dns": sorted(str(dn) for dn in content.dns()),
        }

    def test_enabling_unrelated_streams_keeps_fault_trace_identical(self):
        # A plain poll loop never flushes persist batches, never crashes
        # a journaled provider, never reconciles and never reads a
        # snapshot — so cranking those streams to 0.9 must leave the
        # exchange-stream trace byte-identical.
        base = FaultSpec(
            drop_request=0.35,
            drop_response=0.25,
            truncate=0.3,
            duplicate=0.25,
            delay=0.3,
            max_delay_ms=20.0,
        )
        loud = replace(
            base,
            batch_drop=0.9,
            batch_truncate=0.9,
            journal_truncate=0.9,
            journal_corrupt=0.9,
            sketch_corrupt=0.9,
            snapshot_truncate=0.9,
            snapshot_corrupt=0.9,
            snapshot_stale=0.9,
        )
        assert self._drive(base) == self._drive(loud)

    def test_partition_stream_gating_leaves_exchange_trace_identical(self):
        # Enabling the :p stream with a zero-latency slow fault draws
        # reachability decisions every exchange but changes nothing
        # observable — the :x stream must not shift.
        base = FaultSpec(
            drop_request=0.35,
            drop_response=0.25,
            truncate=0.3,
            duplicate=0.25,
            delay=0.3,
            max_delay_ms=20.0,
        )
        gated = replace(base, slow=1.0, slow_latency_ms=0.0)
        assert self._drive(base) == self._drive(gated)
        assert faulty(base).plan.enables("p") is False
        assert faulty(gated).plan.enables("p") is True

    def test_salt_rng_does_not_perturb_backoff_jitter(self):
        # Regression: the reconcile salt draws from its own RNG; one
        # consumer reconciling must not shift its backoff jitter
        # sequence relative to an identical consumer that never did.
        provider = ResyncProvider(build_master())
        a = ResilientConsumer(REQUEST, provider, seed=3, name="a")
        b = ResilientConsumer(REQUEST, provider, seed=3, name="b")
        for _ in range(5):
            a._sketch._salt_rng.getrandbits(32)
        assert [a._rng.random() for _ in range(10)] == [
            b._rng.random() for _ in range(10)
        ]
