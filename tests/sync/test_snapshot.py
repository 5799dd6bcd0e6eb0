"""Consumer snapshots: warm starts, damage detection, ladder fall-through.

The fault-matrix cells at the bottom are seeded from ``RECOVERY_SEEDS``
(default ``101,202,303``), each seed a different deterministic damage
schedule.  Replay one cell locally with ``RECOVERY_SEEDS=202 pytest
tests/sync/test_snapshot.py``.
"""

import os

import pytest

from repro.chaos import ReferenceModel
from repro.ldap import Entry, Scope, SearchRequest
from repro.server import (
    DirectoryServer,
    FaultPlan,
    FaultSpec,
    FaultyNetwork,
)
from repro.sync import (
    FileSnapshotStore,
    MemorySnapshotStore,
    ResilientConsumer,
    ResyncProvider,
    SnapshotError,
    SnapshotRecoverer,
    SyncedContent,
)
from repro.sync.snapshot import decode_snapshot, encode_snapshot

SEEDS = [int(s) for s in os.environ.get("RECOVERY_SEEDS", "101,202,303").split(",")]

REQUEST = SearchRequest("o=xyz", Scope.SUB, "(departmentNumber=42)")


def person(name: str) -> Entry:
    return Entry(
        f"cn={name},o=xyz",
        {"objectClass": ["person"], "cn": name, "sn": "T", "departmentNumber": "42"},
    )


def build_master(n: int = 30) -> DirectoryServer:
    master = DirectoryServer("M")
    master.add_naming_context("o=xyz")
    master.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
    for i in range(n):
        master.add(person(f"E{i}"))
    return master


def entries(n: int = 5):
    return [person(f"E{i}") for i in range(n)]


# ----------------------------------------------------------------------
# document format
# ----------------------------------------------------------------------
class TestDocument:
    def test_roundtrip(self):
        text = encode_snapshot(entries(), "s1:4")
        doc = decode_snapshot(text)
        assert doc.cookie == "s1:4"
        assert len(doc.entries) == 5
        assert doc.size_bytes == len(text.encode("utf-8"))

    def test_none_cookie_roundtrip(self):
        doc = decode_snapshot(encode_snapshot(entries(), None))
        assert doc.cookie is None

    def test_entries_roundtrip_values(self):
        original = person("E0")
        doc = decode_snapshot(encode_snapshot([original], "s1:0"))
        restored = doc.entries[original.dn]
        for name in original.attribute_names():
            assert restored.get(name) == original.get(name)

    def test_foreign_text_rejected(self):
        with pytest.raises(SnapshotError, match="repro-snapshot"):
            decode_snapshot("dn: cn=a,o=xyz\ncn: a\n")

    def test_truncation_detected(self):
        text = encode_snapshot(entries(), "s1:4")
        with pytest.raises(SnapshotError, match="checksum"):
            decode_snapshot(text[: len(text) - 20])

    def test_corruption_detected(self):
        text = encode_snapshot(entries(), "s1:4")
        damaged = text[:-10] + "X" + text[-9:]
        with pytest.raises(SnapshotError):
            decode_snapshot(damaged)


# ----------------------------------------------------------------------
# stores
# ----------------------------------------------------------------------
@pytest.fixture(params=["memory", "file"])
def store(request, tmp_path):
    if request.param == "memory":
        return MemorySnapshotStore()
    return FileSnapshotStore(str(tmp_path / "replica"))


class TestStore:
    def test_empty_load(self, store):
        assert store.load() is None
        assert store.size_bytes == 0

    def test_save_load(self, store):
        size = store.save(entries(), "s1:2")
        assert size == store.size_bytes > 0
        doc = decode_snapshot(store.load())
        assert doc.cookie == "s1:2"
        assert len(doc.entries) == 5

    def test_save_replaces(self, store):
        store.save(entries(5), "s1:1")
        store.save(entries(2), "s1:9")
        doc = decode_snapshot(store.load())
        assert doc.cookie == "s1:9"
        assert len(doc.entries) == 2

    def test_discard(self, store):
        store.save(entries(), "s1:1")
        store.discard()
        assert store.load() is None
        store.discard()  # idempotent

    def test_damage_truncate_detected(self, store):
        store.save(entries(), "s1:1")
        store.damage_truncate(0.6)
        with pytest.raises(SnapshotError):
            decode_snapshot(store.load())

    def test_damage_corrupt_detected(self, store):
        store.save(entries(), "s1:1")
        store.damage_corrupt(0.7)
        with pytest.raises(SnapshotError):
            decode_snapshot(store.load())

    def test_damage_stale_cookie_stays_valid(self, store):
        store.save(entries(), "s1:1")
        store.damage_stale_cookie()
        doc = decode_snapshot(store.load())  # content still verifies
        assert doc.cookie == "stale-snapshot-cookie:0"
        assert len(doc.entries) == 5

    def test_file_save_is_atomic_replace(self, tmp_path):
        fstore = FileSnapshotStore(str(tmp_path / "replica"))
        fstore.save(entries(), "s1:1")
        assert not os.path.exists(fstore.path + ".tmp")
        # A second save goes through the temp file again and never
        # leaves it behind.
        fstore.save(entries(2), "s1:2")
        assert not os.path.exists(fstore.path + ".tmp")
        assert decode_snapshot(fstore.load()).cookie == "s1:2"


# ----------------------------------------------------------------------
# staged recoverer
# ----------------------------------------------------------------------
class TestRecoverer:
    def make(self, store):
        content = SyncedContent(REQUEST)
        return SnapshotRecoverer(store, content), content

    def test_miss_stays_idle(self):
        recoverer, content = self.make(MemorySnapshotStore())
        assert recoverer.warm_start() is False
        assert recoverer.stage == "idle"
        assert len(content) == 0

    def test_warm_start_installs(self):
        store = MemorySnapshotStore()
        store.save(entries(4), "s7:3")
        recoverer, content = self.make(store)
        assert recoverer.warm_start() is True
        assert recoverer.stage == "resuming"
        assert len(content) == 4
        assert content.cookie == "s7:3"
        recoverer.mark_live()
        assert recoverer.stage == "live"

    def test_damaged_snapshot_never_applied(self):
        store = MemorySnapshotStore()
        store.save(entries(4), "s7:3")
        store.damage_corrupt(0.8)
        recoverer, content = self.make(store)
        assert recoverer.warm_start() is False
        assert recoverer.stage == "discarded"
        assert len(content) == 0 and content.cookie is None
        # Consulted exactly once: the damaged dump is gone.
        assert store.load() is None

    def test_save_dumps_content(self):
        store = MemorySnapshotStore()
        recoverer, content = self.make(store)
        content.entries = {e.dn: e for e in entries(3)}
        content.cookie = "s2:5"
        size = recoverer.save()
        assert size == store.size_bytes > 0
        doc = decode_snapshot(store.load())
        assert doc.cookie == "s2:5" and len(doc.entries) == 3


# ----------------------------------------------------------------------
# consumer integration: the ladder's first rung
# ----------------------------------------------------------------------
def run_session(provider, store, master, cycles: int = 1):
    """One replica lifetime: sync *cycles* times, snapshotting."""
    net = FaultyNetwork()
    consumer = ResilientConsumer(
        REQUEST, provider, network=net, snapshot_store=store
    )
    for _ in range(cycles):
        consumer.sync_once()
    assert consumer.content.matches_master(master)
    return consumer, net


class TestConsumerWarmStart:
    def test_restart_resumes_in_o_delta(self):
        master = build_master(40)
        provider = ResyncProvider(master)
        store = MemorySnapshotStore()
        run_session(provider, store, master)

        for i in range(3):
            master.add(person(f"N{i}"))

        warm_net = FaultyNetwork()
        restarted = ResilientConsumer(
            REQUEST, provider, network=warm_net, snapshot_store=store
        )
        assert restarted.warm_started
        assert len(restarted.content) == 40  # restored before any poll
        restarted.sync_once()
        assert restarted.content.matches_master(master)

        cold_net = FaultyNetwork()
        cold = ResilientConsumer(REQUEST, provider, network=cold_net)
        cold.sync_once()
        assert cold.content.matches_master(master)

        # The warm start paid for the 3 new entries, not the 43.
        assert warm_net.stats.bytes_sent * 5 <= cold_net.stats.bytes_sent
        stage = warm_net.registry.gauge("sync.snapshot.stage")
        assert stage.value == 4  # live

    def test_a_restarted_persist_consumer_opens_by_sketch(self):
        """A persist consumer's snapshot holds no cookie (a subscription
        has none), so its warm restart opens with nothing to resume: it
        opens by sketch over the restored content and fetches the delta.
        Regression: it re-subscribed with a null cookie, a full load
        that threw the restored content away."""
        master = build_master(40)
        provider = ResyncProvider(master)
        store = MemorySnapshotStore()
        first = ResilientConsumer(
            REQUEST, provider, network=FaultyNetwork(), mode="persist", snapshot_store=store
        )
        first.sync_once()
        first.close()
        for i in range(3):
            master.add(person(f"N{i}"))

        net = FaultyNetwork()
        restarted = ResilientConsumer(
            REQUEST, provider, network=net, mode="persist", snapshot_store=store
        )
        assert restarted.warm_started and restarted.content.cookie is None
        assert restarted.sync_once() is not None
        assert ReferenceModel.of(master).holds(restarted.content)
        assert net.registry.counter("sync.reconcile.decode_success").value == 1
        assert net.stats.sync_entry_pdus == 3  # the new entries, not the 43
        assert restarted.subscription(restarted.content).handle.active
        assert (net.open_connections, provider.active_session_count) == (1, 1)

    def test_restart_keeps_values_stored_under_an_alias(self):
        # The snapshot is LDIF, which names attributes canonically: the
        # restored `sn:` is the `surname:` the master holds.
        master = build_master(0)
        for i in range(40):
            master.add(
                Entry(
                    f"cn=A{i},o=xyz",
                    {
                        "objectClass": ["person"],
                        "commonName": f"A{i}",
                        "surname": "aa",
                        "departmentNumber": "42",
                    },
                )
            )
        provider = ResyncProvider(master)
        store = MemorySnapshotStore()
        by_alias = SearchRequest("o=xyz", Scope.SUB, "(surname=aa)")
        first, _net = run_session(provider, store, master)
        assert len(first.content.evaluate(by_alias)) == 40

        restarted = ResilientConsumer(
            REQUEST, provider, network=FaultyNetwork(), snapshot_store=store
        )
        assert restarted.warm_started
        assert restarted.content.matches_master(master)
        assert len(restarted.content.evaluate(by_alias)) == 40

    def test_snapshot_saved_every_interval(self):
        master = build_master(10)
        provider = ResyncProvider(master)
        store = MemorySnapshotStore()
        net = FaultyNetwork()
        consumer = ResilientConsumer(
            REQUEST, provider, network=net, snapshot_store=store,
            snapshot_interval=3,
        )
        for _ in range(6):
            consumer.sync_once()
        assert net.registry.counter("sync.snapshot.saves").value == 2

    def test_corrupt_snapshot_falls_through_to_rebuild(self):
        master = build_master(20)
        provider = ResyncProvider(master)
        store = MemorySnapshotStore()
        run_session(provider, store, master)
        store.damage_corrupt(0.5)

        net = FaultyNetwork()
        restarted = ResilientConsumer(
            REQUEST, provider, network=net, snapshot_store=store
        )
        assert not restarted.warm_started
        assert restarted.snapshot_recoverer.stage == "discarded"
        assert len(restarted.content) == 0  # never applied
        restarted.sync_once()
        assert restarted.content.matches_master(master)
        assert net.registry.counter("sync.snapshot.discarded").value == 1

    def test_stale_cookie_enters_reconcile_tier(self):
        master = build_master(30)
        provider = ResyncProvider(master)
        store = MemorySnapshotStore()
        run_session(provider, store, master)
        store.damage_stale_cookie()
        master.add(person("Z0"))

        net = FaultyNetwork()
        restarted = ResilientConsumer(
            REQUEST, provider, network=net, snapshot_store=store
        )
        assert restarted.warm_started
        restarted.sync_once()
        assert restarted.content.matches_master(master)
        # Content restored + refused cookie → the sketch tier ran
        # instead of a full reload (O(delta), docs/RECOVERY.md).
        assert net.registry.counter("sync.reconcile.attempts").value == 1
        assert net.registry.counter("sync.resilient.reloads").value == 0

    def test_refusal_after_first_success_takes_the_same_tier(self):
        """There is no snapshot exemption to end: a cookie refused after
        the restored session went live enters the sketch tier exactly
        like the just-restored one (docs/RECOVERY.md decision table)."""
        master = build_master(20)  # warm: more than the sketch floor
        provider = ResyncProvider(master)
        store = MemorySnapshotStore()
        run_session(provider, store, master)

        net = FaultyNetwork()
        restarted = ResilientConsumer(
            REQUEST, provider, network=net, snapshot_store=store
        )
        restarted.sync_once()
        assert restarted.snapshot_recoverer.stage == "live"
        provider.invalidate_cookie(restarted.content.cookie)
        master.add(person("Z1"))
        restarted.sync_once()
        assert restarted.content.matches_master(master)
        assert net.registry.counter("sync.reconcile.attempts").value == 1
        assert net.registry.counter("sync.resilient.reloads").value == 0


# ----------------------------------------------------------------------
# fault plan: the :s decision stream
# ----------------------------------------------------------------------
class TestSnapshotFaultPlan:
    def test_deterministic(self):
        spec = FaultSpec(snapshot_truncate=0.5, snapshot_corrupt=0.5, snapshot_stale=0.5)
        a = [FaultPlan(spec, seed=7).next_snapshot() for _ in range(1)][0]
        b = [FaultPlan(spec, seed=7).next_snapshot() for _ in range(1)][0]
        assert a == b

    def test_own_stream_leaves_exchanges_unchanged(self):
        # Adding snapshot fault rates must not perturb the exchange
        # schedule for a seed (the :s stream is independent).
        base = FaultPlan(FaultSpec.uniform(0.2), seed=11)
        snap = FaultPlan(
            FaultSpec.uniform(0.2, snapshot_truncate=1.0, snapshot_corrupt=1.0),
            seed=11,
        )
        snap.next_snapshot()
        assert [base.next_exchange() for _ in range(8)] == [
            snap.next_exchange() for _ in range(8)
        ]

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            FaultSpec(snapshot_corrupt=1.5)


# ----------------------------------------------------------------------
# fault-matrix cells (seeded from RECOVERY_SEEDS)
# ----------------------------------------------------------------------
DAMAGE_KINDS = ("snapshot_truncate", "snapshot_corrupt", "snapshot_stale")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", DAMAGE_KINDS)
def test_damaged_restart_converges(kind, seed):
    """Whatever the damage, a restarted replica falls through the
    ladder and still converges — and detectable damage (truncation,
    corruption) is never applied."""
    master = build_master(25)
    provider = ResyncProvider(master)
    store = MemorySnapshotStore()
    run_session(provider, store, master)
    master.add(person(f"after-{seed}"))

    net = FaultyNetwork(FaultPlan(FaultSpec(**{kind: 1.0}), seed=seed))
    net.damage_snapshot(store)
    assert net.fault_counts().get(kind) == 1

    restarted = ResilientConsumer(
        REQUEST, provider, network=net, snapshot_store=store, seed=seed
    )
    if kind == "snapshot_stale":
        assert restarted.warm_started  # intact content restores
    else:
        assert restarted.snapshot_recoverer.stage == "discarded"
        assert len(restarted.content) == 0  # never applied
    assert ReferenceModel.of(master).converge(restarted.sync_once, [restarted.content], 64)


@pytest.mark.parametrize("seed", SEEDS)
def test_probabilistic_restart_cycle_converges(seed):
    """Several crash/restart generations under uniform fault rates:
    every generation restarts from whatever the previous one left in
    the store — possibly damaged at restart time — and converges."""
    master = build_master(20)
    provider = ResyncProvider(master)
    store = MemorySnapshotStore()
    plan = FaultPlan(FaultSpec.uniform(0.3), seed=seed)
    net = FaultyNetwork(plan)
    for generation in range(4):
        master.add(person(f"G{generation}-{seed}"))
        net.damage_snapshot(store)
        consumer = ResilientConsumer(
            REQUEST,
            provider,
            network=net,
            snapshot_store=store,
            seed=seed + generation,
        )
        assert ReferenceModel.of(master).converge(consumer.sync_once, [consumer.content], 64)
