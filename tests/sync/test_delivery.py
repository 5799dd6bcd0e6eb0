"""The per-session DeliveryQueue: batching, backpressure, degradation.

docs/TRANSPORT.md §3: size/age-bounded batches on the virtual clock, a
busy consumer defers flushes, and a queue past its high-water mark
degrades to per-DN coalesced-retain so slow consumers bound memory by
content size rather than update rate.
"""

import pytest

from repro.ldap import DN, Entry, SyncAction
from repro.ldap.ber import encoded_sync_batch_size
from repro.server import SimulatedNetwork
from repro.sync import BatchConfig, DeliveryQueue, SyncUpdate
from tests.oracles import copied_pdu


def person(name, sn="T"):
    return Entry(
        f"cn={name},o=xyz", {"objectClass": ["person"], "cn": name, "sn": sn}
    )


def make_queue(config=None, **net_kwargs):
    net = SimulatedNetwork(**net_kwargs)
    applied = []
    queue = DeliveryQueue(
        applied.append, network=net, scheduler=net.scheduler, config=config
    )
    return net, queue, applied


class TestBatchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BatchConfig(max_batch=0)
        with pytest.raises(ValueError):
            BatchConfig(max_age_ms=-1.0)
        with pytest.raises(ValueError):
            BatchConfig(max_batch=16, high_water=8)


class TestSizeAndAgeFlush:
    def test_size_bound_triggers_flush(self):
        net, queue, applied = make_queue(BatchConfig(max_batch=3, max_age_ms=100.0))
        for i in range(3):
            queue.offer_many([copied_pdu(SyncAction.ADD, person(f"E{i}"))])
        # third offer hit max_batch: flushed inline, nothing pending
        assert len(applied) == 3
        assert queue.pending_count == 0
        assert net.registry.counter("sync.batch.flushes").value == 1

    def test_age_bound_flushes_partial_batch(self):
        net, queue, applied = make_queue(BatchConfig(max_batch=64, max_age_ms=5.0))
        queue.offer_many([copied_pdu(SyncAction.ADD, person("E0"))])
        assert applied == []  # not due yet
        net.scheduler.run_for(4.0)
        assert applied == []
        net.scheduler.run_for(1.0)
        assert len(applied) == 1
        # latency equals the age bound exactly on the virtual clock
        assert queue.latencies == [5.0]

    def test_preserves_order_below_high_water(self):
        net, queue, applied = make_queue(BatchConfig(max_batch=4, max_age_ms=1.0))
        updates = [copied_pdu(SyncAction.ADD, person(f"E{i}")) for i in range(10)]
        for update in updates:
            queue.offer_many([update])
        net.settle()
        assert applied == updates  # exact sequence, no coalescing

    def test_offer_many_counts_every_update(self):
        net, queue, applied = make_queue(BatchConfig(max_batch=4, max_age_ms=1.0))
        queue.offer_many([copied_pdu(SyncAction.ADD, person(f"E{i}")) for i in range(6)])
        net.settle()
        assert len(applied) == 6
        assert net.registry.counter("sync.batch.offered").value == 6
        assert net.registry.counter("sync.batch.delivered").value == 6


class TestBytesAccounting:
    def test_bytes_sent_equals_encoded_frame_length(self):
        net, queue, applied = make_queue(BatchConfig(max_batch=4, max_age_ms=1.0))
        updates = [
            copied_pdu(SyncAction.ADD, person("E0")),
            copied_pdu(SyncAction.MODIFY, person("E1", sn="Z")),
            SyncUpdate.delete(DN.parse("cn=E2,o=xyz")),
            copied_pdu(SyncAction.ADD, person("E3")),
        ]
        before = net.stats.bytes_sent
        for update in updates:
            queue.offer_many([update])
        assert net.stats.bytes_sent - before == encoded_sync_batch_size(updates)
        assert net.stats.sync_entry_pdus == 3
        assert net.stats.sync_dn_pdus == 1


class TestBackpressure:
    def test_busy_consumer_defers_flush(self):
        net, queue, applied = make_queue(BatchConfig(max_batch=2, max_age_ms=1.0))
        queue.consumer_delay_ms = 50.0
        queue.offer_many([copied_pdu(SyncAction.ADD, person("E0"))])
        queue.offer_many([copied_pdu(SyncAction.ADD, person("E1"))])  # flush #1, consumer busy
        assert len(applied) == 2 and queue.busy
        queue.offer_many([copied_pdu(SyncAction.ADD, person("E2"))])
        queue.offer_many([copied_pdu(SyncAction.ADD, person("E3"))])  # would flush, deferred
        assert len(applied) == 2
        assert net.registry.counter("sync.batch.deferred").value == 1
        net.settle()  # ack fires, deferred batch drains
        assert len(applied) == 4
        assert not queue.busy

    def test_high_water_degrades_to_bounded_coalesced(self):
        config = BatchConfig(max_batch=4, max_age_ms=1.0, high_water=4)
        net, queue, applied = make_queue(config)
        queue.consumer_delay_ms = 1000.0
        # 30 updates to only 3 DNs while the consumer is stuck
        for r in range(10):
            for i in range(3):
                queue.offer_many([copied_pdu(SyncAction.MODIFY, person(f"E{i}", sn=f"r{r}"))])
        assert queue.degraded
        # memory bounded by distinct DNs, not by update count
        assert queue.pending_count == 3
        assert net.registry.counter("sync.batch.degraded").value >= 1
        net.settle()
        # net effect: exactly the last write per DN arrived
        tail = applied[-3:]
        assert sorted(u.entry.first("sn") for u in tail) == ["r9", "r9", "r9"]

    def test_degraded_delete_supersedes_earlier_adds(self):
        config = BatchConfig(max_batch=2, max_age_ms=1.0, high_water=2)
        net, queue, applied = make_queue(config)
        queue.consumer_delay_ms = 1000.0
        queue.offer_many([copied_pdu(SyncAction.ADD, person("E0"))])
        queue.offer_many([copied_pdu(SyncAction.ADD, person("E1"))])  # flush; consumer busy
        for sn in ("a", "b", "c"):
            queue.offer_many([copied_pdu(SyncAction.MODIFY, person("E0", sn=sn))])
        queue.offer_many([SyncUpdate.delete(DN.parse("cn=E0,o=xyz"))])
        assert queue.degraded
        net.settle()
        per_dn = [u for u in applied[2:] if str(u.dn) == "cn=E0,o=xyz"]
        assert len(per_dn) == 1 and per_dn[0].action.value == "delete"


class TestClose:
    def test_close_discards_and_unhooks(self):
        net, queue, applied = make_queue(BatchConfig(max_batch=8, max_age_ms=5.0))
        closed = []
        queue.on_close = closed.append
        queue.offer_many([copied_pdu(SyncAction.ADD, person("E0"))])
        queue.close()
        assert closed == [queue]
        net.settle()  # the armed age timer was cancelled: no delivery
        assert applied == []
        # closed queue swallows further offers
        queue.offer_many([copied_pdu(SyncAction.ADD, person("E1"))])
        assert queue.pending_count == 0

    def test_reentrant_offer_during_flush_stays_queued(self):
        net = SimulatedNetwork()
        applied = []
        queue = DeliveryQueue(
            lambda u: None,  # replaced below to close over queue
            network=net,
            scheduler=net.scheduler,
            config=BatchConfig(max_batch=2, max_age_ms=1.0),
        )

        def deliver(update):
            applied.append(update)
            if len(applied) < 4:
                queue.offer_many([copied_pdu(SyncAction.ADD, person(f"R{len(applied)}"))])

        queue._deliver = deliver
        queue.offer_many([copied_pdu(SyncAction.ADD, person("E0"))])
        queue.offer_many([copied_pdu(SyncAction.ADD, person("E1"))])
        net.settle()
        # E0,E1 → reentrant R1,R2 → reentrant R3; all delivered, no
        # recursion blowup, nothing stranded.
        assert [str(u.dn) for u in applied] == [
            "cn=E0,o=xyz",
            "cn=E1,o=xyz",
            "cn=R1,o=xyz",
            "cn=R2,o=xyz",
            "cn=R3,o=xyz",
        ]
        assert queue.pending_count == 0
