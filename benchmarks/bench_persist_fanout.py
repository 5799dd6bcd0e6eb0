"""E24 — batched persist fan-out vs the per-entry synchronous wire.

The paper's §5.2 persist mode pushes every master update to every
affected replica over its own connection — per notification: one filter
fan-out visit, one encode, one consumer apply.  At thousands of live
persist sessions that per-PDU cost is the scaling wall.  The network's
persist transport (docs/TRANSPORT.md) amortizes it: per-session
:class:`~repro.sync.delivery.DeliveryQueue` batching coalesces bursts
per DN under backpressure, so a hot entry costs one delivered PDU per
batch window instead of one per update.

Both arms charge **encoded-length-accurate** bytes so the comparison is
apples-to-apples on accounting fidelity: the synchronous control arm is
``tests.oracles.per_pdu_persist`` (every notification delivered inline
and BER-encoded as its own PDU — what a real per-entry wire transport
pays), the batched arm is ``SimulatedNetwork.persist_exchange``, which
charges each coalesced batch its frame's BER length, computed by length
arithmetic without encoding (:func:`repro.ldap.ber.encoded_sync_batch_size`;
the control arm's per-PDU bytes come from the test oracle's encoder).

The timed unit is the **fan-out replay**: a fixed schedule of committed
:class:`~repro.server.operations.UpdateRecord` (captured once from a
scratch master) is fed through ``provider.on_update`` and, for the
batched arm, drained with ``net.settle()``.  Master-side index
maintenance is deliberately outside the loop — ``bench_replica_scaling``
covers it; this bench isolates what the transport changes.

In-bench floors (machine-independent, both arms measured by the same
function in the same process): the batched arm must beat the per-entry
synchronous arm >= 5x at 5000 live sessions (>= 2.5x / 1.5x at the
lower rungs), and the virtual-clock delivery latency p99 must stay
bounded by the batch window.  A probe session's applied content must be
identical across arms (the equivalence guard; byte-level equivalence is
property-tested in ``tests/sync/test_transport_equivalence.py``).
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import pytest

from repro.ldap import Entry, Scope, SearchRequest
from repro.server import DirectoryServer, Modification, SimulatedNetwork
from repro.sync import BatchConfig, ResyncProvider, SyncedContent
from tests.oracles import per_pdu_persist

from .common import quiesced_gc as _quiesced
from .common import report

BLOCKS = 250
PERSONS_PER_BLOCK = 2
# Update targets stay inside the first TARGET_BLOCKS blocks (one person
# per block) at every sweep point, so the sweep varies only the live
# session count, not the update schedule.
TARGET_BLOCKS = 40
ROUNDS = 48
SWEEP = (500, 2000, 5000)
# Best of 5 (the min-time estimator `timeit` recommends): on a shared
# single-vCPU runner, host CPU steal only slows passes down, so the
# fastest pass is the stable machine-capability number — a median
# still drifts 20-40% through sustained steal phases, flaking both the
# 20% baseline gate and the in-bench speedup floor's thin margin.
# Floors compare best against best, so both arms shed stolen passes
# before the ratio is taken.
TIMING_REPEATS = 5
# The batch window: flush immediately (max_batch=1), degrade to per-DN
# coalesced-retain as soon as the consumer is busy (high_water=1), with
# a small simulated per-batch consumer apply time.  A hot entry then
# costs ~2 delivered PDUs per burst however many updates hit it.
BATCH = BatchConfig(max_batch=1, max_age_ms=1.0, high_water=1)
CONSUMER_DELAY_MS = 0.05
P99_BOUND_MS = 5.0


def _serial(block: int, seq: int) -> str:
    return f"{block:04d}{seq:02d}US"


def _person(block: int, seq: int) -> Entry:
    """A realistically sized employee entry (the paper's ~6KB entries):
    every value unique per entry so posting lists stay singletons."""
    cn = f"p{block:04d}{seq}"
    return Entry(
        f"cn={cn},o=xyz",
        {
            "cn": cn,
            "sn": [f"n{block}x{seq}"],
            "serialNumber": [_serial(block, seq)],
            "telephoneNumber": [f"+1-{block:04d}{seq}"],
            "l": [f"city{block}-{seq}"],
            "title": [f"engineer-{block}-{seq}"],
            "description": [f"employee {block}/{seq} of the simulated site"],
            "ou": [f"dept-{block}-{seq}"],
            "employeeNumber": [f"{block * 100 + seq}"],
            "mail": [
                f"p{block:04d}{seq}@example.com",
                f"alt{block}.{seq}@example.com",
            ],
            "postalAddress": [
                f"{block} Main Street Suite {seq} $ Metropolis $ ZZ {10000 + block}"
            ],
            "seeAlso": [f"cn=mgr{block}a{seq},o=xyz", f"cn=dir{block}b{seq},o=xyz"],
            "userCertificate": ["MIIC" + "Aq" * 180 + f"{block:04d}{seq}"],
            "entrySizeBytes": [str(6000 + block * 2 + seq)],
        },
    )


def _block_filter(block: int) -> SearchRequest:
    return SearchRequest("o=xyz", Scope.SUB, f"(serialNumber={block:04d}*US)")


def _fresh_master() -> DirectoryServer:
    master = DirectoryServer("master")
    master.add_naming_context("o=xyz")
    master.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
    for block in range(BLOCKS):
        for seq in range(PERSONS_PER_BLOCK):
            master.add(_person(block, seq))
    return master


class _Capture:
    def __init__(self):
        self.records = []

    def on_update(self, record):
        self.records.append(record)


def _make_update_records():
    """The replayed fan-out schedule: ROUNDS telephone replaces against
    one person per target block, captured once from a scratch master so
    both arms replay byte-identical before/after images."""
    scratch = _fresh_master()
    capture = _Capture()
    scratch.add_update_listener(capture)
    for round_ in range(ROUNDS):
        for block in range(TARGET_BLOCKS):
            scratch.modify(
                f"cn=p{block:04d}0,o=xyz",
                [Modification.replace("telephoneNumber", f"+1-{round_}-{block}")],
            )
    return capture.records


@pytest.fixture(scope="module")
def update_records():
    return _make_update_records()


def _fanout_point(
    records, n_sessions: int, batched: bool
) -> Tuple[Dict[str, float], Dict[str, Entry]]:
    """Replay the update schedule into *n_sessions* live persist
    sessions — through the network's batched transport, or the
    per-PDU-encoded synchronous control arm; returns (measurements,
    probe session's applied content)."""
    net = SimulatedNetwork(batch=BATCH, seed=7)
    master = _fresh_master()
    net.register(master)
    provider = ResyncProvider(master)
    contents: List[SyncedContent] = []
    for i in range(n_sessions):
        request = _block_filter(i % BLOCKS)
        if batched:
            content = SyncedContent(request, network=net)
            deliveries, handle = net.persist_exchange(
                provider, request, content.apply_notification
            )
            content.apply(deliveries[-1].response)
            handle.delivery_queue.consumer_delay_ms = CONSUMER_DELAY_MS
        else:
            # The control arm charges each PDU itself, so its contents
            # carry no network of their own.
            content = SyncedContent(request)
            response, _handle = per_pdu_persist(
                provider, request, content.apply_notification, net
            )
            content.apply(response)
        contents.append(content)
    rates = []
    passes = 1 + TIMING_REPEATS  # warm-up + timed repeats
    timed_start_bytes = 0
    for rep in range(passes):
        if rep == 1:  # wire bytes are reported per timed pass, below
            timed_start_bytes = net.stats.bytes_sent
        with _quiesced():
            start = time.perf_counter()
            for record in records:
                provider.on_update(record)
            if batched:
                net.settle()
            elapsed = time.perf_counter() - start
        if rep:  # pass 0 is the warm-up
            rates.append(len(records) / elapsed if elapsed else 0.0)
    registry = net.registry
    offered = registry.counter("sync.batch.offered").value
    delivered = registry.counter("sync.batch.delivered").value
    latencies = sorted(
        latency
        for queue in net.persist_queues.values()
        for latency in queue.latencies
    )
    point = {
        "rate": max(rates),  # best pass: min-time estimator (see TIMING_REPEATS)
        # Per-pass wire bytes (the steady-state replay cost of one
        # schedule), so the committed metric does not scale with
        # TIMING_REPEATS.  The warm-up pass is excluded: it replays
        # against pristine content, so its byte count differs.
        "bytes_sent": (net.stats.bytes_sent - timed_start_bytes)
        / TIMING_REPEATS,
        "coalescing": offered / delivered if delivered else 1.0,
        "p99_ms": latencies[int(0.99 * (len(latencies) - 1))] if latencies else 0.0,
    }
    # Probe: session 0 subscribes to block 0, a replay target.
    probe = dict(contents[0].entries)
    return point, probe


@pytest.fixture(scope="module")
def fanout_points(update_records):
    points = {}
    rows = []
    for n in SWEEP:
        sync_point, sync_probe = _fanout_point(update_records, n, batched=False)
        piped_point, piped_probe = _fanout_point(update_records, n, batched=True)
        # Equivalence guard: both arms applied the same final content.
        assert {str(dn) for dn in sync_probe} == {str(dn) for dn in piped_probe}
        for dn, entry in sync_probe.items():
            assert entry.semantically_equal(piped_probe[dn])
        points[n] = (sync_point, piped_point)
        rows.append(
            (
                n,
                sync_point["rate"],
                piped_point["rate"],
                piped_point["rate"] / sync_point["rate"],
                piped_point["coalescing"],
                piped_point["p99_ms"],
                sync_point["bytes_sent"] / 1e6,
                piped_point["bytes_sent"] / 1e6,
            )
        )
    return points, rows


def test_persist_fanout(benchmark, update_records, fanout_points):
    points, rows = fanout_points
    top = SWEEP[-1]
    sync_top, piped_top = points[top]
    metrics = {
        # Gated rates (validate_results: lower is a regression).
        "fanout_batched_per_s": piped_top["rate"],
        "fanout_sync_per_s": sync_top["rate"],
        # Informational context for the baseline diff.
        "batched_speedup_at_5000": piped_top["rate"] / sync_top["rate"],
        "coalescing_factor_at_5000": piped_top["coalescing"],
        "delivery_p99_virtual_ms_at_5000": piped_top["p99_ms"],
        "sync_mbytes_at_5000": sync_top["bytes_sent"] / 1e6,
        "batched_mbytes_at_5000": piped_top["bytes_sent"] / 1e6,
    }
    report(
        "persist_fanout",
        f"Batched persist fan-out vs per-entry synchronous wire, "
        f"{len(update_records)} updates per pass, best of {TIMING_REPEATS}",
        [
            "sessions",
            "sync/s",
            "batched/s",
            "speedup",
            "coalesce",
            "p99_ms",
            "sync_MB",
            "batch_MB",
        ],
        rows,
        params={
            "blocks": BLOCKS,
            "persons_per_block": PERSONS_PER_BLOCK,
            "target_blocks": TARGET_BLOCKS,
            "rounds": ROUNDS,
            "sweep": "/".join(str(n) for n in SWEEP),
            "max_batch": BATCH.max_batch,
            "high_water": BATCH.high_water,
            "consumer_delay_ms": CONSUMER_DELAY_MS,
        },
        metrics=metrics,
        paper_expected={
            "shape": "per-entry synchronous fan-out cost grows with update "
            "rate x sessions; batching bounds delivered PDUs per hot entry "
            "by the batch window, so throughput gains grow with fan-out"
        },
    )

    # Perf smoke (machine-independent): batching must clearly beat the
    # per-entry synchronous wire, most at the widest fan-out.
    for n, (sync_point, piped_point) in points.items():
        floor = {SWEEP[0]: 1.5, SWEEP[1]: 2.5, SWEEP[2]: 5.0}[n]
        assert piped_point["rate"] >= floor * sync_point["rate"], (
            f"batched fan-out speedup below {floor}x at {n} sessions: "
            f"{piped_point['rate']:.0f}/s vs {sync_point['rate']:.0f}/s"
        )
        # The delivery-latency bound holds on the virtual clock: every
        # PDU flushes within the batch window + a few consumer acks.
        assert piped_point["p99_ms"] <= P99_BOUND_MS, (
            f"delivery p99 {piped_point['p99_ms']:.2f}ms exceeds "
            f"{P99_BOUND_MS}ms at {n} sessions"
        )
        # Batching actually batches: bursts of ROUNDS updates per hot DN
        # must coalesce by an order of magnitude.
        assert piped_point["coalescing"] >= 10.0
        # Encoded-frame accounting: coalescing must shrink the wire.
        assert piped_point["bytes_sent"] < sync_point["bytes_sent"]

    # Timed unit: one replayed update through the batched fan-out at the
    # top sweep point (fresh small net so the unit is self-contained).
    net = SimulatedNetwork(batch=BATCH, seed=7)
    master = _fresh_master()
    net.register(master)
    provider = ResyncProvider(master)
    content = SyncedContent(_block_filter(0), network=net)
    deliveries, handle = net.persist_exchange(
        provider, _block_filter(0), content.apply_notification
    )
    content.apply(deliveries[-1].response)
    record = update_records[0]

    def unit():
        provider.on_update(record)
        net.settle()

    benchmark(unit)
