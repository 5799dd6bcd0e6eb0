"""E23 — derived: routed answering / fan-out vs the seed linear scans.

The paper's replica answers a query by scanning every stored filter for
containment (§7.1), and its provider fans an update out by evaluating
every active session's filter (§5) — both linear in the configuration
size.  The routing subsystem (docs/ROUTING.md) replaces the scans with
guard-atom and holder/fingerprint candidate routing, equivalence-tested
against the linear oracles in ``tests/core/test_routing_equivalence.py``
and ``tests/sync/test_router.py``.  This bench measures what the
routing buys: answer throughput against stored-filter count and update
fan-out throughput against active-session count, sweeping 50/200/500.

The in-bench asserts double as the perf smoke: a reversion to the
linear scan (or a routing layer that silently degrades to one) fails
the ``>= 5x at 500`` speedup floors and the sublinear
``containment_checks`` ceiling, independent of machine speed.  The
exported ``*_per_s`` rates are additionally diffed against
``benchmarks/baselines/replica_scaling.json`` by ``validate_results.py``.

Workload: a synthetic site directory of 600 serialNumber blocks with 4
persons each (serials ``BBBBSSUS``, the paper's site-block shape);
stored filters and session filters are the generalized per-block
``(serialNumber=BBBB*US)`` substrings; queries are distinct per-query
equality serials (so neither the QC pair cache nor the routing memo can
answer from a previous query); updates replace ``telephoneNumber`` — an
attribute no filter constrains, which is exactly the case the paper's
linear fan-out pays full price for and holder routing does not.

That update stream flatters any router: it never changes an attribute a
session filter names.  The *mixed* fan-out row therefore drives what a
directory really sees — hire, department move, rename, leave — against
block and single-department sessions, which all name ``serialNumber`` /
``departmentNumber`` / ``objectClass``, and reports sessions visited
(``sync.route.candidates``) beside sessions notified per update.  Its
ceilings fail on a reversion to attribute-level routing (visits growing
with the session count) independent of machine speed.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List

import pytest

from repro.core import FilterReplica
from repro.core.containment import clear_containment_cache
from repro.ldap import Entry, ReSyncControl, Scope, SearchRequest, SyncMode
from repro.server import DirectoryServer, Modification
from repro.sync import ResyncProvider
from tests.oracles import LinearFilterReplica, LinearResyncProvider

from .common import quiesced_gc as _quiesced
from .common import report

BLOCKS = 600
PERSONS_PER_BLOCK = 4
SWEEP = (50, 200, 500)
N_QUERIES = 400
N_UPDATES = 150
# Mixed row: each group hires one person, moves their department,
# renames them and lets them leave — 4 updates, master state restored.
MIXED_GROUPS = 40
# Every timed loop runs 1 warm-up + TIMING_REPEATS passes and reports
# the *best* pass (the min-time estimator `timeit` recommends): on a
# shared single-vCPU runner, host CPU steal only ever slows a pass
# down, so the fastest pass is the stable machine-capability number —
# a median still drifts 20-40% with sustained steal phases, which is
# exactly the committed-rate flake the 20% baseline gate must not
# inherit.  The in-bench speedup floors compare best against best, so
# both arms shed their stolen passes before the ratio is taken.
TIMING_REPEATS = 5
# Update targets stay inside the first TARGET_BLOCKS blocks at every
# sweep point (covered by sessions at every size), so the master-side
# modify cost is a constant and the sweep varies only the fan-out.
TARGET_BLOCKS = SWEEP[0]


def _serial(block: int, seq: int) -> str:
    return f"{block:04d}{seq:02d}US"


def _person(block: int, seq: int) -> Entry:
    cn = f"p{block:04d}{seq}"
    return Entry(
        f"cn={cn},o=xyz",
        {
            "objectClass": ["person"],
            "cn": cn,
            "sn": f"s{block % 37}",
            "serialNumber": [_serial(block, seq)],
            "telephoneNumber": ["+1-000"],
        },
    )


def _block_filter(block: int) -> SearchRequest:
    return SearchRequest("o=xyz", Scope.SUB, f"(serialNumber={block:04d}*US)")


@pytest.fixture(scope="module")
def site_entries() -> List[List[Entry]]:
    """Per-block person entries for the synthetic site directory."""
    return [
        [_person(block, seq) for seq in range(PERSONS_PER_BLOCK)]
        for block in range(BLOCKS)
    ]


def _fresh_master(site_entries: List[List[Entry]]) -> DirectoryServer:
    master = DirectoryServer("master")
    master.add_naming_context("o=xyz")
    master.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
    for block_entries in site_entries:
        for entry in block_entries:
            master.add(entry)
    return master


# ----------------------------------------------------------------------
# sweep points
# ----------------------------------------------------------------------
def _answer_point(
    site_entries: List[List[Entry]], n_filters: int, replica_cls
) -> Dict[str, float]:
    """Answer *N_QUERIES* distinct serial lookups over *n_filters*."""
    replica = replica_cls("r", cache_capacity=0)
    for block in range(n_filters):
        replica.load_directly(_block_filter(block), site_entries[block])
    rates = []
    passes = 1 + TIMING_REPEATS  # warm-up + timed repeats
    for rep in range(passes):
        # Distinct serials per query *and per pass*: neither the global
        # QC pair cache nor the routing memo may answer from an earlier
        # query's (or pass's) work.
        base = rep * N_QUERIES
        queries = [
            SearchRequest(
                "o=xyz",
                Scope.SUB,
                f"(serialNumber={(i * 7) % n_filters:04d}{base + i:04d}US)",
            )
            for i in range(N_QUERIES)
        ]
        clear_containment_cache()
        with _quiesced():
            start = time.perf_counter()
            hits = sum(1 for q in queries if replica.answer(q).is_hit)
            elapsed = time.perf_counter() - start
        assert hits == N_QUERIES
        if rep:  # pass 0 is the warm-up
            rates.append(N_QUERIES / elapsed if elapsed else 0.0)
    return {
        "rate": max(rates),  # best pass: min-time estimator (see TIMING_REPEATS)
        "checks_per_query": replica.containment_checks / (passes * N_QUERIES),
    }


def _fanout_point(
    site_entries: List[List[Entry]], n_sessions: int, provider_cls
) -> Dict[str, float]:
    """Fan *N_UPDATES* master updates out to *n_sessions* poll sessions."""
    master = _fresh_master(site_entries)
    provider = provider_cls(master)
    for i in range(n_sessions):
        provider.handle(
            _block_filter(i % BLOCKS), ReSyncControl(mode=SyncMode.POLL)
        )
    # telephoneNumber occurs in no session filter: the linear scan still
    # evaluates every session twice per update, holder routing visits
    # only the block's holders.
    targets = [
        str(site_entries[(i * 13) % TARGET_BLOCKS][i % PERSONS_PER_BLOCK].dn)
        for i in range(N_UPDATES)
    ]
    rates = []
    passes = 1 + TIMING_REPEATS  # warm-up + timed repeats
    for rep in range(passes):
        with _quiesced():
            start = time.perf_counter()
            for i, dn in enumerate(targets):
                master.modify(
                    dn, [Modification.replace("telephoneNumber", f"+1-{rep}-{i}")]
                )
            elapsed = time.perf_counter() - start
        if rep:  # pass 0 is the warm-up
            rates.append(N_UPDATES / elapsed if elapsed else 0.0)
    routed_candidates = master.metrics.counter("sync.route.candidates").value
    return {
        "rate": max(rates),  # best pass: min-time estimator (see TIMING_REPEATS)
        "candidates_per_update": routed_candidates / (passes * N_UPDATES),
    }


def _department_filter(dept: int) -> SearchRequest:
    return SearchRequest(
        "o=xyz", Scope.SUB, f"(&(objectClass=person)(departmentNumber={dept:03d}))"
    )


def _mixed_fanout_point(
    site_entries: List[List[Entry]], n_sessions: int
) -> Dict[str, float]:
    """Hire / department move / rename / leave against *n_sessions* poll
    sessions, half per-block and half per-department.

    Hires land in the blocks and departments the smallest sweep point
    already covers, so every size notifies the same sessions per update
    and only the number of sessions *naming* the touched attributes
    grows — what value-level routing must not be sensitive to.
    """
    master = _fresh_master(site_entries)
    provider = ResyncProvider(master)
    for i in range(n_sessions):
        request = _block_filter(i // 2) if i % 2 else _department_filter(i // 2)
        provider.handle(request, ReSyncControl(mode=SyncMode.POLL))
    covered = SWEEP[0] // 2
    candidates = master.metrics.counter("sync.route.candidates")
    notified = master.metrics.counter("sync.route.notified")
    rates = []
    passes = 1 + TIMING_REPEATS  # warm-up + timed repeats
    for rep in range(passes):
        with _quiesced():
            start = time.perf_counter()
            for g in range(MIXED_GROUPS):
                block, dept = g % covered, (g * 7) % covered
                hired = _person(block, 90 + g % 10)
                hired.put("departmentNumber", f"{dept:03d}")
                dn = f"cn=hire{g},o=xyz"
                master.add(hired.with_dn(dn))
                moved = f"{(dept + 1) % covered:03d}"
                master.modify(dn, [Modification.replace("departmentNumber", moved)])
                master.modify_dn(dn, new_rdn=f"cn=hire{g}r")
                master.delete(f"cn=hire{g}r,o=xyz")
            elapsed = time.perf_counter() - start
        if rep:  # pass 0 is the warm-up
            rates.append(4 * MIXED_GROUPS / elapsed if elapsed else 0.0)
    updates = passes * 4 * MIXED_GROUPS
    return {
        "rate": max(rates),  # best pass: min-time estimator (see TIMING_REPEATS)
        "candidates_per_update": candidates.value / updates,
        "notified_per_update": notified.value / updates,
    }


@pytest.fixture(scope="module")
def scaling_rows(site_entries):
    rows = []
    points = {}
    for n in SWEEP:
        linear_a = _answer_point(site_entries, n, LinearFilterReplica)
        routed_a = _answer_point(site_entries, n, FilterReplica)
        linear_f = _fanout_point(site_entries, n, LinearResyncProvider)
        routed_f = _fanout_point(site_entries, n, ResyncProvider)
        mixed_f = _mixed_fanout_point(site_entries, n)
        points[n] = (linear_a, routed_a, linear_f, routed_f, mixed_f)
        rows.append(
            (
                n,
                linear_a["rate"],
                routed_a["rate"],
                routed_a["rate"] / linear_a["rate"],
                linear_a["checks_per_query"],
                routed_a["checks_per_query"],
                linear_f["rate"],
                routed_f["rate"],
                routed_f["rate"] / linear_f["rate"],
                mixed_f["rate"],
                mixed_f["candidates_per_update"],
                mixed_f["notified_per_update"],
            )
        )
    return rows, points


def test_replica_scaling(benchmark, site_entries, scaling_rows):
    rows, points = scaling_rows
    top = SWEEP[-1]
    linear_a, routed_a, linear_f, routed_f, mixed_f = points[top]
    metrics = {
        # Gated rates (validate_results: lower is a regression).
        "answer_routed_per_s": routed_a["rate"],
        "fanout_routed_per_s": routed_f["rate"],
        "fanout_mixed_per_s": mixed_f["rate"],
        # Informational context for the baseline diff.
        "answer_linear_rate": linear_a["rate"],
        "fanout_linear_rate": linear_f["rate"],
        "answer_speedup_at_500": routed_a["rate"] / linear_a["rate"],
        "fanout_speedup_at_500": routed_f["rate"] / linear_f["rate"],
        "routed_checks_per_query_at_500": routed_a["checks_per_query"],
        "linear_checks_per_query_at_500": linear_a["checks_per_query"],
        "routed_candidates_per_update_at_500": routed_f["candidates_per_update"],
        "mixed_candidates_per_update_at_500": mixed_f["candidates_per_update"],
        "mixed_notified_per_update_at_500": mixed_f["notified_per_update"],
    }
    report(
        "replica_scaling",
        f"Routed vs linear answering/fan-out, {N_QUERIES} queries / "
        f"{N_UPDATES} updates per point",
        [
            "size",
            "ans_lin/s",
            "ans_rt/s",
            "ans_x",
            "chk_lin",
            "chk_rt",
            "upd_lin/s",
            "upd_rt/s",
            "upd_x",
            "mix_rt/s",
            "mix_cand",
            "mix_notif",
        ],
        rows,
        params={
            "blocks": BLOCKS,
            "persons_per_block": PERSONS_PER_BLOCK,
            "queries_per_point": N_QUERIES,
            "updates_per_point": N_UPDATES,
            "mixed_updates_per_point": 4 * MIXED_GROUPS,
            "sweep": "/".join(str(n) for n in SWEEP),
        },
        metrics=metrics,
        paper_expected={
            "shape": "routed throughput stays flat as stored filters and "
            "sessions grow; linear scans degrade proportionally"
        },
    )

    # Perf smoke (machine-independent): the routed paths must beat the
    # linear oracles by 5x at the top of the sweep, and never be the
    # slower path anywhere.  A reversion to the linear scan fails here.
    for n, (la, ra, lf, rf, _mf) in points.items():
        floor = 5.0 if n == top else 1.5
        assert ra["rate"] >= floor * la["rate"], (
            f"answer routing speedup below {floor}x at {n} stored filters"
        )
        assert rf["rate"] >= floor * lf["rate"], (
            f"fan-out routing speedup below {floor}x at {n} sessions"
        )

    # Containment checks per answered query must be sublinear in the
    # stored-filter count: flat across a 10x sweep, against a linear
    # scan that pays ~n/2.
    first, last = SWEEP[0], SWEEP[-1]
    routed_cpq = {n: points[n][1]["checks_per_query"] for n in SWEEP}
    assert routed_cpq[last] <= 4.0
    assert routed_cpq[last] <= 2.0 * routed_cpq[first] + 1.0
    assert points[last][0]["checks_per_query"] >= last / 4

    # Mixed fan-out: visits track notifications (value-level routing),
    # not the sessions naming the touched attributes — within a small
    # constant of the notified count, and flat across the 10x sweep.
    # Attribute-level routing visits ~n here and fails both.
    mixed = {n: points[n][4] for n in SWEEP}
    for n in SWEEP:
        assert mixed[n]["candidates_per_update"] <= mixed[n]["notified_per_update"] + 1.5, (
            f"mixed fan-out visits {mixed[n]['candidates_per_update']:.1f} sessions "
            f"to notify {mixed[n]['notified_per_update']:.1f} at {n} sessions"
        )
    assert (
        mixed[last]["candidates_per_update"]
        <= mixed[first]["candidates_per_update"] + 0.5
    )

    # Timed unit: one routed answer at the top sweep point.
    replica = FilterReplica("r", cache_capacity=0)
    for block in range(top):
        replica.load_directly(_block_filter(block), site_entries[block])
    sample = SearchRequest("o=xyz", Scope.SUB, "(serialNumber=004201US)")
    benchmark(lambda: replica.answer(sample))


# ----------------------------------------------------------------------
# E23b — routed answering at 10^5 stored filters (docs/ROUTING.md §10):
# the per-answer cost must stay flat from the routed sweep's top (500)
# up to the 50k rung, with containment checks per query independent of
# the population.
# ----------------------------------------------------------------------
FLATNESS_REF = 500
FLATNESS_RUNG = 50_000
# The 200k/500k rungs take minutes and gigabytes; they are opt-in for
# a full-scale run, not the bench job.
FULL_SWEEP_ENV = "REPLICA_SCALING_FULL_SWEEP"
FLATNESS_QUERIES = 400
# Best of 9 (min-time estimator, see TIMING_REPEATS above): the ref
# point's timed window is ~15ms, the jitteriest gated metric in the
# suite, so it gets the most chances to land an unstolen pass.
FLATNESS_REPEATS = 9


def _wide_filter(block: int) -> SearchRequest:
    """Six-digit site-block filters — room for a 10^6 population."""
    return SearchRequest("o=xyz", Scope.SUB, f"(serialNumber={block:06d}*US)")


def _wide_person(block: int) -> Entry:
    cn = f"w{block:06d}"
    return Entry(
        f"cn={cn},o=xyz",
        {
            "objectClass": ["person"],
            "cn": cn,
            "sn": f"s{block % 37}",
            "serialNumber": [f"{block:06d}77US"],
        },
    )


def _flatness_point(n_filters: int) -> Dict[str, float]:
    """Answer a 50/50 hit/miss mix over *n_filters* stored filters.

    Hits are per-block equality serials (contained in exactly one
    stored filter); misses are serials from blocks past the population
    (contained in none).  Serials are distinct per query *and per
    pass*, so neither the QC pair cache, the routing memo, nor the
    negative result cache can answer from an earlier pass's work; what
    remains is the per-answer routing cost the flatness floor guards.
    """
    replica = FilterReplica("r", cache_capacity=0)
    for block in range(n_filters):
        replica.load_directly(_wide_filter(block), [_wide_person(block)])
    rates = []
    passes = 1 + FLATNESS_REPEATS  # warm-up + timed repeats
    for rep in range(passes):
        base = rep * FLATNESS_QUERIES
        queries = []
        for i in range(FLATNESS_QUERIES):
            serial = base + i
            if i % 2 == 0:
                block = (serial * 7919) % n_filters
            else:
                block = 999_999 - (serial % 99_999)  # past any population
            queries.append(
                SearchRequest(
                    "o=xyz",
                    Scope.SUB,
                    f"(serialNumber={block:06d}{serial % 10_000:04d}US)",
                )
            )
        clear_containment_cache()
        with _quiesced():
            start = time.perf_counter()
            hits = sum(1 for q in queries if replica.answer(q).is_hit)
            elapsed = time.perf_counter() - start
        assert hits == FLATNESS_QUERIES // 2
        if rep:  # pass 0 is the warm-up
            rates.append(FLATNESS_QUERIES / elapsed if elapsed else 0.0)
    return {
        "rate": max(rates),  # best pass: min-time estimator (see TIMING_REPEATS)
        "checks_per_query": replica.containment_checks
        / (passes * FLATNESS_QUERIES),
    }


def test_replica_scaling_flatness(benchmark):
    rungs = [FLATNESS_REF, FLATNESS_RUNG]
    if os.environ.get(FULL_SWEEP_ENV):
        rungs += [200_000, 500_000]
    points = {n: _flatness_point(n) for n in rungs}
    rows = [(n, points[n]["rate"], points[n]["checks_per_query"]) for n in rungs]

    ref, rung = points[FLATNESS_REF], points[FLATNESS_RUNG]
    metrics = {
        # Gated rates (validate_results: lower is a regression).
        "flatness_ref_per_s": ref["rate"],
        "flatness_50k_per_s": rung["rate"],
        # Informational context for the baseline diff.
        "flatness_50k_vs_ref": rung["rate"] / ref["rate"],
        "checks_per_query_at_50k": rung["checks_per_query"],
    }
    report(
        "replica_scaling_flatness",
        f"Routed answering, 50/50 hit-miss mix, {FLATNESS_QUERIES} "
        f"queries per pass, best of {FLATNESS_REPEATS}",
        ["size", "answers/s", "chk/q"],
        rows,
        params={
            "ref": FLATNESS_REF,
            "rung": FLATNESS_RUNG,
            "queries_per_pass": FLATNESS_QUERIES,
            "timing_repeats": FLATNESS_REPEATS,
            "full_sweep": bool(os.environ.get(FULL_SWEEP_ENV)),
        },
        metrics=metrics,
        paper_expected={
            "shape": "per-answer cost flat from 500 to 50k stored filters; "
            "containment checks per query independent of the population"
        },
    )

    # Flatness floor (machine-independent: both points are measured by
    # the same function in the same process): 100x the population may
    # cost at most 2x the per-answer time.
    assert rung["rate"] >= ref["rate"] / 2.0, (
        "routed answering is not flat: "
        f"{rung['rate']:.0f}/s at {FLATNESS_RUNG} vs "
        f"{ref['rate']:.0f}/s at {FLATNESS_REF}"
    )
    for n in rungs:
        if n > FLATNESS_REF:
            # ~1 containment check per hit, none per miss; any
            # population dependence would blow through this ceiling.
            assert points[n]["checks_per_query"] <= 2.0

    # Timed unit: one miss at the rung.
    replica = FilterReplica("r", cache_capacity=0)
    for block in range(FLATNESS_RUNG):
        replica.load_directly(_wide_filter(block), [_wide_person(block)])
    sample = SearchRequest("o=xyz", Scope.SUB, "(serialNumber=99990000US)")
    benchmark(lambda: replica.answer(sample))


# ----------------------------------------------------------------------
# E23c — live persist sessions at 10^3..10^4 on the batched transport
# (docs/TRANSPORT.md): §5.2's connection-scaling worry.  The routed
# sweep above caps at 500 poll sessions; this rung ladder drives the
# batched fan-out (bench_persist_fanout's replay workload) at 500 and
# 5000 live persist sessions — 10000 on the opt-in full sweep — and
# checks that *delivered-notification* throughput stays flat: widening
# the fan-out 10x may not shrink the per-notification rate below half.
# ----------------------------------------------------------------------
SESSION_RUNGS = (500, 5000)
SESSION_P99_BOUND_MS = 5.0


def test_replica_scaling_sessions(benchmark):
    from .bench_persist_fanout import (
        BLOCKS as FANOUT_BLOCKS,
        _fanout_point,
        _make_update_records,
    )

    rungs = list(SESSION_RUNGS)
    if os.environ.get(FULL_SWEEP_ENV):
        rungs.append(10_000)
    records = _make_update_records()
    points = {}
    rows = []
    for n in rungs:
        point, _ = _fanout_point(records, n, batched=True)
        # Delivered-notification rate: each update notifies the target
        # block's subscribers (n / FANOUT_BLOCKS live sessions).
        point["notified_per_s"] = point["rate"] * (n / FANOUT_BLOCKS)
        points[n] = point
        rows.append(
            (
                n,
                point["rate"],
                point["notified_per_s"],
                point["coalescing"],
                point["p99_ms"],
            )
        )

    ref, top = rungs[0], rungs[-1]
    metrics = {
        # Gated rates (validate_results: lower is a regression).
        "sessions_top_updates_per_s": points[SESSION_RUNGS[-1]]["rate"],
        "sessions_top_notified_per_s": points[SESSION_RUNGS[-1]]["notified_per_s"],
        # Informational context for the baseline diff.
        "sessions_ref_updates_per_s": points[ref]["rate"],
        "sessions_ref_notified_per_s": points[ref]["notified_per_s"],
        "sessions_top_p99_virtual_ms": points[SESSION_RUNGS[-1]]["p99_ms"],
    }
    report(
        "replica_scaling_sessions",
        f"Batched persist fan-out at {'/'.join(str(n) for n in rungs)} "
        f"live sessions, {len(records)} updates per pass",
        ["sessions", "upd/s", "notif/s", "coalesce", "p99_ms"],
        rows,
        params={
            "rungs": "/".join(str(n) for n in rungs),
            "blocks": FANOUT_BLOCKS,
            "full_sweep": bool(os.environ.get(FULL_SWEEP_ENV)),
        },
        metrics=metrics,
        paper_expected={
            "shape": "delivered-notification throughput flat as live "
            "persist sessions grow 10x; delivery p99 bounded by the batch "
            "window at every rung"
        },
    )

    # Flatness floor (machine-independent: same function, same process):
    # 10x (or 20x) the live sessions may not halve the per-notification
    # rate, and the virtual-clock latency bound holds at every rung.
    for n in rungs:
        if n == ref:
            continue
        assert points[n]["notified_per_s"] >= points[ref]["notified_per_s"] / 2.0, (
            f"per-notification throughput collapsed at {n} sessions: "
            f"{points[n]['notified_per_s']:.0f}/s vs "
            f"{points[ref]['notified_per_s']:.0f}/s at {ref}"
        )
    for n in rungs:
        assert points[n]["p99_ms"] <= SESSION_P99_BOUND_MS

    # Timed unit: one replayed update at the top default rung's batch
    # config (self-contained single-session net).
    from repro.server import SimulatedNetwork
    from repro.sync import SyncedContent
    from .bench_persist_fanout import BATCH, _block_filter, _fresh_master

    net = SimulatedNetwork(batch=BATCH, seed=7)
    master = _fresh_master()
    net.register(master)
    provider = ResyncProvider(master)
    content = SyncedContent(_block_filter(0), network=net)
    deliveries, _handle = net.persist_exchange(
        provider, _block_filter(0), content.apply_notification
    )
    content.apply(deliveries[-1].response)
    record = records[0]

    def unit():
        provider.on_update(record)
        net.settle()

    benchmark(unit)
