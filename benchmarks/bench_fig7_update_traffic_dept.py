"""E7 — Figure 7: update traffic vs hit ratio, department query.

Paper: department entries have a very low update rate, so subtree
update traffic is negligible; the filter replica's traffic is instead
dominated by the **second component** — entries fetched when
revolutions install newly selected filters (§7.3(b)).  Larger
revolution intervals (R=10000 vs 6000, scaled here to 1000 vs 600)
control this component at some cost in hit ratio.
"""

from __future__ import annotations

import pytest

from repro.core import FilterSelector, Generalizer, IdentityGeneralization
from repro.metrics import ReplicaDriver
from repro.workload import QueryType

from .common import BenchEnv, report, run_filter_point

DEPT_TEMPLATE = "(&(departmentnumber=_)(divisionnumber=_)(objectclass=department))"
UPDATES_PER_QUERY = 0.3
SYNC_INTERVAL = 250


def selector_factory(budget: int, interval: int):
    def make(replica, provider, master):
        return FilterSelector(
            replica,
            Generalizer([IdentityGeneralization(DEPT_TEMPLATE)]),
            ReplicaDriver.size_estimator_for(master),
            budget_entries=budget,
            revolution_interval=interval,
            provider=provider,
        )

    return make


@pytest.fixture(scope="module")
def fig7_rows(env: BenchEnv):
    eval_trace = env.trace.of_type(QueryType.DEPARTMENT)
    rows = []
    for interval, label in ((600, "filter R=600"), (1000, "filter R=1000")):
        for budget in (10, 20, 40, 80):
            result, _replica = run_filter_point(
                env,
                [],
                eval_trace,
                updates_per_query=UPDATES_PER_QUERY,
                sync_interval=SYNC_INTERVAL,
                selector_factory=selector_factory(budget, interval),
            )
            rows.append(
                (
                    label,
                    result.hit_ratio,
                    result.sync_entry_pdus,
                    result.revolution_entry_pdus,
                    result.resync_entry_pdus,
                )
            )

    # Subtree baseline: division subtrees, updates flowing via resync.
    div_hits = {}
    for record in env.day(1).of_type(QueryType.DEPARTMENT):
        div = str(record.scoped_request.base)
        div_hits[div] = div_hits.get(div, 0) + 1
    ranked = sorted(div_hits, key=div_hits.get, reverse=True)

    from repro.core import SubtreeReplica
    from repro.server import SimulatedNetwork
    from repro.sync import ResyncProvider
    from repro.workload.updates import UpdateGenerator

    for k in (2, 4, 8):
        master = env.fresh_master()
        provider = ResyncProvider(master)
        network = SimulatedNetwork()
        replica = SubtreeReplica("branch", network=network)
        for div_base in ranked[:k]:
            replica.add_context(div_base)
        replica.sync(provider)
        driver = ReplicaDriver(
            master,
            replica,
            provider=provider,
            update_generator=UpdateGenerator(env.directory, master),
            updates_per_query=UPDATES_PER_QUERY,
            sync_interval=SYNC_INTERVAL,
            use_scoped=True,
            network=network,
        )
        result = driver.run(eval_trace)
        rows.append(
            (
                "subtree",
                result.hit_ratio,
                result.sync_entry_pdus,
                0,
                result.sync_entry_pdus,
            )
        )
    return rows


def test_fig7_update_traffic_vs_hit_ratio_dept(benchmark, env: BenchEnv, fig7_rows):
    fast = [r for r in fig7_rows if r[0] == "filter R=600"]
    slow = [r for r in fig7_rows if r[0] == "filter R=1000"]
    subtree = [r for r in fig7_rows if r[0] == "subtree"]
    report(
        "fig7",
        "Update traffic vs hit ratio — department query (revolution component)",
        ["model", "hit ratio", "entry PDUs", "revolution", "resync"],
        fig7_rows,
        params={"query_type": "department", "revolution_intervals": "600,1000"},
        metrics={
            "r600_revolution_pdus": sum(r[3] for r in fast),
            "r1000_revolution_pdus": sum(r[3] for r in slow),
            "subtree_max_entry_pdus": max((r[2] for r in subtree), default=0),
        },
        paper_expected={
            "shape": "revolution component dominates; R=1000 below R=600"
        },
    )

    # Paper shape (a): filter-replica traffic is dominated by the
    # revolution component — department entries barely change.
    for _m, _hit, total, revolution, _resync in fast + slow:
        if total:
            assert revolution >= total * 0.5, (
                "revolution fetches must dominate department update traffic"
            )

    # Paper shape (b): the longer interval R=1000 produces less
    # revolution traffic than R=600 (the lower curve of Figure 7).
    assert sum(r[3] for r in slow) < sum(r[3] for r in fast)

    # Paper shape (c): subtree update traffic is negligible — the
    # department tree is almost static.
    assert all(r[2] <= 100 for r in subtree)

    # Timed unit: answering a department query against a loaded replica.
    from repro.core import FilterReplica
    from repro.server import SimulatedNetwork
    from repro.sync import ResyncProvider

    master = env.fresh_master()
    provider = ResyncProvider(master)
    replica = FilterReplica("bench", network=SimulatedNetwork())
    records = env.day(2).of_type(QueryType.DEPARTMENT)
    for record in records[:20]:
        replica.add_filter(record.request, provider)
    sample = records[0].request
    benchmark(lambda: replica.answer(sample))
