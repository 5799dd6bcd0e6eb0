"""E14 — §5.2 ablation: mode of update — persist vs poll.

Paper: "While persistent search can provide strong consistency for
filter based replicas, it requires a TCP connection per replicated
filter which might not scale for large replicas.  Polling is a better
mode of update for information typically stored in directories."

The bench quantifies the trade-off on one replica with N stored
filters under a master update stream:

* **persist** — zero staleness once the transport delivers, but N
  standing connections;
* **poll every k queries** — zero standing connections, staleness
  bounded by the poll interval (measured as the fraction of hits served
  from content the master had already changed), and one round trip per
  poll round however many filters are stored: the replica's link
  carries every filter's cookie in one multiplexed exchange
  (docs/PROTOCOL.md §4), where persist holds N connections.
"""

from __future__ import annotations

import pytest

from repro.core import FilterReplica
from repro.server import SimulatedNetwork
from repro.sync import ResyncProvider
from repro.workload import QueryType
from repro.workload.updates import UpdateGenerator

from .common import BenchEnv, block_filter, hot_blocks, report

N_FILTERS = 20
N_QUERIES = 1500


def _stale_fraction(env, mode: str, poll_interval: int) -> tuple:
    master = env.fresh_master()
    provider = ResyncProvider(master)
    network = SimulatedNetwork()
    replica = FilterReplica("branch", network=network)
    for block, cc, _h in hot_blocks(env)[:N_FILTERS]:
        replica.add_filter(block_filter(block, cc), provider)
    if mode == "persist":
        replica.subscribe_persist(provider)
    updates = UpdateGenerator(env.directory, master)

    stale = hits = rounds = trips = 0
    eval_trace = env.day(2).of_type(QueryType.SERIAL)[:N_QUERIES]
    for index, record in enumerate(eval_trace):
        updates.apply(1)
        if mode == "persist":
            network.settle()  # the notifications ride the DeliveryQueue
        answer = replica.answer(record.request)
        if answer.is_hit:
            hits += 1
            truth = {str(e.dn) for e in master.search(record.request).entries}
            got = {str(e.dn) for e in answer.entries}
            if got != truth:
                stale += 1
        if mode == "poll" and (index + 1) % poll_interval == 0:
            before = network.stats.round_trips
            replica.sync(provider)
            trips += network.stats.round_trips - before
            rounds += 1
    connections = network.open_connections
    replica.unsubscribe_persist()
    return hits, stale, connections, trips / rounds if rounds else "—"


@pytest.fixture(scope="module")
def mode_rows(env: BenchEnv):
    rows = []
    for mode, interval in (("persist", 0), ("poll", 50), ("poll", 250), ("poll", 1000)):
        hits, stale, connections, trips = _stale_fraction(env, mode, interval)
        label = mode if mode == "persist" else f"poll/{interval}"
        rows.append(
            (
                label,
                connections,
                hits,
                stale,
                stale / hits if hits else 0.0,
                trips,
            )
        )
    return rows


def test_sync_mode_tradeoff(benchmark, env: BenchEnv, mode_rows):
    by_label = {row[0]: row for row in mode_rows}
    report(
        "sync_modes",
        f"Persist vs poll for {N_FILTERS} stored filters under churn",
        ["mode", "connections", "hits", "stale hits", "stale frac", "round trips per poll round"],
        mode_rows,
        params={"stored_filters": N_FILTERS, "queries": N_QUERIES},
        metrics={
            "persist_connections": by_label["persist"][1],
            "persist_stale_hits": by_label["persist"][3],
            "poll50_stale_frac": by_label["poll/50"][4],
            "poll1000_stale_frac": by_label["poll/1000"][4],
            "poll50_round_trips_per_round": by_label["poll/50"][5],
        },
        paper_expected={
            "persist_connections": N_FILTERS,
            "shape": "polling trades bounded staleness for zero connections",
        },
    )

    # Persist: strong consistency, but one connection per filter.
    assert by_label["persist"][1] == N_FILTERS
    assert by_label["persist"][3] == 0

    # Poll: no standing connections, one exchange per round for all
    # N filters; staleness grows with the interval.
    for label in ("poll/50", "poll/250", "poll/1000"):
        assert by_label[label][1] == 0
        assert by_label[label][5] == 1
    assert by_label["poll/50"][4] <= by_label["poll/1000"][4]

    # Timed unit: a persist-mode notification delivery, commit to apply.
    master = env.fresh_master()
    provider = ResyncProvider(master)
    network = SimulatedNetwork()
    replica = FilterReplica("bench", network=network)
    block, cc, _h = hot_blocks(env)[0]
    replica.add_filter(block_filter(block, cc), provider)
    replica.subscribe_persist(provider)
    updates = UpdateGenerator(env.directory, master)
    benchmark(lambda: (updates.apply(1), network.settle()))
    replica.unsubscribe_persist()
