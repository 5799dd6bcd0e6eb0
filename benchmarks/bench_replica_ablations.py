"""E16 — replica-side ablations: template pruning and cache policy.

Two design choices DESIGN.md calls out, isolated on the same workload:

* **Template pruning** (§3.4.2's first simplification): with a template
  registry, queries that no stored template can answer are rejected
  up front and incompatible stored filters are skipped, cutting the
  containment comparisons per query ("additional query processing
  overhead … is directly proportional to the number of stored
  filters", §7.4).
* **Cache replacement policy**: the paper's recent-query window is a
  FIFO of arrivals; LRU (hits refresh) is the classical alternative.
  With popularity skew on top of temporal locality, LRU retains hot
  queries longer.

Every arm, and the timed unit, runs the reference replica
``tests.oracles.LinearFilterReplica``: the pruning and the LRU window
are that scan's, not settings of the production ``FilterReplica``.
"""

from __future__ import annotations

import pytest

from repro.core import TemplateRegistry
from repro.server import SimulatedNetwork
from repro.sync import ResyncProvider
from repro.workload import QueryType
from tests.oracles import LinearFilterReplica

from .common import BenchEnv, block_filter, hot_blocks, report

TEMPLATES = TemplateRegistry.from_strings(
    "(serialnumber=_)",
    "(serialnumber=_*_)",
    "(mail=_)",
    "(&(departmentnumber=_)(divisionnumber=_)(objectclass=department))",
    "(&(l=_)(objectclass=_))",
)
N_FILTERS = 50
N_QUERIES = 3000


def run_replica(env: BenchEnv, templates, cache_policy="fifo", cache=0):
    master = env.fresh_master()
    provider = ResyncProvider(master)
    # LinearFilterReplica pins the paper's linear containment scan:
    # template pruning is a simplification of *that* scan (§7.4's
    # "directly proportional to the number of stored filters"), and the
    # routed answer path (bench_replica_scaling) already narrows
    # candidates so far that there is nothing left for templates to
    # prune.  The oracle also has no negative result cache, which would
    # short-circuit repeated misses and deflate the check counts this
    # ablation compares.
    replica = LinearFilterReplica(
        "branch",
        network=SimulatedNetwork(),
        templates=templates,
        cache_capacity=cache,
        cache_policy=cache_policy,
    )
    for block, cc, _h in hot_blocks(env)[:N_FILTERS]:
        replica.add_filter(block_filter(block, cc), provider)
    hits = 0
    for record in env.day(2)[:N_QUERIES]:
        answer = replica.answer(record.request)
        if answer.is_hit:
            hits += 1
        elif cache:
            replica.observe_miss(record.request, master.search(record.request).entries)
    return hits / N_QUERIES, replica.containment_checks


@pytest.fixture(scope="module")
def ablation_rows(env: BenchEnv):
    rows = []
    hit_plain, checks_plain = run_replica(env, templates=None)
    rows.append(("no templates", hit_plain, checks_plain))
    hit_tmpl, checks_tmpl = run_replica(env, templates=TEMPLATES)
    rows.append(("template pruning", hit_tmpl, checks_tmpl))

    hit_fifo, _ = run_replica(env, templates=None, cache=50, cache_policy="fifo")
    rows.append(("cache FIFO/50", hit_fifo, 0))
    hit_lru, _ = run_replica(env, templates=None, cache=50, cache_policy="lru")
    rows.append(("cache LRU/50", hit_lru, 0))
    return rows


def test_replica_ablations(benchmark, env: BenchEnv, ablation_rows):
    by_name = {row[0]: row for row in ablation_rows}
    report(
        "replica_ablations",
        f"Template pruning & cache policy over {N_QUERIES} mixed queries, "
        f"{N_FILTERS} stored filters",
        ["configuration", "hit ratio", "containment checks"],
        ablation_rows,
        params={"queries": N_QUERIES, "stored_filters": N_FILTERS},
        metrics={
            "plain_checks": by_name["no templates"][2],
            "pruned_checks": by_name["template pruning"][2],
            "fifo_hit": by_name["cache FIFO/50"][1],
            "lru_hit": by_name["cache LRU/50"][1],
        },
        paper_expected={
            "shape": "template pruning cuts checks without changing hit ratio"
        },
    )

    # Template pruning must not change what is answerable here (every
    # workload template is registered) while cutting the checks hard.
    assert abs(by_name["template pruning"][1] - by_name["no templates"][1]) < 0.01
    assert by_name["template pruning"][2] < 0.6 * by_name["no templates"][2]

    # LRU retains the hot queries at least as well as FIFO on this
    # popularity-skewed workload.
    assert by_name["cache LRU/50"][1] >= by_name["cache FIFO/50"][1] - 0.005

    # Timed unit: the pruned answer path the table measures.
    master = env.fresh_master()
    provider = ResyncProvider(master)
    replica = LinearFilterReplica(
        "bench", network=SimulatedNetwork(), templates=TEMPLATES
    )
    for block, cc, _h in hot_blocks(env)[:N_FILTERS]:
        replica.add_filter(block_filter(block, cc), provider)
    sample = env.day(2).of_type(QueryType.MAIL)[0].request  # pruned instantly
    benchmark(lambda: replica.answer(sample))
