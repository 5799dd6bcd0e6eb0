"""Shared benchmark machinery: environment, sweeps, result reporting.

Every bench (one per paper table/figure, see DESIGN.md §3) runs against
the same session-scoped environment: a synthetic enterprise directory
(DESIGN.md §4 documents why it substitutes for the paper's IBM
directory), a loaded master, and a two-day Table 1 workload.  Day 1 is
the training half (filter selection / warm-up), day 2 the evaluation
half, mirroring the paper's two-day trace.

Scale note: the paper's directory has ~500k entries and its workload
hundreds of applications; this harness defaults to a few thousand
entries so the full figure sweep reproduces in seconds.  All reported
quantities that the paper normalizes (hit ratio, replica size as a
fraction of person entries, traffic in entries) are normalized here the
same way, so shapes are scale-independent.  Revolution intervals are
scaled down with the trace length (paper: R = 6000/10000 queries on a
multi-day trace; here R = 600/1000 on a 10k-query trace).

Results of each bench are printed and appended to
``benchmarks/results/<experiment>.txt`` so EXPERIMENTS.md can quote the
measured rows next to the paper's, and exported as machine-readable
``benchmarks/results/<experiment>.json`` with the schema
``{bench, params, metrics, paper_expected, table}`` (validated by
``benchmarks/validate_results.py``; documented in
docs/OBSERVABILITY.md §5).  Every JSON export carries the QC
containment-cache statistics, and a bench that measured a network also
carries its protocol counters (``round_trips``, ``bytes_sent``), so
perf PRs have a baseline to diff against.
"""

from __future__ import annotations

import gc
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core import FilterReplica, FilterSelector, SubtreeReplica
from repro.core.containment import (
    clear_containment_cache,
    containment_cache_metrics,
)
from repro.ldap import Scope, SearchRequest
from repro.metrics import ExperimentResult, ReplicaDriver
from repro.server import DirectoryServer, SimulatedNetwork
from repro.sync import ResyncProvider
from repro.workload import (
    DirectoryConfig,
    EnterpriseDirectory,
    QueryType,
    Trace,
    WorkloadConfig,
    WorkloadGenerator,
    generate_directory,
)
from repro.workload.updates import UpdateGenerator

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

GEOGRAPHY = "AP"


@dataclass
class BenchEnv:
    """The shared evaluation environment."""

    directory: EnterpriseDirectory
    trace: Trace

    @property
    def person_entries(self) -> int:
        return self.directory.employee_count

    def fresh_master(self) -> DirectoryServer:
        """A new master loaded with the directory (isolated per run)."""
        master = DirectoryServer("master")
        master.add_naming_context(self.directory.suffix)
        master.load(self.directory.entries)
        return master

    def day(self, day: int) -> Trace:
        return self.trace.day(day)


def build_env(
    employees: int = 6000, queries: int = 10000, seed: int = 20050607
) -> BenchEnv:
    directory = generate_directory(DirectoryConfig(employees=employees, seed=seed))
    trace = WorkloadGenerator(
        directory, WorkloadConfig(seed=seed + 1)
    ).generate(queries, days=2)
    return BenchEnv(directory=directory, trace=trace)


# ----------------------------------------------------------------------
# timing
# ----------------------------------------------------------------------
@contextmanager
def quiesced_gc():
    """GC off for a timed window.  Bench loops are short enough that a
    single gen-2 collection of the suite's whole heap landing inside
    one would dominate the measurement — and make a bench's committed
    numbers depend on which benches ran before it in the process."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# training-side statistics (day 1)
# ----------------------------------------------------------------------
def hot_blocks(env: BenchEnv, day: int = 1) -> List[Tuple[str, str, int]]:
    """serialNumber blocks ranked by day-*day* access count.

    Returns (block prefix, country code upper, hits), hottest first —
    the statistics a static benefit/size selection works from (§6.2).
    """
    counts: Dict[Tuple[str, str], int] = {}
    for record in env.trace.day(day).of_type(QueryType.SERIAL):
        value = str(record.request.filter)[len("(serialNumber=") : -1]
        key = (value[:4], value[6:])
        counts[key] = counts.get(key, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: kv[1], reverse=True)
    return [(block, cc, hits) for (block, cc), hits in ranked]


def hot_countries(env: BenchEnv, day: int = 1) -> List[Tuple[str, int]]:
    """Countries ranked by day-1 person-query access count."""
    counts: Dict[str, int] = {}
    for record in env.trace.day(day):
        if record.qtype in (QueryType.SERIAL, QueryType.MAIL):
            cc = str(record.scoped_request.base).split(",")[0].split("=")[1]
            counts[cc] = counts.get(cc, 0) + 1
    return sorted(counts.items(), key=lambda kv: kv[1], reverse=True)


def block_filter(block: str, cc_upper: str) -> SearchRequest:
    """The generalized ``(serialnumber=_*_)`` filter for one site block."""
    return SearchRequest("", Scope.SUB, f"(serialNumber={block}*{cc_upper})")


# ----------------------------------------------------------------------
# single experiment points
# ----------------------------------------------------------------------
def run_filter_point(
    env: BenchEnv,
    filters: Sequence[SearchRequest],
    eval_trace: Trace,
    cache_capacity: int = 0,
    updates_per_query: float = 0.0,
    sync_interval: int = 500,
    selector_factory: Optional[Callable[[FilterReplica, ResyncProvider, DirectoryServer], FilterSelector]] = None,
) -> Tuple[ExperimentResult, FilterReplica]:
    """Run one filter-replica configuration over *eval_trace*."""
    master = env.fresh_master()
    provider = ResyncProvider(master)
    network = SimulatedNetwork()
    replica = FilterReplica(
        "branch", network=network, cache_capacity=cache_capacity
    )
    for request in filters:
        replica.add_filter(request, provider)
    selector = (
        selector_factory(replica, provider, master) if selector_factory else None
    )
    update_generator = (
        UpdateGenerator(env.directory, master) if updates_per_query > 0 else None
    )
    driver = ReplicaDriver(
        master,
        replica,
        provider=provider,
        selector=selector,
        update_generator=update_generator,
        updates_per_query=updates_per_query,
        sync_interval=sync_interval,
        network=network,
    )
    return driver.run(eval_trace), replica


def run_subtree_point(
    env: BenchEnv,
    country_codes: Sequence[str],
    eval_trace: Trace,
    updates_per_query: float = 0.0,
    sync_interval: int = 500,
) -> Tuple[ExperimentResult, SubtreeReplica]:
    """Run one subtree-replica configuration (scoped queries — the most
    favourable interpretation for the baseline, §3.1.1)."""
    master = env.fresh_master()
    provider = ResyncProvider(master)
    network = SimulatedNetwork()
    replica = SubtreeReplica("branch", network=network)
    for cc in country_codes:
        replica.add_context(f"c={cc},o=xyz")
    replica.sync(provider)
    update_generator = (
        UpdateGenerator(env.directory, master) if updates_per_query > 0 else None
    )
    driver = ReplicaDriver(
        master,
        replica,
        provider=provider,
        update_generator=update_generator,
        updates_per_query=updates_per_query,
        sync_interval=sync_interval,
        use_scoped=True,
        network=network,
    )
    return driver.run(eval_trace), replica


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def report(
    experiment: str,
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence],
    params: Optional[Mapping[str, object]] = None,
    metrics: Optional[Mapping[str, float]] = None,
    paper_expected: Optional[Mapping[str, object]] = None,
    network: Optional[SimulatedNetwork] = None,
) -> str:
    """Format, print and persist one experiment table (text + JSON).

    The text table keeps its historical format for EXPERIMENTS.md; the
    JSON side effect goes through :func:`export_json` with the same
    rows, so every bench emits a schema-valid
    ``results/<experiment>.json`` even when it passes no extra
    arguments.  ``params``/``metrics``/``paper_expected``/``network``
    flow straight through to the exporter.
    """
    rows = [list(row) for row in rows]
    lines = [f"== {experiment}: {title} =="]
    header = " | ".join(f"{h:>14}" for h in headers)
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append(
            " | ".join(
                f"{v:>14.4f}" if isinstance(v, float) else f"{str(v):>14}"
                for v in row
            )
        )
    text = "\n".join(lines)
    print("\n" + text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{experiment}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    export_json(
        experiment,
        params=params,
        metrics=metrics,
        paper_expected=paper_expected,
        network=network,
        title=title,
        headers=headers,
        rows=rows,
    )
    return text


def export_json(
    bench: str,
    params: Optional[Mapping[str, object]] = None,
    metrics: Optional[Mapping[str, float]] = None,
    paper_expected: Optional[Mapping[str, object]] = None,
    network: Optional[SimulatedNetwork] = None,
    title: str = "",
    headers: Sequence[str] = (),
    rows: Sequence[Sequence] = (),
) -> str:
    """Write ``benchmarks/results/<bench>.json`` and return its path.

    Schema (checked by ``benchmarks/validate_results.py``)::

        {
          "bench": str,                # experiment name
          "params": {str: scalar},     # sweep/configuration inputs
          "metrics": {str: number},    # measured quantities
          "paper_expected": {...}|null,# the paper's anchors, if any
          "title": str,                # human table caption
          "table": {"headers": [...], "rows": [[...], ...]}
        }

    ``metrics`` is completed with the QC containment-cache statistics
    (``qc_cache_hits``/``qc_cache_misses``/``qc_cache_evictions``) and,
    when *network* is passed, with its traffic counters
    (``round_trips``, ``bytes_sent``, ...); values already in *metrics*
    win.  A bench without a network exports no protocol counters: a
    zero there would read as a measurement.

    The QC memo is process-global, so the exporter *resets it after
    reading*: each result file reports only the cache activity since
    the previous export (i.e. this bench's own), and every bench
    starts from a cold memo regardless of which benches ran before it
    in the process — suite runs and standalone runs export the same
    per-bench counters.
    """
    merged: Dict[str, float] = dict(metrics or {})
    if network is not None:
        for field_name, value in network.stats.as_dict().items():
            merged.setdefault(field_name, value)
    qc = containment_cache_metrics()
    merged.setdefault("qc_cache_hits", qc["core.qc.cache.hits"])
    merged.setdefault("qc_cache_misses", qc["core.qc.cache.misses"])
    merged.setdefault("qc_cache_evictions", qc["core.qc.cache.evictions"])
    clear_containment_cache()  # per-bench counters: next export starts at zero
    payload = {
        "bench": bench,
        "params": dict(params or {}),
        "metrics": merged,
        "paper_expected": dict(paper_expected) if paper_expected else None,
        "title": title,
        "table": {
            "headers": list(headers),
            "rows": [list(row) for row in rows],
        },
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{bench}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return path
