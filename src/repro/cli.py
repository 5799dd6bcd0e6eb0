"""Command-line interface.

Seven subcommands wrap the library for shell use::

    repro-ldap gen-directory --employees 5000 --out directory.ldif
    repro-ldap gen-carrier --subscribers 10000 --out carrier.ldif
    repro-ldap gen-workload --queries 10000 --days 2 --out trace.txt
    repro-ldap case-study --employees 4000 --queries 6000
    repro-ldap obs --employees 1000 --queries 1500
    repro-ldap recovery --journal-dir /tmp/resync-journal --sessions 10
    repro-ldap snapshot --snapshot-dir /tmp/replica-snapshot

``gen-directory`` / ``gen-carrier`` write the synthetic DITs as LDIF;
``gen-workload`` writes one query per line (tab-separated: day, type,
filter, scoped base); ``case-study`` runs the §7 filter-vs-subtree
comparison and prints the summary table; ``obs`` runs a small built-in
workload with the observability layer enabled and pretty-prints the
resulting metrics snapshot and span aggregates (see
``docs/OBSERVABILITY.md``); ``recovery`` demonstrates the durable
provider end to end with a file-backed journal: replica sessions are
opened, the master mutates, the provider crashes, and the recovered
incarnation serves every cookie an incremental delta instead of a
full resync (``docs/PROTOCOL.md`` §10); ``snapshot`` demonstrates the
consumer-side counterpart: a replica dumps its content to a
file-backed snapshot, restarts, warm-starts from the verified dump and
resumes in O(delta) — then the dump is deliberately corrupted to show
the detect-and-discard path (``docs/RECOVERY.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence, TextIO

from .core import FilterReplica, SubtreeReplica
from .ldap import Scope, SearchRequest, entries_to_ldif
from .metrics import ReplicaDriver
from .server import DirectoryServer, SimulatedNetwork
from .sync import ResyncProvider
from .workload import (
    CarrierConfig,
    DirectoryConfig,
    QueryType,
    WorkloadConfig,
    WorkloadGenerator,
    generate_carrier_directory,
    generate_directory,
)

__all__ = ["main"]


def _open_out(path: Optional[str]) -> TextIO:
    if path is None or path == "-":
        return sys.stdout
    return open(path, "w", encoding="utf-8")


def _cmd_gen_directory(args: argparse.Namespace) -> int:
    directory = generate_directory(
        DirectoryConfig(employees=args.employees, seed=args.seed)
    )
    out = _open_out(args.out)
    try:
        out.write(entries_to_ldif(directory.entries))
    finally:
        if out is not sys.stdout:
            out.close()
    print(
        f"wrote {len(directory.entries)} entries "
        f"({directory.employee_count} employees)",
        file=sys.stderr,
    )
    return 0


def _cmd_gen_carrier(args: argparse.Namespace) -> int:
    directory = generate_carrier_directory(
        CarrierConfig(subscribers=args.subscribers, seed=args.seed)
    )
    out = _open_out(args.out)
    try:
        out.write(entries_to_ldif(directory.entries))
    finally:
        if out is not sys.stdout:
            out.close()
    print(f"wrote {len(directory.entries)} entries", file=sys.stderr)
    return 0


def _cmd_gen_workload(args: argparse.Namespace) -> int:
    directory = generate_directory(
        DirectoryConfig(employees=args.employees, seed=args.seed)
    )
    generator = WorkloadGenerator(directory, WorkloadConfig(seed=args.seed + 1))
    trace = generator.generate(args.queries, days=args.days)
    out = _open_out(args.out)
    try:
        trace.save(out)
    finally:
        if out is not sys.stdout:
            out.close()
    shares = ", ".join(
        f"{t.value}={s:.0%}" for t, s in sorted(
            trace.distribution().items(), key=lambda kv: -kv[1]
        )
    )
    print(f"wrote {len(trace)} queries ({shares})", file=sys.stderr)
    return 0


def _cmd_case_study(args: argparse.Namespace) -> int:
    directory = generate_directory(
        DirectoryConfig(employees=args.employees, seed=args.seed)
    )
    trace = WorkloadGenerator(directory, WorkloadConfig(seed=args.seed + 1)).generate(
        args.queries, days=2
    )
    day2 = trace.day(2)

    # day-1 hot block statistics → static filter selection (§6.2)
    counts = {}
    for record in trace.day(1).of_type(QueryType.SERIAL):
        value = str(record.request.filter)[len("(serialNumber=") : -1]
        counts[(value[:4], value[6:])] = counts.get((value[:4], value[6:]), 0) + 1
    hot_blocks = sorted(counts, key=counts.get, reverse=True)[: args.filters]

    def fresh_master() -> DirectoryServer:
        master = DirectoryServer("master")
        master.add_naming_context(directory.suffix)
        master.load(directory.entries)
        return master

    master = fresh_master()
    provider = ResyncProvider(master)
    subtree = SubtreeReplica("subtree", network=SimulatedNetwork())
    for cc in directory.geography_countries(args.geography):
        subtree.add_context(f"c={cc},o=xyz")
    subtree.sync(provider)
    subtree_result = ReplicaDriver(
        master, subtree, provider=provider, use_scoped=True
    ).run(day2)

    master = fresh_master()
    provider = ResyncProvider(master)
    filt = FilterReplica("filter", network=SimulatedNetwork(), cache_capacity=50)
    for block, cc in hot_blocks:
        filt.add_filter(
            SearchRequest("", Scope.SUB, f"(serialNumber={block}*{cc})"), provider
        )
    filt.add_filter(SearchRequest("", Scope.SUB, "(objectClass=location)"), provider)
    filter_result = ReplicaDriver(master, filt, provider=provider).run(day2)

    print(f"{'metric':<24}{'subtree':>12}{'filter':>12}")
    print(f"{'replica entries':<24}{subtree_result.replica_entries:>12}{filter_result.replica_entries:>12}")
    print(f"{'hit ratio':<24}{subtree_result.hit_ratio:>12.3f}{filter_result.hit_ratio:>12.3f}")
    for qtype in QueryType:
        s = subtree_result.hit_ratio_by_type.get(qtype.value, 0.0)
        f = filter_result.hit_ratio_by_type.get(qtype.value, 0.0)
        print(f"{'  ' + qtype.value:<24}{s:>12.3f}{f:>12.3f}")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    """Run a small workload with metrics + tracing on, print the result.

    The same registry backs the master server's operation timers and the
    replica network's traffic counters, a ``TraceCollector`` aggregates
    the spans emitted along the answer/sync/revolution paths, and the QC
    containment cache is exported at the end — one snapshot of every
    instrument family documented in ``docs/OBSERVABILITY.md``.
    """
    from .core.containment import observe_containment_cache
    from .obs import MetricsRegistry, TraceCollector, collecting

    directory = generate_directory(
        DirectoryConfig(employees=args.employees, seed=args.seed)
    )
    trace = WorkloadGenerator(directory, WorkloadConfig(seed=args.seed + 1)).generate(
        args.queries, days=2
    )

    registry = MetricsRegistry()
    master = DirectoryServer("master", metrics=registry)
    master.add_naming_context(directory.suffix)
    master.load(directory.entries)
    provider = ResyncProvider(master)
    network = SimulatedNetwork(registry=registry)
    replica = FilterReplica("obs", network=network, cache_capacity=50)

    counts = {}
    for record in trace.day(1).of_type(QueryType.SERIAL):
        value = str(record.request.filter)[len("(serialNumber=") : -1]
        counts[(value[:4], value[6:])] = counts.get((value[:4], value[6:]), 0) + 1
    hot = sorted(counts, key=counts.get, reverse=True)[: args.filters]

    collector = TraceCollector()
    with collecting(collector):
        for block, cc in hot:
            replica.add_filter(
                SearchRequest("", Scope.SUB, f"(serialNumber={block}*{cc})"),
                provider,
            )
        for index, record in enumerate(trace.day(2)):
            answer = replica.answer(record.request)
            if not answer.is_hit:
                replica.observe_miss(
                    record.request, master.search(record.request).entries
                )
            if (index + 1) % 250 == 0:
                replica.sync(provider)
    observe_containment_cache(registry)

    print("# metrics")
    for name, value in sorted(registry.to_dict().items()):
        if isinstance(value, dict):
            rendered = " ".join(
                f"{k}={value[k]}" for k in ("count", "sum", "mean") if k in value
            )
            print(f"{name:<44} {rendered}")
        else:
            print(f"{name:<44} {value}")
    print()
    print("# spans (path count total_s max_s attached)")
    for path, agg in sorted(collector.aggregate().items()):
        attached = " ".join(
            f"{k}={v}" for k, v in sorted(agg.items())
            if k not in ("count", "total_s", "max_s")
        )
        print(
            f"{path:<36} {agg['count']:>6} {agg['total_s']:.4f} "
            f"{agg['max_s']:.6f} {attached}".rstrip()
        )
    if args.prometheus:
        print()
        print("# prometheus exposition")
        print(registry.to_prometheus_text())
    return 0


def _cmd_recovery(args: argparse.Namespace) -> int:
    """Durable-provider walkthrough on a file-backed journal.

    Opens *sessions* replica sessions against a durable master, applies
    a burst of updates, crashes the provider, recovers a fresh provider
    instance from the journal directory, and polls every session once —
    printing how many bytes the resumes cost against what a full resync
    would have, plus the ``sync.durability.*`` counters.
    """
    from .ldap.entry import Entry
    from .server import Modification
    from .sync import DurabilityConfig, FileJournal, SyncedContent

    directory = generate_directory(
        DirectoryConfig(employees=args.employees, seed=args.seed)
    )
    master = DirectoryServer("master")
    master.add_naming_context(directory.suffix)
    master.load(directory.entries)

    journal = FileJournal(args.journal_dir)
    durability = DurabilityConfig(snapshot_interval=args.snapshot_interval)
    provider = ResyncProvider(master, durability=durability, journal=journal)

    def response_bytes(response) -> int:
        return sum(u.pdu_bytes for u in response.updates)

    people = [e for e in directory.entries if "person" in e.object_classes]
    consumers = []
    initial_bytes = 0
    for i in range(args.sessions):
        request = SearchRequest(
            directory.suffix, Scope.SUB, f"(sn={people[i % len(people)].get('sn')[0]})"
        )
        content = SyncedContent(request)
        initial_bytes += response_bytes(content.poll(provider))
        consumers.append(content)

    for step, entry in enumerate(people[-args.updates :]):
        master.modify(entry.dn, [Modification.replace("title", f"T{step}")])
    # A new entry matching the first session, so the post-crash delta is
    # visibly incremental rather than empty.
    master.add(
        Entry(
            f"cn=recovery probe,{directory.suffix}",
            {
                "objectClass": ["person"],
                "cn": ["recovery probe"],
                "sn": [people[0].get("sn")[0]],
            },
        )
    )

    provider.restart()  # crash: all in-memory session state gone
    provider.detach()
    recovered = ResyncProvider(master, durability=durability, journal=journal)
    replayed = recovered.recover()

    delta_bytes = sum(response_bytes(c.poll(recovered)) for c in consumers)
    print(f"sessions recovered : {recovered.active_session_count}/{args.sessions}")
    print(f"journal records    : {replayed} replayed")
    print(f"initial content    : {initial_bytes} bytes")
    print(f"post-crash resumes : {delta_bytes} bytes")
    for name, value in sorted(master.metrics.to_dict().items()):
        if name.startswith("sync.durability."):
            print(f"{name:<40} {value}")
    journal.close()
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    """Consumer warm-start walkthrough on a file-backed snapshot store.

    A replica synchronizes and dumps its content (LDIF + cookie +
    checksum), the master keeps mutating, the replica "restarts" —
    warm-starting from the verified snapshot and paying only the delta
    — and the byte cost is printed against a cold full rebuild.  A
    second restart runs against a deliberately corrupted dump to show
    detection: the snapshot is discarded, never applied, and the
    replica still converges via the rebuild rung.
    """
    from .server import FaultyNetwork, Modification
    from .sync import FileSnapshotStore, ResilientConsumer

    directory = generate_directory(
        DirectoryConfig(employees=args.employees, seed=args.seed)
    )
    master = DirectoryServer("master")
    master.add_naming_context(directory.suffix)
    master.load(directory.entries)
    provider = ResyncProvider(master)
    people = [e for e in directory.entries if "person" in e.object_classes]
    request = SearchRequest(directory.suffix, Scope.SUB, "(objectClass=person)")

    store = FileSnapshotStore(args.snapshot_dir)
    first_net = FaultyNetwork()
    consumer = ResilientConsumer(
        request, provider, network=first_net, snapshot_store=store
    )
    consumer.sync_once()
    print(f"replica synced     : {len(consumer.content)} entries")
    print(f"snapshot written   : {store.size_bytes} bytes -> {store.path}")

    for step, entry in enumerate(people[: args.updates]):
        master.modify(entry.dn, [Modification.replace("title", f"T{step}")])

    warm_net = FaultyNetwork()
    warm = ResilientConsumer(
        request, provider, network=warm_net, snapshot_store=store
    )
    warm.sync_once()
    cold_net = FaultyNetwork()
    cold = ResilientConsumer(request, provider, network=cold_net)
    cold.sync_once()
    warm_bytes, cold_bytes = warm_net.stats.bytes_sent, cold_net.stats.bytes_sent
    print(f"warm-start resume  : {warm_bytes} bytes "
          f"({warm.snapshot_recoverer.stage})")
    print(f"cold full rebuild  : {cold_bytes} bytes "
          f"({cold_bytes / max(warm_bytes, 1):.1f}x the warm start)")

    store.damage_corrupt(0.5)
    damaged_net = FaultyNetwork()
    damaged = ResilientConsumer(
        request, provider, network=damaged_net, snapshot_store=store
    )
    damaged.sync_once()
    print(f"corrupted restart  : snapshot {damaged.snapshot_recoverer.stage}, "
          f"rebuilt {len(damaged.content)} entries from the master")
    for name, value in sorted(damaged_net.registry.to_dict().items()):
        if name.startswith("sync.snapshot."):
            print(f"{name:<40} {value}")
    return 0


def _cmd_soak(args: argparse.Namespace) -> int:
    """Chaos soak run with the canonical fault schedule.

    Drives a master plus N tenant replicas
    through simulated hours of diurnal updates, flash-crowd query
    bursts and region renames, under overlapping fault windows —
    partitions, crashes, slow nodes, message noise — checking the soak
    invariants continuously (docs/FAULTS.md §5).  Prints the fault
    schedule, the fleet-status table and the run fingerprint; exits
    non-zero on an invariant violation, naming the seed and virtual
    timestamp that replay it.
    """
    from .chaos import FaultSchedule, InvariantViolation, SoakConfig, SoakRunner

    config = SoakConfig(
        seed=args.seed,
        tenants=args.tenants,
        employees=args.employees,
        duration_hours=args.hours,
    )
    schedule = FaultSchedule.canonical(
        args.seed, horizon_ms=args.hours * 3_600_000.0
    )
    print(
        f"soak: seed={args.seed} tenants={args.tenants} "
        f"horizon={args.hours:g}h windows={len(schedule.windows)} "
        f"(overlapping pairs: {schedule.overlap_count()})"
    )
    for row in schedule.describe():
        span = f"{row['start_ms'] / 60000.0:6.1f}..{row['end_ms'] / 60000.0:6.1f} min"
        print(f"  {row['label']:<16} {row['kind']:<10} {span}")
    runner = SoakRunner(config, schedule)
    try:
        report = runner.run()
    except InvariantViolation as violation:
        print(f"\nFAIL: {violation}")
        return 1
    print()
    print(report.fleet_table())
    print()
    print(f"updates committed  : {report.updates_committed}")
    print(f"region renames     : {report.renamed_entries} entries moved")
    print(
        f"queries served     : {report.queries_served} "
        f"({report.degraded_queries} stamped degraded)"
    )
    print(f"invariant checks   : {report.invariant_checks} (0 violations)")
    print(f"faults injected    : {sum(report.fault_counts.values())}")
    for kind, count in sorted(report.fault_counts.items()):
        print(f"  {kind:<20} {count}")
    print(f"round trips        : {report.round_trips}")
    print(f"virtual time       : {report.elapsed_virtual_ms / 60000.0:.1f} min")
    print(f"fingerprint        : {report.fingerprint()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ldap",
        description="Filter based directory replication (ICDCS 2005) tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-directory", help="write the enterprise DIT as LDIF")
    p.add_argument("--employees", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=20050607)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_gen_directory)

    p = sub.add_parser("gen-carrier", help="write the flat carrier DIT as LDIF")
    p.add_argument("--subscribers", type=int, default=5_000)
    p.add_argument("--seed", type=int, default=33)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_gen_carrier)

    p = sub.add_parser("gen-workload", help="write a Table 1 query trace")
    p.add_argument("--employees", type=int, default=10_000)
    p.add_argument("--queries", type=int, default=10_000)
    p.add_argument("--days", type=int, default=2)
    p.add_argument("--seed", type=int, default=20050607)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_gen_workload)

    p = sub.add_parser("case-study", help="run the §7 filter-vs-subtree comparison")
    p.add_argument("--employees", type=int, default=4_000)
    p.add_argument("--queries", type=int, default=6_000)
    p.add_argument("--filters", type=int, default=25)
    p.add_argument("--geography", default="AP")
    p.add_argument("--seed", type=int, default=20050607)
    p.set_defaults(func=_cmd_case_study)

    p = sub.add_parser(
        "obs", help="run a small workload and print the observability snapshot"
    )
    p.add_argument("--employees", type=int, default=1_000)
    p.add_argument("--queries", type=int, default=1_500)
    p.add_argument("--filters", type=int, default=15)
    p.add_argument("--seed", type=int, default=20050607)
    p.add_argument(
        "--prometheus",
        action="store_true",
        help="also print the Prometheus exposition text",
    )
    p.set_defaults(func=_cmd_obs)

    p = sub.add_parser(
        "recovery",
        help="durable-provider crash/recovery walkthrough (file journal)",
    )
    p.add_argument("--journal-dir", required=True)
    p.add_argument("--employees", type=int, default=500)
    p.add_argument("--sessions", type=int, default=10)
    p.add_argument("--updates", type=int, default=40)
    p.add_argument("--snapshot-interval", type=int, default=64)
    p.add_argument("--seed", type=int, default=20050607)
    p.set_defaults(func=_cmd_recovery)

    p = sub.add_parser(
        "snapshot",
        help="consumer snapshot warm-start walkthrough (file store)",
    )
    p.add_argument("--snapshot-dir", required=True)
    p.add_argument("--employees", type=int, default=500)
    p.add_argument("--updates", type=int, default=25)
    p.add_argument("--seed", type=int, default=20050607)
    p.set_defaults(func=_cmd_snapshot)

    p = sub.add_parser(
        "soak",
        help="chaos soak: canonical fault schedule + fleet health table",
    )
    p.add_argument("--hours", type=float, default=1.0)
    p.add_argument("--tenants", type=int, default=3)
    p.add_argument("--employees", type=int, default=240)
    p.add_argument("--seed", type=int, default=20050607)
    p.set_defaults(func=_cmd_soak)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
