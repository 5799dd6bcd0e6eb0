"""E11 — §5.2 ablation: ReSync vs changelog / tombstone / retain / reload.

Paper: "The ReSync protocol is lightweight and designed to reduce
synchronization traffic while providing convergence guarantees"; the
alternatives "either do not provide convergence or require unreasonably
large history information and/or synchronization traffic".

All mechanisms here are implemented convergently (the replica always
ends equal to the master — property-tested in tests/sync), so the
comparison isolates exactly the costs the paper names: update PDUs,
bytes and retained history.
"""

from __future__ import annotations

import pytest

from repro.ldap import Scope, SearchRequest
from repro.sync import ResyncProvider, SyncedContent
from repro.workload.updates import UpdateGenerator
from tests.oracles import (
    ChangelogProvider,
    FullReloadProvider,
    RetainResyncProvider,
    TombstoneProvider,
)

from .common import BenchEnv, report

REQUEST = SearchRequest("", Scope.SUB, "(departmentNumber=2000)")
POLLS = 8
UPDATES_PER_POLL = 150


def history_size_of(provider) -> int:
    if isinstance(provider, ChangelogProvider):
        return provider.changelog.history_size()
    if isinstance(provider, TombstoneProvider):
        return provider.tombstones.history_size()
    if isinstance(provider, ResyncProvider):
        # ReSync retains at most the pending actions plus ONE
        # unacknowledged batch per session — never the update stream.
        return sum(
            s.pending_count + s.retained_count
            for s in provider.sessions.active_sessions()
        )
    return 0


@pytest.fixture(scope="module")
def sync_rows(env: BenchEnv):
    rows = []
    for name, factory in (
        ("resync", ResyncProvider),
        ("retain", RetainResyncProvider),
        ("changelog", ChangelogProvider),
        ("tombstone", TombstoneProvider),
        ("full reload", FullReloadProvider),
    ):
        master = env.fresh_master()
        provider = factory(master)
        updates = UpdateGenerator(env.directory, master)
        content = SyncedContent(REQUEST)
        content.poll(provider)  # initial load (not counted)
        entry_pdus = dn_pdus = total_bytes = 0
        for _ in range(POLLS):
            updates.apply(UPDATES_PER_POLL)
            response = content.poll(provider)
            entry_pdus += response.entry_pdus
            dn_pdus += response.dn_pdus
            total_bytes += response.total_bytes
        converged = content.matches_master(master)
        rows.append(
            (
                name,
                entry_pdus,
                dn_pdus,
                total_bytes,
                history_size_of(provider),
                converged,
            )
        )
    return rows


def test_sync_mechanism_comparison(benchmark, env: BenchEnv, sync_rows):
    by_name = {row[0]: row for row in sync_rows}
    report(
        "sync_mechanisms",
        f"Synchronization mechanisms over {POLLS} polls × {UPDATES_PER_POLL} updates",
        ["mechanism", "entry PDUs", "DN PDUs", "bytes", "history", "converged"],
        sync_rows,
        params={"polls": POLLS, "updates_per_poll": UPDATES_PER_POLL},
        metrics={
            "resync_entry_pdus": by_name["resync"][1],
            "resync_bytes": by_name["resync"][3],
            "changelog_history": by_name["changelog"][4],
            "resync_history": by_name["resync"][4],
            "full_reload_entry_pdus": by_name["full reload"][1],
        },
        paper_expected={
            "shape": "resync minimizes traffic and retains no update stream"
        },
    )
    assert all(row[5] for row in sync_rows), "every mechanism must converge"

    resync = by_name["resync"]

    # ReSync sends no more entry PDUs than any alternative...
    for name in ("retain", "changelog", "tombstone", "full reload"):
        assert resync[1] <= by_name[name][1], f"resync vs {name} entry PDUs"
    # ...and no more total PDUs / bytes either.
    for name in ("retain", "changelog", "tombstone", "full reload"):
        assert resync[1] + resync[2] <= by_name[name][1] + by_name[name][2]
        assert resync[3] <= by_name[name][3]

    # The baselines' history grows with the whole update stream, while
    # ReSync retains only per-session pending actions (drained each
    # poll, so ~0 after the final poll).
    assert by_name["changelog"][4] >= POLLS * UPDATES_PER_POLL * 0.9
    assert resync[4] <= 30  # at most one retained batch

    # Full reload is the traffic upper bound.
    assert by_name["full reload"][1] >= max(r[1] for r in sync_rows)

    # Timed unit: one resync poll cycle under churn.
    master = env.fresh_master()
    provider = ResyncProvider(master)
    updates = UpdateGenerator(env.directory, master)
    content = SyncedContent(REQUEST)
    content.poll(provider)

    def cycle():
        updates.apply(10)
        content.poll(provider)

    benchmark(cycle)
