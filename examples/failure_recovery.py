#!/usr/bin/env python3
"""ReSync failure recovery: lost responses, retries, crash reloads.

Demonstrates the delivery semantics documented in docs/PROTOCOL.md §5:
the master retains each served batch until the replica's next cookie
acknowledges it, so a lost response is recovered by retrying with the
previous cookie — and a crashed replica simply reloads.

Run:  python examples/failure_recovery.py
"""

from repro.ldap import Entry, ReSyncControl, Scope, SearchRequest, SyncMode
from repro.server import DirectoryServer, Modification
from repro.sync import ResilientConsumer, ResyncProvider, SyncedContent


def person(name: str) -> Entry:
    return Entry(
        f"cn={name},o=xyz", {"objectClass": ["person"], "cn": name, "sn": "X"}
    )


def main() -> None:
    master = DirectoryServer("master")
    master.add_naming_context("o=xyz")
    master.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
    for name in ("E1", "E2", "E3"):
        master.add(person(name))

    S = SearchRequest("o=xyz", Scope.SUB, "(objectClass=person)")
    provider = ResyncProvider(master)
    content = SyncedContent(S)
    content.poll(provider)
    print(f"initial content: {sorted(str(d) for d in content.dns())}")
    print(f"cookie: {content.cookie}")

    # ------------------------------------------------------------------
    print("\n[master] deletes E1; the replica polls but the response is LOST")
    master.delete("cn=E1,o=xyz")
    provider.handle(S, ReSyncControl(mode=SyncMode.POLL, cookie=content.cookie))
    print(f"replica still holds: {sorted(str(d) for d in content.dns())}")
    print(f"replica still has the old cookie: {content.cookie}")

    print("\n[master] meanwhile also adds E4")
    master.add(person("E4"))

    print("\nreplica retries with its OLD cookie:")
    response = content.poll(provider)
    for update in response.updates:
        print(f"  <- {update.action.value:<7} {update.dn}")
    print(f"converged: {content.matches_master(master)}")

    # ------------------------------------------------------------------
    print("\nreplica crashes (all local state lost); restarts with a null cookie")
    master.modify("cn=E2,o=xyz", [Modification.replace("title", "post-crash")])
    consumer = ResilientConsumer(S, provider)
    reborn = consumer.content
    response = consumer.sync_once()
    print(f"full reload delivered {len(response.updates)} entries")
    print(f"converged: {reborn.matches_master(master)}")

    # ------------------------------------------------------------------
    print("\na cookie two generations old cannot be resumed:")
    stale = reborn.cookie
    master.delete("cn=E4,o=xyz")
    reborn.poll(provider)
    master.modify("cn=E2,o=xyz", [Modification.replace("title", "newer")])
    reborn.poll(provider)
    reborn.cookie = stale
    # The refusal finds the replica still holding content, so the
    # recovery ladder (docs/RECOVERY.md) reconciles by sketch: only the
    # difference travels, not a reload of everything.
    response = consumer.sync_once()
    print(
        f"resilient cycle recovered by sketch reconciliation "
        f"({len(response.updates)} of {len(reborn.entries)} entries fetched)"
    )
    print(f"converged: {reborn.matches_master(master)}")


if __name__ == "__main__":
    main()
