"""What a restart costs per held entry as the fleet grows.

    PYTHONPATH=src python tools/recovery_cost.py 40 200 1000
    PYTHONPATH=src python tools/recovery_cost.py --employees 20000 --narrow 4

For each session count, loads the synthetic enterprise directory (1 000
employees by default, seed 20050607) into a master behind a durable
``ResyncProvider`` and opens that many poll sessions, session *i* over
country ``i mod 10``'s subtree — so every name is held by about a tenth
of the fleet, as replicas of one region overlap.  With ``--narrow``
every session instead holds one department's employees, through a
filter at the suffix: a few narrow replicas of a large directory.  A
crash and recovery compacts the journal into a snapshot; a few updates
and polls then leave a journal tail.  Two numbers per size, each per
held entry (the sum of the sessions' content sizes):

* ``recover_us`` — the median of five ``recover()`` calls, each of a
  fresh provider over a copy of that journal (snapshot restore plus
  tail replay);
* ``save_first_us`` / ``save_again_us`` — ``SnapshotStore.save`` of
  every session's consumer content, the first time and then again with
  nothing changed (a consumer dumps after each successful cycle).

One line per size.  A measurement, not a test: EXPERIMENTS.md
("Recovery cost vs fleet size") records its output.
"""

from __future__ import annotations

import argparse
import copy
import gc
import sys
from statistics import median
from time import perf_counter

from repro.ldap import Scope, SearchRequest
from repro.server import DirectoryServer, Modification
from repro.sync import (
    DurabilityConfig,
    MemoryJournal,
    MemorySnapshotStore,
    ResyncProvider,
    SyncedContent,
)
from repro.workload import DirectoryConfig, generate_directory

SEED = 20050607
EMPLOYEES = 1000


def fleet(directory, sessions: int, narrow: bool):
    master = DirectoryServer("master")
    master.add_naming_context(directory.suffix)
    master.load(directory.entries)
    provider = ResyncProvider(
        master,
        durability=DurabilityConfig(snapshot_interval=1_000_000),
        journal=MemoryJournal(),
    )
    employees = directory.all_employees()
    if narrow:
        dept = employees[0].get("departmentNumber")[0]
        employees = [e for e in employees if e.get("departmentNumber")[0] == dept]
        bases, selector = [directory.suffix], f"(departmentNumber={dept})"
    else:
        bases = [f"c={country},{directory.suffix}" for country in directory.countries()]
        selector = "(objectClass=*)"
    contents = [
        SyncedContent(SearchRequest(bases[i % len(bases)], Scope.SUB, selector))
        for i in range(sessions)
    ]
    for content in contents:
        content.poll(provider)
    provider.restart()
    provider.recover()  # compacts: the fleet so far is the snapshot
    for employee in employees[:20]:
        master.modify(employee.dn, [Modification.replace("telephoneNumber", "0")])
    for content in contents[::7]:
        content.poll(provider)
    provider.detach()
    return master, provider, contents


def measure(directory, sessions: int, narrow: bool) -> str:
    master, crashed, contents = fleet(directory, sessions, narrow)
    held = sum(len(content.entries) for content in contents)
    times = []
    for _round in range(5):
        recovered = ResyncProvider(
            master, durability=crashed.durability, journal=copy.deepcopy(crashed.journal)
        )
        gc.collect()
        started = perf_counter()
        recovered.recover()
        times.append(perf_counter() - started)
        recovered.detach()
    recover_s = median(times)
    saves = []
    for _round in range(2):
        started = perf_counter()
        for content in contents:
            MemorySnapshotStore().save(content.entries.values(), content.cookie)
        saves.append(perf_counter() - started)
    return (
        f"dit={len(master.store)} sessions={sessions} held_entries={held} "
        f"recover_s={recover_s:.3f} recover_us={recover_s / held * 1e6:.2f} "
        f"save_first_us={saves[0] / held * 1e6:.2f} "
        f"save_again_us={saves[1] / held * 1e6:.2f}"
    )


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sessions", type=int, nargs="*", default=[40])
    parser.add_argument("--employees", type=int, default=EMPLOYEES)
    parser.add_argument("--narrow", action="store_true")
    args = parser.parse_args(argv)
    directory = generate_directory(DirectoryConfig(employees=args.employees, seed=SEED))
    for sessions in args.sessions:
        print(measure(directory, sessions, args.narrow), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
