"""What a loaded master costs as the directory grows.

    PYTHONPATH=src python tools/master_cost.py 6000 20000 60000

For each employee count, generates the synthetic enterprise directory
(seed 20050607), then loads it into a fresh ``DirectoryServer`` twice:
once untraced, timed (``load_s``), and once under ``tracemalloc``, for
the bytes the load leaves held per entry (``bytes_per_entry``: the
store's frozen images and its DN dict — every other structure is built
on a query's first ask, and no query has run; the generated input
entries are outside the count).  Then it searches that master with the
root-based requests of a 2 000-query Table 1 trace (seed 20050607 + 1),
once to build what the queries ask for and then three times timed, and
reports the best pass as ``searches_per_s``.  One line per size.  A
measurement, not a test: EXPERIMENTS.md ("Master cost vs directory
size") records its output.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc
from time import perf_counter

from repro.server import DirectoryServer
from repro.workload import (
    DirectoryConfig,
    WorkloadConfig,
    WorkloadGenerator,
    generate_directory,
)

SEED = 20050607
QUERIES = 2000


def loaded(directory) -> DirectoryServer:
    master = DirectoryServer("master")
    master.add_naming_context(directory.suffix)
    master.load(directory.entries)
    return master


def measure(employees: int) -> str:
    directory = generate_directory(DirectoryConfig(employees=employees, seed=SEED))
    gc.collect()
    started = perf_counter()
    master = loaded(directory)
    load_s = perf_counter() - started
    del master
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        master = loaded(directory)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    entries = len(master.store)
    return (
        f"employees={employees} entries={entries} load_s={load_s:.2f} "
        f"bytes_per_entry={held / entries:.0f} held_mb={held / 2**20:.1f} "
        f"searches_per_s={searches_per_s(master, directory):.0f}"
    )


def searches_per_s(master: DirectoryServer, directory) -> float:
    trace = WorkloadGenerator(directory, WorkloadConfig(seed=SEED + 1)).generate(QUERIES)
    requests = [record.request for record in trace]
    for request in requests:  # first asks build indexes and sets
        master.search(request)
    best = float("inf")
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            started = perf_counter()
            for request in requests:
                master.search(request)
            best = min(best, perf_counter() - started)
    finally:
        gc.enable()
    return len(requests) / best


def main(argv) -> int:
    for employees in [int(arg) for arg in argv] or [6000]:
        print(measure(employees), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
