"""End-to-end resilience property: converge despite any seeded faults.

The convergence claim under test (§5): for *any* deterministic fault
schedule — drops, duplicates, delays, truncations, crash windows,
cookie invalidations — a :class:`ResilientConsumer` driven against a
mutating master ends up with exactly the master's content once the
network heals, in both poll and persist modes.

Two layers:

* **CI fault matrix** — fixed seeds and modes, selectable through the
  ``FAULT_SEEDS`` / ``FAULT_MODES`` environment variables (defaults
  ``101,202,303`` × ``poll,persist``), so the workflow's ``faults``
  job can shard one (seed, mode) cell per matrix entry and any cell can
  be replayed locally verbatim: ``FAULT_SEEDS=202 FAULT_MODES=persist
  pytest tests/sync/test_fault_resilience_property.py``.  The network
  runs a small batch window, so the ``persist`` cells cross many batch
  boundaries: whole-batch drops/truncations from the ``:b`` stream and
  per-PDU drops/duplicates from ``:n`` (docs/TRANSPORT.md §5).
* **Hypothesis** — randomized seeds, fault rates and update schedules
  on top of the fixed matrix, shrinking towards small counterexamples.
"""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.ldap import Entry, Scope, SearchRequest
from repro.server import (
    DirectoryServer,
    FaultPlan,
    FaultSpec,
    FaultyNetwork,
    Modification,
)
from repro.sync import BatchConfig, ResilientConsumer, ResyncProvider, RetryPolicy

REQUEST = SearchRequest("o=xyz", Scope.SUB, "(departmentNumber=42)")
NAMES = [f"P{i}" for i in range(8)]

SEEDS = [int(s) for s in os.environ.get("FAULT_SEEDS", "101,202,303").split(",")]
MODES = [m.strip() for m in os.environ.get("FAULT_MODES", "poll,persist").split(",")]


def make_network(seed: int, rate: float) -> FaultyNetwork:
    """The matrix network for one cell, with a batch window small enough
    that a dozen updates flush several batches."""
    return FaultyNetwork(
        FaultPlan(FaultSpec.uniform(rate), seed=seed),
        batch=BatchConfig(max_batch=4, max_age_ms=2.0, high_water=8),
        seed=seed,
    )


def person(name: str, dept: str = "42") -> Entry:
    return Entry(
        f"cn={name},o=xyz",
        {"objectClass": ["person"], "cn": name, "sn": "T", "departmentNumber": dept},
    )


def build_master() -> DirectoryServer:
    master = DirectoryServer("M")
    master.add_naming_context("o=xyz")
    master.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
    for i, name in enumerate(NAMES):
        master.add(person(name, dept="42" if i % 2 == 0 else "99"))
    return master


def mutate(master: DirectoryServer, step: int) -> None:
    """One deterministic master update, cycling through all kinds."""
    name = NAMES[step % len(NAMES)]
    dn = f"cn={name},o=xyz"
    kind = step % 5
    if kind == 0:
        master.modify(dn, [Modification.replace("sn", f"S{step}")])
    elif kind == 1:
        master.modify(dn, [Modification.replace("departmentNumber", "42")])
    elif kind == 2:
        master.modify(dn, [Modification.replace("departmentNumber", "99")])
    elif kind == 3:
        master.delete(dn)
        master.add(person(name))
    else:
        master.add(person(f"X{step}"))


def run_scenario(seed: int, mode: str, rate: float = 0.3, steps: int = 12) -> None:
    """Faulty phase (mutations + sync attempts), heal, converge, check."""
    master = build_master()
    provider = ResyncProvider(master)
    net = make_network(seed, rate)
    consumer = ResilientConsumer(
        REQUEST,
        provider,
        network=net,
        seed=seed,
        mode=mode,
        policy=RetryPolicy(max_attempts=4, jitter=0.25, persist_refresh_interval=3),
    )
    for step in range(steps):
        mutate(master, step)
        consumer.sync_once()  # may fail wholesale; must never corrupt
    net.heal()
    cycles = consumer.converge(master, max_cycles=16)
    assert cycles is not None, (
        f"no convergence within 16 clean cycles (seed={seed}, mode={mode}, "
        f"rate={rate}, faults={net.fault_counts()})"
    )
    assert consumer.content.matches_master(master)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", MODES)
class TestFaultMatrix:
    """The CI matrix cells: fixed seeds × modes, moderate fault rate."""

    def test_converges_after_heal(self, seed, mode):
        run_scenario(seed, mode)

    def test_high_fault_rate_converges(self, seed, mode):
        run_scenario(seed, mode, rate=0.5, steps=8)

    def test_replay_is_deterministic(self, seed, mode):
        """The same seed must inject the identical fault sequence."""

        def counts():
            master = build_master()
            provider = ResyncProvider(master)
            net = make_network(seed, 0.4)
            consumer = ResilientConsumer(
                REQUEST,
                provider,
                network=net,
                seed=seed,
                mode=mode,
                policy=RetryPolicy(max_attempts=4, persist_refresh_interval=3),
            )
            for step in range(8):
                mutate(master, step)
                consumer.sync_once()
            net.settle()
            return (
                net.fault_counts(),
                net.stats.round_trips,
                net.scheduler.events_run,
                net.scheduler.now,
            )

        assert counts() == counts()


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rate=st.floats(min_value=0.0, max_value=0.6),
    steps=st.integers(min_value=1, max_value=10),
    mode=st.sampled_from(MODES),
)
@settings(max_examples=40, deadline=None)
def test_any_fault_schedule_converges(seed, rate, steps, mode):
    run_scenario(seed, mode, rate=rate, steps=steps)
