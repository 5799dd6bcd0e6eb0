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
  per-PDU drops/duplicates from ``:n`` (docs/TRANSPORT.md §4).
* **Hypothesis** — randomized seeds, fault rates and update schedules
  on top of the fixed matrix, shrinking towards small counterexamples.

The **replica arm** (:class:`TestReplicaFaultMatrix`) runs the same
seeds, networks and mutations under a QC-answering
:class:`FilterReplica` — three overlapping stored filters behind one
:class:`SyncLink` — so the model's ``answer``, ``honest`` and
``converge`` are asserted about the same object.  The crash matrix
(``test_recovery_property.py``) runs this module's directory.
"""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos import ReferenceModel
from repro.core import FilterReplica
from repro.ldap import Entry, Scope, SearchRequest
from repro.server import (
    DirectoryServer,
    FaultPlan,
    FaultSpec,
    FaultyNetwork,
    Modification,
)
from repro.sync import (
    BatchConfig,
    HealthPolicy,
    ResilientConsumer,
    ResyncProvider,
    RetryPolicy,
    SyncLink,
)

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


def run_scenario(seed: int, mode: str, rate: float = 0.3, steps: int = 12) -> tuple:
    """Faulty phase (mutations + sync attempts), heal, converge, check;
    returns what a replay of the same cell must reproduce."""
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
    cycles = ReferenceModel.of(master).converge(consumer.sync_once, [consumer.content], 16)
    assert cycles is not None, (
        f"no convergence within 16 clean cycles (seed={seed}, mode={mode}, "
        f"rate={rate}, faults={net.fault_counts()})"
    )
    return net.fault_counts(), net.stats.round_trips, net.scheduler.events_run, net.scheduler.now


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
        assert run_scenario(seed, mode, 0.4, 8) == run_scenario(seed, mode, 0.4, 8)


def sub(filter_text: str) -> SearchRequest:
    return SearchRequest("o=xyz", Scope.SUB, filter_text)


#: Overlapping stored filters: every department-42 entry is held three
#: times, every person at least once.
STORED = [
    sub("(departmentNumber=42)"),
    sub("(objectClass=person)"),
    sub("(|(departmentNumber=42)(departmentNumber=99))"),
]
#: Queries QC proves contained in at least one of them.
CONTAINED = STORED + [
    sub("(&(departmentNumber=42)(cn=P0))"),
    sub("(departmentNumber=99)"),
    sub("(&(objectClass=person)(sn=T))"),
]


def check_answers(replica: FilterReplica, model: ReferenceModel, fresh: bool, where: str) -> None:
    """Every contained query is a HIT exactly when the model admits it
    (a filter answers once a response is applied); with *fresh* — every
    content applied a response since the last update — a HIT that is not
    stamped degraded is the model's answer, entry for entry."""
    admitted = [s.request for s in replica.stored_filters() if s.content.polls]
    for query in CONTAINED:
        answer, truth = replica.answer(query), model.answer(query, admitted)
        assert answer.is_hit == (truth is not None), f"{query} {where}"
        if fresh and answer.is_hit and not answer.degraded:
            assert {str(e.dn): e for e in answer.entries} == truth, f"{query} {where}"


def run_replica_scenario(seed: int, rate: float, steps: int = 12) -> None:
    """The scenario of :func:`run_scenario` under a QC-answering replica;
    the link never lies about staleness (I1) after any step."""
    master = build_master()
    provider = ResyncProvider(master)
    net = make_network(seed, rate)
    link = SyncLink(
        provider,
        network=net,
        seed=seed,
        policy=RetryPolicy(max_attempts=4, jitter=0.25),
        health=HealthPolicy(max_total_attempts=1_000),  # sized to the drive
    )
    replica = FilterReplica("branch", network=net)
    for request in STORED:
        replica.add_filter(request, link)  # may leave it pending; never raises
    where = f"(seed={seed}, rate={rate}, faults={net.fault_counts()})"
    for step in range(steps):
        mutate(master, step)
        applied = replica.sync(link) is not None
        assert ReferenceModel.honest(link) is None, where
        check_answers(replica, ReferenceModel.of(master), applied, where)
    net.heal()
    model = ReferenceModel.of(master)
    contents = [s.content for s in replica.stored_filters()]
    rounds = model.converge(lambda: replica.sync(link), contents, 20)
    assert rounds is not None, f"no convergence within 20 clean rounds {where}"
    assert not link.degraded and all(replica.answer(q).is_hit for q in CONTAINED), where
    check_answers(replica, model, True, where)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("rate", [0.1, 0.3, 0.5])
class TestReplicaFaultMatrix:
    """The matrix seeds under a :class:`FilterReplica` over one link.
    At 0.1 most rounds apply, faults and all — the fresh-HIT check's
    share; at 0.3 and 0.5 the link is quarantined before the heal."""

    def test_sound_hits_and_convergence_after_heal(self, seed, rate):
        run_replica_scenario(seed, rate)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rate=st.floats(min_value=0.0, max_value=0.6),
    steps=st.integers(min_value=1, max_value=10),
    mode=st.sampled_from(MODES),
)
@settings(max_examples=40, deadline=None)
def test_any_fault_schedule_converges(seed, rate, steps, mode):
    run_scenario(seed, mode, rate=rate, steps=steps)
