"""E12 — convergence cost under injected faults (poll vs persist).

The paper argues ReSync converges through interruptions (§5); this
bench quantifies what that costs.  A :class:`ResilientConsumer` tracks
a mutating master over a :class:`FaultyNetwork` sweeping the uniform
fault rate, in both modes of update; once the network heals, the
consumer must reconverge within a bounded number of clean cycles.

Reported per (mode, rate): injected faults, retries, reloads, clean
cycles to reconverge, total protocol round trips and bytes on the wire
(a persist re-open over warm content is a sketch, a fetch and a resume:
more round trips than the null-cookie load it replaced, far fewer
bytes) — all
deterministic (seeded fault schedules, seeded backoff jitter), so the
exported JSON is regression-diffable by ``validate_results.py`` and the
CI ``faults`` matrix job can assert bounded convergence at fixed seeds.
"""

from __future__ import annotations

from repro.chaos import ReferenceModel
from repro.ldap import Entry, Scope, SearchRequest
from repro.server import (
    DirectoryServer,
    FaultPlan,
    FaultSpec,
    FaultyNetwork,
    Modification,
)
from repro.sync import (
    DurabilityConfig,
    HealthPolicy,
    MemoryJournal,
    ResilientConsumer,
    ResyncProvider,
    RetryPolicy,
)

from .common import report

REQUEST = SearchRequest("o=xyz", Scope.SUB, "(departmentNumber=42)")
NAMES = [f"P{i}" for i in range(10)]
RATES = (0.0, 0.1, 0.2, 0.3, 0.4)
CRASH_RATES = (0.0, 0.2)
CRASH_STEPS = (5, 10)
SEED = 101
FAULT_STEPS = 15
MAX_CLEAN_CYCLES = 16
POLICY = RetryPolicy(max_attempts=4, persist_refresh_interval=4)
#: Retry budget sized to the schedule: every faulty and every clean
#: cycle may spend its full per-cycle cap, so a cell measures what
#: convergence costs, never budget exhaustion.  Breaker and quarantine
#: thresholds are the defaults.
HEALTH = HealthPolicy(
    max_total_attempts=(FAULT_STEPS + MAX_CLEAN_CYCLES) * POLICY.max_attempts
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
    name = NAMES[step % len(NAMES)]
    dn = f"cn={name},o=xyz"
    kind = step % 4
    if kind == 0:
        master.modify(dn, [Modification.replace("sn", f"S{step}")])
    elif kind == 1:
        master.modify(dn, [Modification.replace("departmentNumber", "99")])
    elif kind == 2:
        master.modify(dn, [Modification.replace("departmentNumber", "42")])
    else:
        master.delete(dn)
        master.add(person(name))


def run_cell(mode: str, rate: float, seed: int = SEED) -> dict:
    """One (mode, rate) cell: faulty phase, heal, clean reconvergence."""
    master = build_master()
    provider = ResyncProvider(master)
    net = FaultyNetwork(FaultPlan(FaultSpec.uniform(rate), seed=seed))
    consumer = ResilientConsumer(
        REQUEST,
        provider,
        network=net,
        seed=seed,
        mode=mode,
        policy=POLICY,
        health=HEALTH,
    )
    for step in range(FAULT_STEPS):
        mutate(master, step)
        consumer.sync_once()
    faults = sum(net.fault_counts().values())
    net.heal()
    model = ReferenceModel.of(master)
    cycles = model.converge(consumer.sync_once, [consumer.content], MAX_CLEAN_CYCLES)
    assert cycles is not None, f"no convergence (mode={mode}, rate={rate})"
    registry = net.registry
    return {
        "faults": faults,
        "retries": int(registry.counter("sync.resilient.retries").value),
        "reloads": int(registry.counter("sync.resilient.reloads").value),
        "clean_cycles": cycles,
        "round_trips": net.stats.round_trips,
        "bytes_sent": net.stats.bytes_sent,
        "backoff_ms": registry.gauge("sync.resilient.backoff_ms").value,
    }


def run_crash_cell(mode: str, rate: float, seed: int = SEED) -> dict:
    """One ``--provider-crash`` cell: the master itself crashes twice
    mid-schedule (restart + seeded journal damage + recovery) on top of
    network faults at *rate*, so the export covers master-side faults,
    not just lost PDUs."""
    master = build_master()
    provider = ResyncProvider(
        master,
        durability=DurabilityConfig(snapshot_interval=8),
        journal=MemoryJournal(),
    )
    net = FaultyNetwork(FaultPlan(FaultSpec.uniform(rate), seed=seed))
    consumer = ResilientConsumer(
        REQUEST,
        provider,
        network=net,
        seed=seed,
        mode=mode,
        policy=POLICY,
        health=HEALTH,
    )
    for step in range(FAULT_STEPS):
        mutate(master, step)
        if step in CRASH_STEPS:
            net.crash(provider)
        consumer.sync_once()
    faults = sum(net.fault_counts().values())
    net.heal()
    model = ReferenceModel.of(master)
    cycles = model.converge(consumer.sync_once, [consumer.content], MAX_CLEAN_CYCLES)
    assert cycles is not None, f"no convergence (crash, mode={mode}, rate={rate})"
    registry = net.registry
    durability = master.metrics
    return {
        "faults": faults,
        "retries": int(registry.counter("sync.resilient.retries").value),
        "reloads": int(registry.counter("sync.resilient.reloads").value),
        "clean_cycles": cycles,
        "round_trips": net.stats.round_trips,
        "bytes_sent": net.stats.bytes_sent,
        "recoveries": int(durability.counter("sync.durability.recoveries").value),
        "replayed": int(
            durability.counter("sync.durability.replayed_records").value
        ),
    }


def test_fault_convergence(benchmark, provider_crash):
    rows = []
    metrics = {}
    for mode in ("poll", "persist"):
        for rate in RATES:
            cell = run_cell(mode, rate)
            rows.append(
                [
                    mode,
                    rate,
                    cell["faults"],
                    cell["retries"],
                    cell["reloads"],
                    cell["clean_cycles"],
                    cell["round_trips"],
                    cell["bytes_sent"],
                ]
            )
            key = f"{mode}_r{int(rate * 100):02d}"
            metrics[f"{key}_retries"] = cell["retries"]
            metrics[f"{key}_clean_cycles"] = cell["clean_cycles"]
            metrics[f"{key}_round_trips"] = cell["round_trips"]
            if mode == "persist":
                metrics[f"{key}_bytes"] = cell["bytes_sent"]

    # Fault-free runs must not pay any resilience tax.
    assert metrics["poll_r00_retries"] == 0
    assert metrics["persist_r00_retries"] == 0
    assert metrics["poll_r00_clean_cycles"] == 1

    if provider_crash:
        for mode in ("poll", "persist"):
            for rate in CRASH_RATES:
                cell = run_crash_cell(mode, rate)
                rows.append(
                    [
                        f"{mode}+crash",
                        rate,
                        cell["faults"],
                        cell["retries"],
                        cell["reloads"],
                        cell["clean_cycles"],
                        cell["round_trips"],
                        cell["bytes_sent"],
                    ]
                )
                key = f"crash_{mode}_r{int(rate * 100):02d}"
                metrics[f"{key}_retries"] = cell["retries"]
                metrics[f"{key}_clean_cycles"] = cell["clean_cycles"]
                metrics[f"{key}_round_trips"] = cell["round_trips"]
                if mode == "persist":
                    metrics[f"{key}_bytes"] = cell["bytes_sent"]
                metrics[f"{key}_recoveries"] = cell["recoveries"]
                metrics[f"{key}_replayed"] = cell["replayed"]
        # Both scheduled crashes must actually have exercised recovery,
        # and a crash on a clean network must not force full reloads.
        assert metrics["crash_poll_r00_recoveries"] == len(CRASH_STEPS)
        assert metrics["crash_persist_r00_recoveries"] == len(CRASH_STEPS)

    report(
        "fault_convergence",
        "Convergence cost vs fault rate (uniform faults, seed 101)",
        ["mode", "rate", "faults", "retries", "reloads", "clean cyc", "round trips", "bytes"],
        rows,
        params={
            "seed": SEED,
            "fault_steps": FAULT_STEPS,
            "max_clean_cycles": MAX_CLEAN_CYCLES,
            "rates": ",".join(str(r) for r in RATES),
            "crash_rates": ",".join(str(r) for r in CRASH_RATES)
            if provider_crash
            else "",
            "entries": len(NAMES),
        },
        metrics=metrics,
        paper_expected=None,
    )

    # Timed unit: one resilient poll cycle at a moderate fault rate.
    t_master = build_master()
    t_provider = ResyncProvider(t_master)
    t_net = FaultyNetwork(FaultPlan(FaultSpec.uniform(0.2), seed=SEED))
    t_consumer = ResilientConsumer(
        REQUEST,
        t_provider,
        network=t_net,
        seed=SEED,
        policy=RetryPolicy(max_attempts=8),
        # The timed loop is open-ended; it must never run out of budget.
        health=HealthPolicy(max_total_attempts=10**9, max_total_backoff_ms=1e15),
    )
    t_consumer.sync_once()
    step = [0]

    def faulty_cycle():
        step[0] += 1
        mutate(t_master, step[0])
        t_consumer.sync_once()

    benchmark(faulty_cycle)
