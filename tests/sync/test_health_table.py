"""Every row of the ``HEALTH`` table, driven on the bare machine.

:class:`~repro.sync.health.HealthMachine` needs no network: the clock
here is a bare ``elapsed_ms`` ledger and the "exchange" is a fault
raised by hand.  The parametrised test's ids are the table's own keys
and its recipes are looked up by key, so a row added to ``HEALTH``
without a recipe fails (docs/FAULTS.md §4 renders the same table;
``tests/sync/test_health.py`` is the end-to-end check against a
partitioned provider).
"""

from types import SimpleNamespace

import pytest

from repro.server.network import TransportError
from repro.sync import HEALTH_STATES, HealthPolicy, RetryPolicy
from repro.sync.health import HEALTH, POSITIONS, HealthMachine

EVENTS = ("gate", "fault", "trip", "last_trip", "spent", "succeeded", "failed")

COOLDOWN_MS = 500.0
PROBE_MS = 5_000.0


class Boom(TransportError):
    fault = "boom"


class Recording(HealthMachine):
    """Records where the machine stood when it called the hook."""

    def _stand_down(self) -> None:
        self.stood_down.append(self.position)


def build(trips_to_quarantine: int, attempts: int = 1000) -> HealthMachine:
    """A machine whose every fault reaches the breaker threshold."""
    machine = Recording(
        RetryPolicy(max_attempts=4, base_backoff_ms=1.0, jitter=0.0, degraded_after=2),
        HealthPolicy(
            max_total_attempts=attempts,
            breaker_threshold=1,
            breaker_cooldown_ms=COOLDOWN_MS,
            quarantine_after=trips_to_quarantine,
            quarantine_probe_ms=PROBE_MS,
        ),
        clock=SimpleNamespace(elapsed_ms=0.0),
    )
    machine.stood_down = []
    return machine


def fault(machine: HealthMachine) -> None:
    machine.fault(Boom("injected"), 0)


#: position → the steps that take a fresh machine there (the policy's
#: quarantine threshold decides whether the first trip parks it).
REACH = {
    "closed": (),
    "open": (fault,),
    "half_open": (fault, HealthMachine.gate),
    "quarantined": (fault,),
    "reprobing": (fault, HealthMachine.gate),
}

#: row → (trips before quarantine, lifetime attempt budget) under which
#: reaching the row's position and firing its event crosses that line.
RECIPES = {
    ("closed", "trip"): (2, 1000),
    ("closed", "last_trip"): (1, 1000),
    ("closed", "spent"): (2, 1),
    ("open", "gate"): (3, 1000),
    ("half_open", "trip"): (3, 1000),
    ("half_open", "last_trip"): (2, 1000),
    ("half_open", "spent"): (3, 2),
    ("half_open", "succeeded"): (3, 1000),
    ("quarantined", "gate"): (1, 1000),
    ("reprobing", "spent"): (1, 2),
    ("reprobing", "succeeded"): (1, 1000),
    ("reprobing", "failed"): (1, 1000),
}

FIRE = {
    "gate": HealthMachine.gate,
    "succeeded": HealthMachine.succeeded,
    "failed": HealthMachine.failed,
    "trip": fault,
    "last_trip": fault,
    "spent": fault,
}


def at(row) -> HealthMachine:
    machine = build(*RECIPES[row])
    for step in REACH[row[0]]:
        step(machine)
    assert machine.position == row[0]
    return machine


@pytest.mark.parametrize("row", list(HEALTH), ids=lambda row: "-".join(row))
def test_every_row_moves_as_the_table_says(row):
    machine = at(row)
    clock = machine.clock
    before, trips = clock.elapsed_ms, machine.breaker_trips
    FIRE[row[1]](machine)
    target = HEALTH[row]
    assert machine.position == target
    shown, breaker, wait, probe = POSITIONS[target]
    assert machine.breaker_state == breaker
    assert machine.health_state == (
        shown or ("degraded" if machine.degraded else "healthy")
    )
    assert machine.health_state in HEALTH_STATES
    if row[1] == "gate":
        # The gate sleeps out the whole wait, then lets one attempt by.
        slept = {"open": COOLDOWN_MS, "quarantined": PROBE_MS}[row[0]]
        assert clock.elapsed_ms - before == slept
        assert machine.attempt_cap() == 1 and probe is not None
    if row[1] in ("trip", "last_trip"):
        assert machine.breaker_trips == trips + 1
    if row[1] in ("last_trip", "spent"):
        # Stood down: stale by definition, never served as fresh.
        assert machine.degraded and machine.stood_down[-1] == target
    if row[1] == "succeeded":
        assert not machine.degraded and not machine.suspended
        assert machine.breaker_trips == (0 if row[0] == "reprobing" else trips)
    if wait is not None:
        # The wait starts now: the next gate sleeps it out in full.
        now = clock.elapsed_ms
        machine.gate()
        assert clock.elapsed_ms - now == getattr(machine.health, wait)


def test_table_names_only_known_positions_and_events():
    for (position, event), target in HEALTH.items():
        assert position in POSITIONS and target in POSITIONS
        assert event in EVENTS
        assert target != position, "HEALTH lists moves; staying put is implied"
    assert set(RECIPES) == set(HEALTH)


def test_unlisted_events_leave_the_position_alone():
    machine = at(("reprobing", "failed"))
    trips = machine.breaker_trips
    fault(machine)  # the breaker is already open: a re-probe cannot trip it
    assert machine.position == "reprobing" and machine.breaker_trips == trips
    machine.failed()
    assert machine.position == "quarantined"
    machine.failed()  # the cycle that parked us ends failed: still parked
    assert machine.position == "quarantined"


def test_gave_up_gate_blocks_without_touching_the_clock():
    machine = at(("closed", "spent"))
    fault(machine)
    assert machine.position == "gave_up" and machine.health_state == "gave_up"
    now = machine.clock.elapsed_ms
    for _ in range(10):
        assert not machine.gate()
        assert machine.attempt_cap() == 0
    assert machine.clock.elapsed_ms == now


def test_attempt_loop_stops_when_the_machine_suspends():
    machine = build(trips_to_quarantine=2)
    calls = []

    def exchange():
        calls.append(1)
        raise Boom("down")

    result, failures = machine.attempt(exchange, cap=4)
    # threshold 1: the first charged fault opens the breaker — no retry
    assert (result, failures, len(calls)) == (None, 1, 1)
    assert machine.position == "open" and machine.suspended


def test_degraded_after_failed_cycles_shows_in_the_health_state():
    machine = build(trips_to_quarantine=9)
    machine.failed()
    assert machine.health_state == "healthy"
    machine.failed()  # degraded_after=2
    assert machine.degraded and machine.health_state == "degraded"
    machine.succeeded()
    assert machine.health_state == "healthy"
