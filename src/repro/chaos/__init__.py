"""Chaos soak engine: composable fault schedules over virtual hours.

Each fault primitive in :mod:`repro.server.faults` is individually
deterministic; this package sequences and overlaps them into
long-horizon, seed-replayable soak runs with continuous invariant
checking (docs/FAULTS.md §5):

* :class:`FaultSchedule` / :class:`FaultWindow` — declarative fault
  windows in absolute virtual time, armed onto the deterministic
  scheduler as one continuous :class:`~repro.server.faults.FaultPlan`;
* :class:`SoakRunner` / :class:`SoakConfig` — a master + N-tenant
  replica fleet driven through a :class:`~repro.workload.SoakScenario`
  load plan under the schedule, failing fast with
  :class:`InvariantViolation` (seed + virtual timestamp) when staleness
  honesty, journal-replay determinism or post-heal convergence breaks;
* :class:`SoakReport` — the run's observable outcome, fingerprintable
  for replay comparison and printable as the ``repro-ldap soak``
  fleet-status table;
* :class:`ReferenceModel` — content, answer, convergence and staleness
  honesty, stated once; the soak and the test suite check against it.
"""

from .model import ReferenceModel
from .schedule import FaultSchedule, FaultWindow, combine_specs
from .soak import InvariantViolation, SoakConfig, SoakReport, SoakRunner

__all__ = [
    "FaultSchedule",
    "FaultWindow",
    "ReferenceModel",
    "combine_specs",
    "SoakConfig",
    "SoakReport",
    "SoakRunner",
    "InvariantViolation",
]
