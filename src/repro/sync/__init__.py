"""Replica consistency: the ReSync protocol (§5).

A master exposes one provider, :class:`ResyncProvider` (complete
per-session history, eq. 2; a durable one serves eq. 3's ``retain``
resume to a session whose history overflowed); replicas hold a
:class:`SyncedContent` per replicated query and reach the provider
through a :class:`SyncLink`, which polls or subscribes and climbs the
recovery ladder when a cookie is refused.  The §5.2 comparison
baselines (changelog, tombstone, full reload, stateless retain) are
not part of the system: they live in ``tests/oracles``, beside the
other references.
"""

from .consumer import SyncedContent
from .delivery import BatchConfig, DeliveryQueue
from .durability import (
    DurabilityConfig,
    FileJournal,
    JournalBackend,
    MemoryJournal,
)
from .protocol import (
    MultiPoll,
    MultiPollResponse,
    ReconcileFetch,
    ReconcileRequest,
    ReconcileResponse,
    SyncProtocolError,
    SyncResponse,
    SyncUpdate,
)
from .reconcile import (
    EntrySketch,
    build_sketch,
    cells_for_divergence,
    corrupt_cell,
    entry_fingerprint,
    entry_key,
)
from .resilient import HEALTH_STATES, HealthPolicy, ResilientConsumer, RetryPolicy, SyncLink
from .resync import PersistHandle, ResyncProvider
from .snapshot import (
    FileSnapshotStore,
    MemorySnapshotStore,
    SnapshotDocument,
    SnapshotError,
    SnapshotRecoverer,
    SnapshotStore,
)
from .router import SessionRouter
from .session import Session, SessionStore

__all__ = [
    "SyncUpdate",
    "SyncResponse",
    "SyncProtocolError",
    "MultiPoll",
    "MultiPollResponse",
    "Session",
    "SessionStore",
    "ResyncProvider",
    "PersistHandle",
    "SessionRouter",
    "SyncedContent",
    "BatchConfig",
    "DeliveryQueue",
    "SyncLink",
    "ResilientConsumer",
    "RetryPolicy",
    "HealthPolicy",
    "HEALTH_STATES",
    "ReconcileRequest",
    "ReconcileResponse",
    "ReconcileFetch",
    "EntrySketch",
    "build_sketch",
    "cells_for_divergence",
    "corrupt_cell",
    "entry_key",
    "entry_fingerprint",
    "DurabilityConfig",
    "JournalBackend",
    "MemoryJournal",
    "FileJournal",
    "SnapshotStore",
    "MemorySnapshotStore",
    "FileSnapshotStore",
    "SnapshotDocument",
    "SnapshotError",
    "SnapshotRecoverer",
]
