"""Replica consistency: the ReSync protocol and baseline mechanisms (§5).

Masters expose *providers* (ReSync with complete session history, the
retain variant for incomplete history, changelog, tombstone and full
reload baselines); replicas hold :class:`SyncedContent` per replicated
query and poll providers for the minimal update set.
"""

from .baselines import (
    Changelog,
    ChangelogProvider,
    ChangelogRecord,
    FullReloadProvider,
    TombstoneProvider,
    TombstoneStore,
)
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
from .resync import PersistHandle, ResyncProvider, RetainResyncProvider
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
    "RetainResyncProvider",
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
    "Changelog",
    "ChangelogRecord",
    "ChangelogProvider",
    "TombstoneStore",
    "TombstoneProvider",
    "FullReloadProvider",
]
