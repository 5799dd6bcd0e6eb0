"""Provider-side durability: session journaling, snapshots, history cap.

The §5 ReSync master keeps everything that makes cookies honorable —
session histories, pending queues, generations — in process memory, so
one master crash turns every active replica into a simultaneous full
resync: exactly the traffic blowup the cookie/history design exists to
avoid.  This module gives :class:`~repro.sync.resync.ResyncProvider`
a durable shadow of that state, in the spirit of directory
reconciliation: post-crash cost proportional to the *difference*, not
the content.

Two pieces:

* **Write-ahead journal + snapshots** — every fold of the provider
  (``ResyncProvider.FOLDS``: committed master update, session create,
  poll, touch, degraded resume, park, end) appends one JSON record to
  a :class:`JournalBackend`; every ``snapshot_interval`` appends the
  full provider state is serialized and the journal truncated
  (compaction).  ``ResyncProvider.recover()`` restores the snapshot
  and calls the same folds on the tail, rebuilding the exact
  pre-crash session state, so consumers resume from their existing
  cookies with an incremental delta; it parses each DN text at most
  once, however many sessions hold it, and none the surviving DIT
  still holds when the journal names enough of it
  (:meth:`DNMemo.for_recovery`).  Two backends:
  :class:`MemoryJournal` (replayable in-memory log for tests/benches —
  records are *serialized strings*, so torn tails and corruption are
  honest) and :class:`FileJournal` (``journal.jsonl`` +
  ``snapshot.json`` for the CLI).

* **Bounded histories** — :class:`DurabilityConfig` caps a session's
  pending history by entries; on overflow the session degrades to an
  incomplete-history resume (eq. 3 semantics) instead of growing
  without bound (enforced in :class:`~repro.sync.session.Session`).

Everything is metered under ``sync.durability.*``
(docs/OBSERVABILITY.md §2) and fault-injectable through the journal
damage hooks (``journal_truncate`` / ``journal_corrupt`` kinds in
:class:`~repro.server.faults.FaultSpec`).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple

from ..ldap.controls import SyncAction
from ..ldap.dn import DN
from ..ldap.entry import Entry
from ..ldap.query import Scope, SearchRequest
from ..server.operations import UpdateOp, UpdateRecord
from .protocol import SyncUpdate
from .session import Session

__all__ = [
    "DurabilityConfig",
    "JournalBackend",
    "MemoryJournal",
    "FileJournal",
    "DNMemo",
]


@dataclass(frozen=True)
class DurabilityConfig:
    """Tuning knobs for the durable provider.

    Attributes:
        snapshot_interval: journal appends between snapshots (compaction
            cadence; each snapshot truncates the journal).
        history_max_entries: per-session pending history cap; ``None``
            disables it.  A session crossing the cap abandons its
            history and is served an incomplete-history resume (eq. 3)
            on its next poll.
    """

    snapshot_interval: int = 256
    history_max_entries: Optional[int] = None

    def __post_init__(self):
        if self.snapshot_interval < 1:
            raise ValueError("snapshot_interval must be >= 1")
        if self.history_max_entries is not None and self.history_max_entries < 1:
            raise ValueError(
                f"history_max_entries must be >= 1 or None, "
                f"got {self.history_max_entries!r}"
            )


# ----------------------------------------------------------------------
# wire serialization (journal records are plain-JSON dicts)
# ----------------------------------------------------------------------
class DNMemo(dict):
    """``DN text → DN``, parsing each text it does not yet hold once.

    Every decoder below takes one.  ``ResyncProvider.recover()`` makes
    one with :meth:`for_recovery`, decodes every DN text of the snapshot
    and the journal tail through it, and drops it on return."""

    #: Seed from the DIT when the journal names at least one distinct DN
    #: per this many stored.  Keying a stored name costs about a third of
    #: a parse the first time it is rendered, and about a seventieth once
    #: it has been (EXPERIMENTS.md, "Recovery cost vs fleet size").
    SEED_RATIO = 3

    @classmethod
    def for_recovery(
        cls, images: Mapping[DN, Entry], snapshot: Optional[dict], records: List[dict]
    ) -> "DNMemo":
        """The memo a recovery over the surviving DIT *images* decodes
        *snapshot* and *records* with.  Where the journal names enough
        of the DIT (:attr:`SEED_RATIO`), it starts out holding the
        store's own names (``str(dn) → dn``): only the names the DIT
        lost are parsed, and the recovered sessions share the store's
        immutable :class:`DN` per name.  Where it names few — a few
        narrow sessions over a large directory — keying the whole DIT
        would cost more than it saves, and each distinct text is parsed
        once instead."""
        named = set()
        if snapshot is not None:
            named.update(snapshot["last_change"])
            for wire in snapshot["sessions"]:
                named.update(wire["content"])
        for rec in records:
            named.update(rec.get("content", ()))
        if len(named) * cls.SEED_RATIO < len(images):
            return cls()
        return cls({str(dn): dn for dn in images})

    def __missing__(self, text: str) -> DN:
        dn = self[text] = DN.parse(text)
        return dn

    #: ``memo(text)`` is ``memo[text]``: the decoders below call it.
    __call__ = dict.__getitem__


def entry_to_wire(entry: Optional[Entry]) -> Optional[dict]:
    if entry is None:
        return None
    return {
        "dn": str(entry.dn),
        "attrs": dict(entry),
    }


def entry_from_wire(wire: Optional[dict], dns: DNMemo) -> Optional[Entry]:
    if wire is None:
        return None
    return Entry(dns(wire["dn"]), wire["attrs"])


def request_to_wire(request: SearchRequest) -> dict:
    return {
        "base": str(request.base),
        "scope": int(request.scope),
        "filter": str(request.filter),
        "attrs": sorted(request.attributes),
    }


def request_from_wire(wire: dict, dns: DNMemo) -> SearchRequest:
    return SearchRequest(
        dns(wire["base"]), Scope(wire["scope"]), wire["filter"], wire["attrs"]
    )


def update_to_wire(update: SyncUpdate) -> dict:
    return {
        "action": update.action.value,
        "dn": str(update.dn),
        "entry": entry_to_wire(update.entry),
    }


def update_from_wire(wire: dict, dns: DNMemo) -> SyncUpdate:
    return SyncUpdate(
        SyncAction(wire["action"]),
        dns(wire["dn"]),
        entry_from_wire(wire["entry"], dns),
    )


def record_to_wire(record: UpdateRecord) -> dict:
    return {
        "csn": record.csn,
        "op": record.op.value,
        "dn": str(record.dn),
        "new_dn": str(record.new_dn) if record.new_dn is not None else None,
        "before": entry_to_wire(record.before),
        "after": entry_to_wire(record.after),
    }


def record_from_wire(wire: dict, dns: DNMemo) -> UpdateRecord:
    return UpdateRecord(
        csn=wire["csn"],
        op=UpdateOp(wire["op"]),
        dn=dns(wire["dn"]),
        before=entry_from_wire(wire["before"], dns),
        after=entry_from_wire(wire["after"], dns),
        new_dn=dns(wire["new_dn"]) if wire["new_dn"] is not None else None,
    )


def session_to_wire(session: Session) -> dict:
    """Serialize one session's full resumable state (snapshot format)."""
    return {
        "sid": session.session_id,
        "req": request_to_wire(session.request),
        "pending": [update_to_wire(u) for u in session._pending.values()],
        "unacked": [update_to_wire(u) for u in session._unacked.values()],
        "content": sorted(str(dn) for dn in session.content_dns),
        "delivered": sorted(str(dn) for dn in session._delivered),
        "generation": session.generation,
        "polls": session.polls,
        "tick": session.last_active_tick,
        "persist": session.persist_queue is not None,
        "overflowed": session.history_overflowed,
        "drain_csn": session.drain_csn,
        "prev_drain_csn": session.prev_drain_csn,
        "degraded_since": session.degraded_since_csn,
    }


def session_from_wire(wire: dict, dns: DNMemo) -> Session:
    session = Session(wire["sid"], request_from_wire(wire["req"], dns))
    for uw in wire["pending"]:
        update = update_from_wire(uw, dns)
        session._pending[update.dn] = update
    for uw in wire["unacked"]:
        update = update_from_wire(uw, dns)
        session._unacked[update.dn] = update
    session.seed_content(map(dns, wire["content"]))
    session._delivered = set(map(dns, wire["delivered"]))
    session.generation = wire["generation"]
    session.polls = wire["polls"]
    session.last_active_tick = wire["tick"]
    session.persist_queue = [] if wire["persist"] else None
    session.history_overflowed = wire["overflowed"]
    session.drain_csn = wire["drain_csn"]
    session.prev_drain_csn = wire["prev_drain_csn"]
    session.degraded_since_csn = wire["degraded_since"]
    return session


# ----------------------------------------------------------------------
# journal backends
# ----------------------------------------------------------------------
class JournalBackend:
    """Storage contract for the provider's write-ahead journal.

    One *snapshot* (the serialized provider state at compaction time)
    plus an append-only sequence of JSON *records* after it.  Loading
    is damage-tolerant: a torn or corrupted record ends the readable
    stream there; everything after it is dropped and counted, never
    silently misparsed.  The two ``damage_*`` hooks emulate the crash
    leaving the journal torn/corrupted (driven by
    :class:`~repro.server.faults.FaultyNetwork`).

    Subclasses store text — the record lines and one snapshot document
    (:meth:`append` plus the four ``_read_*`` / ``_write_*``
    primitives); decoding, accounting and damage live here.
    """

    def append(self, record: dict) -> None:
        raise NotImplementedError

    def _read_lines(self) -> List[str]:
        """The stored record lines, oldest first."""
        raise NotImplementedError

    def _write_lines(self, lines: List[str]) -> None:
        """Replace the stored record lines."""
        raise NotImplementedError

    def _read_snapshot(self) -> Optional[str]:
        """The stored snapshot document, or None when absent."""
        raise NotImplementedError

    def _write_snapshot(self, text: str) -> None:
        """Atomically replace the stored snapshot document."""
        raise NotImplementedError

    def write_snapshot(self, snapshot: dict) -> None:
        """Replace the snapshot, then truncate the journal — in that
        order, so a crash between the two leaves a readable state."""
        self._write_snapshot(json.dumps(snapshot, sort_keys=True))
        self._write_lines([])

    def load(self) -> Tuple[Optional[dict], List[dict], int]:
        """``(snapshot | None, readable records, dropped record count)``.

        A corrupt snapshot voids everything (records after it reference
        state the snapshot held): returns ``(None, [], all dropped)``.
        """
        lines = self._read_lines()
        text = self._read_snapshot()
        snapshot: Optional[dict] = None
        if text is not None:
            try:
                snapshot = json.loads(text)
            except ValueError:
                return None, [], 1 + len(lines)
        records: List[dict] = []
        for i, line in enumerate(lines):
            try:
                records.append(json.loads(line))
            except ValueError:
                return snapshot, records, len(lines) - i
        return snapshot, records, 0

    @property
    def size_bytes(self) -> int:
        """Stored size: the snapshot plus one newline-ended line per
        record (the text is JSON-escaped ASCII, so characters are
        bytes)."""
        text = self._read_snapshot()
        size = len(text) if text is not None else 0
        return size + sum(len(line) + 1 for line in self._read_lines())

    @property
    def record_count(self) -> int:
        return len(self._read_lines())

    def damage_truncate(self, keep_fraction: float) -> None:
        """Tear the journal tail: keep roughly *keep_fraction* of it."""
        lines = self._read_lines()
        self._write_lines(lines[: int(len(lines) * keep_fraction)])

    def damage_corrupt(self, position_fraction: float) -> None:
        """Corrupt one record (or the snapshot when the journal is
        empty) at roughly *position_fraction* through the log."""
        lines = self._read_lines()
        text = self._read_snapshot()
        if lines:
            i = min(int(len(lines) * position_fraction), len(lines) - 1)
            lines[i] = lines[i][: len(lines[i]) // 2] + "\x00"
            self._write_lines(lines)
        elif text is not None:
            self._write_snapshot(text[: len(text) // 2] + "\x00")


class MemoryJournal(JournalBackend):
    """In-memory journal for tests and benches.

    Records are held as their *serialized* JSON strings — not live
    objects — so replay genuinely round-trips through the wire format
    and the damage hooks can tear or corrupt real bytes.
    """

    def __init__(self):
        self._snapshot: Optional[str] = None
        self._records: List[str] = []
        #: bytes of the record lines, newlines included, kept as they
        #: change: the provider reads :attr:`size_bytes` after every
        #: append, and re-summing the lines there is O(records)
        self._lines_bytes = 0

    def append(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True)
        self._records.append(line)
        self._lines_bytes += len(line) + 1

    def _read_lines(self) -> List[str]:
        return self._records

    def _write_lines(self, lines: List[str]) -> None:
        self._records = list(lines)
        self._lines_bytes = sum(len(line) + 1 for line in self._records)

    def _read_snapshot(self) -> Optional[str]:
        return self._snapshot

    def _write_snapshot(self, text: str) -> None:
        self._snapshot = text

    @property
    def size_bytes(self) -> int:
        snapshot = len(self._snapshot) if self._snapshot is not None else 0
        return snapshot + self._lines_bytes


class FileJournal(JournalBackend):
    """File-backed journal: ``journal.jsonl`` + ``snapshot.json``.

    Appends are flushed per record; snapshots are written to a temp
    file and atomically renamed into place before the journal is
    truncated, so a crash between the two leaves a readable state.
    """

    JOURNAL_NAME = "journal.jsonl"
    SNAPSHOT_NAME = "snapshot.json"

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.journal_path = os.path.join(directory, self.JOURNAL_NAME)
        self.snapshot_path = os.path.join(directory, self.SNAPSHOT_NAME)
        self._fh = None

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def append(self, record: dict) -> None:
        if self._fh is None:
            self._fh = open(self.journal_path, "a", encoding="utf-8")
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()

    def _read_lines(self) -> List[str]:
        self.close()
        if not os.path.exists(self.journal_path):
            return []
        with open(self.journal_path, "r", encoding="utf-8") as fh:
            return [line for line in fh.read().splitlines() if line]

    def _write_lines(self, lines: List[str]) -> None:
        self.close()
        with open(self.journal_path, "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in lines))

    def _read_snapshot(self) -> Optional[str]:
        if not os.path.exists(self.snapshot_path):
            return None
        with open(self.snapshot_path, "r", encoding="utf-8") as fh:
            return fh.read()

    @property
    def size_bytes(self) -> int:
        # The same number from two stats: the provider reads it after
        # every append, and re-reading the journal there is O(records).
        paths = (self.journal_path, self.snapshot_path)
        return sum(os.path.getsize(p) for p in paths if os.path.exists(p))

    def _write_snapshot(self, text: str) -> None:
        tmp = self.snapshot_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, self.snapshot_path)
