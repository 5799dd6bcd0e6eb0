"""Consumer-side snapshots: point-in-time warm starts.

The provider recovers from its journal; a restarted *replica* recovers
from a snapshot of its content, the recovery ladder's first rung
(docs/RECOVERY.md), instead of paying a full O(content) rebuild:

* :class:`SnapshotStore` — atomic storage of one point-in-time dump:
  the replicated content as LDIF (:mod:`repro.ldap.ldif`, whose
  round-trip is exact by property test), the ReSync resumption cookie,
  and a SHA-256 checksum over the content body.  Writes go to a temp
  file and are renamed into place (`os.replace`), so a crash mid-save
  leaves the previous snapshot readable — never a torn one.
* :class:`SnapshotRecoverer` — the staged warm-start driver, modelled
  on the snapshot-plus-event-stream recovery of
  SecureAccessTokenAuthorizer's ``StatefulRecoverer`` (PAPERS.md):
  explicit stages ``loading → verifying → resuming → live``, exported
  through ``obs`` as the ``sync.snapshot.*`` instruments
  (docs/OBSERVABILITY.md §2).

Integrity is split deliberately between two mechanisms.  The checksum
covers the *content body*: a truncated or bit-flipped dump fails
verification and is **discarded, never applied** — the replica falls
through to the existing ladder (cookie-less rebuild, or sketch
reconciliation when wired through :class:`ResilientConsumer
<repro.sync.resilient.ResilientConsumer>`).  The *cookie* is excluded
from the checksum on purpose: its validity is enforced end-to-end by
the provider, which refuses unknown or expired cookies with
:class:`~repro.sync.protocol.SyncProtocolError` — exactly the signal
the ladder already climbs on.  A stale-but-intact snapshot therefore
restores content (bounded divergence) and lets the protocol decide how
much of it is still good.

A dump costs what changed since the last one: a content holds frozen
images, and each renders its LDIF record once and remembers it
(:func:`repro.ldap.ldif.entry_to_ldif`), so :meth:`SnapshotStore.save`
of an unchanged content sorts, joins and hashes remembered text.  The
document is byte-identical to one rendered afresh.

Damage hooks (``damage_truncate`` / ``damage_corrupt`` /
``damage_stale_cookie``) mirror the journal's
(:mod:`repro.sync.durability`) so :class:`FaultyNetwork
<repro.server.faults.FaultyNetwork>` can tear snapshots the same way
it tears journals.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from ..ldap.dn import DN
from ..ldap.entry import Entry
from ..ldap.ldif import entries_to_ldif, parse_ldif
from ..obs.registry import MetricsRegistry
from ..obs.tracing import span

__all__ = [
    "SnapshotError",
    "SnapshotDocument",
    "SnapshotStore",
    "MemorySnapshotStore",
    "FileSnapshotStore",
    "SnapshotRecoverer",
    "RECOVERY_STAGES",
    "encode_snapshot",
    "decode_snapshot",
]

#: Format marker of the first header line; bumped on layout changes so
#: an old reader never misinterprets a new dump.
_MAGIC = "# repro-snapshot v1"
#: Placeholder for an absent cookie in the header (a cookie never
#: starts with ``-``, and LDIF values never reach the header parser).
_NO_COOKIE = "-"


class SnapshotError(ValueError):
    """A snapshot failed structural or checksum verification.

    Always carries a human-readable reason; callers treat any instance
    as "discard, fall through" — a damaged snapshot is never applied.
    """


@dataclass(frozen=True)
class SnapshotDocument:
    """One verified point-in-time dump, decoded."""

    entries: Dict[DN, Entry]
    cookie: Optional[str]
    #: Size of the encoded form — what a warm start *avoided* moving
    #: over the wire (bench reporting).
    size_bytes: int


def encode_snapshot(entries: Iterable[Entry], cookie: Optional[str]) -> str:
    """Render a snapshot document: checksummed header + LDIF body."""
    body = entries_to_ldif(list(entries))
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    header = [
        _MAGIC,
        f"# cookie: {cookie if cookie is not None else _NO_COOKIE}",
        f"# sha256: {digest}",
    ]
    return "\n".join(header) + "\n" + body


def decode_snapshot(text: str) -> SnapshotDocument:
    """Parse and verify a snapshot document.

    Raises :class:`SnapshotError` on any structural damage: missing or
    foreign header, checksum mismatch (truncation, bit flips, a torn
    tail), or an LDIF body that no longer parses.
    """
    lines = text.split("\n", 3)
    if len(lines) < 4 or lines[0] != _MAGIC:
        raise SnapshotError(f"not a {_MAGIC!r} document")
    cookie_line, digest_line, body = lines[1], lines[2], lines[3]
    if not cookie_line.startswith("# cookie: "):
        raise SnapshotError(f"malformed cookie header: {cookie_line!r}")
    if not digest_line.startswith("# sha256: "):
        raise SnapshotError(f"malformed checksum header: {digest_line!r}")
    raw_cookie = cookie_line[len("# cookie: ") :]
    cookie = None if raw_cookie == _NO_COOKIE else raw_cookie
    expected = digest_line[len("# sha256: ") :]
    actual = hashlib.sha256(body.encode("utf-8")).hexdigest()
    if actual != expected:
        raise SnapshotError(
            f"content checksum mismatch: header says {expected[:12]}…, "
            f"body hashes to {actual[:12]}… (truncated or corrupted dump)"
        )
    try:
        parsed = list(parse_ldif(body))
    except ValueError as exc:
        raise SnapshotError(f"snapshot body is not valid LDIF: {exc}") from None
    return SnapshotDocument(
        # Restored entries are content images like any applied PDU's:
        # frozen, so each remembers its reconcile digest (DESIGN.md §8).
        entries={entry.dn: entry.freeze() for entry in parsed},
        cookie=cookie,
        size_bytes=len(text.encode("utf-8")),
    )


class SnapshotStore:
    """Storage of one snapshot document (abstract base).

    Subclasses store a single text blob; encoding, verification and the
    never-apply-damage policy live above, in
    :func:`encode_snapshot` / :func:`decode_snapshot` and
    :class:`SnapshotRecoverer`.
    """

    def save(self, entries: Iterable[Entry], cookie: Optional[str]) -> int:
        """Atomically replace the snapshot; returns the encoded size."""
        text = encode_snapshot(entries, cookie)
        self._write(text)
        return len(text.encode("utf-8"))

    def load(self) -> Optional[str]:
        """The raw stored document, or None when absent."""
        raise NotImplementedError

    def discard(self) -> None:
        """Drop the stored snapshot (a damaged one is never kept: the
        next warm start must not trip over it again)."""
        raise NotImplementedError

    @property
    def size_bytes(self) -> int:
        raise NotImplementedError

    def _write(self, text: str) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # damage hooks (fault injection; mirror the journal's)
    # ------------------------------------------------------------------
    def damage_truncate(self, keep_fraction: float) -> None:
        """Tear the snapshot tail: keep roughly *keep_fraction* of it
        (a crash mid-write on a filesystem without atomic rename)."""
        text = self.load()
        if text is None:
            return
        self._write(text[: int(len(text) * keep_fraction)])

    def damage_corrupt(self, position_fraction: float) -> None:
        """Flip bytes at roughly *position_fraction* through the dump."""
        text = self.load()
        if not text:
            return
        i = min(int(len(text) * position_fraction), len(text) - 1)
        self._write(text[:i] + "\x00" + text[i + 1 :])

    def damage_stale_cookie(self) -> None:
        """Rewrite the stored cookie to one no provider knows.

        The document stays checksum-valid — this models a snapshot that
        simply *aged out* (the provider expired or forgot the session),
        the case the ladder must catch via the provider's refusal, not
        via local verification.
        """
        text = self.load()
        if text is None:
            return
        lines = text.split("\n")
        for i, line in enumerate(lines):
            if line.startswith("# cookie: "):
                lines[i] = "# cookie: stale-snapshot-cookie:0"
                break
        self._write("\n".join(lines))


class MemorySnapshotStore(SnapshotStore):
    """In-memory store for tests and benches."""

    def __init__(self):
        self._text: Optional[str] = None

    def _write(self, text: str) -> None:
        self._text = text

    def load(self) -> Optional[str]:
        return self._text

    def discard(self) -> None:
        self._text = None

    @property
    def size_bytes(self) -> int:
        return len(self._text.encode("utf-8")) if self._text is not None else 0


class FileSnapshotStore(SnapshotStore):
    """File-backed store: ``content.snapshot`` in *directory*.

    Saves write a temp file and :func:`os.replace` it into place — the
    same write-then-rename discipline as
    :meth:`FileJournal.write_snapshot
    <repro.sync.durability.FileJournal.write_snapshot>`, so a crash
    mid-save leaves the previous dump intact.
    """

    SNAPSHOT_NAME = "content.snapshot"

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.path = os.path.join(directory, self.SNAPSHOT_NAME)

    def _write(self, text: str) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, self.path)

    def load(self) -> Optional[str]:
        if not os.path.exists(self.path):
            return None
        with open(self.path, "r", encoding="utf-8") as fh:
            return fh.read()

    def discard(self) -> None:
        if os.path.exists(self.path):
            os.remove(self.path)

    @property
    def size_bytes(self) -> int:
        return os.path.getsize(self.path) if os.path.exists(self.path) else 0


#: Stage names in order; the ``sync.snapshot.stage`` gauge holds the
#: current stage's index.  ``discarded`` is terminal for one warm-start
#: attempt (the ladder continues without snapshot state); ``live``
#: means the resumed session completed a successful cycle.
RECOVERY_STAGES = ("idle", "loading", "verifying", "resuming", "live", "discarded")


class SnapshotRecoverer:
    """Staged consumer warm start from a :class:`SnapshotStore`.

    One instance serves one :class:`SyncedContent
    <repro.sync.consumer.SyncedContent>` for the life of the consumer:
    :meth:`warm_start` walks ``loading → verifying → resuming`` on
    restart, :meth:`mark_live` is called by the driver after the first
    successful post-restore cycle, and :meth:`save` dumps the current
    content after successful cycles.  Every transition is visible
    through the ``sync.snapshot.*`` instruments, so fault benches can
    report warm-start outcomes next to the ladder's reload/reconcile
    counters.
    """

    def __init__(
        self,
        store: SnapshotStore,
        content,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.store = store
        self.content = content
        registry = registry if registry is not None else MetricsRegistry()
        self._stage = "idle"
        self._stage_gauge = registry.gauge("sync.snapshot.stage")
        self._saves = registry.counter("sync.snapshot.saves")
        self._save_bytes = registry.counter("sync.snapshot.save_bytes")
        self._loads = registry.counter("sync.snapshot.loads")
        self._misses = registry.counter("sync.snapshot.misses")
        self._warm_starts = registry.counter("sync.snapshot.warm_starts")
        self._restored = registry.counter("sync.snapshot.restored_entries")
        self._restored_bytes = registry.counter("sync.snapshot.restored_bytes")
        self._discarded = registry.counter("sync.snapshot.discarded")

    # ------------------------------------------------------------------
    # stage bookkeeping
    # ------------------------------------------------------------------
    @property
    def stage(self) -> str:
        return self._stage

    def _enter(self, stage: str) -> None:
        self._stage = stage
        self._stage_gauge.set(RECOVERY_STAGES.index(stage))

    # ------------------------------------------------------------------
    # saving
    # ------------------------------------------------------------------
    def save(self) -> int:
        """Dump the content's entries + cookie; returns bytes written."""
        with span("sync.snapshot.save") as sp:
            size = self.store.save(
                self.content.entries.values(), self.content.cookie
            )
            sp.add("bytes", size)
        self._saves.inc()
        self._save_bytes.inc(size)
        return size

    # ------------------------------------------------------------------
    # warm start
    # ------------------------------------------------------------------
    def warm_start(self) -> bool:
        """One staged warm-start attempt against the store.

        ``loading``: read the raw document (absent → stay cold, no
        harm).  ``verifying``: structural + checksum verification —
        any :class:`SnapshotError` discards the snapshot *and* deletes
        it from the store, so a damaged dump is consulted exactly once.
        ``resuming``: install the verified entries and cookie into the
        content; the next poll resumes at the snapshot's generation and
        costs O(delta).  Returns True when content was installed.
        """
        self._enter("loading")
        with span("sync.snapshot.load") as sp:
            text = self.store.load()
            sp.add("bytes", len(text.encode("utf-8")) if text else 0)
        if text is None:
            self._misses.inc()
            self._enter("idle")
            return False
        self._loads.inc()

        self._enter("verifying")
        try:
            with span("sync.snapshot.verify"):
                document = decode_snapshot(text)
        except SnapshotError:
            self._discard()
            return False

        self._enter("resuming")
        with span("sync.snapshot.resume") as sp:
            # Assignment through the property loads a fresh store and
            # bumps the version — the sanctioned external-writer path
            # (see SyncedContent.entries).
            self.content.entries = document.entries
            self.content.cookie = document.cookie
            sp.add("entries", len(document.entries))
        self._warm_starts.inc()
        self._restored.inc(len(document.entries))
        self._restored_bytes.inc(document.size_bytes)
        return True

    def mark_live(self) -> None:
        """The resumed session completed a successful cycle."""
        if self._stage == "resuming":
            self._enter("live")

    def _discard(self) -> None:
        """Damage detected: count it, drop the stored snapshot, and
        leave the content untouched — the ladder continues cold."""
        self._discarded.inc()
        self.store.discard()
        self._enter("discarded")
