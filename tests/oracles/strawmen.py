"""The §5.2 comparison baselines: the mechanisms ReSync is argued against.

The paper argues that, absent ReSync's per-session history, existing
mechanisms either lose convergence or inflate history/traffic:

* **Tombstones** — hidden entries recording the *state but not the data*
  of deleted entries.  Because a tombstone has no attributes, the server
  cannot tell whether a deleted entry was in a filter's content, so it
  must transmit **all** deleted-entry DNs since the last poll.  Finding
  entries *modified out* of the content requires scanning every entry
  changed since the cookie and conservatively deleting the ones that do
  not match now.
* **Changelogs** — a log of update operations recording only the
  *changed attributes*.  Same all-deleted-DNs obligation; for modifies
  the changelog at least names the touched DNs and attributes, letting
  the server skip conservative deletes when the changed attributes are
  disjoint from the filter's attributes (the entry cannot have moved
  across the content boundary).
* **Full reload** — retransmit the whole content each poll; trivially
  convergent, maximal traffic.
* **Retain** — eq. 3 with no per-session state at all
  (:class:`RetainResyncProvider`): full entries for everything changed
  since the cookie's CSN, a DN-only ``retain`` for every unchanged
  in-content entry.  The durable ``ResyncProvider`` serves the same
  equation to a session whose history overflowed, through the same
  :class:`~repro.sync.resync.LastChangeMap`.

Each speaks the provider's ``handle(request, control) → SyncResponse``,
poll mode only, with stateless cookies that encode the last-poll CSN
(:class:`CsnCookieMixin`), so a :class:`~repro.sync.SyncedContent` and
the E11 bench (``benchmarks/bench_sync_mechanisms.py``) treat every
mechanism uniformly.  None offers ``reconcile``, ``persist``,
``invalidate_cookie`` or ``restart``: the consumer stack's recovery
ladder assumes the one provider that does.  All are *convergent* in this
implementation — the paper's complaint about them is cost, which the
bench measures; the pure information-theoretic failure (changelog alone
cannot reconstruct whether a modified-then-deleted entry was in content)
shows up as the conservative extra DELETE PDUs they must send.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.ldap.attributes import DEFAULT_REGISTRY
from repro.ldap.controls import ReSyncControl, SyncMode
from repro.ldap.dn import DN
from repro.ldap.filters import attributes_of
from repro.ldap.query import SearchRequest
from repro.server.directory import DirectoryServer
from repro.server.operations import Modification, UpdateOp, UpdateRecord
from repro.sync.protocol import (
    MultiPoll,
    MultiPollResponse,
    SyncProtocolError,
    SyncResponse,
    SyncUpdate,
    answer_polls,
)
from repro.sync.resync import LastChangeMap, _add, master_content

__all__ = [
    "CsnCookieMixin",
    "ChangelogRecord",
    "Changelog",
    "ChangelogProvider",
    "TombstoneStore",
    "TombstoneProvider",
    "FullReloadProvider",
    "RetainResyncProvider",
]


class CsnCookieMixin:
    """Cookie handling of the stateless providers: cookies encode the
    last-poll CSN."""

    COOKIE_PREFIX: str = "csn"

    def _parse_cookie(self, cookie: Optional[str]) -> int:
        if cookie is None:
            return 0
        prefix, _, csn = cookie.partition(":")
        if prefix != self.COOKIE_PREFIX or not csn.isdigit():
            raise SyncProtocolError(f"malformed cookie {cookie!r}")
        return int(csn)

    def _make_cookie(self, csn: int) -> str:
        return f"{self.COOKIE_PREFIX}:{csn}"

    def answer_polls(self, requests: Sequence, polls: MultiPoll) -> MultiPollResponse:
        """A multiplexed poll, answered session by session: a stateless
        provider keeps no record to find a session quiet in, so every
        session is named."""
        return answer_polls(
            lambda request, cookie: self.handle(request, ReSyncControl(cookie=cookie)),
            requests,
            polls,
        )


# ----------------------------------------------------------------------
# changelog (draft-good-ldap-changelog style)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChangelogRecord:
    """One changelog entry: op, DN and the *changed attributes only*.

    Faithful to [18]: an add record carries the new entry's attributes,
    a modify record carries the modifications, a delete record carries
    nothing but the DN, a modrdn record carries the new RDN.
    """

    csn: int
    op: UpdateOp
    dn: DN
    new_dn: Optional[DN] = None
    modifications: Tuple[Modification, ...] = ()


class Changelog:
    """Update listener persisting a changelog for one master."""

    def __init__(self, server: DirectoryServer):
        self.server = server
        self.records: List[ChangelogRecord] = []
        server.add_update_listener(self)

    def on_update(self, record: UpdateRecord) -> None:
        self.records.append(
            ChangelogRecord(
                csn=record.csn,
                op=record.op,
                dn=record.dn,
                new_dn=record.new_dn,
                modifications=record.modifications,
            )
        )

    def since(self, csn: int) -> List[ChangelogRecord]:
        """Records with CSN strictly greater than *csn*."""
        return [r for r in self.records if r.csn > csn]

    def history_size(self) -> int:
        """Number of retained history records (E11's history metric)."""
        return len(self.records)


class ChangelogProvider(CsnCookieMixin):
    """Synchronization by changelog replay.

    Replays records since the cookie's CSN against the live DIT:

    * ADD / MODIFY / MODIFY_DN whose live entry matches now → add/modify
      PDU with the full (current) entry;
    * MODIFY whose live entry does not match now → conservative DELETE,
      *unless* the record's changed attributes are disjoint from the
      filter's attributes (then the match status cannot have changed);
    * DELETE / MODIFY_DN-away → unconditional DELETE of the old DN
      (the all-deleted-DNs obligation).
    """

    def __init__(self, server: DirectoryServer):
        self.server = server
        self.changelog = Changelog(server)

    def handle(self, request: SearchRequest, control: ReSyncControl) -> SyncResponse:
        if isinstance(control, MultiPoll):
            return self.answer_polls(request, control)
        if control.mode is SyncMode.SYNC_END:
            return SyncResponse(updates=[], cookie=None)
        if control.mode is not SyncMode.POLL:
            raise SyncProtocolError("ChangelogProvider supports poll mode only")
        now = self.server.current_csn
        if control.cookie is None:
            content = self.server.search(request).entries
            return SyncResponse(
                updates=[SyncUpdate.add(e) for e in content],
                cookie=self._make_cookie(now),
                initial=True,
            )
        since = self._parse_cookie(control.cookie)
        filter_attrs = set(attributes_of(request.filter))
        # Net action per DN, replayed in order; later records win.
        net: Dict[DN, SyncUpdate] = {}
        for record in self.changelog.since(since):
            for update in self._replay(record, request, filter_attrs):
                net[update.dn] = update
        updates = sorted(
            net.values(), key=lambda u: (u.entry is not None, str(u.dn))
        )
        return SyncResponse(updates=updates, cookie=self._make_cookie(now))

    def _replay(
        self,
        record: ChangelogRecord,
        request: SearchRequest,
        filter_attrs: Set[str],
    ) -> List[SyncUpdate]:
        updates: List[SyncUpdate] = []
        if record.op is UpdateOp.DELETE:
            # No attributes in the record: cannot tell whether the entry
            # was in content — send the DN regardless.
            if request.in_scope(record.dn):
                updates.append(SyncUpdate.delete(record.dn))
            return updates
        if record.op is UpdateOp.MODIFY_DN:
            if request.in_scope(record.dn):
                updates.append(SyncUpdate.delete(record.dn))
            live = self.server.store.get(record.new_dn)
            if live is not None and request.selects(live):
                updates.append(SyncUpdate.add(request.project(live)))
            return updates
        live = self.server.store.get(record.dn)
        if live is not None and request.selects(live):
            make = SyncUpdate.add if record.op is UpdateOp.ADD else SyncUpdate.modify
            updates.append(make(request.project(live)))
            return updates
        if record.op is UpdateOp.MODIFY and request.in_scope(record.dn):
            touched = {DEFAULT_REGISTRY.key(m.attr) for m in record.modifications}
            if touched & filter_attrs:
                # Changed attributes overlap the filter's (by key): the entry may
                # have been modified out of the content — conservative
                # delete.
                updates.append(SyncUpdate.delete(record.dn))
        return updates


# ----------------------------------------------------------------------
# tombstones
# ----------------------------------------------------------------------
class TombstoneStore:
    """Update listener keeping tombstones and per-entry change CSNs.

    A tombstone records the DN and deletion CSN of a deleted entry, but
    none of its former attributes.  The per-entry change CSN models the
    ``modifyTimestamp`` operational attribute real servers maintain.
    """

    def __init__(self, server: DirectoryServer):
        self.server = server
        self.tombstones: List[Tuple[int, DN]] = []
        self.change_csn: Dict[DN, int] = {}
        server.add_update_listener(self)

    def on_update(self, record: UpdateRecord) -> None:
        if record.op is UpdateOp.DELETE:
            self.tombstones.append((record.csn, record.dn))
            self.change_csn.pop(record.dn, None)
            return
        if record.op is UpdateOp.MODIFY_DN:
            self.tombstones.append((record.csn, record.dn))
            self.change_csn.pop(record.dn, None)
        self.change_csn[record.effective_dn] = record.csn

    def deleted_since(self, csn: int) -> List[DN]:
        return [dn for (tomb_csn, dn) in self.tombstones if tomb_csn > csn]

    def changed_since(self, csn: int) -> List[DN]:
        return [dn for dn, change in self.change_csn.items() if change > csn]

    def history_size(self) -> int:
        """Retained tombstone count (E11's history metric)."""
        return len(self.tombstones)


class TombstoneProvider(CsnCookieMixin):
    """Synchronization from tombstones + per-entry change timestamps.

    Each poll: (i) every tombstone DN since the cookie is sent as a
    DELETE (in-scope ones only — scope is in the DN); (ii) every entry
    changed since the cookie is re-evaluated — matching entries are sent
    in full, non-matching in-scope ones are conservatively DELETEd
    (the server cannot know whether they used to match).
    """

    def __init__(self, server: DirectoryServer, store: Optional[TombstoneStore] = None):
        self.server = server
        self.tombstones = store if store is not None else TombstoneStore(server)

    def handle(self, request: SearchRequest, control: ReSyncControl) -> SyncResponse:
        if isinstance(control, MultiPoll):
            return self.answer_polls(request, control)
        if control.mode is SyncMode.SYNC_END:
            return SyncResponse(updates=[], cookie=None)
        if control.mode is not SyncMode.POLL:
            raise SyncProtocolError("TombstoneProvider supports poll mode only")
        now = self.server.current_csn
        if control.cookie is None:
            content = self.server.search(request).entries
            return SyncResponse(
                updates=[SyncUpdate.add(e) for e in content],
                cookie=self._make_cookie(now),
                initial=True,
            )
        since = self._parse_cookie(control.cookie)
        net: Dict[DN, SyncUpdate] = {}
        for dn in self.tombstones.deleted_since(since):
            if request.in_scope(dn):
                net[dn] = SyncUpdate.delete(dn)
        for dn in self.tombstones.changed_since(since):
            live = self.server.store.get(dn)
            if live is None:
                continue  # a later tombstone covers it
            if request.selects(live):
                net[dn] = SyncUpdate.modify(request.project(live))
            elif request.in_scope(dn):
                net[dn] = SyncUpdate.delete(dn)
        updates = sorted(
            net.values(), key=lambda u: (u.entry is not None, str(u.dn))
        )
        return SyncResponse(updates=updates, cookie=self._make_cookie(now))


# ----------------------------------------------------------------------
# full reload
# ----------------------------------------------------------------------
class FullReloadProvider(CsnCookieMixin):
    """The trivial mechanism: retransmit the whole content every poll."""

    def __init__(self, server: DirectoryServer):
        self.server = server

    def handle(self, request: SearchRequest, control: ReSyncControl) -> SyncResponse:
        if isinstance(control, MultiPoll):
            return self.answer_polls(request, control)
        if control.mode is SyncMode.SYNC_END:
            return SyncResponse(updates=[], cookie=None)
        content = self.server.search(request).entries
        return SyncResponse(
            updates=[SyncUpdate.add(e) for e in content],
            cookie=self._make_cookie(self.server.current_csn),
            initial=control.cookie is None,
            uses_retain=control.cookie is not None,
        )


# ----------------------------------------------------------------------
# retain (eq. 3, stateless)
# ----------------------------------------------------------------------
class RetainResyncProvider(CsnCookieMixin):
    """Incomplete-history ReSync master (eq. 3, ``retain`` actions).

    Keeps no per-session state: the cookie encodes the CSN of the last
    poll, and a per-entry last-change CSN map (maintained from the
    update stream) decides changed vs unchanged.
    """

    def __init__(self, server: DirectoryServer):
        self.server = server
        self._last_change = LastChangeMap()
        self._unknown_cookie = server.metrics.counter("sync.session.unknown_cookie")
        server.add_update_listener(self)

    def on_update(self, record: UpdateRecord) -> None:
        self._last_change.note(record)

    def handle(self, request: SearchRequest, control: ReSyncControl) -> SyncResponse:
        """Service a poll following eq. (3).

        Persist mode is not meaningful without history; only ``poll``
        and ``sync_end`` are accepted.
        """
        if isinstance(control, MultiPoll):
            return self.answer_polls(request, control)
        if control.mode is SyncMode.SYNC_END:
            # Stateless provider: sync_end drops nothing, but a cookie
            # this provider never minted is still a counted no-op
            # (mirrors ResyncProvider._fold_end).
            if control.cookie is not None:
                try:
                    self._parse_cookie(control.cookie)
                except SyncProtocolError:
                    self._unknown_cookie.inc()
            return SyncResponse(updates=[], cookie=None)
        if control.mode is not SyncMode.POLL:
            raise SyncProtocolError(
                "RetainResyncProvider supports poll mode only"
            )
        # Stateless scan: the whole current content is re-derived and
        # classified changed/unchanged against the cookie CSN (eq. 3).
        since = self._parse_cookie(control.cookie)
        now = self.server.current_csn
        content = master_content(self.server, request)
        initial = control.cookie is None
        if initial:
            updates = [_add(e) for e in content]
        else:
            updates = self._last_change.classify(content, since)
        return SyncResponse(
            updates=updates,
            cookie=self._make_cookie(now),
            initial=initial,
            uses_retain=not initial,
        )
