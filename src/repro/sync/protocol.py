"""Wire-level types of the ReSync protocol (§5.2).

A synchronization exchange is: the client (replica) attaches a
``reSyncControl = (mode, cookie)`` to a normal search request; the
server answers with a stream of update PDUs — each an entry (or bare
DN) plus a control specifying the action — followed by a cookie to
resume the session (poll mode).

:class:`SyncUpdate` is one update PDU; :class:`SyncResponse` is the
whole poll answer.  Traffic accounting rule (used by the experiments):
``add``/``modify`` PDUs carry the complete entry, ``delete``/``retain``
PDUs carry only the DN.

A link polls all its sessions in one exchange (docs/PROTOCOL.md §4):
:class:`MultiPoll` carries one cookie per search request of the
request tuple, and :class:`MultiPollResponse` answers only the sessions
with something to say — an update batch, or the refusal of its cookie.

The anti-entropy reconcile exchange (docs/PROTOCOL.md §11) adds three
messages: :class:`ReconcileRequest` (sketch solicitation, sized by a
divergence hint or an explicit doubled cell count),
:class:`ReconcileResponse` (the served sketch plus the session cookie
minted for the follow-up fetch) and :class:`ReconcileFetch` (the
decoded master-only keys to pull as full entries; answered with a
plain :class:`SyncResponse`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, List, Optional, Sequence, Tuple, Union

from ..ldap import ber
from ..ldap.controls import SyncAction
from ..ldap.dn import DN
from ..ldap.entry import Entry

__all__ = [
    "SyncUpdate",
    "SyncResponse",
    "SyncProtocolError",
    "MultiPoll",
    "MultiPollResponse",
    "answer_polls",
    "ReconcileRequest",
    "ReconcileResponse",
    "ReconcileFetch",
]


class SyncProtocolError(Exception):
    """Protocol violation: unknown cookie, bad mode transition, etc."""


@dataclass(frozen=True)
class SyncUpdate:
    """One update/notification PDU.

    ``entry`` is present exactly when the action carries a full entry
    (add / modify); delete and retain carry only the DN.

    A PDU freezes the entry it carries and never copies it on the way
    out: one PDU is queued to many sessions, retained for
    retransmission and adopted as-is by every consumer that applies it
    (DESIGN.md, "Entry images: who owns, who copies").  That is also
    what lets :attr:`encoded_size` be computed once.
    """

    action: SyncAction
    dn: DN
    entry: Optional[Entry] = None

    def __post_init__(self):
        carries_entry = self.action in (SyncAction.ADD, SyncAction.MODIFY)
        if carries_entry and self.entry is None:
            raise SyncProtocolError(f"{self.action.value} PDU requires an entry")
        if not carries_entry and self.entry is not None:
            raise SyncProtocolError(f"{self.action.value} PDU must not carry an entry")
        if carries_entry:
            self.entry.freeze()

    @property
    def pdu_bytes(self) -> int:
        """Approximate wire size of this PDU, what a poll charges.

        Uses the entry's modelled size (the ``entrySizeBytes`` stamp
        emulating the paper's ~6KB employee entries).  A persist batch
        frame charges each PDU's BER length, :attr:`encoded_size`.
        """
        if self.entry is not None:
            return self.entry.estimated_size()
        return len(str(self.dn)) or 8

    @cached_property
    def encoded_size(self) -> int:
        """Length of this PDU inside a sync batch frame, by length
        arithmetic (:func:`repro.ldap.ber.sync_update_size`): computed at
        most once per PDU however many sessions' frames carry it, and no
        byte of it is built."""
        return ber.sync_update_size(self)

    @classmethod
    def delete(cls, dn: DN) -> "SyncUpdate":
        return cls(SyncAction.DELETE, dn)

    @classmethod
    def retain(cls, dn: DN) -> "SyncUpdate":
        return cls(SyncAction.RETAIN, dn)


@dataclass
class SyncResponse:
    """The server's answer to one synchronization request.

    Attributes:
        updates: the update PDUs, in application order.
        cookie: cookie to resume the session (poll mode); None after a
            ``sync_end`` or for persist deliveries.
        initial: True when this response carried the entire content
            (cookie was null — the first request of a session).
        uses_retain: True when the response follows the
            incomplete-history scheme of eq. (3): anything not retained,
            added or modified must be discarded by the replica.
    """

    updates: List[SyncUpdate] = field(default_factory=list)
    cookie: Optional[str] = None
    initial: bool = False
    uses_retain: bool = False

    @property
    def entry_pdus(self) -> int:
        """PDUs carrying full entries (add/modify)."""
        return sum(1 for u in self.updates if u.entry is not None)

    @property
    def dn_pdus(self) -> int:
        """DN-only PDUs (delete/retain)."""
        return sum(1 for u in self.updates if u.entry is None)

    @property
    def total_bytes(self) -> int:
        """Approximate wire size of all update PDUs."""
        return sum(u.pdu_bytes for u in self.updates)

    def cut(self, keep_fraction: float) -> "SyncResponse":
        """A proper prefix of the update stream, *keep_fraction* of the
        way in, cookie stripped (it travels last): what a cut delivery
        leaves the consumer (docs/PROTOCOL.md §9)."""
        keep = min(int(keep_fraction * len(self.updates)), len(self.updates) - 1)
        return SyncResponse(
            updates=list(self.updates[:keep]),
            cookie=None,
            initial=self.initial,
            uses_retain=self.uses_retain,
        )


@dataclass(frozen=True)
class MultiPoll:
    """The control of one link round's poll: a cookie per search request
    of the exchange's request tuple — ``cookies[i]`` resumes
    ``requests[i]``, a null one asks for its initial content — so N
    sessions travel as one request (docs/PROTOCOL.md §4)."""

    cookies: Tuple[Optional[str], ...]


#: One answer of a :class:`MultiPollResponse`: the index of the session
#: in the request, and its response or the refusal of its cookie.
Answer = Tuple[int, Union[SyncResponse, SyncProtocolError]]


@dataclass
class MultiPollResponse:
    """The answer to a :class:`MultiPoll`: the sessions with something to
    say, in stream order — each an update batch trailed by its cookie,
    or the refusal of its cookie.  A **quiet** session (the latest
    cookie, nothing pending, no degraded resume due) is not named: its
    consumer keeps its cookie."""

    answers: List[Answer] = field(default_factory=list)

    @property
    def updates(self) -> List[SyncUpdate]:
        """Every named session's update PDUs, in stream order."""
        return [u for _, a in self.answers if isinstance(a, SyncResponse) for u in a.updates]

    def cut(self, keep_fraction: float) -> "MultiPollResponse":
        """A proper prefix of the stream, *keep_fraction* of its updates
        in: every answer whose trailer (cookie or refusal) arrived before
        the cut, then the cut session's updates with no cookie
        (:meth:`SyncResponse.cut`); the sessions after it are not named.
        A trailer that falls on the cut is lost with it."""
        total = len(self.updates)
        keep = min(int(keep_fraction * total), total - 1)
        kept: List[Answer] = []
        start = 0
        for index, answer in self.answers:
            updates = answer.updates if isinstance(answer, SyncResponse) else ()
            if start + len(updates) < keep:
                kept.append((index, answer))
                start += len(updates)
                continue
            if isinstance(answer, SyncResponse):
                prefix = SyncResponse(
                    updates=list(updates[: keep - start]),
                    initial=answer.initial,
                    uses_retain=answer.uses_retain,
                )
                kept.append((index, prefix))
            break
        return MultiPollResponse(kept)


def answer_polls(
    serve: Callable[[object, Optional[str]], Optional[SyncResponse]],
    requests: Sequence,
    polls: MultiPoll,
) -> MultiPollResponse:
    """Answer a multiplexed poll session by session: ``serve(request,
    cookie)`` is one session's response, or None when it is quiet; a
    session whose cookie is refused is named with the refusal."""
    answers: List[Answer] = []
    for index, (request, cookie) in enumerate(zip(requests, polls.cookies)):
        try:
            response = serve(request, cookie)
        except SyncProtocolError as refusal:
            answers.append((index, refusal.with_traceback(None)))
        else:
            if response is not None:
                answers.append((index, response))
    return MultiPollResponse(answers)


@dataclass(frozen=True)
class ReconcileRequest:
    """Solicit an anti-entropy sketch over the provider's current
    content (docs/PROTOCOL.md §11).  Like a poll's control it is not
    charged; the sketch that answers it is.

    Attributes:
        divergence_hint: the consumer's estimate of the symmetric
            difference, used by the provider to size the first sketch
            (:func:`repro.sync.reconcile.cells_for_divergence`).
        cells: explicit cell count — set on doubling retries after a
            decode failure, overriding the hint.
        salt: hash salt; retries carry a fresh salt so a difference that
            cycled under one hashing peels under the next.
        cookie: the *previous attempt's* reconcile session, ended
            server-side before the new sketch is served (None on the
            first attempt).
    """

    divergence_hint: int = 8
    cells: Optional[int] = None
    salt: int = 0
    cookie: Optional[str] = None


@dataclass
class ReconcileResponse:
    """The provider's sketch answer.

    ``sketch`` is an :class:`~repro.sync.reconcile.EntrySketch` over the
    provider's current content digests; ``cookie`` resumes the session
    minted at sketch time (presented by the follow-up
    :class:`ReconcileFetch`, and by every later poll once
    reconciliation succeeds); ``content_count`` lets the consumer
    sanity-check scale before decoding.
    """

    sketch: object
    cookie: str
    content_count: int = 0

    @property
    def pdu_bytes(self) -> int:
        """Wire size: the sketch's BER length
        (:meth:`~repro.sync.reconcile.EntrySketch.encoded_size`) plus the
        cookie."""
        return self.sketch.encoded_size() + len(self.cookie) + 8


@dataclass(frozen=True)
class ReconcileFetch:
    """Targeted per-entry fetch of the decoded master-only keys.

    ``keys`` are :func:`~repro.sync.reconcile.entry_key` values; the
    provider answers with ``add`` PDUs for every key still in content
    (a key deleted since the sketch is skipped — the session minted at
    sketch time carries the delete on the next poll).  ``cookie`` names
    that session.
    """

    keys: Tuple[int, ...]
    cookie: str

    @property
    def pdu_bytes(self) -> int:
        """Approximate wire size: one 64-bit key per fetch plus the
        cookie."""
        return 8 + 9 * len(self.keys) + len(self.cookie)
