"""Subtree based replication — the baseline model (§3, §3.4.1).

A subtree replica holds one or more *replication contexts*: subtrees of
entries, each with meta information ``Ci = (Si, Ri1 … RiCi)`` — the
context suffix and the DNs of referral objects marking subordinate
contexts held elsewhere.

Answerability is the paper's ``isContained`` algorithm (§3.4.1,
:meth:`SubtreeReplica._context_for`; its line-by-line transcription is
the reference ``tests/oracles.is_contained``): a query can be answered
when its base lies inside some context's subtree and not below any of
that context's referral objects.  Even then the answer may be
*partial* — a referral object inside the search region generates a
continuation reference (§3.1.3), which forfeits the hit.

Content is kept consistent by synchronizing each context as the query
``(base=Si, scope=SUBTREE, filter=(objectclass=*))`` through any of the
providers in :mod:`repro.sync` — a subtree is just a special case of a
filter (§3: "a query specification can be reduced to a subtree
specification").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..ldap.dn import DN
from ..ldap.entry import Entry
from ..ldap.filters import MATCH_ALL
from ..ldap.query import Scope, SearchRequest
from ..server.network import SimulatedNetwork
from ..server.operations import Referral
from ..sync.consumer import SyncedContent
from ..sync.resilient import SyncLink
from .replica import AnswerStatus, HitStats, ReplicaAnswer, link_for

__all__ = ["ReplicationContext", "SubtreeReplica"]


@dataclass(frozen=True)
class ReplicationContext:
    """Meta information of one replicated subtree: ``(S, R1 … Rn)``."""

    suffix: DN
    referrals: Tuple[Tuple[DN, str], ...] = ()
    """(referral object DN, subordinate server URL) pairs."""

    def referral_dns(self) -> Tuple[DN, ...]:
        return tuple(dn for dn, _url in self.referrals)


class SubtreeReplica:
    """A partial replica whose unit of replication is a subtree.

    Args:
        name: replica name (for diagnostics and referral URLs).
        master_url: where misses are referred.
        network: optional traffic accounting.
    """

    def __init__(
        self,
        name: str,
        master_url: str = "ldap://master",
        network: Optional[SimulatedNetwork] = None,
    ):
        self.name = name
        self.master_url = master_url
        self.network = network
        self._contexts: List[ReplicationContext] = []
        self._contents: Dict[DN, SyncedContent] = {}
        self._links: Dict[int, SyncLink] = {}  # provider identity → default link
        #: the link of the last sync round (every round polls every context)
        self._link: Optional[SyncLink] = None
        self.stats = HitStats()

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def add_context(
        self,
        suffix: Union[DN, str],
        referrals: Sequence[Tuple[Union[DN, str], str]] = (),
    ) -> ReplicationContext:
        """Configure a replication context rooted at *suffix*.

        *referrals* lists (DN, URL) pairs of subordinate contexts the
        replica does not hold.
        """
        suffix_dn = suffix if isinstance(suffix, DN) else DN.parse(suffix)
        pairs = tuple(
            (dn if isinstance(dn, DN) else DN.parse(dn), url)
            for dn, url in referrals
        )
        context = ReplicationContext(suffix_dn, pairs)
        self._contexts.append(context)
        request = SearchRequest(suffix_dn, Scope.SUB, MATCH_ALL)
        self._contents[suffix_dn] = SyncedContent(request, network=self.network)
        return context

    @property
    def contexts(self) -> Tuple[ReplicationContext, ...]:
        return tuple(self._contexts)

    # ------------------------------------------------------------------
    # synchronization
    # ------------------------------------------------------------------
    def sync(self, provider) -> None:
        """One :meth:`SyncLink.sync <repro.sync.resilient.SyncLink.sync>`
        round over every context through *provider*'s link (the initial
        poll loads content); never raises a transport error."""
        self._link = link_for(self, provider)
        self._link.sync(list(self._contents.values()))

    def load_directly(self, suffix: Union[DN, str], entries: Sequence[Entry]) -> None:
        """Install content without a provider (for tests/benches that
        size replicas explicitly)."""
        suffix_dn = suffix if isinstance(suffix, DN) else DN.parse(suffix)
        content = self._contents[suffix_dn]
        content.entries = {e.dn: e.copy() for e in entries}

    # ------------------------------------------------------------------
    # the paper's isContained algorithm (§3.4.1)
    # ------------------------------------------------------------------
    def _context_for(self, base: DN) -> Optional[ReplicationContext]:
        """The first context whose subtree holds *base* outside every one
        of its referral objects — the context ``isContained(b, C)``
        answers from — or None."""
        for context in self._contexts:
            if context.suffix.is_ancestor_or_self(base):
                if any(
                    r.is_ancestor_or_self(base) for r in context.referral_dns()
                ):
                    return None
                return context
        return None

    # ------------------------------------------------------------------
    # answering
    # ------------------------------------------------------------------
    def answer(self, request: SearchRequest) -> ReplicaAnswer:
        """Answer *request* from local content, or refer to the master.

        A referral object inside the search region makes the answer
        PARTIAL (the query "does not contribute to hit-ratio", §3.1.3).
        """
        context = self._context_for(request.base)
        if context is None:
            answer = ReplicaAnswer(
                AnswerStatus.MISS,
                referrals=[Referral(self.master_url, request.base)],
            )
            self.stats.record(answer)
            return answer

        content = self._contents[context.suffix]
        if request.base not in content.entries and request.base != context.suffix:
            # Base entry absent locally (e.g. replica loaded a subset).
            answer = ReplicaAnswer(
                AnswerStatus.MISS,
                referrals=[Referral(self.master_url, request.base)],
            )
            self.stats.record(answer)
            return answer

        entries = content.evaluate(request)
        referrals: List[Referral] = []
        for referral_dn, url in context.referrals:
            if request.in_scope(referral_dn):
                referrals.append(Referral(url, referral_dn))

        status = AnswerStatus.PARTIAL if referrals else AnswerStatus.HIT
        answer = ReplicaAnswer(
            status,
            entries=entries,
            referrals=referrals,
            answered_by=str(context.suffix),
            degraded=self._link is not None and self._link.degraded,
        )
        self.stats.record(answer)
        return answer

    # ------------------------------------------------------------------
    # sizing
    # ------------------------------------------------------------------
    def entry_count(self) -> int:
        """Unique entries held (the paper's replica-size metric)."""
        dns: Set[DN] = set()
        for content in self._contents.values():
            dns.update(content.entries)
        return len(dns)

    def size_bytes(self) -> int:
        """Approximate stored bytes across contexts."""
        seen: Set[DN] = set()
        total = 0
        for content in self._contents.values():
            for dn, entry in content.entries.items():
                if dn not in seen:
                    seen.add(dn)
                    total += entry.estimated_size()
        return total

    def __repr__(self) -> str:
        return (
            f"SubtreeReplica({self.name!r}, {len(self._contexts)} contexts, "
            f"{self.entry_count()} entries)"
        )
