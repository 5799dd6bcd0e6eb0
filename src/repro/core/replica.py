"""Shared replica machinery: answers, hit accounting, the replica API.

Both replication models (§3) expose the same client-facing behaviour:
given a query, either answer it completely from local content (**hit**),
answer part of it and refer the rest (**partial**), or refer the client
to the master (**miss**).  Hit-ratio — the paper's headline metric — is
the fraction of queries *completely* answered (§3.1): partial answers
do not count as hits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from ..ldap.entry import Entry
from ..server.operations import Referral
from ..sync.resilient import SyncLink

__all__ = ["AnswerStatus", "ReplicaAnswer", "HitStats", "link_for"]


class AnswerStatus(enum.Enum):
    """Outcome of asking a replica to answer a query."""

    HIT = "hit"  # completely answered locally
    PARTIAL = "partial"  # some entries local, referrals generated
    MISS = "miss"  # referred entirely to the master


@dataclass
class ReplicaAnswer:
    """A replica's response to one query."""

    status: AnswerStatus
    entries: List[Entry] = field(default_factory=list)
    referrals: List[Referral] = field(default_factory=list)
    answered_by: Optional[str] = None  # which stored unit answered (diagnostics)
    #: ``SearchResult.degraded``'s meaning: the answering content's link
    #: to the master is degraded — it may have gone stale
    degraded: bool = False

    @property
    def is_hit(self) -> bool:
        return self.status is AnswerStatus.HIT


@dataclass
class HitStats:
    """Hit-ratio bookkeeping for one replica."""

    queries: int = 0
    hits: int = 0
    partials: int = 0
    misses: int = 0

    def record(self, answer: ReplicaAnswer) -> None:
        self.queries += 1
        if answer.status is AnswerStatus.HIT:
            self.hits += 1
        elif answer.status is AnswerStatus.PARTIAL:
            self.partials += 1
        else:
            self.misses += 1

    @property
    def hit_ratio(self) -> float:
        """Fraction of queries completely answered (0 when idle)."""
        return self.hits / self.queries if self.queries else 0.0

    def reset(self) -> None:
        self.queries = self.hits = self.partials = self.misses = 0


def link_for(replica, provider) -> SyncLink:
    """The :class:`~repro.sync.resilient.SyncLink` *replica* reaches
    *provider* through: the caller's own link when one is passed where a
    provider goes (how a soak or a test sizes ``policy``/``health``),
    else the replica's default link for that provider — created on first
    use, keyed by provider identity, seeded from the replica's name."""
    if isinstance(provider, SyncLink):
        return provider
    links = replica._links
    link = links.get(id(provider))
    if link is None:
        ident = f"{replica.name}/{len(links)}"
        link = links[id(provider)] = SyncLink(
            provider, network=replica.network, seed=ident, name=ident
        )
    return link
