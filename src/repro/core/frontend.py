"""Replica frontends: replicas as network-addressable directory servers.

A deployed replica *is* an LDAP server — clients send it ordinary
searches and receive entries or referrals without knowing it is
partial.  :class:`ReplicaFrontend` adapts a :class:`FilterReplica` or
:class:`SubtreeReplica` to the server interface the simulated network
and :class:`~repro.server.client.LdapClient` speak, so a client can
point at the replica and transparently chase misses to the master —
exactly the deployment of §7 (remote branch replica + central master).
"""

from __future__ import annotations

from typing import Sequence, Union

from ..ldap.query import SearchRequest
from ..server.operations import ResultCode, SearchResult
from .filter_replica import FilterReplica
from .replica import AnswerStatus
from .subtree_replica import SubtreeReplica

__all__ = ["ReplicaFrontend"]

Replica = Union[FilterReplica, SubtreeReplica]


class ReplicaFrontend:
    """Duck-typed directory server wrapping a partial replica.

    Implements the two members the network/client machinery uses:
    ``url`` and ``search()``.  A replica hit answers with entries; a
    partial answer carries both entries and continuation referrals; a
    miss yields the superior referral to the master (the client
    re-sends the same request there).
    """

    def __init__(self, name: str, replica: Replica):
        self.name = name
        self.replica = replica

    @property
    def url(self) -> str:
        return f"ldap://{self.name}"

    def search(
        self, request: SearchRequest, controls: Sequence[object] = ()
    ) -> SearchResult:
        answer = self.replica.answer(request)
        if answer.status is AnswerStatus.MISS:
            return SearchResult(
                referrals=list(answer.referrals), code=ResultCode.REFERRAL
            )
        return SearchResult(
            entries=list(answer.entries),
            referrals=list(answer.referrals),
            code=ResultCode.SUCCESS,
            degraded=answer.degraded,
        )

    def __repr__(self) -> str:
        return f"ReplicaFrontend({self.name!r}, {self.replica!r})"
