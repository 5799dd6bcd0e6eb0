"""LDAP client with referral chasing.

Reproduces the distributed operation processing of §2.3/Figure 2: the
client sends a search to some server; if the server does not hold the
target it answers with its default (superior) referral; once the target
server is found, continuation references for subordinate naming
contexts are chased with modified bases until the result is complete.

Every request/response exchange is charged as one round trip on the
:class:`~repro.server.network.SimulatedNetwork`, which is how the
bench for Figure 2 counts the four round trips of the paper's example.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set, Tuple

from ..ldap.entry import Entry
from ..ldap.query import SearchRequest
from .network import SimulatedNetwork
from .operations import Referral, ResultCode, SearchResult

__all__ = ["ChasedResult", "LdapClient", "ReferralLimitExceeded"]


class ReferralLimitExceeded(RuntimeError):
    """Raised when referral chasing exceeds the hop limit (loop guard)."""


@dataclass
class ChasedResult:
    """Outcome of a fully processed distributed search.

    Attributes:
        entries: all entries gathered across servers (DN-deduplicated).
        round_trips: client/server exchanges used (Figure 2's metric).
        servers_contacted: URLs in contact order, repeats included.
        unresolved: referrals that could not be chased (unknown server).
    """

    entries: List[Entry] = field(default_factory=list)
    round_trips: int = 0
    servers_contacted: List[str] = field(default_factory=list)
    unresolved: List[Referral] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """True when no referral was left unchased."""
        return not self.unresolved


#: Servers one search may contact while chasing referrals.
MAX_HOPS = 32


class LdapClient:
    """A minimally-directory-enabled client (§3.1.1) that chases referrals.

    Args:
        network: the simulated network carrying requests.
    """

    def __init__(self, network: SimulatedNetwork):
        self.network = network

    def search(self, server_url: str, request: SearchRequest) -> ChasedResult:
        """Run *request* starting at *server_url*, chasing every referral.

        Follows the two referral flavours of §2.3:

        * name-resolution (superior) referrals — re-send the *same*
          request to the referred server;
        * continuation references — re-send with the base *modified* to
          the subordinate context's target DN.
        """
        result = ChasedResult()
        seen_entry_dns: Set = set()
        # Work list of (server url, request) pairs still to execute.
        pending: List[Tuple[str, SearchRequest]] = [(server_url, request)]
        visited: Set[Tuple[str, SearchRequest]] = set()
        hops = 0

        while pending:
            url, current = pending.pop(0)
            key = (url, current)
            if key in visited:
                continue  # referral loop — already asked this exact question
            visited.add(key)
            hops += 1
            if hops > MAX_HOPS:
                raise ReferralLimitExceeded(
                    f"exceeded {MAX_HOPS} hops chasing referrals for {request}"
                )

            try:
                server = self.network.resolve(url)
            except KeyError:
                result.unresolved.extend(
                    [Referral(url, current.base)]
                )
                continue

            self.network.charge_round_trip()
            result.round_trips += 1
            result.servers_contacted.append(server.url)

            response: SearchResult = server.search(current)
            self.network.charge_entries(
                len(response.entries),
                sum(e.estimated_size() for e in response.entries),
            )
            self.network.charge_referrals(len(response.referrals))

            for entry in response.entries:
                if entry.dn not in seen_entry_dns:
                    seen_entry_dns.add(entry.dn)
                    result.entries.append(entry)

            for referral in response.referrals:
                if response.code is ResultCode.REFERRAL and referral.target == current.base:
                    # Superior referral: same request, different server.
                    pending.append((referral.url, current))
                else:
                    # Continuation reference: modified base.
                    pending.append((referral.url, current.with_base(referral.target)))

        return result
