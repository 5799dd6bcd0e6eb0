"""Building distributed directories: partitioning a DIT across servers.

§2.3: a directory is partitioned into naming contexts held by different
servers, glued together by referral objects (subordinate references) and
default referrals (superior references).  :class:`DistributedDirectory`
wires servers, contexts and glue entries onto one simulated network so
tests, examples and benchmarks can rebuild topologies like Figure 2 in
a few lines::

    dist = DistributedDirectory(network)
    host_a = dist.add_server("hostA", "o=xyz")
    host_b = dist.add_server("hostB", "ou=research,c=us,o=xyz",
                             default_referral="ldap://hostA")
    host_c = dist.add_server("hostC", "c=in,o=xyz",
                             default_referral="ldap://hostA")
    dist.add_referral("hostA", "ou=research,c=us,o=xyz", "hostB")
    dist.add_referral("hostA", "c=in,o=xyz", "hostC")
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Union

from ..ldap.dn import DN
from ..ldap.entry import Entry
from .backend import REFERRAL_CLASS
from .directory import DirectoryServer
from .network import SimulatedNetwork

__all__ = ["DistributedDirectory", "make_referral_entry"]


def make_referral_entry(dn: Union[DN, str], target_url: str) -> Entry:
    """Build a referral object (objectClass ``referral`` + ``ref`` URL)."""
    return Entry(dn, {"objectClass": [REFERRAL_CLASS, "top"], "ref": target_url})


class DistributedDirectory:
    """A set of servers jointly serving one DIT over a simulated network."""

    def __init__(self, network: Optional[SimulatedNetwork] = None):
        self.network = network if network is not None else SimulatedNetwork()
        self._servers: Dict[str, DirectoryServer] = {}

    # ------------------------------------------------------------------
    # topology construction
    # ------------------------------------------------------------------
    def add_server(
        self,
        name: str,
        *suffixes: Union[DN, str],
        default_referral: Optional[str] = None,
    ) -> DirectoryServer:
        """Create a server holding naming contexts at *suffixes*."""
        if name in self._servers:
            raise ValueError(f"server {name!r} already exists")
        server = DirectoryServer(name, default_referral=default_referral)
        for suffix in suffixes:
            server.add_naming_context(suffix)
        self._servers[name] = server
        self.network.register(server)
        return server

    def server(self, name: str) -> DirectoryServer:
        """The server named *name*."""
        return self._servers[name]

    @property
    def servers(self) -> List[DirectoryServer]:
        return list(self._servers.values())

    def add_referral(
        self,
        holding_server: str,
        at_dn: Union[DN, str],
        target_server: str,
    ) -> Entry:
        """Insert a subordinate-reference glue entry.

        The *holding_server* gets a referral object at *at_dn* pointing
        to *target_server* (which should hold a naming context rooted
        there).
        """
        holder = self._servers[holding_server]
        target = self._servers[target_server]
        glue = make_referral_entry(at_dn, target.url)
        holder.add(glue)
        return glue

    # ------------------------------------------------------------------
    # loading and inspection
    # ------------------------------------------------------------------
    def load_partitioned(self, entries: Iterable[Entry]) -> Dict[str, int]:
        """Distribute *entries* to the servers holding their contexts.

        Each entry goes to the server whose (most specific) naming
        context contains its DN, skipping DNs that sit below another
        server's referral glue on that server.  Returns per-server load
        counts.  A server refuses its share, and nothing is stored, when
        two of its entries hold one value of a unique attribute
        (:meth:`DirectoryServer.refuse_duplicate_keys`).
        """
        placed: Dict[str, Dict[DN, Entry]] = {name: {} for name in self._servers}
        ordered = sorted(entries, key=lambda e: len(e.dn))
        for entry in ordered:
            best_server: Optional[DirectoryServer] = None
            best_depth = -1
            for server in self._servers.values():
                context = server.context_for(entry.dn)
                if context is not None and len(context.suffix) > best_depth:
                    best_server = server
                    best_depth = len(context.suffix)
            if best_server is None:
                raise ValueError(f"no server holds a context for {entry.dn}")
            batch = placed[best_server.name]
            if entry.dn in best_server.store or entry.dn in batch:
                continue  # referral glue already placed there, or a repeated DN
            batch[entry.dn] = entry
        for name, batch in placed.items():
            self._servers[name].refuse_duplicate_keys(list(batch.values()))
        for name, batch in placed.items():
            store = self._servers[name].store
            for entry in batch.values():
                store.put(entry.copy())
        return {name: len(batch) for name, batch in placed.items()}

    def total_entries(self) -> int:
        """Entries across all servers (glue referral objects included)."""
        return sum(len(s.store) for s in self._servers.values())
