"""Client connections: bind / unbind / abandon (§2.2).

LDAP's third operation group is connect/disconnect: a client **binds**
to a server (possibly anonymously), issues operations over the open
connection, may **abandon** outstanding operations (the paper's Figure
3 ends a persistent search this way), and **unbinds**.

The simulation models connections explicitly because §5.2's scaling
argument is about them: persistent search "requires a TCP connection
per replicated filter which might not scale for large replicas".  The
:class:`~repro.server.network.SimulatedNetwork` counts open
connections so the persist-vs-poll ablation can measure exactly that.

Authentication is simple-bind against the entry's ``userPassword``
attribute; servers accept anonymous binds by default (directories are
read-mostly public infrastructure) and can require authentication for
updates.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Sequence, Union

from ..ldap.dn import DN
from ..ldap.entry import Entry
from ..ldap.query import SearchRequest
from .directory import DirectoryServer
from .operations import LdapError, Modification, ResultCode, SearchResult, UpdateRecord

__all__ = [
    "BindState",
    "Connection",
    "ConnectionError_",
    "connect",
]


class BindState(enum.Enum):
    ANONYMOUS = "anonymous"
    BOUND = "bound"
    CLOSED = "closed"


class ConnectionError_(Exception):
    """Operation attempted on a closed connection."""


class Connection:
    """One client connection to one directory server.

    Created via :func:`connect` (which registers it with the network's
    connection accounting) or directly for tests.
    """

    def __init__(self, server: DirectoryServer, network=None):
        self.server = server
        self.network = network
        self.state = BindState.ANONYMOUS
        self.bound_dn: Optional[DN] = None
        self._persist_handles: List[object] = []
        if network is not None:
            network.connection_opened(self)

    # ------------------------------------------------------------------
    # connect / disconnect operations
    # ------------------------------------------------------------------
    def bind(self, dn: Union[DN, str, None] = None, password: Optional[str] = None) -> None:
        """Simple bind.  ``dn=None`` (re)binds anonymously.

        Raises :class:`~repro.server.operations.LdapError` with
        ``INVALID_CREDENTIALS``-like semantics (we reuse
        ``UNWILLING_TO_PERFORM``'s neighbour ``OPERATIONS_ERROR`` is
        wrong; RFC 2251's code 49 is modelled as a dedicated check) on
        a wrong password or unknown DN.
        """
        self._check_open()
        if dn is None:
            self.state = BindState.ANONYMOUS
            self.bound_dn = None
            return
        target = dn if isinstance(dn, DN) else DN.parse(dn)
        entry = self.server.store.get(target)
        if entry is None:
            raise LdapError(ResultCode.NO_SUCH_OBJECT, f"bind DN {target}")
        stored = entry.get("userPassword")
        if stored and password not in stored:
            raise LdapError(ResultCode.UNWILLING_TO_PERFORM, "invalid credentials")
        if not stored and password:
            raise LdapError(ResultCode.UNWILLING_TO_PERFORM, "entry has no password")
        self.state = BindState.BOUND
        self.bound_dn = target

    def unbind(self) -> None:
        """Close the connection; outstanding persistent searches end."""
        if self.state is BindState.CLOSED:
            return
        for handle in self._persist_handles:
            abandon = getattr(handle, "abandon", None)
            if abandon is not None:
                abandon()
        self._persist_handles.clear()
        self.state = BindState.CLOSED
        self.bound_dn = None
        if self.network is not None:
            self.network.connection_closed(self)

    def drop(self) -> None:
        """The server side died (crash window): the connection closes
        under the client, without an unbind exchange.

        Outstanding persistent searches are abandoned locally — their
        server-side sessions died with the server — and the network's
        open-connection accounting is decremented exactly once, so a
        crash never leaks ``net.connections.open``.  Idempotent, like
        :meth:`unbind`.
        """
        self.unbind()

    def abandon_all(self) -> None:
        """Abandon outstanding (persistent) operations, keep the
        connection open."""
        self._check_open()
        for handle in self._persist_handles:
            abandon = getattr(handle, "abandon", None)
            if abandon is not None:
                abandon()
        self._persist_handles.clear()

    def track_persist(self, handle: object) -> None:
        """Register a persistent-search handle with this connection."""
        self._check_open()
        self._persist_handles.append(handle)

    @property
    def outstanding_persists(self) -> int:
        return len(self._persist_handles)

    # ------------------------------------------------------------------
    # operations over the connection
    # ------------------------------------------------------------------
    def search(self, request: SearchRequest, controls: Sequence[object] = ()) -> SearchResult:
        self._check_open()
        if self.network is not None:
            self.network.charge_round_trip()
        result = self.server.search(request, controls=controls)
        if self.network is not None:
            self.network.charge_entries(
                len(result.entries),
                sum(e.estimated_size() for e in result.entries),
            )
            self.network.charge_referrals(len(result.referrals))
        return result

    def add(self, entry: Entry) -> UpdateRecord:
        self._check_open()
        self._check_authorized()
        if self.network is not None:
            self.network.charge_round_trip()
        return self.server.add(entry)

    def modify(self, dn: Union[DN, str], modifications: Sequence[Modification]) -> UpdateRecord:
        self._check_open()
        self._check_authorized()
        if self.network is not None:
            self.network.charge_round_trip()
        return self.server.modify(dn, modifications)

    def delete(self, dn: Union[DN, str]) -> UpdateRecord:
        self._check_open()
        self._check_authorized()
        if self.network is not None:
            self.network.charge_round_trip()
        return self.server.delete(dn)

    def modify_dn(
        self,
        dn: Union[DN, str],
        new_rdn: Optional[str] = None,
        new_superior: Optional[Union[DN, str]] = None,
    ) -> List[UpdateRecord]:
        self._check_open()
        self._check_authorized()
        if self.network is not None:
            self.network.charge_round_trip()
        return self.server.modify_dn(dn, new_rdn=new_rdn, new_superior=new_superior)

    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self.state is BindState.CLOSED:
            raise ConnectionError_("operation on a closed connection")

    def _check_authorized(self) -> None:
        if self.server.updates_require_bind and self.state is not BindState.BOUND:
            raise LdapError(
                ResultCode.UNWILLING_TO_PERFORM, "updates require an authenticated bind"
            )

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.unbind()


def connect(network, url: str) -> Connection:
    """Open a connection to the server at *url* over *network*."""
    server = network.resolve(url)
    return Connection(server, network=network)
