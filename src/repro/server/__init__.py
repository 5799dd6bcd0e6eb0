"""Directory server substrate: backends, servers, partitioning, network.

Simulated LDAP servers implementing the functional model of §2.2 and
the distributed directory model of §2.3, joined by a message-counting
network so experiments can measure round trips and transferred entries.
"""

from .backend import EntryStore
from .client import ChasedResult, LdapClient, ReferralLimitExceeded
from .directory import DirectoryServer, NamingContext, UpdateListener
from .faults import ExchangeFaults, FaultPlan, FaultSpec, FaultyNetwork
from .network import (
    Delivery,
    NetworkPartitioned,
    OperationTimeout,
    RequestDropped,
    ResponseDropped,
    ResponseTruncated,
    ServerUnavailable,
    SimulatedNetwork,
    TrafficCounts,
    TrafficStats,
    TransportError,
)
from .operations import (
    LdapError,
    Modification,
    ModType,
    Referral,
    ResultCode,
    SearchResult,
    UpdateOp,
    UpdateRecord,
)
from .partition import DistributedDirectory, make_referral_entry
from .planner import SearchPlan, SearchPlanner
from .scheduler import DeterministicScheduler, ScheduledEvent

__all__ = [
    "EntryStore",
    "SearchPlan",
    "SearchPlanner",
    "DeterministicScheduler",
    "ScheduledEvent",
    "DirectoryServer",
    "NamingContext",
    "UpdateListener",
    "LdapClient",
    "ChasedResult",
    "ReferralLimitExceeded",
    "SimulatedNetwork",
    "TrafficStats",
    "TrafficCounts",
    "Delivery",
    "TransportError",
    "RequestDropped",
    "ResponseDropped",
    "ResponseTruncated",
    "ServerUnavailable",
    "NetworkPartitioned",
    "OperationTimeout",
    "FaultSpec",
    "FaultPlan",
    "ExchangeFaults",
    "FaultyNetwork",
    "DistributedDirectory",
    "make_referral_entry",
    "LdapError",
    "ResultCode",
    "Modification",
    "ModType",
    "UpdateOp",
    "UpdateRecord",
    "Referral",
    "SearchResult",
]
