"""Every system object the end-to-end benchmark drives is built here.

The rest of the benchmark never names a constructor of ``repro``; it
calls the public entry points of the objects this module returns.  So a
change that removes an optimisation's off-switch (``routing=``,
``amq=``, ``pipelined=``, ``wire_accurate=``, ``health=None``) or moves
a class between modules is absorbed here, and the benchmark always
measures the production path: :func:`production` passes a keyword only
while the constructor still accepts it.

Imports come from the package namespaces only.  The one exception is
``repro.workload.updates``, which ``repro.workload`` does not re-export.
"""

from __future__ import annotations

import inspect
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.core import (
    query_contained_in,
    FilterReplica,
    FilterSelector,
    Generalizer,
    IdentityGeneralization,
    PrefixSuffixGeneralization,
    ReplicaFrontend,
    SuffixGeneralization,
)
from repro.ldap import DEFAULT_REGISTRY, Scope, SearchRequest
from repro.server import (
    DirectoryServer,
    FaultPlan,
    FaultSpec,
    FaultyNetwork,
    LdapClient,
    LdapError,
    Modification,
    SimulatedNetwork,
)
from repro.sync import (
    DurabilityConfig,
    HealthPolicy,
    MemoryJournal,
    MemorySnapshotStore,
    ResilientConsumer,
    ResyncProvider,
    RetryPolicy,
    SyncedContent,
)
from repro.workload import (
    DirectoryConfig,
    EnterpriseDirectory,
    WorkloadConfig,
    WorkloadGenerator,
    generate_directory,
)
from repro.workload.updates import UpdateConfig, UpdateGenerator

DEPT_TEMPLATE = "(&(departmentnumber=_)(divisionnumber=_)(objectclass=department))"
SERIAL_BLOCK = PrefixSuffixGeneralization("serialNumber", 4, 2)
SERIAL_SUBBLOCK = PrefixSuffixGeneralization("serialNumber", 5, 2)
DEPARTMENT = IdentityGeneralization(DEPT_TEMPLATE)
MAIL_DOMAIN = SuffixGeneralization("mail")
MAIL_EXACT = IdentityGeneralization("(mail=_)")

#: Virtual milliseconds a persist consumer takes to apply one batch.
CONSUMER_DELAY_MS = 0.05


def production(ctor: Callable, **wanted) -> Dict[str, object]:
    """The keywords of *wanted* that *ctor* still accepts."""
    accepted = inspect.signature(ctor).parameters
    return {name: value for name, value in wanted.items() if name in accepted}


# ----------------------------------------------------------------------
# inputs (repro.workload only; generated before any clock starts)
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    """What the program is given: entries, queries and update seeds."""

    seed: int
    directory: EnterpriseDirectory
    train: List[SearchRequest] = field(default_factory=list)
    queries: List[SearchRequest] = field(default_factory=list)
    #: stored filters chosen from the training day (read workloads)
    filters: List[SearchRequest] = field(default_factory=list)
    #: per-replica / per-session requests (fleet workloads)
    requests: List[SearchRequest] = field(default_factory=list)

    @property
    def persons(self) -> int:
        return self.directory.employee_count


def make_inputs(seed: int, employees: int, train: int = 0, queries: int = 0) -> Inputs:
    """Directory plus a two-day Table-1 trace: *train* queries of day 1
    and *queries* of day 2, from one generator so both days share the
    popularity distributions."""
    directory = generate_directory(DirectoryConfig(employees=employees, seed=seed))
    inputs = Inputs(seed=seed, directory=directory)
    if train or queries:
        generator = WorkloadGenerator(directory, WorkloadConfig(seed=seed + 1))
        inputs.train = [r.request for r in generator.generate(train, days=1)]
        inputs.queries = [r.request for r in generator.generate(queries, days=1)]
    return inputs


def update_generator(inputs: Inputs, master: DirectoryServer) -> UpdateGenerator:
    """The default update mix (modify, dept-change, hire, leave,
    modifyDN), seeded from the run seed."""
    return UpdateGenerator(
        inputs.directory, master, UpdateConfig(seed=inputs.seed + 2)
    )


def candidate_hits(
    train: Sequence[SearchRequest], rules: Sequence[object]
) -> List[SearchRequest]:
    """Generalized candidates of the training day, most-hit first (ties
    broken by text so the order does not depend on hash seeds)."""
    generalizer = Generalizer(rules)
    hits: Counter = Counter()
    for request in train:
        hits.update(generalizer.generalize(request))
    return sorted(hits, key=lambda c: (-hits[c], str(c)))


def size_estimator(master: DirectoryServer) -> Callable[[SearchRequest], int]:
    return lambda request: len(master.search(request).entries)


def static_selection(inputs: Inputs, budget_entries: int) -> List[SearchRequest]:
    """One benefit/size revolution over the training day (§6.2), run on
    a scratch master: the filter list a static deployment installs."""
    scratch = build_master(inputs)
    selector = FilterSelector(
        FilterReplica("trainer"),
        Generalizer([SERIAL_BLOCK, DEPARTMENT, MAIL_DOMAIN]),
        size_estimator(scratch),
        budget_entries=budget_entries,
        revolution_interval=len(inputs.train) + 1,
    )
    for request in inputs.train:
        selector.observe(request)
    return list(selector.revolution().installed)


def wide_selection(inputs: Inputs, stored: int) -> List[SearchRequest]:
    """*stored* fine-grained filters: the hottest serialNumber
    sub-blocks, every department query seen, and single-address mail
    filters for the rest."""
    sub_blocks = candidate_hits(inputs.train, [SERIAL_SUBBLOCK])[: stored // 20]
    departments = candidate_hits(inputs.train, [DEPARTMENT])
    mails = candidate_hits(inputs.train, [MAIL_EXACT])
    return (sub_blocks + departments + mails)[:stored]


def fleet_requests(inputs: Inputs, sessions: int) -> List[SearchRequest]:
    """Overlapping block / department / country filters, one a session."""
    directory = inputs.directory
    rng = random.Random(f"fleet:{inputs.seed}")
    blocks = [
        SearchRequest("", Scope.SUB, f"(serialNumber={block}*{cc.upper()})")
        for cc in directory.countries()
        for block in directory.blocks_by_country[cc]
    ]
    departments = [
        SearchRequest(
            "",
            Scope.SUB,
            f"(&(objectClass=person)(departmentNumber={d.first('departmentNumber')}))",
        )
        for d in directory.departments
    ]
    countries = [country_request(directory, cc) for cc in directory.countries()]
    requests = []
    for i in range(sessions):
        if i % 50 == 0:
            requests.append(countries[(i // 50) % len(countries)])
        else:
            requests.append(rng.choice(blocks if i % 2 else departments))
    return requests


def country_request(directory: EnterpriseDirectory, cc: str) -> SearchRequest:
    return SearchRequest(
        f"c={cc},{directory.suffix}", Scope.SUB, "(objectClass=person)"
    )


# ----------------------------------------------------------------------
# system objects
# ----------------------------------------------------------------------
def build_master(inputs: Inputs) -> DirectoryServer:
    master = DirectoryServer("master")
    master.add_naming_context(inputs.directory.suffix)
    master.load(inputs.directory.entries)
    return master


def build_network(inputs: Inputs, faults: Optional[FaultSpec] = None):
    """The pipelined transport; fault-injecting when *faults* is given."""
    kwargs = production(SimulatedNetwork, pipelined=True, seed=inputs.seed + 3)
    if faults is None:
        return SimulatedNetwork(**kwargs)
    return FaultyNetwork(FaultPlan(faults, seed=inputs.seed + 4), **kwargs)


@dataclass
class ReadSystem:
    """A branch replica behind a frontend, a master, one client."""

    master: DirectoryServer
    provider: ResyncProvider
    network: SimulatedNetwork
    replica: FilterReplica
    client: LdapClient
    url: str
    updates: UpdateGenerator


def build_read_system(inputs: Inputs, cache_capacity: int) -> ReadSystem:
    master = build_master(inputs)
    provider = ResyncProvider(master)
    network = build_network(inputs)
    replica = FilterReplica("branch", network=network, cache_capacity=cache_capacity)
    for request in inputs.filters:
        replica.add_filter(request, provider)
    frontend = ReplicaFrontend("branch", replica)
    network.register(master)
    network.register(frontend)
    return ReadSystem(
        master=master,
        provider=provider,
        network=network,
        replica=replica,
        client=LdapClient(network),
        url=frontend.url,
        updates=update_generator(inputs, master),
    )


def warm_cache(system: ReadSystem, inputs: Inputs) -> None:
    """Fill the recent-query window from the training day's misses."""
    replica, master = system.replica, system.master
    wanted = replica.cache.capacity
    for request in inputs.train:
        if len(replica.cache) >= wanted:
            break
        if not replica.answer(request).is_hit:
            replica.observe_miss(request, master.search(request).entries)


def held_by_stored_filter(replica: FilterReplica, request: SearchRequest) -> bool:
    """Whether a stored filter (not the recent-query window, whose
    entries are never refreshed) can answer *request*.  Passing the
    registry takes the unmemoized path, so a verification call leaves
    the process-wide QC memo as the timed loop made it."""
    return any(
        query_contained_in(request, stored.request, DEFAULT_REGISTRY)
        for stored in replica.stored_filters()
    )


@dataclass
class PersistFleet:
    """A master, one provider and N live persist sessions."""

    master: DirectoryServer
    provider: ResyncProvider
    network: SimulatedNetwork
    contents: List[SyncedContent]
    updates: UpdateGenerator
    #: called after each notification a consumer applied (lag stamps)
    on_deliver: Optional[Callable[[object], None]] = None


def build_persist_fleet(inputs: Inputs) -> PersistFleet:
    master = build_master(inputs)
    network = build_network(inputs)
    network.register(master)
    fleet = PersistFleet(
        master=master,
        provider=ResyncProvider(master),
        network=network,
        contents=[],
        updates=update_generator(inputs, master),
    )

    def deliver_to(content: SyncedContent) -> Callable[[object], None]:
        apply = content.apply_notification

        def deliver(update) -> None:
            apply(update)
            if fleet.on_deliver is not None:
                fleet.on_deliver(update)

        return deliver

    for request in inputs.requests:
        content = SyncedContent(request, network=network)
        deliveries, handle = network.persist_exchange(
            fleet.provider, request, deliver_to(content)
        )
        content.apply(deliveries[-1].response)
        queue = getattr(handle, "delivery_queue", None)
        if queue is not None:
            queue.consumer_delay_ms = CONSUMER_DELAY_MS
        fleet.contents.append(content)
    return fleet


@dataclass
class PollReplica:
    replica: FilterReplica
    selector: FilterSelector
    url: str


@dataclass
class PollFleet:
    """N selector-managed filter replicas polling one provider."""

    master: DirectoryServer
    provider: ResyncProvider
    network: SimulatedNetwork
    replicas: List[PollReplica]
    client: LdapClient
    updates: UpdateGenerator


def build_poll_fleet(
    inputs: Inputs,
    replicas: int,
    filters_each: int,
    budget_entries: int,
    revolution_interval: int,
) -> PollFleet:
    master = build_master(inputs)
    provider = ResyncProvider(master)
    network = build_network(inputs)
    network.register(master)
    estimate = size_estimator(master)
    hot = inputs.filters
    fleet = []
    for r in range(replicas):
        # No recent-query window: every hit comes from synchronized
        # content, so a hit on a freshly polled replica is checkable.
        replica = FilterReplica(f"branch{r}", network=network)
        # Neighbouring replicas start from overlapping slices of the
        # hot list; their selectors take it from there.
        for k in range(filters_each):
            replica.add_filter(hot[(r * filters_each // 4 + k) % len(hot)], provider)
        selector = FilterSelector(
            replica,
            Generalizer([SERIAL_BLOCK, DEPARTMENT]),
            estimate,
            budget_entries=budget_entries,
            revolution_interval=revolution_interval,
            provider=provider,
        )
        # Selectors count down to their revolutions from different
        # starting points, so the fleet's revolutions spread over the
        # run instead of all falling due within the same few queries.
        for request in inputs.train[: r * revolution_interval // replicas]:
            selector.observe(request)
        frontend = ReplicaFrontend(replica.name, replica)
        network.register(frontend)
        fleet.append(PollReplica(replica, selector, frontend.url))
    return PollFleet(
        master=master,
        provider=provider,
        network=network,
        replicas=fleet,
        client=LdapClient(network),
        updates=update_generator(inputs, master),
    )


#: Low-rate message-level noise under the recovery ladder.
NOISE = FaultSpec(
    drop_request=0.01, drop_response=0.01, duplicate=0.01, delay=0.01
)
#: Pending-history cap of the durable provider: above the bursts the
#: workload applies between polls, below its history-overflow event.
HISTORY_CAP = 16
#: Successful sync cycles between a consumer's content dumps: a restart
#: finds a snapshot a few cycles old, as a deployment that does not pay
#: a full dump on every poll would.
SNAPSHOT_INTERVAL = 4
#: No periodic persist refresh: the noise above drops no notification,
#: so the only full reloads are the ones the failures themselves cause
#: (with the default of 8 cycles, whether a refresh storm falls between
#: two provider crashes depends on the seed's event order).
RETRY = RetryPolicy(
    max_attempts=6, base_backoff_ms=10.0, max_backoff_ms=500.0, persist_refresh_interval=10_000
)
HEALTH = HealthPolicy(max_total_attempts=100_000, max_total_backoff_ms=1e12)


@dataclass
class RecoveryFleet:
    """A durable provider and resilient consumers on a noisy network."""

    inputs: Inputs
    master: DirectoryServer
    provider: ResyncProvider
    network: FaultyNetwork
    consumers: List[ResilientConsumer]
    stores: List[MemorySnapshotStore]
    updates: UpdateGenerator

    def restart_consumer(self, index: int, warm: bool) -> ResilientConsumer:
        """Replace consumer *index* (closed by the caller when it went
        down) with a fresh process image: from its snapshot store when
        *warm*, from nothing otherwise."""
        if not warm:
            self.stores[index] = MemorySnapshotStore()
        consumer = build_consumer(self, index)
        self.consumers[index] = consumer
        return consumer

    def crash_provider(self) -> None:
        """Provider process dies and recovers from its journal."""
        self.network.crash(self.provider)

    def diverge(self, index: int, count: int, tag: str) -> int:
        """Modify *count* entries of consumer *index*'s content at the
        master; returns how many were modified."""
        dns = sorted(self.consumers[index].content.entries, key=str)
        rng = random.Random(f"diverge:{self.inputs.seed}:{tag}")
        modified = 0
        for n, dn in enumerate(rng.sample(dns, min(count, len(dns)))):
            try:
                self.master.modify(
                    dn, [Modification.replace("telephoneNumber", f"{tag}-{n}")]
                )
            except LdapError:
                continue  # the consumer's copy was behind: the entry is gone
            modified += 1
        return modified


def build_consumer(fleet: RecoveryFleet, index: int) -> ResilientConsumer:
    return ResilientConsumer(
        fleet.inputs.requests[index],
        fleet.provider,
        network=fleet.network,
        policy=RETRY,
        seed=fleet.inputs.seed * 1000 + index,
        mode="poll" if index % 2 == 0 else "persist",
        snapshot_store=fleet.stores[index],
        snapshot_interval=SNAPSHOT_INTERVAL,
        name=f"consumer-{index}",
        **production(ResilientConsumer, health=HEALTH),
    )


def build_recovery_fleet(inputs: Inputs) -> RecoveryFleet:
    master = build_master(inputs)
    provider = ResyncProvider(
        master,
        durability=DurabilityConfig(history_max_entries=HISTORY_CAP),
        journal=MemoryJournal(),
    )
    network = build_network(inputs, faults=NOISE)
    network.register(master)
    fleet = RecoveryFleet(
        inputs=inputs,
        master=master,
        provider=provider,
        network=network,
        consumers=[],
        stores=[MemorySnapshotStore() for _ in inputs.requests],
        updates=update_generator(inputs, master),
    )
    for index in range(len(inputs.requests)):
        fleet.consumers.append(build_consumer(fleet, index))
    return fleet


def recovery_requests(inputs: Inputs, consumers: int) -> List[SearchRequest]:
    """Country person subtrees, largest first, two consumers a country
    (one polls, one persists)."""
    directory = inputs.directory
    by_size = sorted(
        directory.countries(),
        key=lambda cc: (-len(directory.employees_by_country[cc]), cc),
    )
    return [
        country_request(directory, by_size[(i // 2) % len(by_size)])
        for i in range(consumers)
    ]


def invalidate_cookie(fleet: RecoveryFleet, index: int) -> None:
    """The admin time limit fires on consumer *index*'s poll session."""
    cookie = fleet.consumers[index].content.cookie
    if cookie is not None:
        fleet.provider.invalidate_cookie(cookie)


class RecoveryTiers:
    """Which rung of the recovery ladder an event ended on, read from
    the consumers' public counters around the event."""

    NAMES = {
        "rebuild": "sync.resilient.reloads",
        "sketch": "sync.reconcile.decode_success",
        "snapshot": "sync.snapshot.warm_starts",
    }

    def __init__(self, fleet: RecoveryFleet):
        registry = fleet.network.registry
        self._counters = {tier: registry.counter(name) for tier, name in self.NAMES.items()}
        self._marked: Dict[str, float] = {}

    def mark(self) -> None:
        self._marked = {tier: c.value for tier, c in self._counters.items()}

    def reached(self) -> str:
        """The most expensive rung climbed since :meth:`mark`; a plain
        cookie resume moves none of the counters."""
        for tier, counter in self._counters.items():
            if counter.value > self._marked[tier]:
                return tier
        return "resume"
