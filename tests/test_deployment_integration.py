"""Full-deployment integration: clients → replica frontend → master.

Exercises the whole stack the way a deployment would be wired: a
central master, a branch filter replica published on the network, a
referral-chasing client issuing the faithful workload through
connections, with ReSync polling keeping the branch fresh under a
concurrent update stream.
"""

import pytest

from repro.core import FilterReplica, ReplicaFrontend
from repro.ldap import Scope, SearchRequest
from repro.server import DirectoryServer, LdapClient, SimulatedNetwork
from repro.sync import ResyncProvider
from repro.workload import (
    DirectoryConfig,
    QueryType,
    WorkloadConfig,
    WorkloadGenerator,
    generate_directory,
)
from repro.workload.updates import UpdateGenerator


@pytest.fixture(scope="module")
def deployment():
    directory = generate_directory(DirectoryConfig(employees=800, seed=77))
    network = SimulatedNetwork(round_trip_latency_ms=10.0)

    master = DirectoryServer("master")
    master.add_naming_context(directory.suffix)
    master.load(directory.entries)
    network.register(master)

    provider = ResyncProvider(master)
    replica = FilterReplica("branch", master_url="ldap://master", cache_capacity=30)
    trace = WorkloadGenerator(directory, WorkloadConfig(seed=9)).generate(1200, days=2)
    # replicate day-1 hot blocks + the location tree
    counts = {}
    for record in trace.day(1).of_type(QueryType.SERIAL):
        value = str(record.request.filter)[len("(serialNumber=") : -1]
        counts[(value[:4], value[6:])] = counts.get((value[:4], value[6:]), 0) + 1
    for block, cc in sorted(counts, key=counts.get, reverse=True)[:10]:
        replica.add_filter(
            SearchRequest("", Scope.SUB, f"(serialNumber={block}*{cc})"), provider
        )
    replica.add_filter(SearchRequest("", Scope.SUB, "(objectClass=location)"), provider)
    network.register(ReplicaFrontend("branch", replica))
    return directory, network, master, provider, replica, trace


class TestDeployment:
    def test_every_query_completes_through_the_replica(self, deployment):
        directory, network, master, provider, replica, trace = deployment
        client = LdapClient(network)
        incomplete = 0
        for record in trace.day(2)[:300]:
            result = client.search("ldap://branch", record.request)
            if not result.complete:
                incomplete += 1
        assert incomplete == 0

    def test_results_match_master_ground_truth(self, deployment):
        directory, network, master, provider, replica, trace = deployment
        client = LdapClient(network)
        for record in trace.day(2)[:150]:
            result = client.search("ldap://branch", record.request)
            truth = master.search(record.request).entries
            assert {str(e.dn) for e in result.entries} == {
                str(e.dn) for e in truth
            }, str(record.request)

    def test_hits_save_round_trips(self, deployment):
        directory, network, master, provider, replica, trace = deployment
        client = LdapClient(network)
        trips = []
        for record in trace.day(2)[:300]:
            result = client.search("ldap://branch", record.request)
            trips.append(result.round_trips)
        assert min(trips) == 1  # some local hits
        assert max(trips) == 2  # misses chased once to the master
        assert sum(1 for t in trips if t == 1) > 100

    def test_stays_consistent_under_updates(self, deployment):
        directory, network, master, provider, replica, trace = deployment
        updates = UpdateGenerator(directory, master)
        client = LdapClient(network)
        for round_number in range(5):
            updates.apply(40)
            replica.sync(provider)
            for stored in replica.stored_filters():
                assert stored.content.matches_master(master)
        # and queried through the frontend, answers still match
        for record in trace.day(2).of_type(QueryType.SERIAL)[:60]:
            result = client.search("ldap://branch", record.request)
            truth = master.search(record.request).entries
            assert {str(e.dn) for e in result.entries} == {str(e.dn) for e in truth}

    def test_a_client_search_at_the_master_end_to_end(self, deployment):
        """A client search is one hop charged to the ledger; only a
        persist subscription counts as a connection (§5.2)."""
        directory, network, master, provider, replica, trace = deployment
        record = trace.day(2)[0]
        before = network.stats.snapshot()
        result = LdapClient(network).search("ldap://master", record.request)
        moved = network.stats - before
        assert len(result.entries) >= 1
        assert moved.round_trips == 1
        assert moved.entry_pdus == len(result.entries)
        assert network.open_connections == 0
