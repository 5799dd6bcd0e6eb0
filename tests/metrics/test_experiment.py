"""Tests for the experiment driver."""

import pytest

from repro.core import (
    FilterReplica,
    FilterSelector,
    Generalizer,
    PrefixSuffixGeneralization,
    SubtreeReplica,
)
from repro.ldap import Scope, SearchRequest
from repro.metrics import ReplicaDriver
from repro.server import DirectoryServer, SimulatedNetwork
from repro.sync import ResyncProvider
from repro.workload import WorkloadConfig, WorkloadGenerator
from repro.workload.updates import UpdateGenerator


@pytest.fixture()
def setup(small_directory):
    master = DirectoryServer("master")
    master.add_naming_context(small_directory.suffix)
    master.load(small_directory.entries)
    provider = ResyncProvider(master)
    trace = WorkloadGenerator(small_directory, WorkloadConfig(seed=21)).generate(400)
    return small_directory, master, provider, trace


class TestBasicRun:
    def test_counts_add_up(self, setup):
        directory, master, provider, trace = setup
        net = SimulatedNetwork()
        replica = FilterReplica("branch", network=net, cache_capacity=20)
        driver = ReplicaDriver(master, replica, provider=provider, sync_interval=100)
        result = driver.run(trace)
        assert result.queries == len(trace)
        assert result.hits + result.partials + result.misses == result.queries
        assert 0.0 <= result.hit_ratio <= 1.0

    def test_hit_ratio_by_type_complete(self, setup):
        directory, master, provider, trace = setup
        replica = FilterReplica("branch", network=SimulatedNetwork())
        result = ReplicaDriver(master, replica, provider=provider).run(trace)
        assert set(result.hit_ratio_by_type) == {
            r.qtype.value for r in trace
        }

    def test_stored_filter_improves_hit_ratio(self, setup):
        directory, master, provider, trace = setup
        empty = FilterReplica("empty", network=SimulatedNetwork())
        base = ReplicaDriver(master, empty, provider=provider).run(trace)

        loaded = FilterReplica("loaded", network=SimulatedNetwork())
        for cc in directory.geography_countries("AP"):
            for block in directory.blocks_by_country[cc]:
                loaded.add_filter(
                    SearchRequest("", Scope.SUB, f"(serialNumber={block}*{cc.upper()})"),
                    provider,
                )
        rich = ReplicaDriver(master, loaded, provider=provider).run(trace)
        assert rich.hit_ratio > base.hit_ratio
        assert rich.hit_ratio_by_type["serialNumber"] > 0.5

    def test_cache_feeding_raises_hits(self, setup):
        directory, master, provider, trace = setup
        cached = FilterReplica("cached", network=SimulatedNetwork(), cache_capacity=50)
        result = ReplicaDriver(master, cached, provider=provider).run(trace)
        uncached = FilterReplica("uncached", network=SimulatedNetwork())
        base = ReplicaDriver(master, uncached, provider=provider).run(trace)
        assert result.hit_ratio > base.hit_ratio

    def test_a_miss_feeds_the_recent_query_cache(self, setup):
        """With no stored filter, every hit is a repeat answered from the
        master's answer to an earlier miss."""
        directory, master, provider, trace = setup
        replica = FilterReplica("r", network=SimulatedNetwork(), cache_capacity=50)
        result = ReplicaDriver(master, replica, provider=provider).run(trace)
        assert result.hits > 0
        assert len(replica.cache) > 0

    def test_a_replica_without_a_cache_is_not_fed(self, setup):
        directory, master, provider, trace = setup
        replica = FilterReplica("r", network=SimulatedNetwork())
        result = ReplicaDriver(master, replica, provider=provider).run(trace)
        assert result.hits == 0
        assert result.misses + result.partials == result.queries


class TestSubtreeRuns:
    def test_scoped_queries_hit_subtree_replica(self, setup):
        directory, master, provider, trace = setup
        replica = SubtreeReplica("branch", network=SimulatedNetwork())
        for cc in directory.geography_countries("AP"):
            replica.add_context(f"c={cc},o=xyz")
        replica.sync(provider)
        result = ReplicaDriver(
            master, replica, provider=provider, use_scoped=True
        ).run(trace)
        assert result.hit_ratio > 0.3

    def test_root_queries_never_hit_subtree_replica(self, setup):
        directory, master, provider, trace = setup
        replica = SubtreeReplica("branch", network=SimulatedNetwork())
        for cc in directory.geography_countries("AP"):
            replica.add_context(f"c={cc},o=xyz")
        replica.sync(provider)
        result = ReplicaDriver(master, replica, provider=provider).run(trace)
        assert result.hits == 0  # §3.1.1


class TestUpdateTraffic:
    def test_sync_traffic_measured(self, setup):
        directory, master, provider, trace = setup
        net = SimulatedNetwork()
        replica = FilterReplica("branch", network=net)
        cc = directory.geography_countries("AP")[0]
        block = directory.blocks_by_country[cc][0]
        replica.add_filter(
            SearchRequest("", Scope.SUB, f"(serialNumber={block}*{cc.upper()})"),
            provider,
        )
        updates = UpdateGenerator(directory, master)
        driver = ReplicaDriver(
            master,
            replica,
            provider=provider,
            update_generator=updates,
            updates_per_query=0.5,
            sync_interval=50,
            network=net,
        )
        result = driver.run(trace)
        assert result.updates_applied > 100
        assert result.sync_polls == len(trace) // 50 + 1
        assert result.sync_entry_pdus + result.sync_dn_pdus >= 0

    def test_bigger_replica_more_traffic(self, setup):
        directory, master, provider, trace = setup

        def run(contexts):
            m = DirectoryServer("m")
            m.add_naming_context(directory.suffix)
            m.load(directory.entries)
            p = ResyncProvider(m)
            net = SimulatedNetwork()
            replica = SubtreeReplica("branch", network=net)
            for suffix in contexts:
                replica.add_context(suffix)
            replica.sync(p)  # before the driver's window opens
            driver = ReplicaDriver(
                m,
                replica,
                provider=p,
                update_generator=UpdateGenerator(directory, m),
                updates_per_query=1.0,
                sync_interval=50,
                network=net,
            )
            return driver.run(trace[:200])

        small = run(["c=in,o=xyz"])
        large = run([f"c={cc},o=xyz" for cc in directory.countries()])
        assert large.sync_entry_pdus > small.sync_entry_pdus

    def test_revolution_traffic_separated(self, setup):
        directory, master, provider, trace = setup
        net = SimulatedNetwork()
        replica = FilterReplica("branch", network=net, cache_capacity=0)
        selector = FilterSelector(
            replica,
            Generalizer([PrefixSuffixGeneralization("serialNumber", 4, 2)]),
            ReplicaDriver.size_estimator_for(master),
            budget_entries=200,
            revolution_interval=100,
            provider=provider,
        )
        driver = ReplicaDriver(
            master,
            replica,
            provider=provider,
            selector=selector,
            sync_interval=100,
            network=net,
        )
        result = driver.run(trace)
        assert selector.revolutions >= 3
        assert result.revolution_entry_pdus > 0
        assert result.resync_entry_pdus >= 0
        assert result.hit_ratio_by_type["serialNumber"] > 0.2


class TestSizeEstimator:
    def test_estimates_master_counts(self, setup):
        directory, master, _provider, _trace = setup
        estimate = ReplicaDriver.size_estimator_for(master)
        cc = directory.geography_countries("AP")[0]
        block = directory.blocks_by_country[cc][0]
        q = SearchRequest("", Scope.SUB, f"(serialNumber={block}*{cc.upper()})")
        assert estimate(q) >= 1
