"""Tests for persist-mode filter replicas (§5.2's strong consistency)."""

import pytest

from repro.chaos import ReferenceModel
from repro.core import FilterReplica
from repro.ldap import Entry, Scope, SearchRequest
from repro.ldap.ber import encoded_sync_batch_size
from repro.server import (
    DirectoryServer,
    FaultPlan,
    FaultSpec,
    FaultyNetwork,
    Modification,
    SimulatedNetwork,
)
from repro.sync import ResyncProvider, RetryPolicy, SyncedContent, SyncLink


@pytest.fixture()
def master() -> DirectoryServer:
    m = DirectoryServer("master")
    m.add_naming_context("o=xyz")
    m.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
    for i in range(6):
        m.add(
            Entry(
                f"cn=P{i},o=xyz",
                {
                    "objectClass": ["person"],
                    "cn": f"P{i}",
                    "sn": "T",
                    "departmentNumber": str(i % 2),
                },
            )
        )
    return m


DEPT0 = SearchRequest("o=xyz", Scope.SUB, "(departmentNumber=0)")
DEPT1 = SearchRequest("o=xyz", Scope.SUB, "(departmentNumber=1)")


class TestSubscribePersist:
    def test_one_connection_per_filter(self, master):
        provider = ResyncProvider(master)
        net = SimulatedNetwork()
        replica = FilterReplica("r", network=net)
        replica.add_filter(DEPT0, provider)
        replica.add_filter(DEPT1, provider)
        opened = replica.subscribe_persist(provider)
        assert opened == 2
        assert replica.persist_connections == 2
        assert net.open_connections == 2

    def test_changes_apply_immediately_without_polling(self, master):
        provider = ResyncProvider(master)
        net = SimulatedNetwork()
        replica = FilterReplica("r", network=net)
        replica.add_filter(DEPT0, provider)
        replica.subscribe_persist(provider)
        master.modify("cn=P0,o=xyz", [Modification.replace("title", "live")])
        # no replica.sync() call — strong consistency via notifications,
        # fresh once the transport has delivered them
        net.settle()
        stored = replica.stored_filters()[0]
        assert stored.content.matches_master(master)
        answer = replica.answer(DEPT0)
        titles = {e.first("title") for e in answer.entries}
        assert "live" in titles

    def test_changes_apply_at_commit_without_a_network(self, master):
        provider = ResyncProvider(master)
        replica = FilterReplica("r")
        replica.add_filter(DEPT0, provider)
        assert replica.subscribe_persist(provider) == 1
        master.modify("cn=P0,o=xyz", [Modification.replace("title", "live")])
        # in-process: the notification applied inside the commit
        stored = replica.stored_filters()[0]
        assert stored.content.matches_master(master)
        answer = replica.answer(DEPT0)
        titles = {e.first("title") for e in answer.entries}
        assert "live" in titles

    def test_resumes_poll_session_without_retransfer(self, master):
        provider = ResyncProvider(master)
        net = SimulatedNetwork()
        replica = FilterReplica("r", network=net)
        replica.add_filter(DEPT0, provider)  # initial content via poll
        before = net.stats.sync_entry_pdus
        replica.subscribe_persist(provider)
        assert net.stats.sync_entry_pdus == before  # nothing resent

    def test_subscribe_idempotent(self, master):
        provider = ResyncProvider(master)
        replica = FilterReplica("r", network=SimulatedNetwork())
        replica.add_filter(DEPT0, provider)
        assert replica.subscribe_persist(provider) == 1
        assert replica.subscribe_persist(provider) == 0
        assert replica.persist_connections == 1

    def test_unsubscribe_closes_connections(self, master):
        provider = ResyncProvider(master)
        net = SimulatedNetwork()
        replica = FilterReplica("r", network=net)
        replica.add_filter(DEPT0, provider)
        replica.subscribe_persist(provider)
        replica.unsubscribe_persist()
        assert replica.persist_connections == 0
        assert net.open_connections == 0
        assert provider.active_session_count == 0

    def test_sync_rides_subscribed_filters_without_polling(self, master):
        """A subscribed filter has no cookie; polling it would be a full
        initial load on a second, orphaned provider session.  Its turn in
        the round is a look at the live subscription."""
        provider = ResyncProvider(master)
        net = SimulatedNetwork()
        replica = FilterReplica("r", network=net)
        replica.add_filter(DEPT0, provider)
        replica.subscribe_persist(provider)
        pdus = net.stats.sync_entry_pdus
        sessions = provider.active_session_count
        replica.sync(provider)
        assert net.stats.sync_entry_pdus == pdus
        assert provider.active_session_count == sessions
        replica.unsubscribe_persist()
        assert provider.active_session_count == 0

    def test_remove_filter_closes_its_connection(self, master):
        provider = ResyncProvider(master)
        net = SimulatedNetwork()
        replica = FilterReplica("r", network=net)
        replica.add_filter(DEPT0, provider)
        replica.add_filter(DEPT1, provider)
        replica.subscribe_persist(provider)
        replica.remove_filter(DEPT0)
        assert replica.persist_connections == 1
        assert net.open_connections == 1

    def test_scaling_cost_grows_with_filters(self, master):
        """§5.2: one connection per replicated filter 'might not scale
        for large replicas' — the cost the poll mode avoids."""
        provider = ResyncProvider(master)
        net = SimulatedNetwork()
        replica = FilterReplica("r", network=net)
        filters = [
            SearchRequest("o=xyz", Scope.SUB, f"(cn=P{i})") for i in range(6)
        ]
        for request in filters:
            replica.add_filter(request, provider)
        replica.subscribe_persist(provider)
        assert net.open_connections == len(filters)
        # Poll mode needs zero standing connections for the same filters.
        replica.unsubscribe_persist()
        assert net.open_connections == 0
        replica.sync(provider)  # still converges by polling
        for stored in replica.stored_filters():
            assert stored.content.matches_master(master)


class TestWhoDeliversCharges:
    """One network carrying an in-process subscription (the reference
    consumer: a bare ``provider.persist``) and a queued session: every
    delivery is charged exactly once, by whoever delivers it.
    Regression: the charging rule was a property of the network object,
    so on a network with queued sessions the in-process notifications
    were delivered but charged nowhere."""

    @staticmethod
    def build(master, on_first_delivery=None):
        provider = ResyncProvider(master)
        net = SimulatedNetwork()
        direct = SyncedContent(DEPT0, network=net)
        response, _handle = provider.persist(DEPT0, direct.apply_notification)
        direct.apply(response)
        content = SyncedContent(DEPT0, network=net)
        framed = []

        def deliver(update):
            content.apply_notification(update)
            framed.append(update)
            if on_first_delivery is not None and len(framed) == 1:
                on_first_delivery()

        deliveries, _handle = net.persist_exchange(provider, DEPT0, deliver)
        content.apply(deliveries[-1].response)
        return net, net.stats.snapshot(), direct, content, framed

    def test_each_delivery_charged_once(self, master):
        net, before, direct, content, framed = self.build(master)
        master.modify("cn=P0,o=xyz", [Modification.replace("title", "live")])
        assert net.settle() >= 1
        moved = net.stats - before
        assert moved.sync_entry_pdus == 2
        (update,) = framed
        assert moved.bytes_sent == update.pdu_bytes + encoded_sync_batch_size([update])
        assert content.matches_master(master)
        assert direct.matches_master(master)

    def test_charged_once_when_the_deliver_callback_reenters_the_master(self, master):
        def reenter():
            master.modify("cn=P2,o=xyz", [Modification.replace("title", "nested")])

        net, before, direct, content, framed = self.build(master, on_first_delivery=reenter)
        master.modify("cn=P0,o=xyz", [Modification.replace("title", "live")])
        net.settle()
        # The nested update reached the direct consumer in-process while
        # the network was mid-delivery of the first one, and the queued
        # session in a later frame of its own.
        assert len(framed) == 2
        moved = net.stats - before
        assert moved.sync_entry_pdus == 4
        assert moved.bytes_sent == sum(
            u.pdu_bytes + encoded_sync_batch_size([u]) for u in framed
        )
        assert content.matches_master(master)
        assert direct.matches_master(master)


class TestSubscriptionsRideTheLink:
    """A replica's subscriptions open, die and re-open through its link
    and the network's ``subscribe`` exchange, so the faults that reach a
    poll reach them.  Regressions: ``subscribe_persist`` called
    ``provider.persist`` in-process — a partition did not stop it, a
    crash dropped nothing, and ``sync`` skipped subscribed filters, so a
    provider restart left them serving stale HITs, never degraded."""

    @staticmethod
    def build(master, net, policy=None):
        provider = ResyncProvider(master)
        link = SyncLink(provider, network=net, policy=policy, name="r")
        replica = FilterReplica("r", network=net)
        replica.add_filter(DEPT0, link)
        replica.add_filter(DEPT1, link)
        return provider, link, replica

    @staticmethod
    def matches(replica, master):
        return all(s.content.matches_master(master) for s in replica.stored_filters())

    def test_a_partition_reaches_the_subscription(self, master):
        net = FaultyNetwork()
        provider, link, replica = self.build(master, net)
        net.partition(provider)
        assert replica.subscribe_persist(link) == 0
        assert (replica.persist_connections, net.open_connections) == (0, 0)
        master.modify("cn=P0,o=xyz", [Modification.replace("title", "healed")])
        net.heal_partition(provider)
        replica.sync(link)
        assert (replica.persist_connections, net.open_connections) == (2, 2)
        master.modify("cn=P1,o=xyz", [Modification.replace("title", "live")])
        net.settle()
        assert self.matches(replica, master)

    def test_a_crash_drops_both_and_the_next_round_reopens_them(self, master):
        net = FaultyNetwork()
        provider, link, replica = self.build(master, net)
        assert replica.subscribe_persist(link) == 2
        assert net.open_connections == 2
        net.crash(provider)
        assert (replica.persist_connections, net.open_connections) == (0, 0)
        master.modify("cn=P0,o=xyz", [Modification.replace("title", "after")])
        assert replica.sync(link) is not None
        assert (net.open_connections, net.total_connections) == (2, 4)
        net.settle()
        assert self.matches(replica, master)

    def test_a_provider_restart_is_seen_by_the_next_round(self, master):
        net = FaultyNetwork()
        policy = RetryPolicy(max_attempts=2, degraded_after=2, jitter=0.0)
        provider, link, replica = self.build(master, net, policy)
        replica.subscribe_persist(link)
        provider.restart()  # journal-less: every session forgotten
        master.modify("cn=P0,o=xyz", [Modification.replace("title", "after")])
        assert replica.sync(link) is not None  # the dead handle is seen
        net.settle()
        assert self.matches(replica, master)
        assert provider.active_session_count == 2
        answer = replica.answer(DEPT0)
        assert answer.is_hit and not answer.degraded
        net.partition(provider)
        for _ in range(policy.degraded_after):
            assert replica.sync(link) is None
        answer = replica.answer(DEPT0)
        assert answer.is_hit and answer.degraded

    @pytest.mark.parametrize("call", ["sync", "subscribe_persist"])
    def test_a_bare_provider_keeps_the_subscriptions_open(self, master, call):
        """Filters subscribed on a caller's link, then synced or
        subscribed through the bare provider, move to its default link
        with their subscriptions open: no second session, nothing
        reloaded, and nothing left where the replica cannot close it."""
        net = SimulatedNetwork()
        provider, link, replica = self.build(master, net)
        replica.subscribe_persist(link)
        pdus, sessions = net.stats.sync_entry_pdus, provider.active_session_count
        getattr(replica, call)(provider)
        assert net.stats.sync_entry_pdus == pdus
        assert (net.open_connections, provider.active_session_count) == (2, sessions)
        assert replica.persist_connections == 2
        master.modify("cn=P0,o=xyz", [Modification.replace("title", "moved")])
        net.settle()
        assert self.matches(replica, master)
        replica.unsubscribe_persist()
        assert (net.open_connections, provider.active_session_count) == (0, 0)

    def test_a_filter_synced_through_another_provider_reopens_there(self, master):
        net = SimulatedNetwork()
        provider, link, replica = self.build(master, net)
        replica.subscribe_persist(link)
        other = ResyncProvider(master)
        replica.sync(other)
        assert (provider.active_session_count, other.active_session_count) == (0, 2)
        assert (net.open_connections, replica.persist_connections) == (2, 2)

    def test_a_refresh_is_a_sketch_audit(self, master):
        """Every ``persist_refresh_interval`` rounds the persist cycle
        audits a live subscription by sketch and resumes the session the
        sketch minted: over unchanged content one sketch per filter
        travels and no entry PDU.  The audit is still the bound on
        undetected notification loss — a notification dropped in flight
        is repaired by the next refresh, by fetching that entry alone.
        Regression: the refresh re-opened with a null cookie, a full
        load of every subscribed filter."""
        for i in range(6, 46):  # warm contents: above the sketch floor
            master.add(
                Entry(
                    f"cn=P{i},o=xyz",
                    {"objectClass": ["person"], "cn": f"P{i}", "sn": "T", "departmentNumber": str(i % 2)},
                )
            )
        net = FaultyNetwork()
        policy = RetryPolicy(persist_refresh_interval=4, jitter=0.0)
        provider, link, replica = self.build(master, net, policy)
        replica.subscribe_persist(link)
        stored = replica.stored_filters()
        sketches = net.registry.counter("sync.reconcile.rounds")
        pdus, audits = net.stats.sync_entry_pdus, sketches.value
        for _ in range(policy.persist_refresh_interval - 1):
            replica.sync(link)
        assert (net.stats.sync_entry_pdus, sketches.value) == (pdus, audits)
        replica.sync(link)
        assert net.registry.counter("sync.resilient.refreshes").value == 2
        assert net.stats.sync_entry_pdus == pdus
        assert sketches.value == audits + len(stored)
        assert (net.open_connections, provider.active_session_count) == (2, 2)

        net.plan = FaultPlan(FaultSpec(notification_drop=1.0), seed=0)
        master.modify("cn=P0,o=xyz", [Modification.replace("title", "lost")])
        net.settle()
        assert net.fault_counts() == {"notification_drop": 1}
        assert not all(ReferenceModel.of(master).holds(s.content) for s in stored)
        net.heal()
        for _ in range(policy.persist_refresh_interval):
            replica.sync(link)
        model = ReferenceModel.of(master)
        assert all(model.holds(s.content) for s in stored)
        assert net.stats.sync_entry_pdus == pdus + 1  # the lost entry alone
        assert net.registry.counter("sync.resilient.reloads").value == 0
        assert (net.open_connections, provider.active_session_count) == (2, 2)
