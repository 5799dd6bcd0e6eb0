"""Sketch-based anti-entropy reconciliation (recovery tier 2).

Three layers under test (docs/PROTOCOL.md §11, docs/RECOVERY.md):

* the invertible sketch itself — insert/subtract/decode, the
  partitioned-hash layout, detected (never silent) decode failure;
* the provider operations — ``reconcile`` serves a sketch plus a live
  session cookie, ``reconcile_fetch`` resolves decoded keys against
  current content, both journaled so the session survives a crash;
* the consumer ladder — any refused cookie over warm content enters
  the reconcile tier, decode failures double the sketch up to the cap,
  every fallback ends the session the tier minted and takes the paced
  full rebuild, and a corrupted sketch can never install a wrong entry
  (the table itself is driven cell by cell in ``test_ladder_table.py``).
"""

import pytest

from repro.ldap import Entry, Scope, SearchRequest
from repro.server import (
    DirectoryServer,
    FaultPlan,
    FaultSpec,
    FaultyNetwork,
    Modification,
)
from repro.server.network import RequestDropped, SimulatedNetwork
from repro.sync import ladder, reconcile
from repro.sync import (
    DurabilityConfig,
    EntrySketch,
    MemoryJournal,
    ReconcileFetch,
    ReconcileRequest,
    ResilientConsumer,
    ResyncProvider,
    RetryPolicy,
    SyncProtocolError,
    build_sketch,
    cells_for_divergence,
    corrupt_cell,
    entry_fingerprint,
    entry_key,
)
from tests.oracles import encoded_bytes

REQUEST = SearchRequest("o=xyz", Scope.SUB, "(departmentNumber=42)")


def person(name: str, sn: str = "T") -> Entry:
    return Entry(
        f"cn={name},o=xyz",
        {"objectClass": ["person"], "cn": name, "sn": sn, "departmentNumber": "42"},
    )


def build_master(n: int = 30) -> DirectoryServer:
    master = DirectoryServer("M")
    master.add_naming_context("o=xyz")
    master.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
    for i in range(n):
        master.add(person(f"E{i:03d}"))
    return master


def overflowing_provider(master, **kwargs) -> ResyncProvider:
    """A durable provider whose sessions overflow after 2 pending
    updates — the cheapest way to mint ``:h`` cookies."""
    return ResyncProvider(
        master,
        durability=DurabilityConfig(history_max_entries=2),
        journal=MemoryJournal(),
        **kwargs,
    )


def digests(entries):
    return [(entry_key(e.dn), entry_fingerprint(e)) for e in entries]


# ----------------------------------------------------------------------
# the sketch
# ----------------------------------------------------------------------
class TestEntrySketch:
    def test_subtract_of_equal_sets_decodes_empty(self):
        entries = [person(f"E{i}") for i in range(20)]
        a = build_sketch(entries, 24, salt=7)
        b = build_sketch(list(entries), 24, salt=7)
        decoded = a.subtract(b).decode()
        assert decoded == ([], [])

    def test_decodes_symmetric_difference(self):
        shared = [person(f"S{i}") for i in range(40)]
        master = shared + [person("Monly1"), person("Monly2")]
        # replica: missing the master-only pair, one extra entry, and a
        # stale version of S0 in place of the master's
        replica = shared[1:] + [person("Ronly"), person("S0", sn="stale")]
        m = build_sketch(master, 48, salt=3)
        r = build_sketch(replica, 48, salt=3)
        decoded = m.subtract(r).decode()
        assert decoded is not None
        positive, negative = decoded
        assert sorted(positive) == sorted(digests([person("Monly1"), person("Monly2"), person("S0")]))
        assert sorted(negative) == sorted(digests([person("Ronly"), person("S0", sn="stale")]))

    def test_undersized_sketch_fails_detectably(self):
        # 60 differing entries cannot peel out of 6 cells; the failure
        # must be a None, never a wrong (partial or garbage) answer.
        m = build_sketch([person(f"M{i}") for i in range(60)], 6, salt=1)
        r = build_sketch([person(f"R{i}") for i in range(60)], 6, salt=1)
        assert m.subtract(r).decode() is None

    def test_corruption_is_detected(self):
        entries = [person(f"E{i}") for i in range(10)]
        m = build_sketch(entries + [person("extra")], 24, salt=5)
        r = build_sketch(entries, 24, salt=5)
        diff = m.subtract(r)
        for position in (0.0, 0.37, 0.99):
            broken = m.subtract(r)
            corrupt_cell(broken, position)
            assert broken.decode() is None, f"corruption at {position} slipped through"
        assert diff.decode() is not None  # the pristine copy still decodes

    def test_subtract_requires_matching_geometry(self):
        with pytest.raises(ValueError):
            EntrySketch(24, salt=1).subtract(EntrySketch(24, salt=2))
        with pytest.raises(ValueError):
            EntrySketch(24).subtract(EntrySketch(48))

    def test_fingerprint_tracks_semantic_content(self):
        a = person("E1")
        assert entry_fingerprint(a) == entry_fingerprint(person("E1"))
        assert entry_fingerprint(a) != entry_fingerprint(person("E1", sn="other"))
        # value order and attribute-name case are not semantic
        x = Entry("cn=V,o=xyz", {"objectClass": ["person"], "cn": ["V"], "memberOf": ["a", "b"]})
        y = Entry("cn=V,o=xyz", {"objectClass": ["person"], "CN": ["V"], "memberof": ["b", "a"]})
        assert entry_fingerprint(x) == entry_fingerprint(y)

    def test_a_frozen_image_is_digested_once(self, monkeypatch):
        """A frozen image remembers its digest, so the sketches of every
        party sharing it — a provider, each consumer, every refresh —
        fingerprint it once; a mutable entry is fingerprinted per sketch.
        Regression: every sketch of every side re-hashed every entry."""
        real, fingerprinted = reconcile.entry_fingerprint, []

        def counting(entry):
            fingerprinted.append(entry)
            return real(entry)

        monkeypatch.setattr(reconcile, "entry_fingerprint", counting)
        frozen = [person(f"F{i}").freeze() for i in range(5)]
        master, replica = build_sketch(frozen, 24, salt=1), build_sketch(frozen, 24, salt=1)
        assert master.subtract(replica).decode() == ([], [])
        build_sketch(frozen, 48, salt=2)
        assert len(fingerprinted) == 5
        fingerprinted.clear()
        mutable = [person(f"M{i}") for i in range(5)]
        build_sketch(mutable, 24)
        build_sketch(mutable, 24)
        assert len(fingerprinted) == 10

    def test_cells_for_divergence_floor_and_rounding(self):
        assert cells_for_divergence(0) == 24
        assert cells_for_divergence(1) == 24
        assert cells_for_divergence(100) % 3 == 0
        assert cells_for_divergence(100) >= 200

    def test_encoded_bytes_scale_with_cells(self):
        small = build_sketch([person("A")], 24).encoded_size()
        large = build_sketch([person("A")], 96).encoded_size()
        assert 0 < small < large
        # BER framing: a parseable definite-length SEQUENCE
        assert encoded_bytes(build_sketch([person("A")], 24))[0] == 0x30


# ----------------------------------------------------------------------
# provider operations
# ----------------------------------------------------------------------
class TestProviderReconcile:
    def test_sketch_and_fetch_round_trip(self):
        master = build_master(12)
        provider = ResyncProvider(master)
        response = provider.reconcile(REQUEST, ReconcileRequest(divergence_hint=4))
        assert response.content_count == 12
        local = build_sketch(
            [], response.sketch.size, salt=response.sketch.salt
        )
        decoded = response.sketch.subtract(local).decode()
        # 12 > 2*4 hint: possibly undersized — retry bigger like a consumer
        if decoded is None:
            response = provider.reconcile(
                REQUEST,
                ReconcileRequest(cells=96, cookie=response.cookie),
            )
            decoded = response.sketch.subtract(
                build_sketch([], response.sketch.size, salt=response.sketch.salt)
            ).decode()
        positive, negative = decoded
        assert negative == []
        fetched = provider.reconcile_fetch(
            REQUEST, ReconcileFetch(keys=tuple(k for k, _ in positive), cookie=response.cookie)
        )
        assert len(fetched.updates) == 12
        assert fetched.cookie == response.cookie

    def test_reconcile_session_is_live_and_journaled(self):
        master = build_master(6)
        provider = ResyncProvider(
            master, durability=DurabilityConfig(), journal=MemoryJournal()
        )
        response = provider.reconcile(REQUEST, ReconcileRequest(cells=48))
        cookie = response.cookie
        # Updates after the sketch land in the session's pending history…
        master.modify("cn=E000,o=xyz", [Modification.replace("sn", "post-sketch")])
        provider.restart()
        provider.recover()  # …and the whole session survives a crash.
        from repro.sync import SyncedContent

        content = SyncedContent(REQUEST)
        content.entries = {e.dn: e for e in master.search(REQUEST).entries}
        content.cookie = cookie
        poll = content.poll(provider)
        assert content.matches_master(master)
        assert any(str(u.dn) == "cn=E000,o=xyz" for u in poll.updates)

    def test_doubling_retry_ends_previous_session(self):
        master = build_master(4)
        provider = ResyncProvider(master)
        first = provider.reconcile(REQUEST, ReconcileRequest(cells=24))
        assert provider.active_session_count == 1
        second = provider.reconcile(
            REQUEST, ReconcileRequest(cells=48, cookie=first.cookie)
        )
        assert provider.active_session_count == 1  # replaced, not leaked
        with pytest.raises(SyncProtocolError):
            provider.reconcile_fetch(REQUEST, ReconcileFetch(keys=(), cookie=first.cookie))
        provider.reconcile_fetch(REQUEST, ReconcileFetch(keys=(), cookie=second.cookie))

    def test_fetch_rejects_foreign_request(self):
        master = build_master(4)
        provider = ResyncProvider(master)
        response = provider.reconcile(REQUEST, ReconcileRequest(cells=24))
        other = SearchRequest("o=xyz", Scope.SUB, "(sn=T)")
        with pytest.raises(SyncProtocolError):
            provider.reconcile_fetch(other, ReconcileFetch(keys=(), cookie=response.cookie))


class TestFetchReadsWhatTheSketchNamed:
    """``reconcile_fetch`` reads the session's membership and the stored
    images, not a search: what changed between the sketch and the fetch
    reaches the response as a content search at fetch time would."""

    @pytest.mark.parametrize("attributes", [None, ("cn",)])
    def test_changes_between_sketch_and_fetch(self, monkeypatch, attributes):
        master = build_master(12)
        provider = ResyncProvider(master)
        request = SearchRequest(REQUEST.base, REQUEST.scope, REQUEST.filter, attributes)
        response = provider.reconcile(request, ReconcileRequest(cells=96))
        wanted = {entry_key(e.dn) for e in master.search(request).entries}
        master.modify("cn=E000,o=xyz", [Modification.replace("sn", "modified")])
        master.delete("cn=E001,o=xyz")
        master.modify_dn("cn=E002,o=xyz", new_rdn="cn=R002")
        master.modify("cn=E003,o=xyz", [Modification.replace("departmentNumber", "7")])
        master.add(person("E999"))
        # What the fetch owes: the wanted keys of the content at fetch time.
        now = sorted(master.search(request).entries, key=lambda e: str(e.dn))
        expected = [e for e in now if entry_key(e.dn) in wanted]

        evaluations = []
        monkeypatch.setattr(
            DirectoryServer,
            "evaluate",
            lambda self, *args, **kwargs: evaluations.append(args) or None,
        )
        fetched = provider.reconcile_fetch(
            request, ReconcileFetch(keys=tuple(wanted), cookie=response.cookie)
        )
        assert evaluations == []
        assert [str(u.dn) for u in fetched.updates] == [str(e.dn) for e in expected]
        assert "cn=E001,o=xyz" not in {str(u.dn) for u in fetched.updates}
        assert len(fetched.updates) == 9  # E000 and E004..E011
        for update, entry in zip(fetched.updates, expected):
            assert update.action.value == "add"
            assert update.entry.semantically_equal(entry)
            if attributes is None:  # the stored image itself, newest version
                assert update.entry is master.store.get(update.dn)
        assert fetched.updates[0].entry.first("cn") == "E000"
        if attributes is None:
            assert fetched.updates[0].entry.first("sn") == "modified"
        assert fetched.cookie == response.cookie


# ----------------------------------------------------------------------
# the consumer ladder
# ----------------------------------------------------------------------
def overflow_then_kill(master, provider, consumer, touched=4):
    """Sync, overflow the session history (mint an ``:h`` cookie), then
    kill the session so the next poll faces a protocol error."""
    consumer.sync_once()
    for i in range(touched):
        master.modify(f"cn=E{i:03d},o=xyz", [Modification.replace("sn", f"S{i}")])
    consumer.sync_once()  # incomplete-history resume: cookie now carries :h
    assert consumer.content.cookie.endswith(":h")
    for i in range(touched):
        master.modify(f"cn=E{i:03d},o=xyz", [Modification.replace("sn", f"Z{i}")])
    provider.invalidate_cookie(consumer.content.cookie)


class TestReconcileTier:
    def test_h_cookie_reconciles_without_reload(self):
        master = build_master(40)
        provider = overflowing_provider(master)
        net = SimulatedNetwork()
        consumer = ResilientConsumer(REQUEST, provider, network=net)
        overflow_then_kill(master, provider, consumer)
        master.delete("cn=E039,o=xyz")
        master.add(person("NEW"))

        assert consumer.sync_once() is not None
        assert consumer.content.matches_master(master)
        reg = net.registry
        assert reg.counter("sync.resilient.reloads").value == 0
        assert reg.counter("sync.reconcile.attempts").value == 1
        assert reg.counter("sync.reconcile.decode_success").value == 1
        # …and the recovered session keeps polling normally.
        master.modify("cn=E020,o=xyz", [Modification.replace("sn", "after")])
        consumer.sync_once()
        assert consumer.content.matches_master(master)

    def test_plain_cookie_restart_reconciles_without_reload(self):
        """A journal-less provider restart leaves a *plain* dead cookie
        over warm content: the refusal enters the sketch tier like any
        other — O(delta), no reload (docs/RECOVERY.md decision table)."""
        master = build_master(20)  # warm: more than the sketch floor
        provider = ResyncProvider(master)  # no journal: restart forgets all
        net = SimulatedNetwork()
        consumer = ResilientConsumer(REQUEST, provider, network=net)
        consumer.sync_once()
        assert not consumer.content.cookie.endswith(":h")
        provider.restart()
        master.add(person("NEW"))
        consumer.sync_once()
        assert consumer.content.matches_master(master)
        assert net.registry.counter("sync.resilient.reloads").value == 0
        assert net.registry.counter("sync.reconcile.decode_success").value == 1
        assert provider.active_session_count == 1

    def test_sketch_sees_a_change_to_a_value_stored_under_an_alias(self):
        """The fingerprint covers every attribute an entry holds, so the
        sketch tier cannot end healthy on a replica that differs from the
        master in a value spelled ``surname:``."""
        master = build_master(0)
        for i in range(20):  # warm: more than the sketch floor
            master.add(
                Entry(
                    f"cn=A{i},o=xyz",
                    {
                        "objectClass": ["person"],
                        "commonName": f"A{i}",
                        "surname": "aa",
                        "departmentNumber": "42",
                    },
                )
            )
        provider = ResyncProvider(master)  # no journal: restart forgets all
        net = SimulatedNetwork()
        consumer = ResilientConsumer(REQUEST, provider, network=net)
        consumer.sync_once()
        provider.restart()
        master.modify("cn=A3,o=xyz", [Modification.replace("surname", "bb")])
        for _ in range(3):
            consumer.sync_once()
        assert consumer.content.matches_master(master)
        assert consumer.health_state == "healthy"
        assert net.registry.counter("sync.reconcile.decode_success").value == 1
        assert net.registry.counter("sync.resilient.reloads").value == 0

    def test_restart_with_intact_journal_needs_neither(self):
        """Restart + recover resolves the cookie — no protocol error,
        so the ladder is never entered: no reconcile, no reload."""
        master = build_master(10)
        provider = ResyncProvider(
            master, durability=DurabilityConfig(), journal=MemoryJournal()
        )
        net = SimulatedNetwork()
        consumer = ResilientConsumer(REQUEST, provider, network=net)
        consumer.sync_once()
        master.add(person("NEW"))
        provider.restart()
        provider.recover()
        consumer.sync_once()
        assert consumer.content.matches_master(master)
        assert net.registry.counter("sync.resilient.reloads").value == 0
        assert net.registry.counter("sync.reconcile.attempts").value == 0

    def test_sketch_doubles_until_divergence_fits(self, monkeypatch):
        monkeypatch.setattr(ladder, "INITIAL_DIVERGENCE", 1)
        master = build_master(120)
        provider = overflowing_provider(master)
        net = SimulatedNetwork()
        consumer = ResilientConsumer(REQUEST, provider, network=net)
        overflow_then_kill(master, provider, consumer, touched=40)
        consumer.sync_once()
        assert consumer.content.matches_master(master)
        reg = net.registry
        assert reg.counter("sync.resilient.reloads").value == 0
        assert reg.counter("sync.reconcile.decode_success").value == 1
        assert reg.counter("sync.reconcile.decode_failure").value >= 1
        assert reg.counter("sync.reconcile.rounds").value >= 2

    def test_cap_exhaustion_falls_back_to_rebuild(self, monkeypatch):
        monkeypatch.setattr(ladder, "INITIAL_DIVERGENCE", 1)
        monkeypatch.setattr(ladder, "MAX_CELLS", 6)
        master = build_master(60)
        provider = overflowing_provider(master)
        net = SimulatedNetwork()
        consumer = ResilientConsumer(REQUEST, provider, network=net)
        overflow_then_kill(master, provider, consumer, touched=30)
        consumer.sync_once()
        assert consumer.content.matches_master(master)
        reg = net.registry
        assert reg.counter("sync.reconcile.fallbacks").value == 1
        assert reg.counter("sync.resilient.reloads").value == 1
        assert provider.active_session_count == 1  # abandoned ladder session ended

    @pytest.mark.parametrize("lost", ["fetch", "doubling_request"])
    def test_every_fallback_ends_the_session_the_tier_minted(self, lost, monkeypatch):
        """Regression: only the cap exit ended the sketch-time session.
        When the fetch gave out, or a doubling round's request was lost
        after an earlier round had minted a session, the ladder rebuilt
        and left the provider holding an orphan beside the new session,
        accumulating history for nobody."""

        class Lossy(SimulatedNetwork):
            sketches = 0

            def reconcile_fetch_exchange(self, provider, request, fetch):
                self.charge_round_trip()
                raise RequestDropped("fetch request lost in flight")

            def reconcile_exchange(self, provider, request, rreq):
                self.sketches += 1
                if lost == "doubling_request" and self.sketches > 1:
                    self.charge_round_trip()
                    raise RequestDropped("sketch request lost in flight")
                return super().reconcile_exchange(provider, request, rreq)

        master = build_master(60)
        provider = overflowing_provider(master)
        net = Lossy()
        # an undersized first sketch forces the doubling round
        doubling = lost == "doubling_request"
        if doubling:
            monkeypatch.setattr(ladder, "INITIAL_DIVERGENCE", 1)
        consumer = ResilientConsumer(
            REQUEST,
            provider,
            network=net,
            policy=RetryPolicy(max_attempts=3, jitter=0.0),
        )
        overflow_then_kill(master, provider, consumer, touched=30 if doubling else 4)
        assert consumer.sync_once() is not None
        assert consumer.content.matches_master(master)
        reg = net.registry
        assert reg.counter("sync.reconcile.rounds").value == 1
        assert reg.counter("sync.reconcile.fallbacks").value == 1
        assert reg.counter("sync.resilient.reloads").value == 1
        assert provider.active_session_count == 1  # no orphan beside the rebuild's

    def test_corrupted_sketches_never_install_wrong_entries(self, monkeypatch):
        """Every served sketch corrupted: the ladder must detect each
        failure, exhaust the cap, and converge through the rebuild —
        with the replica never holding a non-master entry."""
        monkeypatch.setattr(ladder, "MAX_CELLS", 128)
        master = build_master(40)
        provider = overflowing_provider(master)
        net = FaultyNetwork(FaultPlan(FaultSpec(sketch_corrupt=1.0), seed=9))
        consumer = ResilientConsumer(
            REQUEST,
            provider,
            network=net,
            policy=RetryPolicy(jitter=0.0),
        )
        overflow_then_kill(master, provider, consumer)
        consumer.sync_once()
        assert consumer.content.matches_master(master)
        reg = net.registry
        assert reg.counter("sync.reconcile.decode_success").value == 0
        assert reg.counter("sync.reconcile.fallbacks").value == 1
        assert reg.counter("net.fault.injected").labels(kind="sketch_corrupt").value >= 1

    def test_reconcile_traffic_is_delta_sized(self):
        """The point of the tier: recovering a 1%-divergent replica must
        cost far fewer bytes than the full rebuild."""
        master = build_master(300)
        provider = overflowing_provider(master)
        net = SimulatedNetwork()
        consumer = ResilientConsumer(REQUEST, provider, network=net)
        overflow_then_kill(master, provider, consumer, touched=3)

        before = net.stats.snapshot()
        consumer.sync_once()
        reconcile_bytes = (net.stats - before).bytes_sent
        assert consumer.content.matches_master(master)

        # Same divergence through the bottom rung by hand: the refused
        # poll, then the null-cookie full rebuild.
        master2 = build_master(300)
        provider2 = overflowing_provider(master2)
        net2 = SimulatedNetwork()
        consumer2 = ResilientConsumer(REQUEST, provider2, network=net2)
        overflow_then_kill(master2, provider2, consumer2, touched=3)
        before2 = net2.stats.snapshot()
        with pytest.raises(SyncProtocolError):
            consumer2.content.poll(provider2)
        consumer2.content.reload(provider2)
        rebuild_bytes = (net2.stats - before2).bytes_sent
        assert consumer2.content.matches_master(master2)
        assert reconcile_bytes * 10 <= rebuild_bytes
