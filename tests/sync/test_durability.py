"""Provider durability: journaling, recovery, history caps.

Covers docs/PROTOCOL.md §10 — the write-ahead journal backends and
their damage tolerance, `ResyncProvider.recover()` rebuilding sessions
so cookies stay honorable across crashes, bounded histories degrading
to incomplete-history (eq. 3) resumes, the satellite bugfixes
(two-phase session expiry, counted unknown-cookie no-ops), and
recovery decoding each DN text once into the sessions and compaction
snapshot that parsing every occurrence gives.
"""

from __future__ import annotations

import copy
import hashlib

import pytest

from repro.chaos import ReferenceModel
from repro.ldap.controls import ReSyncControl, SyncAction, SyncMode
from repro.ldap.entry import Entry
from repro.ldap.query import Scope, SearchRequest
from repro.server import DirectoryServer, Modification
from repro.server.faults import FaultyNetwork
from repro.server.operations import UpdateOp, UpdateRecord
from repro.sync import (
    DurabilityConfig,
    FileJournal,
    JournalBackend,
    MemoryJournal,
    ResilientConsumer,
    ResyncProvider,
    SyncedContent,
    SyncProtocolError,
    SyncUpdate,
)
from repro.sync.durability import (
    DNMemo,
    record_from_wire,
    record_to_wire,
    request_from_wire,
    request_to_wire,
    session_from_wire,
    session_to_wire,
    update_from_wire,
    update_to_wire,
)
from repro.sync.session import Session
from tests.oracles import RetainResyncProvider, copied_pdu, observe, recover_parsing_each_text

REQUEST = SearchRequest("o=xyz", Scope.SUB, "(objectClass=person)")


def person(name: str, dept: str = "42") -> Entry:
    return Entry(
        f"cn={name},o=xyz",
        {"objectClass": ["person"], "cn": name, "sn": "T", "departmentNumber": dept},
    )


def build_master(n: int = 6) -> DirectoryServer:
    master = DirectoryServer("M")
    master.add_naming_context("o=xyz")
    master.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
    for i in range(n):
        master.add(person(f"P{i}"))
    return master


def durable_provider(master, journal=None, **cfg) -> ResyncProvider:
    journal = journal if journal is not None else MemoryJournal()
    return ResyncProvider(
        master, durability=DurabilityConfig(**cfg), journal=journal
    )


# ----------------------------------------------------------------------
# wire serialization round trips
# ----------------------------------------------------------------------
class TestWireFormat:
    def test_request_round_trip(self):
        req = SearchRequest("c=us,o=xyz", Scope.ONE, "(sn=T)", ["cn", "sn"])
        assert request_from_wire(request_to_wire(req), DNMemo()) == req

    def test_request_round_trip_all_attributes(self):
        assert request_from_wire(request_to_wire(REQUEST), DNMemo()) == REQUEST

    def test_update_round_trip(self):
        for update in (
            copied_pdu(SyncAction.ADD, person("A")),
            copied_pdu(SyncAction.MODIFY, person("B")),
            SyncUpdate.delete(person("C").dn),
            SyncUpdate.retain(person("D").dn),
        ):
            back = update_from_wire(update_to_wire(update), DNMemo())
            assert back.action == update.action
            assert back.dn == update.dn
            assert (back.entry is None) == (update.entry is None)
            if update.entry is not None:
                assert back.entry == update.entry

    def test_record_round_trip(self):
        before, after = person("A"), person("A", dept="99")
        record = UpdateRecord(
            csn=7, op=UpdateOp.MODIFY, dn=before.dn, before=before, after=after
        )
        back = record_from_wire(record_to_wire(record), DNMemo())
        assert back.csn == 7 and back.op is UpdateOp.MODIFY
        assert back.dn == record.dn and back.effective_dn == record.effective_dn
        assert back.after == after
        assert back.before.dn is back.after.dn is back.dn  # one DN per name

    def test_session_round_trip(self):
        session = Session("s9", REQUEST)
        session.seed_content([person("A").dn, person("B").dn])
        observe(
            session,
            in_before=True,
            in_after=True,
            old_dn=person("A").dn,
            new_dn=person("A").dn,
            after_entry=person("A", dept="99"),
        )
        session.generation = 3
        session.polls = 5
        session.drain_csn = 11
        session.prev_drain_csn = 9
        back = session_from_wire(session_to_wire(session), DNMemo())
        assert back.session_id == "s9" and back.request == REQUEST
        assert back.content_dns == session.content_dns
        assert back.generation == 3 and back.polls == 5
        assert back.pending_count == session.pending_count
        assert (back.drain_csn, back.prev_drain_csn) == (11, 9)
        # A second trip is byte-stable (the wire format is canonical).
        assert session_to_wire(back) == session_to_wire(session)

    def test_a_session_image_with_a_pending_bytes_key_still_decodes(self):
        """Images once carried a ``pending_bytes`` key for the history's
        byte cap; the decoder reads keys by name, so such an image still
        loads, into the same session."""
        session = Session("s9", REQUEST)
        session.seed_content([person("A").dn])
        observe(
            session,
            in_before=True,
            in_after=True,
            old_dn=person("A").dn,
            new_dn=person("A").dn,
            after_entry=person("A", dept="99"),
        )
        wire = session_to_wire(session)
        assert "pending_bytes" not in wire
        back = session_from_wire({**wire, "pending_bytes": 123}, DNMemo())
        assert session_to_wire(back) == wire


# ----------------------------------------------------------------------
# journal backends
# ----------------------------------------------------------------------
class TestJournalLessProviderSerialisesNothing:
    def test_update_is_not_serialised_without_a_journal(self, monkeypatch):
        """Regression: ``on_update`` built the ``update`` record — both
        entry images through ``record_to_wire`` — before checking that a
        journal was attached, then threw it away."""
        import repro.sync.resync as resync

        calls = []
        real = resync.record_to_wire

        def counting(record):
            calls.append(record.csn)
            return real(record)

        monkeypatch.setattr(resync, "record_to_wire", counting)
        master = build_master()
        provider = ResyncProvider(master)
        content = SyncedContent(REQUEST)
        content.poll(provider)
        master.modify("cn=P0,o=xyz", [Modification.replace("sn", "S")])
        master.add(person("P9"))
        assert calls == []
        content.poll(provider)
        assert content.matches_master(master)

        journaled = durable_provider(build_master())
        journaled.server.add(person("P9"))
        assert len(calls) == 1  # exactly once per update when durable


class TestJournalBackends:
    @pytest.fixture(params=["memory", "file"])
    def journal(self, request, tmp_path):
        if request.param == "memory":
            return MemoryJournal()
        return FileJournal(str(tmp_path / "journal"))

    def test_append_load_round_trip(self, journal):
        events = [{"t": "update", "csn": i} for i in range(5)]
        for event in events:
            journal.append(event)
        snapshot, records, dropped = journal.load()
        assert snapshot is None and records == events and dropped == 0
        assert journal.record_count == 5
        assert journal.size_bytes > 0

    def test_snapshot_truncates_journal(self, journal):
        journal.append({"t": "update", "csn": 1})
        journal.write_snapshot({"csn": 1, "sessions": []})
        journal.append({"t": "update", "csn": 2})
        snapshot, records, dropped = journal.load()
        assert snapshot == {"csn": 1, "sessions": []}
        assert records == [{"t": "update", "csn": 2}] and dropped == 0

    def test_truncation_drops_tail(self, journal):
        for i in range(10):
            journal.append({"t": "update", "csn": i})
        journal.damage_truncate(0.5)
        snapshot, records, dropped = journal.load()
        assert [r["csn"] for r in records] == [0, 1, 2, 3, 4]
        assert dropped == 0  # a clean tear, nothing unreadable

    def test_corruption_ends_readable_stream(self, journal):
        for i in range(10):
            journal.append({"t": "update", "csn": i})
        journal.damage_corrupt(0.5)
        snapshot, records, dropped = journal.load()
        assert [r["csn"] for r in records] == [0, 1, 2, 3, 4]
        assert dropped == 5  # the damaged record and everything after

    def test_corrupt_snapshot_voids_everything(self, journal):
        journal.write_snapshot({"csn": 3, "sessions": []})
        journal.damage_corrupt(0.0)  # journal empty -> snapshot corrupted
        journal.append({"t": "update", "csn": 4})
        snapshot, records, dropped = journal.load()
        assert snapshot is None and records == [] and dropped == 2

    def test_backends_account_the_same_bytes(self, tmp_path):
        """``FileJournal`` answers ``size_bytes`` from ``stat``; it must
        be the number the shared definition computes from the text."""
        memory, on_disk = MemoryJournal(), FileJournal(str(tmp_path / "j"))
        for journal in (memory, on_disk):
            sizes = []
            for i in range(3):
                journal.append({"t": "update", "csn": i, "dn": "cn=é,o=xyz"})
                sizes.append(journal.size_bytes)
            journal.write_snapshot({"csn": 2, "sessions": []})
            journal.append({"t": "update", "csn": 3})
            journal.damage_corrupt(0.0)
            sizes.append(journal.size_bytes)
            journal.sizes = sizes
        assert memory.sizes == on_disk.sizes
        assert on_disk.sizes[-1] == JournalBackend.size_bytes.fget(on_disk)

    def test_memory_journal_size_is_the_full_sum_as_it_goes(self):
        """``MemoryJournal`` keeps ``size_bytes`` as a running total; it
        and the ``journal_bytes`` gauge the provider sets must read what
        the shared definition sums from the text, across appends,
        compaction and both damage hooks."""
        master = build_master()
        journal = MemoryJournal()
        provider = durable_provider(master, journal=journal, snapshot_interval=5)
        gauge = master.metrics.gauge("sync.durability.journal_bytes")

        def full() -> int:
            return JournalBackend.size_bytes.fget(journal)

        content = SyncedContent(REQUEST)
        content.poll(provider)
        for step in range(12):
            master.modify(f"cn=P{step % 6},o=xyz", [Modification.replace("sn", f"S{step}")])
            content.poll(provider)
            assert journal.size_bytes == gauge.value == full() > 0
        assert master.metrics.counter("sync.durability.snapshots").value >= 2
        for damage in (lambda: journal.damage_truncate(0.5), lambda: journal.damage_corrupt(0.5)):
            master.modify("cn=P0,o=xyz", [Modification.replace("sn", "again")])
            damage()
            assert journal.size_bytes == full()
            master.modify("cn=P1,o=xyz", [Modification.replace("sn", "again")])
            assert journal.size_bytes == gauge.value == full()

    def test_file_journal_survives_reopen(self, tmp_path):
        path = str(tmp_path / "j")
        journal = FileJournal(path)
        journal.append({"t": "update", "csn": 1})
        journal.write_snapshot({"csn": 1})
        journal.append({"t": "update", "csn": 2})
        journal.close()
        reopened = FileJournal(path)
        snapshot, records, dropped = reopened.load()
        assert snapshot == {"csn": 1}
        assert records == [{"t": "update", "csn": 2}] and dropped == 0


class TestDurabilityConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DurabilityConfig(snapshot_interval=0)
        with pytest.raises(ValueError):
            DurabilityConfig(history_max_entries=0)

    def test_journal_implies_default_config(self):
        provider = ResyncProvider(build_master(), journal=MemoryJournal())
        assert provider.durability == DurabilityConfig()


# ----------------------------------------------------------------------
# crash recovery
# ----------------------------------------------------------------------
class TestRecovery:
    def test_recover_without_journal_raises(self):
        provider = ResyncProvider(build_master())
        with pytest.raises(RuntimeError):
            provider.recover()

    def test_cookie_survives_crash_with_incremental_delta(self):
        master = build_master()
        provider = durable_provider(master)
        content = SyncedContent(REQUEST)
        initial = content.poll(provider)
        assert len(initial.updates) == 6

        master.modify("cn=P1,o=xyz", [Modification.replace("sn", "S")])
        provider.restart()
        provider.recover()

        delta = content.poll(provider)  # the pre-crash cookie still works
        assert [str(u.dn) for u in delta.updates] == ["cn=P1,o=xyz"]
        assert content.matches_master(master)
        assert master.metrics.counter("sync.durability.recoveries").value == 1

    def test_update_records_carry_values_stored_under_an_alias(self):
        # The journal writes every value of both images, whatever
        # spelling stored it: a replayed modify delivers the whole entry.
        master = build_master(0)
        master.add(
            Entry(
                "cn=a,o=xyz",
                {"objectClass": ["person"], "commonName": "a", "surname": "aa"},
            )
        )
        provider = durable_provider(master)
        content = SyncedContent(REQUEST)
        content.poll(provider)
        master.modify("cn=a,o=xyz", [Modification.replace("telephoneNumber", "1")])
        provider.restart()
        provider.recover()
        content.poll(provider)
        (held,) = content.entries.values()
        assert held.get("surname") == ["aa"] and held.get("commonName") == ["a"]
        assert content.matches_master(master)

    def test_unchanged_master_resumes_with_empty_delta(self):
        master = build_master()
        provider = durable_provider(master)
        content = SyncedContent(REQUEST)
        content.poll(provider)
        provider.restart()
        provider.recover()
        assert content.poll(provider).updates == []

    def test_snapshot_compaction_path(self):
        master = build_master()
        provider = durable_provider(master, snapshot_interval=3)
        content = SyncedContent(REQUEST)
        content.poll(provider)
        for i in range(6):
            master.modify("cn=P0,o=xyz", [Modification.replace("sn", f"S{i}")])
            content.poll(provider)
        assert master.metrics.counter("sync.durability.snapshots").value >= 2
        master.delete("cn=P5,o=xyz")
        provider.restart()
        provider.recover()
        content.poll(provider)
        assert content.matches_master(master)

    def test_multiple_sessions_and_mid_life_crash(self):
        master = build_master()
        provider = durable_provider(master)
        requests = [
            SearchRequest("o=xyz", Scope.SUB, f"(cn=P{i})") for i in range(4)
        ]
        consumers = [SyncedContent(r) for r in requests]
        for consumer in consumers:
            consumer.poll(provider)
        master.modify("cn=P2,o=xyz", [Modification.replace("sn", "X")])
        consumers[0].poll(provider)  # different generations across sessions
        provider.restart()
        assert provider.active_session_count == 0
        provider.recover()
        assert provider.active_session_count == 4
        for consumer in consumers:
            consumer.poll(provider)
            assert consumer.matches_master(master)

    def test_persist_sessions_are_dropped_on_recovery(self):
        master = build_master()
        provider = durable_provider(master)
        received = []
        response, handle = provider.persist(REQUEST, received.append)
        assert provider.active_session_count == 1
        provider.restart()
        provider.recover()
        # No cookie was ever issued for the persist session; it cannot
        # be resumed and must not linger.
        assert provider.active_session_count == 0

    @pytest.mark.parametrize("interval", [1, 2, 3, 4, 5, 8])
    def test_no_compaction_while_a_fan_out_is_in_flight(self, interval):
        """A persist deliver callback that updates the master re-enters
        ``on_update``; a snapshot falling due in there would compact the
        journal while the outer record has not reached the later
        sessions — they would silently miss it after a crash.  The
        snapshot waits for the outermost ``on_update``."""
        master = build_master()
        provider = durable_provider(master, snapshot_interval=interval)
        nested = []

        def deliver(update):
            if not nested:
                nested.append(update)
                master.modify("cn=P2,o=xyz", [Modification.replace("sn", "inner")])

        provider.persist(REQUEST, deliver)  # session 1: reached first
        poller = SyncedContent(REQUEST)  # session 2: reached after it
        poller.poll(provider)
        snapshots = master.metrics.counter("sync.durability.snapshots")
        taken = snapshots.value

        master.modify("cn=P1,o=xyz", [Modification.replace("sn", "outer")])
        assert nested
        if interval <= 2:  # both updates' appends alone reach the cadence
            assert snapshots.value == taken + 1  # once, by the outer call

        provider.restart()
        provider.recover()
        poller.poll(provider)
        assert poller.matches_master(master)

    def test_torn_tail_drops_sessions_instead_of_diverging(self):
        master = build_master()
        journal = MemoryJournal()
        provider = durable_provider(master, journal=journal)
        content = SyncedContent(REQUEST)
        content.poll(provider)
        master.modify("cn=P1,o=xyz", [Modification.replace("sn", "S")])
        # The crash tears off the committed update's journal record
        # (keeping the session-create record before it).
        journal.damage_truncate(0.5)
        provider.restart()
        provider.recover()
        assert provider.active_session_count == 0
        assert master.metrics.counter("sync.durability.sessions_lost").value >= 1
        # The consumer's next poll is refused; the reload path converges.
        with pytest.raises(SyncProtocolError):
            content.poll(provider)
        content.cookie = None
        content.poll(provider)
        assert content.matches_master(master)

    def test_corrupted_journal_is_counted_and_safe(self):
        master = build_master()
        journal = MemoryJournal()
        provider = durable_provider(master, journal=journal)
        content = SyncedContent(REQUEST)
        content.poll(provider)
        master.modify("cn=P1,o=xyz", [Modification.replace("sn", "S")])
        journal.damage_corrupt(0.9)
        provider.restart()
        provider.recover()
        assert master.metrics.counter("sync.durability.dropped_records").value >= 1
        content.cookie = None  # reload regardless of what survived
        content.poll(provider)
        assert content.matches_master(master)

    def test_unknown_journal_record_kinds_are_skipped(self):
        master = build_master()
        journal = MemoryJournal()
        provider = durable_provider(master, journal=journal)
        content = SyncedContent(REQUEST)
        content.poll(provider)
        journal.append({"t": "future-kind", "payload": 1})
        provider.restart()
        provider.recover()
        content.poll(provider)
        assert content.matches_master(master)

    def test_lazy_router_reregistration(self):
        master = build_master()
        provider = durable_provider(master)
        assert provider.router is not None
        content = SyncedContent(REQUEST)
        content.poll(provider)
        provider.restart()
        provider.recover()
        sid = next(iter(provider.sessions.active_sessions())).session_id
        # Recovery registers the surviving session with the content its
        # image carries, so the very next update fans out through the router.
        assert provider.sessions.get(sid).serial is not None
        notified = master.metrics.counter("sync.route.notified")
        before = notified.value
        master.add(person("P9"))
        assert notified.value == before + 1
        content.poll(provider)
        assert provider.sessions.get(sid).serial is not None
        master.add(person("P10"))
        content.poll(provider)
        assert content.matches_master(master)

    def test_file_journal_recovery_across_provider_instances(self, tmp_path):
        master = build_master()
        journal = FileJournal(str(tmp_path / "journal"))
        provider = ResyncProvider(master, journal=journal)
        content = SyncedContent(REQUEST)
        content.poll(provider)
        master.modify("cn=P3,o=xyz", [Modification.replace("sn", "Z")])
        provider.detach()
        provider.detach()  # idempotent
        journal.close()
        # A brand-new provider instance on the same directory.
        recovered = ResyncProvider(
            master, journal=FileJournal(str(tmp_path / "journal"))
        )
        recovered.recover()
        delta = content.poll(recovered)
        assert [str(u.dn) for u in delta.updates] == ["cn=P3,o=xyz"]
        assert content.matches_master(master)

    def test_network_crash_recovers_durable_provider(self):
        master = build_master()
        provider = durable_provider(master)
        net = FaultyNetwork()
        consumer = ResilientConsumer(REQUEST, provider, network=net, seed=1)
        consumer.sync_once()
        master.modify("cn=P0,o=xyz", [Modification.replace("sn", "Q")])
        net.crash(provider)  # restart + journal recovery in one step
        assert provider.active_session_count == 1
        assert ReferenceModel.of(master).converge(consumer.sync_once, [consumer.content], 64)


# ----------------------------------------------------------------------
# recovery decodes each DN text once
# ----------------------------------------------------------------------
OVERLAPPING = (
    REQUEST,
    SearchRequest("o=xyz", Scope.SUB, "(departmentNumber=42)"),
    SearchRequest("o=xyz", Scope.ONE, "(sn=T)"),
    SearchRequest("o=xyz", Scope.SUB, "(|(cn=P1*)(cn=P2*))"),
)


def overlapping_sessions():
    """A durable provider whose journal holds a snapshot of four
    overlapping sessions — pending, unacknowledged and delivered sets
    that differ, a degraded resume — and a tail with every kind that
    carries DN texts (``update`` with a rename and a delete, ``create``,
    ``resume``)."""
    master = build_master(24)
    provider = durable_provider(master, snapshot_interval=10_000, history_max_entries=6)
    contents = [SyncedContent(r) for r in OVERLAPPING]
    for content in contents:
        content.poll(provider)
    master.modify("cn=P1,o=xyz", [Modification.replace("departmentNumber", "7")])
    master.modify("cn=P2,o=xyz", [Modification.replace("sn", "U")])
    contents[0].poll(provider)  # drained: unacknowledged until the next poll
    master.modify_dn("cn=P3,o=xyz", "cn=P30")
    for i in range(6, 10):  # overflows two histories: their polls resume degraded
        master.modify(f"cn=P{i},o=xyz", [Modification.replace("sn", f"S{i}")])
    contents[1].poll(provider)
    contents[2].poll(provider)
    provider.restart()
    provider.recover()  # compacts: the state so far is the snapshot
    late = SyncedContent(SearchRequest("o=xyz", Scope.SUB, "(cn=P2*)"))
    late.poll(provider)  # create
    master.delete("cn=P4,o=xyz")
    master.modify_dn("cn=P5,o=xyz", "cn=P50")
    master.modify("cn=P20,o=xyz", [Modification.replace("departmentNumber", "9")])
    contents[3].poll(provider)
    for i in range(16, 24):
        master.modify(f"cn=P{i},o=xyz", [Modification.replace("sn", f"R{i}")])
    contents[1].poll(provider)  # resume
    master.modify("cn=P21,o=xyz", [Modification.replace("sn", "Q")])
    return master, provider


#: SHA-256 of the journal :func:`overlapping_sessions` leaves (its tail
#: records) and of the compaction snapshot a recovery of it writes, as
#: the provider wrote them before recovery shared one DN per name: the
#: record format and the snapshot format did not move.  The snapshot
#: hash was taken again once since, when the byte cap on a session's
#: history went: its session images lost their ``pending_bytes`` key and
#: nothing else.
TAIL_SHA256 = "f772e0ce7028f1c349ecdfd24457f5154120c669d74b9212634069ced3001e6f"
COMPACTION_SHA256 = "715db7d871703ee50fb4aef5d38e7e2a6dc4da33af1afa962c817d2c8b77b182"


def _state(session):
    def updates(held):
        return {
            dn: (u.action, u.dn, None if u.entry is None else dict(u.entry))
            for dn, u in held.items()
        }

    return (
        session.content_dns,
        session._delivered,
        updates(session._pending),
        updates(session._unacked),
        session.generation,
    )


def _dn_objects(provider):
    """Every DN object the recovered sessions hold, by name."""
    held = {}
    for session in provider.sessions.active_sessions():
        for dns in (session.content_dns, session._delivered, session._pending, session._unacked):
            for dn in dns:
                held.setdefault(str(dn), set()).add(id(dn))
    return held


class TestRecoverySharesOneDNPerName:
    def recovered(self):
        master, live = overlapping_sessions()
        live.detach()
        assert hashlib.sha256("\n".join(live.journal._records).encode()).hexdigest() == TAIL_SHA256
        shared, alone = (
            ResyncProvider(master, durability=live.durability, journal=copy.deepcopy(live.journal))
            for _ in range(2)
        )
        assert shared.recover() == recover_parsing_each_text(alone) == 15
        return shared, alone

    def test_sessions_equal_those_decoded_text_by_text(self):
        shared, alone = self.recovered()
        assert [s.session_id for s in shared.sessions.active_sessions()] == [
            s.session_id for s in alone.sessions.active_sessions()
        ] == ["s1", "s2", "s3", "s4", "s5"]
        for a, b in zip(shared.sessions.active_sessions(), alone.sessions.active_sessions()):
            assert _state(a) == _state(b)
        assert dict(shared._last_change) == dict(alone._last_change)

    def test_each_name_is_one_object_across_sessions(self):
        shared, alone = self.recovered()
        held = _dn_objects(shared)
        assert all(len(ids) == 1 for ids in held.values())
        # The reference holds one per occurrence: the check is not vacuous.
        assert any(len(ids) > 1 for ids in _dn_objects(alone).values())

    def test_compaction_snapshot_is_byte_identical(self):
        shared, alone = self.recovered()
        assert shared.journal._snapshot == alone.journal._snapshot
        assert hashlib.sha256(shared.journal._snapshot.encode()).hexdigest() == COMPACTION_SHA256


# ----------------------------------------------------------------------
# bounded histories -> degraded (eq. 3) resume
# ----------------------------------------------------------------------
class TestHistoryCap:
    def test_overflow_degrades_and_converges(self):
        master = build_master()
        provider = durable_provider(master, history_max_entries=2)
        content = SyncedContent(REQUEST)
        content.poll(provider)
        for i in range(5):
            master.modify(f"cn=P{i},o=xyz", [Modification.replace("sn", f"S{i}")])
        response = content.poll(provider)
        assert response.uses_retain  # eq.-3 resume, not a history drain
        assert response.cookie.endswith(":h")  # degraded stamp
        assert content.matches_master(master)
        assert master.metrics.counter("sync.durability.history_overflow").value == 1
        assert master.metrics.counter("sync.durability.degraded_resumes").value == 1

    def test_next_poll_after_degraded_resume_is_complete_history_again(self):
        master = build_master()
        provider = durable_provider(master, history_max_entries=2)
        content = SyncedContent(REQUEST)
        content.poll(provider)
        for i in range(5):
            master.modify(f"cn=P{i},o=xyz", [Modification.replace("sn", f"S{i}")])
        content.poll(provider)  # degraded resume
        master.delete("cn=P4,o=xyz")
        response = content.poll(provider)
        assert not response.uses_retain
        assert [str(u.dn) for u in response.updates] == ["cn=P4,o=xyz"]
        assert content.matches_master(master)

    def test_large_entries_resume_from_history_under_the_entry_cap(self):
        """Only the entry count bounds a history: a few large changes
        resume as a complete-history drain, not a degraded one."""
        master = build_master()
        provider = durable_provider(master, history_max_entries=8)
        content = SyncedContent(REQUEST)
        content.poll(provider)
        for i in range(4):
            master.modify(
                f"cn=P{i},o=xyz", [Modification.replace("description", "x" * 4096)]
            )
        response = content.poll(provider)
        assert not response.uses_retain
        assert sorted(str(u.dn) for u in response.updates) == [
            f"cn=P{i},o=xyz" for i in range(4)
        ]
        assert content.matches_master(master)
        assert master.metrics.counter("sync.durability.history_overflow").value == 0

    def test_lost_degraded_response_is_reserved_on_retry(self):
        master = build_master()
        provider = durable_provider(master, history_max_entries=2)
        content = SyncedContent(REQUEST)
        content.poll(provider)
        old_cookie = content.cookie
        for i in range(5):
            master.modify(f"cn=P{i},o=xyz", [Modification.replace("sn", f"S{i}")])
        first = provider.handle(
            REQUEST, ReSyncControl(mode=SyncMode.POLL, cookie=old_cookie)
        )
        assert first.uses_retain
        # The response is lost: the consumer retries with its old cookie
        # and must get an equivalent degraded resume, not a (now empty)
        # complete-history drain that would strand the stale entries.
        retry = provider.handle(
            REQUEST, ReSyncControl(mode=SyncMode.POLL, cookie=old_cookie)
        )
        assert retry.uses_retain
        content.apply(retry)
        content.cookie = retry.cookie
        assert content.matches_master(master)
        assert master.metrics.counter("sync.durability.degraded_resumes").value == 2

    def test_degraded_resume_refused_in_persist_mode(self):
        master = build_master()
        provider = durable_provider(master, history_max_entries=1)
        content = SyncedContent(REQUEST)
        content.poll(provider)
        for i in range(4):
            master.modify(f"cn=P{i},o=xyz", [Modification.replace("sn", f"S{i}")])
        with pytest.raises(SyncProtocolError):
            provider.persist(REQUEST, lambda u: None, cookie=content.cookie)

    def test_overflow_survives_crash_recovery(self):
        master = build_master()
        provider = durable_provider(master, history_max_entries=2)
        content = SyncedContent(REQUEST)
        content.poll(provider)
        for i in range(5):
            master.modify(f"cn=P{i},o=xyz", [Modification.replace("sn", f"S{i}")])
        provider.restart()
        provider.recover()
        session = provider.sessions.active_sessions()[0]
        assert session.history_overflowed  # replay re-derived the overflow
        response = content.poll(provider)
        assert response.uses_retain
        assert content.matches_master(master)

    def test_no_unbounded_growth_in_soak(self):
        """A session never polled again must not grow beyond its cap."""
        master = build_master(12)
        provider = durable_provider(master, history_max_entries=8)
        content = SyncedContent(REQUEST)
        content.poll(provider)
        session = provider.sessions.active_sessions()[0]
        for step in range(500):
            master.modify(
                f"cn=P{step % 12},o=xyz", [Modification.replace("sn", f"S{step}")]
            )
            assert session.pending_count <= 8
        assert session.history_overflowed
        assert session.pending_count == 0
        content.poll(provider)
        assert content.matches_master(master)


# ----------------------------------------------------------------------
# rebuild storms are served, not paced
# ----------------------------------------------------------------------
class TestRebuildStorm:
    def test_every_null_cookie_rebuild_is_served(self):
        master = build_master()
        provider = durable_provider(master)
        contents = [SyncedContent(REQUEST) for _ in range(6)]
        for content in contents:
            response = content.poll(provider)
            assert not response.uses_retain
            assert content.matches_master(master)
        # A resume after the storm is a history drain like any other.
        master.delete("cn=P0,o=xyz")
        response = contents[0].poll(provider)
        assert [str(u.dn) for u in response.updates] == ["cn=P0,o=xyz"]
        assert contents[0].matches_master(master)

    def test_resilient_consumers_get_in_on_the_first_attempt(self):
        master = build_master()
        provider = durable_provider(master)
        net = FaultyNetwork()
        consumers = [
            ResilientConsumer(REQUEST, provider, network=net, seed=i)
            for i in range(4)
        ]
        for consumer in consumers:
            assert consumer.sync_once() is not None
            assert consumer.content.matches_master(master)
        assert net.registry.counter("sync.resilient.retries").value == 0
        assert net.registry.gauge("sync.resilient.backoff_ms").value == 0.0

    def test_a_post_recovery_storm_converges_in_one_sync_each(self):
        master = build_master()
        journal = MemoryJournal()
        provider = durable_provider(master, journal=journal)
        net = FaultyNetwork()
        consumers = [
            ResilientConsumer(REQUEST, provider, network=net, seed=i)
            for i in range(5)
        ]
        for consumer in consumers:
            consumer.sync_once()
        # Tear the whole journal: recovery drops every session, so all
        # five consumers need full rebuilds at once.
        journal.damage_truncate(0.0)
        journal.damage_corrupt(0.0)
        provider.restart()
        provider.recover()
        assert provider.sessions.active_sessions() == []
        for consumer in consumers:
            consumer.sync_once()
            assert consumer.content.matches_master(master)
        assert net.registry.counter("sync.resilient.retries").value == 0


# ----------------------------------------------------------------------
# satellite bugfixes
# ----------------------------------------------------------------------
class TestUnknownCookieNoOp:
    def test_end_unknown_cookie_is_counted(self):
        master = build_master()
        provider = ResyncProvider(master)
        provider.handle(REQUEST, ReSyncControl(mode=SyncMode.SYNC_END, cookie="s99:0"))
        assert master.metrics.counter("sync.session.unknown_cookie").value == 1

    def test_double_end_is_counted_not_raised(self):
        master = build_master()
        provider = ResyncProvider(master)
        content = SyncedContent(REQUEST)
        content.poll(provider)
        cookie = content.cookie
        provider.invalidate_cookie(cookie)
        provider.invalidate_cookie(cookie)  # already gone: counted no-op
        assert master.metrics.counter("sync.session.unknown_cookie").value == 1

    def test_durable_provider_counts_too(self):
        master = build_master()
        provider = durable_provider(master)
        provider.invalidate_cookie("s5:1")
        assert master.metrics.counter("sync.session.unknown_cookie").value == 1
        # Nothing was journaled for the no-op: recovery is unaffected.
        provider.restart()
        provider.recover()
        assert provider.active_session_count == 0

    def test_retain_provider_counts_malformed_end(self):
        master = build_master()
        provider = RetainResyncProvider(master)
        provider.handle(
            REQUEST, ReSyncControl(mode=SyncMode.SYNC_END, cookie="bogus")
        )
        assert master.metrics.counter("sync.session.unknown_cookie").value == 1
        provider.handle(
            REQUEST, ReSyncControl(mode=SyncMode.SYNC_END, cookie="csn:3")
        )
        assert master.metrics.counter("sync.session.unknown_cookie").value == 1


class TestExpiryMidDelivery:
    def test_expire_during_persist_delivery_is_safe(self):
        """Session expiry fired by a poll *inside* a persist delivery
        must neither corrupt the store nor expire the draining session
        (the two-phase `_expire` regression)."""
        master = build_master()
        provider = ResyncProvider(master, idle_limit=3)
        poller = SyncedContent(SearchRequest("o=xyz", Scope.SUB, "(cn=P1)"))

        delivered = []

        def deliver(update):
            delivered.append(update)
            # Re-enter the session store mid-delivery: this poll ticks
            # the activity clock far enough to expire the persist
            # session that is currently draining.
            for _ in range(4):
                poller.poll(provider)

        response, handle = provider.persist(REQUEST, deliver)
        persist_sid = [
            s.session_id
            for s in provider.sessions.active_sessions()
            if s.persist_queue is not None
        ][0]
        master.add(person("P7"))  # triggers delivery -> reentrant polls
        assert delivered
        # The draining session survived the reentrant expiry sweep...
        assert provider.sessions.get(persist_sid) is not None
        # ...and keeps receiving notifications afterwards.
        before = len(delivered)
        master.add(person("P8"))
        assert len(delivered) > before

    @pytest.mark.parametrize("snapshot_interval", [1000, 5])
    def test_sessions_expired_mid_journal_stay_expired_after_recovery(
        self, snapshot_interval
    ):
        """Expiry is not journaled — it is a function of the activity
        clock — so replaying the journal (from its start, or from a
        snapshot whose sessions are adopted with restored ticks) must
        expire exactly the sessions the live provider expired."""
        master = build_master()
        provider = ResyncProvider(
            master,
            idle_limit=3,
            durability=DurabilityConfig(snapshot_interval=snapshot_interval),
            journal=MemoryJournal(),
        )
        contents = [
            SyncedContent(SearchRequest("o=xyz", Scope.SUB, f"(cn=P{i})"))
            for i in range(6)
        ]
        for content in contents:
            content.poll(provider)
        # 0 and 1 keep polling; 2 polls once more, late; 3, 4 and 5 go idle.
        for step, who in enumerate([0, 1, 0, 2, 1, 0, 1, 0, 1, 0]):
            master.modify(f"cn=P{who},o=xyz", [Modification.replace("sn", f"S{step}")])
            contents[who].poll(provider)
        live = [session_to_wire(s) for s in provider.sessions.active_sessions()]
        assert [wire["sid"] for wire in live] == ["s1", "s2"]  # the rest expired
        clock = (provider.sessions.tick, provider.sessions.next_id)
        if snapshot_interval == 5:
            assert master.metrics.counter("sync.durability.snapshots").value >= 2

        provider.restart()
        assert provider.active_session_count == 0
        provider.recover()

        assert [session_to_wire(s) for s in provider.sessions.active_sessions()] == live
        assert (provider.sessions.tick, provider.sessions.next_id) == clock
        for content in contents[:2]:
            content.poll(provider)
            assert content.matches_master(master)
        for content in contents[2:]:
            with pytest.raises(SyncProtocolError):
                content.poll(provider)

    def test_idle_sessions_still_expire(self):
        master = build_master()
        provider = ResyncProvider(master, idle_limit=2)
        stale = SyncedContent(SearchRequest("o=xyz", Scope.SUB, "(cn=P0)"))
        stale.poll(provider)
        busy = SyncedContent(REQUEST)
        busy.poll(provider)
        for _ in range(4):
            busy.poll(provider)
        assert provider.active_session_count == 1
        with pytest.raises(SyncProtocolError):
            stale.poll(provider)
