"""Entry images: who owns, who copies (DESIGN.md).

A committed entry image is one frozen object shared by the store, the
update record, every session history, the update PDU and every replica
content — whether the replica got it in an update, in its initial
load, in a reconcile fetch or in a degraded resume — and every
all-attribute search result.  Caller-owned entries cross that boundary
by copy on the way in (``add``/``load``); on the way
out only a projection under an attribute list is a new entry.  So
nothing a caller holds can edit what is shared, what is shared raises
when edited, and a caller that edits a shared result edits its
``copy()``.
"""

import pytest

from repro.ldap import DN, Entry, Scope, SearchRequest, SyncAction
from repro.server import DirectoryServer, Modification, SimulatedNetwork
from repro.server.operations import UpdateOp
from repro.sync import (
    DurabilityConfig,
    MemoryJournal,
    ReconcileFetch,
    ReconcileRequest,
    ResyncProvider,
    SyncedContent,
    SyncUpdate,
)
from repro.sync.reconcile import entry_key
from tests.oracles import copied_pdu, decode_sync_update, encode_sync_update

REQUEST = SearchRequest("o=xyz", Scope.SUB, "(objectClass=person)")
P1 = DN.parse("cn=P1,o=xyz")


def person(name: str, **extra) -> Entry:
    return Entry(
        f"cn={name},o=xyz",
        {"objectClass": ["person"], "cn": name, "sn": "T", **extra},
    )


@pytest.fixture
def master() -> DirectoryServer:
    server = DirectoryServer("M")
    server.add_naming_context("o=xyz")
    server.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
    for i in range(3):
        server.add(person(f"P{i}"))
    return server


class _Records:
    def __init__(self):
        self.seen = []

    def on_update(self, record):
        self.seen.append(record)


def assert_frozen(entry: Entry) -> None:
    assert entry.frozen
    held = sorted(entry)
    with pytest.raises(TypeError):
        entry.put("sn", "edited")
    with pytest.raises(TypeError):
        entry.add_values("objectClass", "edited")
    with pytest.raises(TypeError):
        entry.remove_values("objectClass")
    assert sorted(entry) == held


# ----------------------------------------------------------------------
# the boundaries copy: a caller's entry never aliases a shared image
# ----------------------------------------------------------------------
class TestCallerOwnedEntriesAreCopied:
    def test_entry_passed_to_add_stays_the_callers(self, master):
        provider = ResyncProvider(master)
        poller = SyncedContent(REQUEST)
        poller.poll(provider)
        pushed = SyncedContent(REQUEST)
        provider.persist(REQUEST, pushed.apply_notification)
        session = provider.sessions.active_sessions()[0]

        mine = person("P9")
        record = master.add(mine)
        assert not mine.frozen
        mine.put("sn", "edited")

        dn = mine.dn
        assert master.store.get(dn).first("sn") == "T"
        assert record.after.first("sn") == "T"
        assert session._pending[dn].entry.first("sn") == "T"
        assert pushed.entries[dn].first("sn") == "T"
        poller.poll(provider)
        assert poller.entries[dn].first("sn") == "T"
        assert dn not in master.store.index_for("sn").equality.lookup("edited")

    def test_entries_passed_to_load_stay_the_callers(self):
        server = DirectoryServer("M")
        server.add_naming_context("o=xyz")
        mine = [Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}), person("P1")]
        server.load(mine)
        assert not any(e.frozen for e in mine)
        mine[1].put("sn", "edited")
        assert server.store.get(P1).first("sn") == "T"
        assert server.store.get(P1) is not mine[1]

    def test_search_results_are_the_callers(self, master):
        # An all-attribute result is the shared frozen image: editing it
        # raises, and a caller that edits takes a copy().  A result under
        # an attribute list is a projection, a new mutable entry.
        provider = ResyncProvider(master)
        content = SyncedContent(REQUEST)
        content.poll(provider)

        found = master.search(SearchRequest(str(P1), Scope.BASE, "(objectClass=*)"))
        (shared,) = found.entries
        assert shared is master.store.get(P1) is content.entries[P1]
        assert_frozen(shared)
        mine = shared.copy()
        assert not mine.frozen
        mine.put("sn", "edited")
        assert master.store.get(P1).first("sn") == "T"
        assert content.entries[P1].first("sn") == "T"

        listed = master.search(SearchRequest(str(P1), Scope.BASE, "(objectClass=*)", ["sn"]))
        (projected,) = listed.entries
        assert not projected.frozen and projected is not master.store.get(P1)
        assert [name for name, _values in projected] == ["sn"]
        projected.put("sn", "edited")
        assert master.store.get(P1).first("sn") == "T"

    def test_a_pdu_freezes_what_it_is_built_over(self):
        # Direct construction shares the entry — and so freezes it: a
        # consumer adopts the PDU's entry as it is, and a session may
        # retain the PDU for retransmission.
        mine = person("P1")
        update = SyncUpdate(SyncAction.ADD, mine.dn, mine)
        assert update.entry is mine
        assert_frozen(mine)

    def test_initial_content_is_cut_loose_from_the_store(self, master):
        # Only under an attribute list: a projection is a new image, the
        # replica's own, frozen by the PDU that carries it.
        provider = ResyncProvider(master)
        content = SyncedContent(SearchRequest("o=xyz", Scope.SUB, "(objectClass=person)", ["sn"]))
        response = content.poll(provider)
        by_dn = {u.dn: u.entry for u in response.updates}
        assert content.entries[P1] is by_dn[P1]
        assert content.entries[P1] is not master.store.get(P1)
        assert [name for name, _values in content.entries[P1]] == ["sn"]
        assert_frozen(content.entries[P1])
        assert master.store.get(P1).first("cn") == "P1"


# ----------------------------------------------------------------------
# in between: one frozen object per committed image
# ----------------------------------------------------------------------
class TestOneImagePerCommit:
    def test_add_shares_one_image(self, master):
        records = _Records()
        master.add_update_listener(records)
        master.add(person("P9"))
        (record,) = records.seen
        assert record.after is master.store.get(record.dn)
        assert record.before is None
        assert_frozen(record.after)

    def test_modify_shares_before_and_after(self, master):
        was = master.store.get(P1)
        record = master.modify(P1, [Modification.replace("sn", "S")])
        assert record.before is was and was.first("sn") == "T"
        assert record.after is master.store.get(P1) and record.after.first("sn") == "S"
        assert_frozen(record.before)
        assert_frozen(record.after)

    def test_delete_hands_over_the_stored_image(self, master):
        was = master.store.get(P1)
        record = master.delete(P1)
        assert record.before is was and record.after is None
        assert_frozen(was)

    @pytest.mark.parametrize("transport", ["in-process", "network"])
    def test_persist_delivery_shares_the_stored_image(self, master, transport):
        provider = ResyncProvider(master)
        delivered = []
        contents = [SyncedContent(REQUEST) for _ in range(3)]
        net = SimulatedNetwork() if transport == "network" else None

        def deliver_to(content):
            def deliver(update):
                delivered.append(update)
                content.apply_notification(update)

            return deliver

        for content in contents:
            if net is None:
                response, _handle = provider.persist(REQUEST, deliver_to(content))
            else:
                content.network = net
                deliveries, _handle = net.persist_exchange(
                    provider, REQUEST, deliver_to(content)
                )
                response = deliveries[-1].response
            content.apply(response)

        record = master.modify(P1, [Modification.replace("sn", "S")])
        if net is not None:
            net.settle()
        stored = master.store.get(P1)
        assert record.after is stored
        assert len(delivered) == 3
        assert all(update is delivered[0] for update in delivered)  # one PDU
        assert delivered[0].entry is stored
        for content in contents:
            assert content.entries[P1] is stored
            assert content.matches_master(master)
        assert_frozen(stored)

    def test_initial_content_shares_the_stored_images(self, master):
        # An all-attribute initial load reads the store's own images:
        # the PDU wraps them, the replica adopts them.
        provider = ResyncProvider(master)
        content = SyncedContent(REQUEST)
        response = content.poll(provider)
        assert len(response.updates) == 3
        for update in response.updates:
            stored = master.store.get(update.dn)
            assert update.entry is stored and content.entries[update.dn] is stored
            assert_frozen(stored)
        # A later commit replaces the store's image, not the replica's:
        # it holds the old one until it polls.
        was = master.store.get(P1)
        master.modify(P1, [Modification.replace("sn", "S")])
        assert content.entries[P1] is was and was.first("sn") == "T"
        content.poll(provider)
        assert content.entries[P1] is master.store.get(P1)
        assert content.entries[P1].first("sn") == "S"

    def test_persist_initial_response_shares_the_stored_images(self, master):
        provider = ResyncProvider(master)
        net = SimulatedNetwork()
        content = SyncedContent(REQUEST, network=net)
        deliveries, _handle = net.persist_exchange(
            provider, REQUEST, content.apply_notification
        )
        content.apply(deliveries[-1].response)
        assert len(content.entries) == 3
        for dn, held in content.entries.items():
            assert held is master.store.get(dn)

    def test_reconcile_fetch_shares_the_stored_images(self, master):
        provider = ResyncProvider(master)
        sketch = provider.reconcile(REQUEST, ReconcileRequest())
        wanted = (entry_key(P1), entry_key(DN.parse("cn=P2,o=xyz")))
        response = provider.reconcile_fetch(
            REQUEST, ReconcileFetch(keys=wanted, cookie=sketch.cookie)
        )
        assert sorted(str(u.dn) for u in response.updates) == ["cn=P1,o=xyz", "cn=P2,o=xyz"]
        content = SyncedContent(REQUEST)
        content.apply(response)
        for update in response.updates:
            assert update.entry is master.store.get(update.dn)
            assert content.entries[update.dn] is update.entry

    def test_degraded_resume_shares_the_stored_images(self, master):
        provider = ResyncProvider(
            master,
            durability=DurabilityConfig(history_max_entries=1),
            journal=MemoryJournal(),
        )
        content = SyncedContent(REQUEST)
        content.poll(provider)
        for name in ("P0", "P1"):  # two pending actions overflow the cap of one
            master.modify(f"cn={name},o=xyz", [Modification.replace("sn", "S")])
        response = content.poll(provider)
        assert response.uses_retain and response.cookie.endswith(":h")
        sent = {u.dn: u.entry for u in response.updates if u.entry is not None}
        assert sorted(map(str, sent)) == ["cn=P0,o=xyz", "cn=P1,o=xyz"]
        for dn, entry in sent.items():
            assert entry is master.store.get(dn) and content.entries[dn] is entry
        assert content.matches_master(master)

    def test_poll_history_shares_the_stored_image(self, master):
        provider = ResyncProvider(master)
        content = SyncedContent(REQUEST)
        content.poll(provider)
        session = provider.sessions.active_sessions()[0]
        master.modify(P1, [Modification.replace("sn", "S1")])
        master.modify(P1, [Modification.replace("sn", "S2")])  # coalesced
        stored = master.store.get(P1)
        assert session._pending[P1].entry is stored
        content.poll(provider)
        assert content.entries[P1] is stored
        assert session._unacked[P1].entry is stored  # retained for a retry
        assert_frozen(content.entries[P1])

    def test_ber_decoded_pdu_is_frozen_on_arrival(self):
        wire = encode_sync_update(copied_pdu(SyncAction.ADD, person("P1")))
        update = decode_sync_update(wire)
        content = SyncedContent(REQUEST)
        content.apply_notification(update)
        assert content.entries[P1] is update.entry
        assert_frozen(update.entry)


# ----------------------------------------------------------------------
# copies of a frozen image are ordinary mutable entries
# ----------------------------------------------------------------------
class TestCopiesThaw:
    def test_copy_project_with_dn_are_mutable(self, master):
        stored = master.store.get(P1)
        assert stored.frozen
        clones = [
            stored.copy(),
            stored.project(None),
            stored.project(["*"]),
            stored.project(["sn", "cn"]),
            stored.with_dn("cn=other,o=xyz"),
        ]
        for clone in clones:
            assert not clone.frozen
            clone.put("sn", "edited")
            clone.add_values("sn", "more")
            clone.remove_values("cn")
            assert clone.get("sn") == ["edited", "more"]
        assert stored.first("sn") == "T" and stored.first("cn") == "P1"

    def test_freeze_is_idempotent_and_returns_the_entry(self):
        entry = person("P1")
        assert entry.freeze() is entry and entry.freeze() is entry
        assert entry.frozen and entry == person("P1")


# ----------------------------------------------------------------------
# the server's own edits happen before the freeze
# ----------------------------------------------------------------------
class TestServerEditsThenFreezes:
    def test_an_add_stores_the_callers_attributes_and_nothing_more(self, master):
        mine = person("P9")
        added = master.add(mine)
        assert added.after == mine and added.after is not mine
        assert sorted(added.after.attribute_names()) == sorted(mine.attribute_names())
        assert not mine.frozen  # the caller keeps its own, unedited
        assert master.store.get(added.dn) is added.after
        assert_frozen(added.after)

    def test_a_modify_changes_only_the_modified_attribute(self, master):
        modified = master.modify(P1, [Modification.replace("sn", "S")])
        assert modified.before.first("sn") == "T" and modified.after.first("sn") == "S"
        assert sorted(modified.after.attribute_names()) == sorted(
            modified.before.attribute_names()
        )
        for name in modified.before.attribute_names():
            if name != "sn":
                assert modified.after.get(name) == modified.before.get(name)
        assert master.store.get(P1) is modified.after
        assert_frozen(modified.after)

    def test_a_rename_changes_only_the_naming_attribute(self, master):
        (renamed,) = master.modify_dn(P1, new_rdn="cn=P10")
        assert renamed.after.get("cn") == ["P10"]
        assert sorted(renamed.after.attribute_names()) == sorted(
            renamed.before.attribute_names()
        )
        assert renamed.after.get("sn") == renamed.before.get("sn")
        assert renamed.after.object_classes == renamed.before.object_classes
        assert master.store.get(renamed.new_dn) is renamed.after
        assert_frozen(renamed.after)

    def test_subtree_rename_emits_correct_before_after_pairs(self, master):
        master.add(Entry("ou=a,o=xyz", {"objectClass": ["organizationalUnit"], "ou": "a"}))
        master.add(Entry("ou=b,o=xyz", {"objectClass": ["organizationalUnit"], "ou": "b"}))
        for i in range(3):
            master.add(
                Entry(
                    f"cn=K{i},ou=a,o=xyz",
                    {"objectClass": ["person"], "cn": f"K{i}", "sn": f"s{i}"},
                )
            )
        provider = ResyncProvider(master)
        content = SyncedContent(REQUEST)
        content.poll(provider)
        held = {dn: master.store.get(dn) for dn in master.store.subtree_region(DN.parse("ou=a,o=xyz"))}

        records = master.modify_dn("ou=a,o=xyz", new_rdn="ou=c", new_superior="ou=b,o=xyz")

        assert len(records) == 4 and records[0].dn == DN.parse("ou=a,o=xyz")
        for record in records:
            assert record.op is UpdateOp.MODIFY_DN
            assert record.before is held[record.dn]  # the image the store gave up
            assert record.before.dn == record.dn
            assert record.after is master.store.get(record.new_dn)
            assert record.after.dn == record.new_dn
            assert master.store.get(record.dn) is None
            assert str(record.new_dn).endswith("ou=c,ou=b,o=xyz")
            assert_frozen(record.before)
            assert_frozen(record.after)
        top = records[0].after
        assert top.get("ou") == ["c"] and records[0].before.get("ou") == ["a"]
        for record in records[1:]:  # only the DN moved
            assert record.after.get("sn") == record.before.get("sn")
            assert record.after.get("cn") == record.before.get("cn")
        assert master.store.index_for("ou").equality.lookup("a") == set()
        content.poll(provider)
        assert content.matches_master(master)
        assert {str(dn) for dn in content.entries if "K" in str(dn)} == {
            f"cn=K{i},ou=c,ou=b,o=xyz" for i in range(3)
        }
