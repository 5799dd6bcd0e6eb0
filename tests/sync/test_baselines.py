"""Tests for changelog / tombstone / full-reload synchronization baselines."""

import pytest

from repro.ldap import (
    DN,
    Entry,
    ReSyncControl,
    Scope,
    SearchRequest,
    SyncAction,
    SyncMode,
)
from repro.server import Modification
from repro.sync import SyncProtocolError, SyncedContent
from tests.oracles import (
    Changelog,
    ChangelogProvider,
    FullReloadProvider,
    TombstoneProvider,
    TombstoneStore,
)


def person(name: str, dept: str = "42") -> Entry:
    return Entry(
        f"cn={name},c=us,o=xyz",
        {"objectClass": ["person"], "cn": name, "sn": "T", "departmentNumber": dept},
    )


class TestChangelogRecords:
    def test_records_accumulate(self, tiny_master):
        log = Changelog(tiny_master)
        tiny_master.add(person("E4"))
        tiny_master.modify("cn=E4,c=us,o=xyz", [Modification.replace("title", "X")])
        tiny_master.delete("cn=E4,c=us,o=xyz")
        assert [r.op.value for r in log.records] == ["add", "modify", "delete"]
        assert log.history_size() == 3

    def test_since_filters_by_csn(self, tiny_master):
        log = Changelog(tiny_master)
        tiny_master.add(person("E4"))
        mark = tiny_master.current_csn
        tiny_master.add(person("E5"))
        assert len(log.since(mark)) == 1

    def test_modify_records_changed_attrs_only(self, tiny_master):
        log = Changelog(tiny_master)
        mods = [Modification.replace("title", "X")]
        tiny_master.modify("cn=E1,c=us,o=xyz", mods)
        assert log.records[-1].modifications == tuple(mods)


class TestChangelogProvider:
    def test_basic_convergence(self, tiny_master, dept42):
        provider = ChangelogProvider(tiny_master)
        content = SyncedContent(dept42)
        content.poll(provider)
        tiny_master.add(person("E4"))
        tiny_master.delete("cn=E1,c=us,o=xyz")
        tiny_master.modify("cn=E2,c=us,o=xyz", [Modification.replace("title", "X")])
        content.poll(provider)
        assert content.matches_master(tiny_master)

    def test_all_deleted_dns_transmitted(self, tiny_master, dept42):
        """The paper's critique: deletes are sent even for entries that
        were never in the content."""
        tiny_master.add(person("Outsider", dept="99"))
        provider = ChangelogProvider(tiny_master)
        content = SyncedContent(dept42)
        content.poll(provider)
        tiny_master.delete("cn=Outsider,c=us,o=xyz")  # was never in content
        r = content.poll(provider)
        assert [u.action for u in r.updates] == [SyncAction.DELETE]

    def test_conservative_delete_for_modified_out(self, tiny_master, dept42):
        provider = ChangelogProvider(tiny_master)
        content = SyncedContent(dept42)
        content.poll(provider)
        tiny_master.modify(
            "cn=E1,c=us,o=xyz", [Modification.replace("departmentNumber", "99")]
        )
        r = content.poll(provider)
        assert [u.action for u in r.updates] == [SyncAction.DELETE]
        assert content.matches_master(tiny_master)

    def test_disjoint_attribute_modify_pruned(self, tiny_master, dept42):
        """A modify touching attributes outside the filter cannot change
        membership; a never-matching entry produces no PDU at all."""
        tiny_master.add(person("Outsider", dept="99"))
        provider = ChangelogProvider(tiny_master)
        content = SyncedContent(dept42)
        content.poll(provider)
        tiny_master.modify(
            "cn=Outsider,c=us,o=xyz", [Modification.replace("title", "Boss")]
        )
        r = content.poll(provider)
        assert r.updates == []

    def test_modify_then_delete_converges(self, tiny_master, dept42):
        """The paper's hard case for changelogs: modified out of content,
        then deleted.  Convergence survives via the unconditional delete."""
        provider = ChangelogProvider(tiny_master)
        content = SyncedContent(dept42)
        content.poll(provider)
        tiny_master.modify(
            "cn=E1,c=us,o=xyz", [Modification.replace("departmentNumber", "99")]
        )
        tiny_master.delete("cn=E1,c=us,o=xyz")
        content.poll(provider)
        assert content.matches_master(tiny_master)

    def test_rename_converges(self, tiny_master, dept42):
        provider = ChangelogProvider(tiny_master)
        content = SyncedContent(dept42)
        content.poll(provider)
        tiny_master.modify_dn("cn=E3,c=us,o=xyz", new_rdn="cn=E5")
        content.poll(provider)
        assert content.matches_master(tiny_master)

    def test_out_of_scope_delete_not_sent(self, tiny_master):
        provider = ChangelogProvider(tiny_master)
        narrow = SearchRequest("cn=E1,c=us,o=xyz", Scope.BASE, "(objectClass=*)")
        content = SyncedContent(narrow)
        content.poll(provider)
        tiny_master.delete("cn=E2,c=us,o=xyz")  # outside the BASE region
        r = content.poll(provider)
        assert r.updates == []

    def test_poll_only(self, tiny_master, dept42):
        provider = ChangelogProvider(tiny_master)
        with pytest.raises(SyncProtocolError):
            provider.handle(dept42, ReSyncControl(mode=SyncMode.PERSIST))

    def test_sync_end_accepted(self, tiny_master, dept42):
        provider = ChangelogProvider(tiny_master)
        r = provider.handle(dept42, ReSyncControl(mode=SyncMode.SYNC_END))
        assert r.updates == [] and r.cookie is None


class TestTombstoneStore:
    def test_tombstones_record_deletes(self, tiny_master):
        store = TombstoneStore(tiny_master)
        tiny_master.delete("cn=E1,c=us,o=xyz")
        assert store.deleted_since(0) == [DN.parse("cn=E1,c=us,o=xyz")]
        assert store.history_size() == 1

    def test_change_csn_tracked(self, tiny_master):
        store = TombstoneStore(tiny_master)
        mark = tiny_master.current_csn
        tiny_master.modify("cn=E1,c=us,o=xyz", [Modification.replace("title", "X")])
        assert DN.parse("cn=E1,c=us,o=xyz") in store.changed_since(mark)

    def test_rename_leaves_tombstone_for_old_dn(self, tiny_master):
        store = TombstoneStore(tiny_master)
        tiny_master.modify_dn("cn=E3,c=us,o=xyz", new_rdn="cn=E5")
        assert DN.parse("cn=E3,c=us,o=xyz") in store.deleted_since(0)


class TestTombstoneProvider:
    def test_basic_convergence(self, tiny_master, dept42):
        provider = TombstoneProvider(tiny_master)
        content = SyncedContent(dept42)
        content.poll(provider)
        tiny_master.add(person("E4"))
        tiny_master.delete("cn=E1,c=us,o=xyz")
        tiny_master.modify("cn=E2,c=us,o=xyz", [Modification.replace("title", "X")])
        content.poll(provider)
        assert content.matches_master(tiny_master)

    def test_conservative_delete_for_changed_nonmatching(self, tiny_master, dept42):
        """Tombstones cannot prune by changed attributes: ANY changed
        in-scope entry that does not match now costs a delete PDU."""
        tiny_master.add(person("Outsider", dept="99"))
        provider = TombstoneProvider(tiny_master)
        content = SyncedContent(dept42)
        content.poll(provider)
        tiny_master.modify(
            "cn=Outsider,c=us,o=xyz", [Modification.replace("title", "Boss")]
        )
        r = content.poll(provider)
        assert [u.action for u in r.updates] == [SyncAction.DELETE]

    def test_modify_then_delete_converges(self, tiny_master, dept42):
        provider = TombstoneProvider(tiny_master)
        content = SyncedContent(dept42)
        content.poll(provider)
        tiny_master.modify(
            "cn=E1,c=us,o=xyz", [Modification.replace("departmentNumber", "99")]
        )
        tiny_master.delete("cn=E1,c=us,o=xyz")
        content.poll(provider)
        assert content.matches_master(tiny_master)

    def test_rename_converges(self, tiny_master, dept42):
        provider = TombstoneProvider(tiny_master)
        content = SyncedContent(dept42)
        content.poll(provider)
        tiny_master.modify_dn("cn=E3,c=us,o=xyz", new_rdn="cn=E5")
        content.poll(provider)
        assert content.matches_master(tiny_master)


class TestFullReload:
    def test_every_poll_sends_everything(self, tiny_master, dept42):
        provider = FullReloadProvider(tiny_master)
        content = SyncedContent(dept42)
        r1 = content.poll(provider)
        r2 = content.poll(provider)
        assert len(r1.updates) == len(r2.updates) == 3
        assert all(u.action is SyncAction.ADD for u in r2.updates)

    def test_convergence_via_retain_semantics(self, tiny_master, dept42):
        provider = FullReloadProvider(tiny_master)
        content = SyncedContent(dept42)
        content.poll(provider)
        tiny_master.delete("cn=E1,c=us,o=xyz")
        tiny_master.modify(
            "cn=E2,c=us,o=xyz", [Modification.replace("departmentNumber", "99")]
        )
        content.poll(provider)
        assert content.matches_master(tiny_master)


class TestTrafficComparison:
    def test_resync_cheapest_on_churn(self, tiny_master, dept42):
        """§5.2: ReSync sends the minimal update set; the baselines pay
        extra PDUs (conservative deletes, retains, or full reloads)."""
        from repro.sync import ResyncProvider

        totals = {}
        for name, factory in (
            ("resync", ResyncProvider),
            ("changelog", ChangelogProvider),
            ("tombstone", TombstoneProvider),
            ("reload", FullReloadProvider),
        ):
            # fresh identical master per mechanism
            from repro.server import DirectoryServer

            m = DirectoryServer("M")
            m.add_naming_context("o=xyz")
            m.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
            m.add(Entry("c=us,o=xyz", {"objectClass": ["country"], "c": "us"}))
            for i in range(10):
                m.add(person(f"P{i}", dept="42" if i < 5 else "99"))
            provider = factory(m)
            content = SyncedContent(dept42)
            content.poll(provider)
            # churn: one in-content modify, one out-of-content modify,
            # one out-of-content delete
            m.modify("cn=P0,c=us,o=xyz", [Modification.replace("title", "X")])
            m.modify("cn=P7,c=us,o=xyz", [Modification.replace("title", "Y")])
            m.delete("cn=P8,c=us,o=xyz")
            r = content.poll(provider)
            totals[name] = len(r.updates)
            assert content.matches_master(m)
        assert totals["resync"] <= totals["changelog"]
        assert totals["resync"] <= totals["tombstone"]
        assert totals["resync"] < totals["reload"]
