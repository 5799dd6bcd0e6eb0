"""Tests for the DirectoryServer: search semantics and update operations."""

import pytest

from repro.ldap import DN, Entry, Scope, SearchRequest, matches, parse_filter
from repro.server import (
    DirectoryServer,
    LdapError,
    Modification,
    ResultCode,
    UpdateOp,
    make_referral_entry,
)


def person(dn: str, **attrs) -> Entry:
    base = {"objectClass": ["person", "top"], "sn": "T"}
    base.update(attrs)
    if "cn" not in base:
        base["cn"] = dn.split(",")[0].split("=")[1]
    return Entry(dn, base)


@pytest.fixture()
def server() -> DirectoryServer:
    s = DirectoryServer("hostA")
    s.add_naming_context("o=xyz")
    s.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
    s.add(Entry("c=us,o=xyz", {"objectClass": ["country"], "c": "us"}))
    s.add(person("cn=Fred,c=us,o=xyz"))
    s.add(person("cn=Ginger,c=us,o=xyz", departmentNumber="42"))
    return s


class TestNamingContexts:
    def test_context_for(self, server):
        ctx = server.context_for(DN.parse("cn=Fred,c=us,o=xyz"))
        assert ctx is not None and str(ctx.suffix) == "o=xyz"
        assert server.context_for(DN.parse("o=abc")) is None

    def test_most_specific_context_wins(self):
        s = DirectoryServer("h")
        s.add_naming_context("o=xyz")
        s.add_naming_context("c=us,o=xyz")
        ctx = s.context_for(DN.parse("cn=a,c=us,o=xyz"))
        assert str(ctx.suffix) == "c=us,o=xyz"

    def test_context_referrals(self, server):
        server.add(make_referral_entry("c=in,o=xyz", "ldap://hostC"))
        ctx = server.naming_contexts[0]
        assert [str(d) for d in server.context_referrals(ctx)] == ["c=in,o=xyz"]

    def test_url(self, server):
        assert server.url == "ldap://hostA"


class TestSearch:
    def test_base_scope(self, server):
        res = server.search(SearchRequest("cn=Fred,c=us,o=xyz", Scope.BASE))
        assert len(res.entries) == 1
        assert res.complete

    def test_one_scope(self, server):
        res = server.search(SearchRequest("c=us,o=xyz", Scope.ONE))
        assert {e.first("cn") for e in res.entries} == {"Fred", "Ginger"}

    def test_sub_scope(self, server):
        res = server.search(SearchRequest("o=xyz", Scope.SUB))
        assert len(res.entries) == 4

    def test_filter_applied(self, server):
        res = server.search(SearchRequest("o=xyz", Scope.SUB, "(departmentNumber=42)"))
        assert [e.first("cn") for e in res.entries] == ["Ginger"]

    def test_attribute_projection(self, server):
        res = server.search(
            SearchRequest("o=xyz", Scope.SUB, "(cn=Fred)", attributes=["sn"])
        )
        assert res.entries[0].has_attribute("sn")
        assert not res.entries[0].has_attribute("cn")

    def test_no_such_object(self, server):
        res = server.search(SearchRequest("cn=Ghost,c=us,o=xyz", Scope.BASE))
        assert res.code is ResultCode.NO_SUCH_OBJECT

    def test_superior_referral_when_not_held(self):
        s = DirectoryServer("hostB", default_referral="ldap://hostA")
        s.add_naming_context("c=in,o=xyz")
        res = s.search(SearchRequest("o=xyz", Scope.SUB))
        assert res.code is ResultCode.REFERRAL
        assert res.referrals[0].url == "ldap://hostA"

    def test_no_default_referral_no_such_object(self):
        s = DirectoryServer("host")
        s.add_naming_context("c=in,o=xyz")
        res = s.search(SearchRequest("o=abc", Scope.SUB))
        assert res.code is ResultCode.NO_SUCH_OBJECT

    def test_continuation_reference_in_region(self, server):
        server.add(make_referral_entry("c=in,o=xyz", "ldap://hostC"))
        res = server.search(SearchRequest("o=xyz", Scope.SUB))
        assert len(res.referrals) == 1
        assert res.referrals[0].url == "ldap://hostC"
        assert str(res.referrals[0].target) == "c=in,o=xyz"

    def test_no_descent_below_referral(self, server):
        server.add(make_referral_entry("c=in,o=xyz", "ldap://hostC"))
        # glue entry below the referral must not be returned even if present
        server.store.put(person("cn=hidden,c=in,o=xyz"))
        res = server.search(SearchRequest("o=xyz", Scope.SUB, "(cn=hidden)"))
        assert res.entries == []

    @pytest.mark.parametrize("spelling", ["referral ", "  Referral"])
    def test_referral_class_is_read_under_its_syntax(self, server, spelling):
        # An object is a referral object when (objectClass=referral)
        # matches it: the store reads object classes under their syntax,
        # so surrounding spaces do not hide one.
        server.add(Entry("c=in,o=xyz", {"objectClass": [spelling, "top"], "ref": "ldap://hostC"}))
        server.store.put(person("cn=hidden,c=in,o=xyz"))
        held = server.store.get(DN.parse("c=in,o=xyz"))
        assert matches(parse_filter("(objectClass=referral)"), held)
        assert held.object_classes == {"referral", "top"}
        assert server.store.is_referral(held.dn)
        res = server.search(SearchRequest("o=xyz", Scope.SUB, "(cn=hidden)"))
        assert res.entries == []
        assert [(r.url, str(r.target)) for r in res.referrals] == [("ldap://hostC", "c=in,o=xyz")]

    def test_base_under_referral_refers(self, server):
        server.add(make_referral_entry("c=in,o=xyz", "ldap://hostC"))
        res = server.search(SearchRequest("cn=deep,c=in,o=xyz", Scope.BASE))
        assert res.code is ResultCode.REFERRAL
        assert str(res.referrals[0].target) == "cn=deep,c=in,o=xyz"

    def test_base_is_referral_subtree_refers(self, server):
        server.add(make_referral_entry("c=in,o=xyz", "ldap://hostC"))
        res = server.search(SearchRequest("c=in,o=xyz", Scope.SUB))
        assert res.code is ResultCode.REFERRAL

    def test_root_search_standalone(self, server):
        res = server.search(SearchRequest("", Scope.SUB, "(cn=Fred)"))
        assert len(res.entries) == 1

    def test_root_search_distributed_member_refers(self):
        s = DirectoryServer("hostB", default_referral="ldap://hostA")
        s.add_naming_context("c=in,o=xyz")
        res = s.search(SearchRequest("", Scope.SUB))
        assert res.code is ResultCode.REFERRAL

    def test_root_search_base_scope_empty(self, server):
        res = server.search(SearchRequest("", Scope.BASE))
        assert res.entries == []


class TestAdd:
    def test_add_commits_record(self, server):
        record = server.add(person("cn=New,c=us,o=xyz"))
        assert record.op is UpdateOp.ADD
        assert record.after is not None
        assert record.csn == server.current_csn

    def test_add_requires_context(self, server):
        with pytest.raises(LdapError) as exc:
            server.add(person("cn=x,o=abc"))
        assert exc.value.code is ResultCode.NO_SUCH_OBJECT

    def test_add_requires_parent(self, server):
        with pytest.raises(LdapError):
            server.add(person("cn=x,c=zz,o=xyz"))

    def test_add_duplicate_rejected(self, server):
        with pytest.raises(LdapError) as exc:
            server.add(person("cn=Fred,c=us,o=xyz"))
        assert exc.value.code is ResultCode.ENTRY_ALREADY_EXISTS

    def test_schema_checking_optional(self):
        s = DirectoryServer("h", check_schema=True)
        s.add_naming_context("o=xyz")
        s.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
        with pytest.raises(LdapError) as exc:
            s.add(Entry("cn=bad,o=xyz", {"objectClass": ["person"], "cn": "bad"}))
        assert exc.value.code is ResultCode.OBJECT_CLASS_VIOLATION


class TestModify:
    def test_replace(self, server):
        record = server.modify(
            "cn=Fred,c=us,o=xyz", [Modification.replace("title", "Boss")]
        )
        assert record.op is UpdateOp.MODIFY
        assert record.before.first("title") is None
        assert record.after.first("title") == "Boss"

    def test_add_values(self, server):
        server.modify("cn=Fred,c=us,o=xyz", [Modification.add("cn", "Freddy")])
        entry = server.store.get(DN.parse("cn=Fred,c=us,o=xyz"))
        assert "Freddy" in entry.get("cn")

    def test_delete_values(self, server):
        server.modify("cn=Ginger,c=us,o=xyz", [Modification.delete("departmentNumber")])
        entry = server.store.get(DN.parse("cn=Ginger,c=us,o=xyz"))
        assert not entry.has_attribute("departmentNumber")

    def test_replace_under_an_alias_leaves_one_list(self, server):
        server.modify("cn=Fred,c=us,o=xyz", [Modification.replace("surname", "new")])
        entry = server.store.get(DN.parse("cn=Fred,c=us,o=xyz"))
        assert entry.get("sn") == entry.get("surname") == ["new"]
        assert [name for name in entry.attribute_names() if name == "sn"] == ["sn"]
        server.modify("cn=Fred,c=us,o=xyz", [Modification.add("SurName", "too")])
        server.modify("cn=Fred,c=us,o=xyz", [Modification.delete("sn", "new")])
        assert server.store.get(DN.parse("cn=Fred,c=us,o=xyz")).get("sn") == ["too"]

    def test_modify_missing_rejected(self, server):
        with pytest.raises(LdapError):
            server.modify("cn=Ghost,c=us,o=xyz", [Modification.replace("sn", "x")])

    def test_modifications_recorded(self, server):
        mods = [Modification.replace("title", "X")]
        record = server.modify("cn=Fred,c=us,o=xyz", mods)
        assert record.modifications == tuple(mods)


class TestDelete:
    def test_delete_leaf(self, server):
        record = server.delete("cn=Fred,c=us,o=xyz")
        assert record.op is UpdateOp.DELETE
        assert record.before is not None
        assert server.store.get(DN.parse("cn=Fred,c=us,o=xyz")) is None

    def test_delete_non_leaf_rejected(self, server):
        with pytest.raises(LdapError) as exc:
            server.delete("c=us,o=xyz")
        assert exc.value.code is ResultCode.NOT_ALLOWED_ON_NON_LEAF

    def test_delete_missing_rejected(self, server):
        with pytest.raises(LdapError):
            server.delete("cn=Ghost,c=us,o=xyz")

    def test_delete_subtree(self, server):
        records = server.delete_subtree("c=us,o=xyz")
        assert len(records) == 3
        assert server.store.get(DN.parse("c=us,o=xyz")) is None


class TestModifyDn:
    def test_rename_leaf(self, server):
        records = server.modify_dn("cn=Fred,c=us,o=xyz", new_rdn="cn=Frederick")
        assert len(records) == 1
        assert str(records[0].new_dn) == "cn=Frederick,c=us,o=xyz"
        moved = server.store.get(DN.parse("cn=Frederick,c=us,o=xyz"))
        assert moved.get("cn") == ["Frederick"]

    def test_rename_under_an_alias_leaves_one_naming_attribute(self, server):
        server.modify_dn("cn=Fred,c=us,o=xyz", new_rdn="commonName=b")
        moved = server.store.get(DN.parse("commonName=b,c=us,o=xyz"))
        assert moved.get("cn") == moved.get("commonName") == ["b"]
        assert sorted(moved.attribute_names()) == ["cn", "objectClass", "sn"]

    def test_move_subtree(self, server):
        server.add(Entry("c=ca,o=xyz", {"objectClass": ["country"], "c": "ca"}))
        server.add(person("cn=kid,cn=Fred,c=us,o=xyz"))
        records = server.modify_dn("cn=Fred,c=us,o=xyz", new_superior="c=ca,o=xyz")
        assert len(records) == 2
        assert server.store.get(DN.parse("cn=kid,cn=Fred,c=ca,o=xyz")) is not None

    def test_move_under_self_rejected(self, server):
        server.add(person("cn=kid,cn=Fred,c=us,o=xyz"))
        with pytest.raises(LdapError):
            server.modify_dn("cn=Fred,c=us,o=xyz", new_superior="cn=kid,cn=Fred,c=us,o=xyz")

    def test_move_under_an_absent_superior_is_refused_like_the_add(self, server):
        """Regression: a superior that does not exist but whose own
        parent does was accepted, leaving the moved entry parentless."""
        with pytest.raises(LdapError) as moved:
            server.modify_dn("cn=Fred,c=us,o=xyz", new_superior="ou=ghost,o=xyz")
        with pytest.raises(LdapError) as added:
            server.add(person("cn=Fred,ou=ghost,o=xyz"))
        assert moved.value.code is added.value.code is ResultCode.NO_SUCH_OBJECT
        assert server.store.get(DN.parse("cn=Fred,c=us,o=xyz")) is not None
        assert server.store.get(DN.parse("cn=Fred,ou=ghost,o=xyz")) is None
        under_us = server.search(SearchRequest("c=us,o=xyz", Scope.ONE, "(cn=Fred)"))
        assert [str(e.dn) for e in under_us.entries] == ["cn=Fred,c=us,o=xyz"]

    def test_rename_to_existing_rejected(self, server):
        with pytest.raises(LdapError):
            server.modify_dn("cn=Fred,c=us,o=xyz", new_rdn="cn=Ginger")

    def test_noop_rejected(self, server):
        with pytest.raises(LdapError):
            server.modify_dn("cn=Fred,c=us,o=xyz", new_rdn="cn=Fred")

    def test_records_carry_before_and_after(self, server):
        records = server.modify_dn("cn=Fred,c=us,o=xyz", new_rdn="cn=Frederick")
        record = records[0]
        assert record.before.dn != record.after.dn
        assert record.effective_dn == record.after.dn


class TestListeners:
    def test_listener_sees_all_ops(self, server):
        seen = []

        class Listener:
            def on_update(self, record):
                seen.append(record.op)

        server.add_update_listener(Listener())
        server.add(person("cn=New,c=us,o=xyz"))
        server.modify("cn=New,c=us,o=xyz", [Modification.replace("title", "X")])
        server.delete("cn=New,c=us,o=xyz")
        assert seen == [UpdateOp.ADD, UpdateOp.MODIFY, UpdateOp.DELETE]

    def test_listener_removal(self, server):
        seen = []

        class Listener:
            def on_update(self, record):
                seen.append(record)

        listener = Listener()
        server.add_update_listener(listener)
        server.remove_update_listener(listener)
        server.add(person("cn=New,c=us,o=xyz"))
        assert seen == []

    def test_csn_strictly_increasing(self, server):
        csns = []

        class Listener:
            def on_update(self, record):
                csns.append(record.csn)

        server.add_update_listener(Listener())
        server.add(person("cn=N1,c=us,o=xyz"))
        server.add(person("cn=N2,c=us,o=xyz"))
        server.delete("cn=N1,c=us,o=xyz")
        assert csns == sorted(csns)
        assert len(set(csns)) == len(csns)


class TestLoad:
    def test_bulk_load_orders_parents_first(self, small_directory):
        server = DirectoryServer("bulk")
        server.add_naming_context(small_directory.suffix)
        count = server.load(reversed(small_directory.entries))
        assert count == len(small_directory.entries)

    def test_load_does_not_notify(self, small_directory):
        server = DirectoryServer("bulk")
        server.add_naming_context(small_directory.suffix)
        seen = []

        class Listener:
            def on_update(self, record):
                seen.append(record)

        server.add_update_listener(Listener())
        server.load(small_directory.entries)
        assert seen == []
