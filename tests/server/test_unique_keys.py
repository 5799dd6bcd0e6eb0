"""The master enforces the key: one holder per value of a unique attribute.

``mail`` and ``uid`` are marked unique in the attribute schema
(``AttributeType.unique``).  ``add``, ``modify`` and ``modify_dn``
refuse a second holder with ``CONSTRAINT_VIOLATION`` (RFC 4511 code 19),
comparing values under each attribute's own equality syntax: ``mail``
is case-exact here, ``uid`` ignores case and is also spelled ``userid``.
"""

import pytest

from repro.ldap import DEFAULT_REGISTRY, DN, Entry
from repro.server import (
    DirectoryServer,
    DistributedDirectory,
    LdapError,
    Modification,
    ResultCode,
    SimulatedNetwork,
)


def person(cn: str, **attrs) -> Entry:
    values = {"objectClass": ["person", "top"], "cn": cn, "sn": "T"}
    values.update(attrs)
    return Entry(f"cn={cn},o=xyz", values)


@pytest.fixture()
def master() -> DirectoryServer:
    m = DirectoryServer("master")
    m.add_naming_context("o=xyz")
    m.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
    m.add(Entry("ou=x,o=xyz", {"objectClass": ["organizationalUnit"], "ou": "x"}))
    m.add(person("a", mail="Ann@xyz.com", uid="ann"))
    m.add(person("b", mail="bob@xyz.com", uid="bob"))
    return m


def refused(call) -> bool:
    with pytest.raises(LdapError) as caught:
        call()
    return caught.value.code is ResultCode.CONSTRAINT_VIOLATION


def test_the_keys_are_schema_data():
    assert DEFAULT_REGISTRY.unique_keys() == {"mail", "uid"}
    assert DEFAULT_REGISTRY.get("userid").unique
    assert not DEFAULT_REGISTRY.get("serialNumber").unique
    assert ResultCode.CONSTRAINT_VIOLATION == 19


class TestAdd:
    def test_a_second_holder_is_refused(self, master):
        assert refused(lambda: master.add(person("c", mail="bob@xyz.com")))
        assert refused(lambda: master.add(person("c", uid="bob")))
        assert "cn=c,o=xyz" not in {str(dn) for dn in master.store.images()}
        assert master.current_csn == 4  # nothing committed

    def test_mail_is_case_exact(self, master):
        master.add(person("c", mail="ann@xyz.com"))  # "Ann@…" is another value
        assert refused(lambda: master.add(person("d", mail=" ann@xyz.com ")))

    def test_uid_ignores_case_under_either_spelling(self, master):
        assert refused(lambda: master.add(person("c", uid="BOB")))
        assert refused(lambda: master.add(person("c", userid="Ann")))
        master.add(person("c", userid="carol"))
        assert refused(lambda: master.add(person("d", uid="CAROL")))

    def test_every_value_is_checked(self, master):
        assert refused(lambda: master.add(person("c", mail=["c@xyz.com", "bob@xyz.com"])))


class TestModify:
    def test_taking_another_entrys_value_is_refused(self, master):
        assert refused(
            lambda: master.modify("cn=a,o=xyz", [Modification.replace("mail", "bob@xyz.com")])
        )
        assert refused(lambda: master.modify("cn=a,o=xyz", [Modification.add("userid", "BOB")]))
        held = master.store.get(DN.parse("cn=a,o=xyz"))
        assert held.get("mail") == ["Ann@xyz.com"] and held.get("uid") == ["ann"]

    def test_rewriting_its_own_value_is_not_refused(self, master):
        master.modify("cn=a,o=xyz", [Modification.replace("mail", "Ann@xyz.com")])
        master.modify("cn=b,o=xyz", [Modification.replace("uid", "BOB")])
        master.modify("cn=b,o=xyz", [Modification.add("uid", "bob")])  # the same value
        assert master.store.get(DN.parse("cn=b,o=xyz")).get("uid") == ["BOB"]

    def test_a_modify_of_no_key_checks_nothing(self, master, monkeypatch):
        asked = []
        monkeypatch.setattr(master.store, "index_for", lambda attr: asked.append(attr))
        master.modify("cn=a,o=xyz", [Modification.replace("sn", "changed")])
        assert asked == []


class TestModifyDn:
    def test_renaming_or_moving_the_holder_is_not_refused(self, master):
        master.modify_dn("cn=a,o=xyz", new_rdn="cn=a2")
        master.modify_dn("cn=a2,o=xyz", new_superior="ou=x,o=xyz")
        moved = master.store.get(DN.parse("cn=a2,ou=x,o=xyz"))
        assert moved.get("mail") == ["Ann@xyz.com"]

    def test_the_holder_keeps_its_key_as_its_name(self, master):
        dan = {"objectClass": ["person"], "cn": "d", "sn": "d", "uid": "dan"}
        master.add(Entry("uid=dan,o=xyz", dan))
        # the new name's value is the entry's own
        master.modify_dn("uid=dan,o=xyz", new_superior="ou=x,o=xyz")
        assert master.store.get(DN.parse("uid=dan,ou=x,o=xyz")).get("uid") == ["dan"]

    def test_a_new_name_another_entry_holds_is_refused(self, master):
        assert refused(lambda: master.modify_dn("cn=a,o=xyz", new_rdn="uid=BOB"))
        assert master.store.get(DN.parse("cn=a,o=xyz")) is not None


class TestLoad:
    """The master's initial state is held to the key as its updates are:
    a bulk load that would store a second holder is refused whole."""

    def fresh(self) -> DirectoryServer:
        m = DirectoryServer("master")
        m.add_naming_context("o=xyz")
        return m

    def suffix(self) -> Entry:
        return Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"})

    def test_a_duplicate_in_the_batch_is_refused(self):
        m = self.fresh()
        by_mail = [person("a", mail="a@xyz.com"), person("b", mail="a@xyz.com")]
        by_uid = [person("a", uid="ann"), person("b", userid="ANN")]
        assert refused(lambda: m.load([self.suffix(), *by_mail]))
        assert refused(lambda: m.load([self.suffix(), *by_uid]))
        assert len(m.store) == 0  # nothing stored

    def test_values_compare_under_the_attributes_syntax(self):
        m = self.fresh()
        m.load([self.suffix(), person("a", mail="Ann@xyz.com"), person("b", mail="ann@xyz.com")])
        assert len(m.store) == 3

    def test_a_value_another_stored_entry_holds_is_refused(self, master):
        assert refused(lambda: master.load([person("c", mail="bob@xyz.com")]))
        # reloading the holder itself is not a second holder
        assert master.load([person("b", mail="bob@xyz.com", uid="bob")]) == 1

    def test_a_partitioned_load_refuses_per_server(self):
        dist = DistributedDirectory(SimulatedNetwork())
        host_a = dist.add_server("hostA", "o=xyz")
        host_b = dist.add_server("hostB", "ou=x,o=xyz", default_referral="ldap://hostA")
        ou = Entry("ou=x,o=xyz", {"objectClass": ["organizationalUnit"], "ou": "x"})
        dan = {"objectClass": ["person"], "cn": "d", "sn": "d", "uid": "ann"}
        # one value on two masters: each enforces only its own
        counts = dist.load_partitioned(
            [self.suffix(), person("a", uid="ann"), ou, Entry("cn=d,ou=x,o=xyz", dan)]
        )
        assert counts == {"hostA": 2, "hostB": 2}
        twice = [person("b", mail="b@xyz.com"), person("c", mail="b@xyz.com")]
        assert refused(lambda: dist.load_partitioned(twice))
        assert len(host_a.store) == 2 and len(host_b.store) == 2
