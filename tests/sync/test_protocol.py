"""Tests for ReSync wire types."""

import pytest

from repro.ldap import DN, Entry, SyncAction
from repro.sync import SyncProtocolError, SyncResponse, SyncUpdate
from tests.oracles import copied_pdu


def entry() -> Entry:
    return Entry("cn=a,o=xyz", {"objectClass": ["person"], "cn": "a", "sn": "b"})


class TestSyncUpdate:
    def test_add_carries_entry(self):
        u = copied_pdu(SyncAction.ADD, entry())
        assert u.action is SyncAction.ADD
        assert u.entry is not None
        assert u.dn == entry().dn

    def test_modify_carries_entry(self):
        assert copied_pdu(SyncAction.MODIFY, entry()).entry is not None

    def test_delete_dn_only(self):
        u = SyncUpdate.delete(DN.parse("cn=a,o=xyz"))
        assert u.entry is None

    def test_retain_dn_only(self):
        assert SyncUpdate.retain(DN.parse("cn=a,o=xyz")).entry is None

    def test_add_without_entry_rejected(self):
        with pytest.raises(SyncProtocolError):
            SyncUpdate(SyncAction.ADD, DN.parse("cn=a,o=xyz"))

    def test_delete_with_entry_rejected(self):
        with pytest.raises(SyncProtocolError):
            SyncUpdate(SyncAction.DELETE, entry().dn, entry())

    def test_pdu_bytes_entry(self):
        e = entry()
        e.put("entrySizeBytes", "6000")
        assert copied_pdu(SyncAction.ADD, e).pdu_bytes == 6000

    def test_pdu_bytes_dn_only(self):
        assert SyncUpdate.delete(DN.parse("cn=a,o=xyz")).pdu_bytes == len("cn=a,o=xyz")

    def test_add_copies_entry(self):
        e = entry()
        u = copied_pdu(SyncAction.ADD, e)
        e.put("sn", "changed")
        assert u.entry.first("sn") == "b"


class TestSyncResponse:
    def test_pdu_counts(self):
        r = SyncResponse(
            updates=[
                copied_pdu(SyncAction.ADD, entry()),
                SyncUpdate.delete(DN.parse("cn=x,o=xyz")),
                SyncUpdate.retain(DN.parse("cn=y,o=xyz")),
            ]
        )
        assert r.entry_pdus == 1
        assert r.dn_pdus == 2
        assert r.total_bytes > 0

    def test_defaults(self):
        r = SyncResponse()
        assert r.updates == []
        assert r.cookie is None
        assert not r.initial
        assert not r.uses_retain
