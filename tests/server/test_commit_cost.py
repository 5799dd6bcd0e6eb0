"""A commit costs what it changed — counts, not clocks.

The machine-independent guard of the write path: on a 12-attribute
entry among 1 000 that share its ``sn`` and ``entrySizeBytes``, a
``modify`` replacing one attribute, fanned out to 8 persist sessions
over a :class:`SimulatedNetwork`, re-indexes one attribute, copies the
entry once (the image it edits), and sizes its one shared PDU once
(:func:`repro.ldap.ber.sync_update_size`, length arithmetic) however
many frames carry it.  The attribute's substring index,
built by a search before the modify, is maintained with it.
"""

from collections import Counter

import pytest

from repro.ldap import DN, Entry, Scope, SearchRequest, SyncAction, ber
from repro.server import DirectoryServer, Modification, SimulatedNetwork
from repro.server.indexes import AttributeIndexSet
from repro.sync import ResyncProvider, SyncedContent, SyncUpdate
from tests.oracles import encode_sync_batch

POPULATION = 1000
SESSIONS = 8
TARGET = DN.parse("cn=e500,o=xyz")


def employee(i: int) -> Entry:
    return Entry(
        f"cn=e{i},o=xyz",
        {
            "objectClass": ["inetOrgPerson"],
            "cn": f"e{i}",
            "sn": "Smith",
            "givenName": f"g{i % 40}",
            "uid": f"u{i}",
            "mail": f"u{i}@xyz.com",
            "telephoneNumber": f"555-{i:04d}",
            "serialNumber": f"{i:06d}",
            "employeeNumber": str(i),
            "departmentNumber": str(i % 20),
            "divisionNumber": str(i % 4),
            "entrySizeBytes": "6000",
        },
    )


@pytest.fixture
def fleet():
    master = DirectoryServer("M")
    master.add_naming_context("o=xyz")
    master.load(
        [Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"})]
        + [employee(i) for i in range(POPULATION)]
    )
    assert len(list(master.store.get(TARGET))) == 12
    provider = ResyncProvider(master)
    net = SimulatedNetwork()
    request = SearchRequest("o=xyz", Scope.SUB, "(departmentNumber=0)")
    contents = []
    for _ in range(SESSIONS):
        content = SyncedContent(request, network=net)
        deliveries, _handle = net.persist_exchange(
            provider, request, content.apply_notification
        )
        content.apply(deliveries[-1].response)
        contents.append(content)
    net.settle()
    return master, net, contents


def test_one_attribute_modify_costs_one_attribute(fleet, monkeypatch):
    master, net, contents = fleet
    # The first ask builds telephoneNumber's substring index, so the
    # modify below maintains it.
    master.search(SearchRequest("o=xyz", Scope.SUB, "(telephoneNumber=*-05*)"))
    assert master.store.index_for("telephoneNumber")._substring is not None
    calls = Counter()

    def counted(owner, name, key):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(AttributeIndexSet, "insert", "index.insert")
    counted(AttributeIndexSet, "remove", "index.remove")
    counted(Entry, "copy", "entry.copy")
    counted(ber, "sync_update_size", "ber.sync_update_size")

    sent = net.stats.bytes_sent
    master.modify(TARGET, [Modification.replace("telephoneNumber", "555-9999")])
    net.settle()
    monkeypatch.undo()

    assert dict(calls) == {
        "index.remove": 1,
        "index.insert": 1,
        "entry.copy": 1,
        "ber.sync_update_size": 1,
    }
    # ...and it all happened: every replica holds the store's new image,
    # each session's frame was charged.
    stored = master.store.get(TARGET)
    assert stored.first("telephoneNumber") == "555-9999"
    assert all(content.entries[TARGET] is stored for content in contents)
    assert master.store.index_for("telephoneNumber").equality.lookup("555-9999") == {TARGET}
    assert master.store.index_for("telephoneNumber").equality.lookup("555-0500") == set()
    assert master.store.index_for("telephoneNumber").substring.candidates(["-99"]) == {TARGET}
    frame = len(encode_sync_batch([SyncUpdate(SyncAction.MODIFY, TARGET, stored)]))
    assert net.stats.bytes_sent - sent == SESSIONS * frame
