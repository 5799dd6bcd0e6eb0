"""Every row of ``repro.sync.session.OUTCOMES``, three ways.

What one master update means for one session is one table — ``(in
content before, in content after, DN changed)`` → the PDUs sent — read
once for the PDUs and once for the membership move.  The parametrised
test's ids are the table's own keys, so a row added to the table is
run; each row is produced by a real master operation and checked
through a real :class:`ResyncProvider` in poll mode and in persist
mode, and through a bare :func:`tests.oracles.observe`: the PDUs sent, the
session's ``content_dns`` afterwards, and the router's reverse index.
"""

import pytest

from repro.ldap import DN, Entry, ReSyncControl, Scope, SearchRequest, SyncMode
from repro.server import DirectoryServer, Modification
from repro.sync import ResyncProvider, Session
from repro.sync.session import OUTCOMES, PDUS
from tests.oracles import holders_of, observe

REQUEST = SearchRequest("c=us,o=xyz", Scope.SUB, "(departmentNumber=42)")
INSIDE, OUTSIDE = "cn=in,c=us,o=xyz", "cn=out,c=us,o=xyz"  # dept 42 / dept 7
ABROAD = "cn=far,c=de,o=xyz"  # dept 42, outside the base

#: row → (the entry the operation hits, the operation).  The recipes'
#: keys must be the table's keys.
RECIPES = {
    (False, False, False): (
        OUTSIDE,
        lambda m: m.modify(OUTSIDE, [Modification.replace("title", "x")]),
    ),
    (False, False, True): (OUTSIDE, lambda m: m.modify_dn(OUTSIDE, new_rdn="cn=out2")),
    (False, True, False): (
        OUTSIDE,
        lambda m: m.modify(OUTSIDE, [Modification.replace("departmentNumber", "42")]),
    ),
    (False, True, True): (ABROAD, lambda m: m.modify_dn(ABROAD, new_superior="c=us,o=xyz")),
    (True, False, False): (
        INSIDE,
        lambda m: m.modify(INSIDE, [Modification.replace("departmentNumber", "7")]),
    ),
    (True, False, True): (INSIDE, lambda m: m.modify_dn(INSIDE, new_superior="c=de,o=xyz")),
    (True, True, False): (
        INSIDE,
        lambda m: m.modify(INSIDE, [Modification.replace("title", "x")]),
    ),
    (True, True, True): (INSIDE, lambda m: m.modify_dn(INSIDE, new_rdn="cn=in2")),
}

#: PDU kind → (action on the wire, which DN it names).
WIRE = {"delete-old": ("delete", "old"), "add-new": ("add", "new"), "modify": ("modify", "new")}


def build_master() -> DirectoryServer:
    master = DirectoryServer("M")
    master.add_naming_context("o=xyz")
    master.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
    for country in ("us", "de"):
        master.add(Entry(f"c={country},o=xyz", {"objectClass": ["country"], "c": country}))
    for dn, dept in ((INSIDE, "42"), (OUTSIDE, "7"), (ABROAD, "42"), ("cn=stay,c=us,o=xyz", "42")):
        name = dn.split(",", 1)[0].split("=", 1)[1]
        master.add(
            Entry(dn, {"objectClass": ["person"], "cn": name, "sn": "T", "departmentNumber": dept})
        )
    return master


def expected(row, old_dn: DN, new_dn: DN, before: set):
    """(PDUs on the wire, membership afterwards) the table promises."""
    dns = {"old": old_dn, "new": new_dn}
    sent = [(WIRE[pdu][0], str(dns[WIRE[pdu][1]])) for pdu in OUTCOMES[row]]
    after = set(before)
    if "delete-old" in OUTCOMES[row]:
        after.discard(old_dn)
    if "add-new" in OUTCOMES[row]:
        after.add(new_dn)
    return sent, after


def wire(updates):
    return [(u.action.value, str(u.dn)) for u in updates]


def test_recipes_are_the_tables_rows():
    assert set(RECIPES) == set(OUTCOMES)
    assert {pdu for pdus in OUTCOMES.values() for pdu in pdus} == set(PDUS) == set(WIRE)


@pytest.mark.parametrize("row", list(OUTCOMES), ids=lambda row: "-".join(map(str, row)))
@pytest.mark.parametrize("mode", ["poll", "persist"])
def test_row_through_the_provider(row, mode):
    master = build_master()
    provider = ResyncProvider(master)
    notes = []
    if mode == "poll":
        cookie = provider.handle(REQUEST, ReSyncControl(mode=SyncMode.POLL)).cookie
    else:
        provider.persist(REQUEST, notes.append)
    (session,) = provider.sessions.active_sessions()
    before = set(session.content_dns)
    target, operate = RECIPES[row]
    old_dn = DN.parse(target)
    assert (old_dn in before) is row[0]

    notified = master.metrics.counter("sync.route.notified")
    told = notified.value
    records = operate(master)
    record = records[0] if isinstance(records, list) else records
    new_dn = record.effective_dn
    assert (old_dn != new_dn) is row[2]
    assert REQUEST.selects(record.after) is row[1]

    sent, after = expected(row, old_dn, new_dn, before)
    if mode == "poll":
        poll = ReSyncControl(mode=SyncMode.POLL, cookie=cookie)
        notes = provider.handle(REQUEST, poll).updates
    assert wire(notes) == sent
    assert notified.value - told == (1 if OUTCOMES[row] else 0)
    assert session.content_dns == after
    assert provider.router._holders == holders_of(provider)
    assert (session in provider.router._holders.get(new_dn, ())) is row[1]
    assert old_dn == new_dn or session not in provider.router._holders.get(old_dn, ())


@pytest.mark.parametrize("row", list(OUTCOMES), ids=lambda row: "-".join(map(str, row)))
@pytest.mark.parametrize("indexed", [False, True], ids=["stand-alone", "indexed"])
def test_row_through_a_bare_observe(row, indexed):
    """``tests.oracles.observe`` alone — the all-sessions oracle's path — moves
    the same membership and records the same PDUs, with or without a
    reverse index to keep."""
    in_before, in_after, renamed = row
    old_dn = DN.parse(INSIDE)
    new_dn = DN.parse("cn=in2,c=us,o=xyz") if renamed else old_dn
    after_entry = Entry(str(new_dn), {"cn": "x", "departmentNumber": "42"})
    session = Session("s1", REQUEST)
    index = {} if indexed else None
    session.index_under(index)
    before = {DN.parse("cn=stay,c=us,o=xyz")} | ({old_dn} if in_before else set())
    session.seed_content(before)

    observe(session, in_before, in_after, old_dn, new_dn, after_entry)

    sent, after = expected(row, old_dn, new_dn, before)
    assert session.content_dns == after
    assert wire(session.drain()) == sent
    if indexed:
        assert index == {dn: {session} for dn in after}
    else:
        assert session.holder_index is None
