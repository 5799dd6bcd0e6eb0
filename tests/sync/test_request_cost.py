"""A request costs what it serves — counts, not clocks.

The machine-independent guard of the master's read side, beside
``tests/server/test_commit_cost.py`` for its write side.  What one
request makes the master do must not grow with what the master merely
*holds*:

* an idle cookie poll on a provider with 1 000 live sessions looks at
  the activity tick of no session but its own;
* an initial load, a reconcile sketch, a reconcile fetch read the
  store's frozen images: no ``Entry.copy`` at all, one projection per
  entry only under an attribute list;
* a search on a master holding no referral object asks the store about
  no ancestor and derives no object-class set — and prunes below a
  referral object, when one is held, exactly as before;
* a substring search with a component shorter than a gram scans the
  gram vocabulary once per vocabulary, not twice per search;
* a query pays once for what never changes: a frozen image normalizes
  its values once, however many queries verify it; an all-attribute
  result — from the master, a content, a replica or the recent-query
  cache — is the frozen image itself, not a copy; and a referral chase
  keys its loop guard by the request, not by its text;
* a restart pays once per name and once per image: ``recover()`` parses
  only the DN texts of the snapshot and the journal tail that the
  surviving DIT no longer holds, each once — or, when the journal names
  little of a large DIT, each distinct text once — a live degraded
  resume parses none, and repeated snapshot dumps of an unchanged content
  render each image's LDIF record once;
* a sketch pays for its positions alone: an image is digested — key,
  fingerprint, checksum — once, and every sketch of it after that makes
  ``hash_count`` digests per image, whatever the salt.
"""

import copy
from collections import Counter

import pytest

from repro.core import FilterReplica, RecentQueryCache
from repro.ldap import DN, AttributeType, Entry, Scope, SearchRequest, ldif
from repro.ldap.controls import ReSyncControl, SyncMode
from repro.ldap.matching import compile_filter_cached
from repro.server import (
    DirectoryServer,
    DistributedDirectory,
    EntryStore,
    LdapClient,
    make_referral_entry,
)
from repro.server import Modification
from repro.sync import (
    DurabilityConfig,
    MemoryJournal,
    MemorySnapshotStore,
    ReconcileRequest,
    ResyncProvider,
    Session,
    SnapshotRecoverer,
    SyncedContent,
    build_sketch,
)
from repro.sync import reconcile
from repro.sync.durability import DNMemo

SESSIONS = 1000
PEOPLE = 25
PERSONS = SearchRequest("o=xyz", Scope.SUB, "(objectClass=person)")


def person(i: int, under: str = "ou=people,o=xyz") -> Entry:
    return Entry(
        f"cn=P{i},{under}",
        {
            "objectClass": ["person"],
            "cn": f"P{i}",
            "sn": "T",
            "mail": f"p{i}@xyz.com",
            "serialNumber": f"{i:04d}{'IN' if i % 2 else 'US'}",
        },
    )


def build_master(people: int = PEOPLE) -> DirectoryServer:
    master = DirectoryServer("M")
    master.add_naming_context("o=xyz")
    master.load(
        [
            Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}),
            Entry("ou=people,o=xyz", {"objectClass": ["organizationalUnit"], "ou": "people"}),
        ]
        + [person(i) for i in range(people)]
    )
    return master


# ----------------------------------------------------------------------
# (1) expiry in activity order
# ----------------------------------------------------------------------
def test_idle_poll_inspects_no_other_session(monkeypatch):
    reads = Counter()

    def get(session):
        reads[session.session_id] += 1
        return session.__dict__["last_active_tick"]

    def put(session, tick):
        session.__dict__["last_active_tick"] = tick

    monkeypatch.setattr(Session, "last_active_tick", property(get, put), raising=False)
    master = build_master()
    provider = ResyncProvider(master)
    contents = [
        SyncedContent(SearchRequest("o=xyz", Scope.SUB, f"(cn=P{i % PEOPLE})"))
        for i in range(SESSIONS)
    ]
    for content in contents:
        content.poll(provider)
    assert provider.active_session_count == SESSIONS

    poller = contents[SESSIONS // 2]
    own = poller.cookie.split(":")[0]
    reads.clear()
    response = poller.poll(provider)
    assert response.updates == [] and provider.active_session_count == SESSIONS
    assert {sid: n for sid, n in reads.items() if sid != own} == {}

    # The clock still expires what it should: the poll that carries it
    # past the limit ends every session that went stale, and only those.
    provider.sessions.idle_limit = 2
    poller.poll(provider)
    assert provider.active_session_count == SESSIONS  # 2 ticks idle: inside
    poller.poll(provider)
    assert provider.active_session_count == 1
    assert provider.sessions.get(own) is not None


# ----------------------------------------------------------------------
# (2) content reads over store images
# ----------------------------------------------------------------------
@pytest.fixture
def images_made(monkeypatch):
    """Counts every new entry image made from an existing one."""
    made = Counter()
    for name in ("copy", "project"):
        original = getattr(Entry, name)

        def counted(self, *args, _original=original, _name=name, **kwargs):
            made[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(Entry, name, counted)
    return made


def test_all_attribute_initial_load_copies_nothing(images_made):
    master = build_master()
    provider = ResyncProvider(master)
    content = SyncedContent(PERSONS)
    images_made.clear()
    response = content.poll(provider)
    assert len(response.updates) == PEOPLE
    assert dict(images_made) == {}
    assert all(content.entries[u.dn] is master.store.get(u.dn) for u in response.updates)


def test_attribute_list_initial_load_projects_once_per_entry(images_made):
    master = build_master()
    provider = ResyncProvider(master)
    content = SyncedContent(
        SearchRequest("o=xyz", Scope.SUB, "(objectClass=person)", ["cn", "mail"])
    )
    images_made.clear()
    response = content.poll(provider)
    assert len(response.updates) == PEOPLE
    assert dict(images_made) == {"project": PEOPLE}
    assert all(sorted(name for name, _ in u.entry) == ["cn", "mail"] for u in response.updates)


def test_reconcile_sketch_copies_nothing(images_made):
    master = build_master()
    provider = ResyncProvider(master)
    images_made.clear()
    response = provider.reconcile(PERSONS, ReconcileRequest())
    assert response.content_count == PEOPLE
    assert dict(images_made) == {}


# ----------------------------------------------------------------------
# (3) the store knows its referrals
# ----------------------------------------------------------------------
@pytest.fixture
def referral_work(monkeypatch):
    """Counts ``store.get`` calls made from inside ``_under_referral``
    and every object-class set derived from an entry."""
    work = Counter()
    inside = []
    under_referral, store_get = DirectoryServer._under_referral, EntryStore.get
    object_classes = Entry.object_classes

    def under(self, dn, base):
        inside.append(True)
        try:
            return under_referral(self, dn, base)
        finally:
            inside.pop()

    def get(self, dn):
        if inside:
            work["store.get in _under_referral"] += 1
        return store_get(self, dn)

    def classes(self):
        work["object_classes"] += 1
        return object_classes.fget(self)

    monkeypatch.setattr(DirectoryServer, "_under_referral", under)
    monkeypatch.setattr(EntryStore, "get", get)
    monkeypatch.setattr(Entry, "object_classes", property(classes))
    return work


#: 200 of 400 people, by index: two levels below the base, so every
#: candidate has an ancestor that is not the base.
MANY = SearchRequest("o=xyz", Scope.SUB, "(serialNumber=*IN)")


def test_search_without_referrals_asks_about_no_ancestor(referral_work):
    master = build_master(400)
    assert master.store.referral_dns() == set()
    plan = master.store.plan_for(MANY.filter)
    assert plan.strategy == "substring" and len(plan.candidates) == 200
    referral_work.clear()
    result = master.search(MANY)
    assert len(result.entries) == 200 and result.referrals == []
    assert dict(referral_work) == {}


def test_region_is_pruned_below_a_held_referral(referral_work):
    master = build_master(400)
    master.add(make_referral_entry("ou=branch,o=xyz", "ldap://hostB"))
    # Glue beneath the referral object: held, but not this server's to answer.
    for i in range(400, 420):
        master.store.put(person(i, under="ou=branch,o=xyz"))
    assert len(master.store.plan_for(MANY.filter).candidates) == 210
    referral_work.clear()
    result = master.search(MANY)
    assert len(result.entries) == 200
    assert all("ou=branch" not in str(e.dn) for e in result.entries)
    assert [(r.url, str(r.target)) for r in result.referrals] == [
        ("ldap://hostB", "ou=branch,o=xyz")
    ]
    assert dict(referral_work) == {}
    # ...and by a region walk, when the planner declines to help.
    walked = master.search(SearchRequest("o=xyz", Scope.SUB, "(!(sn=nobody))"))
    assert len(walked.entries) == 402 and len(walked.referrals) == 1
    assert referral_work["object_classes"] == 0


# ----------------------------------------------------------------------
# (4) short substring components
# ----------------------------------------------------------------------
class _Vocabulary(dict):
    """A gram → postings map that counts the passes made over it."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()

    def items(self):
        self.scans += 1
        return super().items()

    def keys(self):
        self.scans += 1
        return super().keys()

    def values(self):
        self.scans += 1
        return super().values()


def test_short_component_scans_the_vocabulary_once_per_vocabulary():
    master = build_master(400)
    substring = master.store.index_for("serialNumber").substring
    vocabulary = substring._postings = _Vocabulary(substring._postings)
    request = SearchRequest("o=xyz", Scope.SUB, "(serialNumber=0123*IN)")
    expected = DN.parse("cn=P123,ou=people,o=xyz")

    for _ in range(3):
        assert [e.dn for e in master.search(request).entries] == [expected]
    assert vocabulary.scans <= 1

    # A new gram key is a new vocabulary: one more pass, then none.
    master.add(person(9876))  # "9876IN": grams nobody held
    vocabulary.scans = 0
    for _ in range(3):
        assert [e.dn for e in master.search(request).entries] == [expected]
    assert vocabulary.scans <= 1
    # ...and a vocabulary that kept its keys is not scanned again.
    master.add(person(1235))  # "1235IN": 123, 235, 35I, 5IN — all held already
    vocabulary.scans = 0
    assert [e.dn for e in master.search(request).entries] == [expected]
    assert vocabulary.scans == 0


# ----------------------------------------------------------------------
# (5) what a frozen image and a request remember
# ----------------------------------------------------------------------
@pytest.fixture
def normalized(monkeypatch):
    """Every value :meth:`AttributeType.normalize` is asked to normalize,
    in call order; compiled filters are compiled afresh under the count."""
    seen = []
    original = AttributeType.normalize

    def normalize(self, value):
        seen.append(value)
        return original(self, value)

    monkeypatch.setattr(AttributeType, "normalize", normalize)
    compile_filter_cached.cache_clear()
    yield seen
    compile_filter_cached.cache_clear()


#: Not a candidate for any index (the store's nor a content's), so every
#: entry in the region is verified against ``(sn=nobody)``.
UNINDEXED = SearchRequest("o=xyz", Scope.SUB, "(!(sn=nobody))")


def test_a_second_evaluation_normalizes_nothing(normalized):
    master = build_master()
    content = SyncedContent(PERSONS)
    content.poll(ResyncProvider(master))
    query = SearchRequest("o=xyz", Scope.SUB, "(&(cn=P1*)(!(sn=nobody)))")
    assert [str(e.dn) for e in content.evaluate(query)][:1] == ["cn=P1,ou=people,o=xyz"]
    assert normalized  # the first evaluation normalizes each image once
    normalized.clear()
    first = content.evaluate(query)
    assert normalized == []
    assert content.evaluate(query) == first

    # The master's second search of one filter over its frozen images
    # normalizes no stored value: only the assertion it compiles.
    assert len(master.search(UNINDEXED).entries) == PEOPLE + 2
    normalized.clear()
    assert len(master.search(UNINDEXED).entries) == PEOPLE + 2
    assert normalized == ["nobody"]


def test_all_attribute_results_copy_nothing(images_made):
    master = build_master()
    provider = ResyncProvider(master)
    content = SyncedContent(PERSONS)
    content.poll(provider)
    replica = FilterReplica("r", cache_capacity=4)
    replica.add_filter(PERSONS, provider)
    query = SearchRequest("o=xyz", Scope.SUB, "(&(objectClass=person)(cn=P1*))")
    images_made.clear()

    found = master.search(query).entries
    assert len(found) == 11  # P1, P10 .. P19
    evaluated = content.evaluate(query)
    answered = replica.answer(query).entries
    cache = RecentQueryCache(capacity=4)
    cache.insert(query, found)
    cached, _source = cache.lookup(query)
    assert dict(images_made) == {}
    for result in (found, evaluated, answered, cached):
        assert sorted(e.dn for e in result) == sorted(e.dn for e in found)
        assert all(e is master.store.get(e.dn) for e in result)


def test_referral_chase_formats_no_request(monkeypatch):
    dist = DistributedDirectory()
    top = dist.add_server("hostA", "o=xyz")
    branch = dist.add_server("hostB", "c=in,o=xyz", default_referral="ldap://hostA")
    top.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
    dist.add_referral("hostA", "c=in,o=xyz", "hostB")
    branch.add(Entry("c=in,o=xyz", {"objectClass": ["country"], "c": "in"}))
    branch.add(person(1, under="c=in,o=xyz"))

    formatted = Counter()
    text = SearchRequest.__str__

    def counted(self):
        formatted[self] += 1
        return text(self)

    monkeypatch.setattr(SearchRequest, "__str__", counted)
    result = LdapClient(dist.network).search(
        "ldap://hostB", SearchRequest("o=xyz", Scope.SUB, "(cn=P1)")
    )
    # hostB refers up, hostA answers and continues to hostB's context.
    assert result.round_trips == 3 and [str(e.dn) for e in result.entries] == ["cn=P1,c=in,o=xyz"]
    assert sum(formatted.values()) == 0


# ----------------------------------------------------------------------
# (6) a restart pays once per name and once per image
# ----------------------------------------------------------------------
@pytest.fixture
def parsed(monkeypatch):
    """Every text ``DN.parse`` is handed, in call order."""
    texts = []
    parse = DN.parse

    def counted(text):
        texts.append(text)
        return parse(text)

    monkeypatch.setattr(DN, "parse", staticmethod(counted))
    return texts


#: Overlapping contents: every person, each half by serialNumber suffix,
#: and the P1x block — most names are held by several sessions.
OVERLAPPING = [
    PERSONS,
    SearchRequest("o=xyz", Scope.SUB, "(serialNumber=*IN)"),
    SearchRequest("o=xyz", Scope.SUB, "(serialNumber=*US)"),
    SearchRequest("ou=people,o=xyz", Scope.ONE, "(cn=P1*)"),
]


def durable(master) -> ResyncProvider:
    return ResyncProvider(
        master,
        durability=DurabilityConfig(snapshot_interval=10_000, history_max_entries=6),
        journal=MemoryJournal(),
    )


def overlapping_journal():
    """A provider whose journal is a compaction snapshot of 40
    overlapping sessions — pending, unacknowledged, delivered — and a
    tail carrying every record kind that holds DN texts."""
    master = build_master()
    provider = durable(master)
    contents = [SyncedContent(OVERLAPPING[i % 4]) for i in range(40)]
    for content in contents:
        content.poll(provider)
    master.modify("cn=P1,ou=people,o=xyz", [Modification.replace("sn", "U")])
    for content in contents[::3]:
        content.poll(provider)  # drained: unacknowledged until the next poll
    master.modify_dn("cn=P2,ou=people,o=xyz", "cn=P20b")
    provider.restart()
    provider.recover()  # compacts: the state so far is the snapshot
    SyncedContent(OVERLAPPING[3]).poll(provider)  # create
    master.delete("cn=P3,ou=people,o=xyz")
    master.modify_dn("cn=P4,ou=people,o=xyz", "cn=P40b")
    for i in range(10, 20):  # overflows the P1x histories
        master.modify(f"cn=P{i},ou=people,o=xyz", [Modification.replace("sn", f"S{i}")])
    contents[3].poll(provider)  # resume
    provider.detach()
    return master, provider


def dn_texts(snapshot: dict, records: list) -> set:
    """Every DN text a snapshot document and journal records hold
    (docs/PROTOCOL.md §10.1)."""
    texts = set(snapshot["last_change"])

    def update(wire):
        texts.add(wire["dn"])
        image(wire["entry"])

    def image(wire):
        if wire is not None:
            texts.add(wire["dn"])

    for session in snapshot["sessions"]:
        texts.add(session["req"]["base"])
        texts.update(session["content"], session["delivered"])
        for wire in session["pending"] + session["unacked"]:
            update(wire)
    for record in records:
        if record["t"] == "update":
            texts.add(record["dn"])
            texts.update([record["new_dn"]] if record["new_dn"] else [])
            image(record["before"])
            image(record["after"])
        elif record["t"] == "create":
            texts.add(record["req"]["base"])
            texts.update(record["content"])
        elif record["t"] == "resume":
            texts.update(record["content"])
    return texts


def test_recover_parses_only_names_the_dit_no_longer_holds(parsed):
    """The DIT survives a provider crash, so recovery parses only the
    journal's names it lost (a rename's old name, a deleted entry), each
    once, and a recovered session holds the store's own DN objects.
    Regression: every distinct text of the journal was parsed."""
    master, crashed = overlapping_journal()
    snapshot, records, _dropped = crashed.journal.load()
    assert len(snapshot["sessions"]) == 40
    assert {r["t"] for r in records} >= {"update", "create", "resume"}
    stored = {dn: dn for dn in master.store.images()}
    lost = dn_texts(snapshot, records) - {str(dn) for dn in stored}
    assert {"cn=P2,ou=people,o=xyz", "cn=P3,ou=people,o=xyz"} <= lost
    recovered = ResyncProvider(
        master, durability=crashed.durability, journal=copy.deepcopy(crashed.journal)
    )
    parsed.clear()
    recovered.recover()
    assert len(parsed) == len(lost) and set(parsed) == lost
    assert recovered.active_session_count == 41
    held = [dn for s in recovered.sessions.active_sessions() for dn in s.content_dns]
    assert held and all(dn is stored[dn] for dn in held)


def test_a_journal_naming_little_of_the_dit_parses_each_text_once(parsed):
    """A few narrow sessions over a large DIT: keying every stored name
    would cost more than parsing the few the journal names, so recovery
    does not seed from the DIT and parses each distinct text once."""
    master = build_master(people=300)
    provider = durable(master)
    narrow = SearchRequest("o=xyz", Scope.SUB, "(serialNumber=001*)")
    contents = [SyncedContent(narrow) for _ in range(3)]
    for content in contents:
        content.poll(provider)
    master.modify("cn=P11,ou=people,o=xyz", [Modification.replace("sn", "U")])
    provider.restart()
    provider.recover()  # compacts: the state so far is the snapshot
    master.delete("cn=P12,ou=people,o=xyz")
    contents[0].poll(provider)
    provider.detach()
    snapshot, records, _dropped = provider.journal.load()
    texts = dn_texts(snapshot, records)
    assert 0 < len(texts) * DNMemo.SEED_RATIO < len(master.store)
    recovered = ResyncProvider(
        master, durability=provider.durability, journal=copy.deepcopy(provider.journal)
    )
    parsed.clear()
    recovered.recover()
    assert sorted(parsed) == sorted(texts)
    assert recovered.active_session_count == 3


def test_a_live_degraded_resume_parses_no_dn(parsed):
    master = build_master()
    provider = durable(master)
    content = SyncedContent(PERSONS)
    content.poll(provider)
    for i in range(8):
        master.modify(f"cn=P{i},ou=people,o=xyz", [Modification.replace("sn", f"S{i}")])
    parsed.clear()
    response = provider.handle(
        PERSONS, ReSyncControl(mode=SyncMode.POLL, cookie=content.cookie)
    )
    assert response.uses_retain and len(response.updates) == PEOPLE
    assert parsed == []
    # The journal still names the content, in the order served.
    (resume,) = [r for r in provider.journal.load()[1] if r["t"] == "resume"]
    assert resume["content"] == [str(u.dn) for u in response.updates]


def test_unchanged_content_renders_each_image_once(monkeypatch):
    lines = Counter()
    line = ldif._attr_line

    def counted(name, value):
        lines[name] += 1
        return line(name, value)

    monkeypatch.setattr(ldif, "_attr_line", counted)
    content = SyncedContent(PERSONS)
    content.poll(ResyncProvider(build_master()))
    recoverer = SnapshotRecoverer(MemorySnapshotStore(), content)
    sizes = {recoverer.save() for _ in range(5)}
    assert len(sizes) == 1
    # One dn line and one line per value, for each image, once.
    assert lines["dn"] == PEOPLE
    assert sum(lines.values()) == sum(
        1 + sum(len(values) for _name, values in entry)
        for entry in content.entries.values()
    )


# ----------------------------------------------------------------------
# (7) a sketch pays for its positions
# ----------------------------------------------------------------------
@pytest.fixture
def digests(monkeypatch):
    """Every ``blake2b`` the reconcile module makes, in call order."""
    made = []
    real = reconcile.blake2b

    def counted(*args, **kwargs):
        made.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(reconcile, "blake2b", counted)
    return made


@pytest.mark.parametrize("hash_count", [2, 3, 4])
def test_a_sketch_digests_an_image_once_and_a_position_once(digests, hash_count):
    """Regression: every sketch of every side re-hashed each item's
    checksum, and a position was a digest fed part by part."""
    images = [person(i).freeze() for i in range(PEOPLE)]
    build_sketch(images, 48, salt=1, hash_count=hash_count)
    # Key, fingerprint and checksum per fresh image, then its positions.
    assert len(digests) == 3 * PEOPLE + hash_count * PEOPLE
    digests.clear()
    build_sketch(images, 96, salt=2**31 + 5, hash_count=hash_count)
    assert len(digests) == hash_count * PEOPLE
