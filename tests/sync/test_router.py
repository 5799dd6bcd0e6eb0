"""SessionRouter: unit behaviour + routed-vs-linear fan-out equivalence.

The router's contract has two halves, both tested here:

* **completeness** — ``route_verdicts(record)`` never skips a session
  the linear scan would notify, and never pre-resolves a verdict the
  scan would not reach (audited per update inside the equivalence
  property, via a wrapper that replays the linear verdict for every
  active session);
* **equivalence** — every session's notification stream (poll batches
  and persist deliveries) is byte-identical to that of
  ``tests/oracles.LinearResyncProvider`` fed the same update stream, for
  poll and persist modes, including deliver callbacks that update the
  master and re-enter ``on_update`` mid-flush;

plus **precision** — routing is by value, so the visited set tracks the
notified set, not the number of sessions naming an attribute.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ldap import (
    DN,
    And,
    Entry,
    Equality,
    GreaterOrEqual,
    LessOrEqual,
    Not,
    Or,
    Present,
    ReSyncControl,
    Scope,
    SearchRequest,
    Substring,
    SyncMode,
    parse_filter,
)
from repro.server import DirectoryServer, LdapError, Modification, SimulatedNetwork
from repro.sync import ResyncProvider, SessionRouter, SyncUpdate
from repro.sync.session import Session
from tests.oracles import LinearResyncProvider, holders_of

# ----------------------------------------------------------------------
# anchor-atom derivation
# ----------------------------------------------------------------------


def _atoms(text: str, router: SessionRouter = None):
    return (router or SessionRouter()).anchor_atoms(parse_filter(text))


def _register(router: SessionRouter, sid: str, text: str, base: str = "o=xyz"):
    session = Session(sid, SearchRequest(base, Scope.SUB, text))
    router.register(session)
    return session


def test_predicate_anchors_on_its_attribute():
    """Valued leaves anchor on the value, under the compiled predicate's
    own normalization; the rest on the attribute being present."""
    assert _atoms("(sn= A  b )") == {("eq", "sn", "a b")}
    assert _atoms("(age=007)") == {("eq", "age", 7)}  # integer syntax
    assert _atoms("(age=x7)") == {("eq", "age", "x7")}  # schema-violating
    assert _atoms("(SN=ab*)") == {("pfx", "sn", "ab")}
    assert _atoms("(sn=Ab*c*d)") == {("pfx", "sn", "ab")}
    # Atoms name the attribute by its key, as Entry and the compiled
    # predicate do: an alias anchors where the canonical name does.
    assert _atoms("(surname=a)") == {("eq", "sn", "a")}
    for text in ("(sn=*)", "(sn>=a)", "(sn<=a)", "(sn~=a)", "(sn=*a)", "(sn=*a*)"):
        assert _atoms(text) == {("attr", "sn")}, text
    # An initial that normalizes to empty constrains nothing.
    blank = Substring("sn", initial="  ", final="a")
    assert SessionRouter().anchor_atoms(blank) == {("attr", "sn")}


def test_and_anchors_on_one_conjunct():
    """...the strongest: eq over pfx over attr, unanchored never."""
    assert _atoms("(&(sn=*)(uid=b))") == {("eq", "uid", "b")}
    assert _atoms("(&(sn=a*)(uid=*))") == {("pfx", "sn", "a")}
    assert _atoms("(&(!(sn=a))(uid=*))") == {("attr", "uid")}
    # An OR conjunct is as weak as its weakest disjunct.
    assert _atoms("(&(|(sn=a)(uid=*))(l=b*))") == {("pfx", "l", "b")}


def test_and_ties_break_by_current_posting_size():
    router = SessionRouter()
    both = "(&(objectClass=person)(departmentNumber=42))"
    # Nothing posted yet: the first of equally strong conjuncts.
    assert _atoms(both, router) == {("eq", "objectclass", "person")}
    s1 = _register(router, "s1", "(objectClass=person)", base="c=us,o=xyz")
    # ``person`` now has a posting, the department none.
    assert _atoms(both, router) == {("eq", "departmentnumber", "42")}
    s2 = _register(router, "s2", both)
    assert s2.atoms == {("eq", "departmentnumber", "42")}
    router.unregister(s1)
    router.unregister(s2)
    assert not router._postings


def test_or_anchors_union_all_disjuncts():
    assert _atoms("(|(sn=a)(uid=b*))") == {("eq", "sn", "a"), ("pfx", "uid", "b")}


def test_not_has_no_anchor():
    assert _atoms("(!(sn=a))") is None
    assert _atoms("(|(sn=a)(!(uid=b)))") is None
    assert _atoms("(&(!(sn=a))(!(uid=b)))") is None


def test_prefix_lengths_are_tracked_per_attribute():
    router = SessionRouter()
    s1 = _register(router, "s1", "(sn=ab*)")
    s2 = _register(router, "s2", "(sn=cd*)")
    s3 = _register(router, "s3", "(sn=abcd*)")
    s4 = _register(router, "s4", "(uid=x*)")
    assert router._pfx_lens == {"sn": {2: 2, 4: 1}, "uid": {1: 1}}
    router.unregister(s1)
    router.unregister(s3)
    assert router._pfx_lens == {"sn": {2: 1}, "uid": {1: 1}}
    router.unregister(s2)
    router.unregister(s4)
    assert not router._pfx_lens and not router._postings


# ----------------------------------------------------------------------
# equivalence harness
# ----------------------------------------------------------------------

_POOL = [
    "cn=e0,o=xyz",
    "cn=e1,o=xyz",
    "cn=e2,o=xyz",
    "cn=e3,o=xyz",
    "cn=u0,c=us,o=xyz",
    "cn=u1,c=us,o=xyz",
]

# A small universe so that filters and entries collide often, chosen for
# where the router's normalization could drift from the compiled
# predicate's: case/whitespace variants of one directory string ("ab",
# " Ab "), an integer-syntax attribute ("007" == "7"; "x7" violates the
# schema and degrades to a string), and ``surname`` — an alias of ``sn``
# that Entry.get, the compiled predicate and the router all resolve to
# the one key, so filters and entries spelled differently must keep
# meeting each other on both sides.
_ATTRS = ["sn", "age", "surname"]
_VALUES = ["a", "A ", "ab", " Ab ", "abc", "b", "007", "7", "x7"]


def _build_master(name: str) -> DirectoryServer:
    master = DirectoryServer(name)
    master.add_naming_context("o=xyz")
    master.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
    master.add(Entry("c=us,o=xyz", {"objectClass": ["country"], "c": "us"}))
    return master


def _apply(master: DirectoryServer, op) -> None:
    """Apply one generated op; invalid ops fail identically on both
    masters (validation precedes commit), keeping their states equal."""
    kind = op[0]
    try:
        if kind == "upsert":
            _kind, dn, attr, values = op
            if master.store.get(dn) is not None:
                master.modify(dn, [Modification.replace(attr, *values)])
            else:
                rdn = dn.split(",", 1)[0].split("=", 1)[1]
                master.add(
                    Entry(
                        dn,
                        {"objectClass": ["person"], "cn": rdn, attr: list(values)},
                    )
                )
        elif kind == "clearattr":
            _kind, dn, attr = op
            if master.store.get(dn) is not None:
                master.modify(dn, [Modification.replace(attr)])
        elif kind == "delete":
            master.delete(op[1])
        elif kind == "rename":
            _kind, dn, tag = op
            master.modify_dn(dn, new_rdn=f"cn=r{tag}")
    except LdapError:
        pass


def _update_fp(update):
    entry = update.entry
    attrs = (
        None
        if entry is None
        else sorted(
            (name, tuple(entry.get(name))) for name in entry.attribute_names()
        )
    )
    return (update.action, str(update.dn), attrs)


class _RouteAudit:
    """Wraps ``router.route_verdicts`` to assert, on every update, that
    any session the linear verdict would notify is routed, that every
    pre-resolved verdict (and the membership-derived ``in_before`` of
    the rest) is the linear one, and that the holder index is exactly
    the inverse of the sessions' ``content_dns``."""

    def __init__(self, provider: ResyncProvider):
        self.provider = provider
        self.violations = []
        self._inner = provider.router.route_verdicts
        provider.router.route_verdicts = self._route  # type: ignore[method-assign]

    def _route(self, record):
        if self.provider.router._holders != holders_of(self.provider):
            self.violations.append(("inverse", str(record.dn)))
        routed = self._inner(record)
        verdicts = {rs.session_id: (rs, verdict) for rs, verdict in routed}
        for session in self.provider.sessions.active_sessions():
            in_before = record.before is not None and session.request.selects(
                record.before
            )
            in_after = record.after is not None and session.request.selects(
                record.after
            )
            found = verdicts.get(session.session_id)
            if found is None:
                if in_before or in_after:
                    self.violations.append(("skipped", str(record.dn), session.session_id))
                continue
            rs, verdict = found
            if verdict is not None and verdict != (in_before, in_after):
                self.violations.append(("verdict", str(record.dn), session.session_id))
            if (record.dn in rs.content_dns) != in_before:
                self.violations.append(("holder", str(record.dn), session.session_id))
        return routed


def _run_side(provider_cls, ops1, ops2, requests, persist_flags):
    master = _build_master(provider_cls.__name__)
    for dn in _POOL[:3]:  # part of the pool pre-exists
        _apply(master, ("upsert", dn, "sn", ("a",)))
    provider = provider_cls(master)
    audit = _RouteAudit(provider) if provider_cls is ResyncProvider else None

    streams = []  # one list of update fingerprints per session
    cookies = []
    for request, persist in zip(requests, persist_flags):
        if persist:
            log = []
            response, _handle = provider.persist(
                request, lambda u, log=log: log.append(_update_fp(u))
            )
            streams.append(log)
            cookies.append(None)
        else:
            log = []
            response = provider.handle(
                request, ReSyncControl(mode=SyncMode.POLL)
            )
            streams.append(log)
            cookies.append(response.cookie)

    def poll_all():
        for i, cookie in enumerate(cookies):
            if cookie is None:
                continue
            response = provider.handle(
                requests[i], ReSyncControl(mode=SyncMode.POLL, cookie=cookie)
            )
            streams[i].extend(_update_fp(u) for u in response.updates)
            cookies[i] = response.cookie

    for op in ops1:
        _apply(master, op)
    poll_all()
    for op in ops2:
        _apply(master, op)
    poll_all()

    if audit is not None:
        assert not audit.violations, f"routing diverged: {audit.violations}"
    return streams


_attr = st.sampled_from(_ATTRS)
_value = st.sampled_from(_VALUES)
# Initials that normalize to empty ("  ") must constrain nothing.
_initial = st.sampled_from(_VALUES + ["  "])

_leaves = st.one_of(
    st.builds(Equality, _attr, _value),
    st.builds(GreaterOrEqual, _attr, _value),
    st.builds(LessOrEqual, _attr, _value),
    st.builds(Present, _attr),
    st.builds(lambda a, v: Substring(a, initial=v), _attr, _initial),
    st.builds(lambda a, v: Substring(a, final=v), _attr, _value),
    st.builds(lambda a, i, f: Substring(a, initial=i, final=f), _attr, _initial, _value),
)

_filters = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.lists(kids, min_size=1, max_size=3).map(lambda cs: And(tuple(cs))),
        st.lists(kids, min_size=1, max_size=3).map(lambda cs: Or(tuple(cs))),
        kids.map(Not),
    ),
    max_leaves=5,
)

_requests = st.builds(
    SearchRequest,
    st.sampled_from(["o=xyz", "c=us,o=xyz"]),
    st.sampled_from([Scope.SUB, Scope.ONE]),
    _filters,
)

_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("upsert"),
            st.sampled_from(_POOL),
            _attr,
            st.lists(_value, min_size=1, max_size=2).map(tuple),  # multi-valued
        ),
        st.tuples(st.just("clearattr"), st.sampled_from(_POOL), _attr),
        st.tuples(st.just("delete"), st.sampled_from(_POOL)),
        st.tuples(
            st.just("rename"),
            st.sampled_from(_POOL),
            st.integers(min_value=0, max_value=2),
        ),
    ),
    min_size=1,
    max_size=10,
)


def test_every_matching_entry_reaches_its_session():
    """Atom soundness, exhaustively over the small universe: whenever the
    compiled filter matches an entry, the entry's own values probe the
    session's atoms.  Every leaf shape, plus AND / OR / AND-NOT pairs
    (whose anchors depend on the postings registered before them)."""
    initials = _VALUES + ["  "]
    leaves = []
    for attr in _ATTRS:
        leaves.append(Present(attr))
        for value in _VALUES:
            leaves += [
                Equality(attr, value),
                GreaterOrEqual(attr, value),
                LessOrEqual(attr, value),
                Substring(attr, final=value),
            ]
        for initial in initials:
            leaves.append(Substring(attr, initial=initial))
            leaves += [Substring(attr, initial=initial, final=v) for v in _VALUES]
    sample = [f for f in leaves if isinstance(f, (Equality, Present))][::3]
    sample += [Substring("sn", initial="a"), Substring("age", initial="00")]
    filters = list(leaves)
    for left in sample:
        for right in sample:
            filters += [And((left, right)), Or((left, right)), And((left, Not(right)))]
    router = SessionRouter()
    sessions = [
        Session(f"s{i}", SearchRequest("o=xyz", Scope.SUB, flt))
        for i, flt in enumerate(filters)
    ]
    for session in sessions:
        router.register(session)
    value_lists = [[v] for v in _VALUES]
    value_lists += [[v, w] for i, v in enumerate(_VALUES) for w in _VALUES[i + 1 :]]
    entries = [Entry("cn=e,o=xyz", {attr: values}) for attr in _ATTRS for values in value_lists]
    entries += [
        Entry("cn=e,o=xyz", {a: [v], b: [w]})
        for i, a in enumerate(_ATTRS)
        for b in _ATTRS[i + 1 :]
        for v in _VALUES
        for w in _VALUES
    ]
    matched = 0
    for entry in entries:
        reached = router._reachable(entry)
        for rs in sessions:
            if rs.compiled(entry):
                matched += 1
                assert rs in reached, (str(rs.request.filter), dict(entry))
    assert matched > len(entries)  # the universe does collide
    # ...across spellings too: the (sn=a) session over a `surname:` entry.
    by_filter = {rs.request.filter: rs for rs in sessions}
    aliased = Entry("cn=e,o=xyz", {"surname": ["a"]})
    assert by_filter[Equality("sn", "a")].compiled(aliased)
    assert by_filter[Equality("sn", "a")] in router._reachable(aliased)


@pytest.mark.parametrize("filter_text", ["(surname=a)", "(sn=a)", "(SN=a)"])
@pytest.mark.parametrize("modified_as", ["surname", "sn"])
def test_a_change_under_one_spelling_reaches_filters_on_either(filter_text, modified_as):
    """An attribute changed under one spelling re-evaluates the sessions
    filtering on it under any other: the changed set and the filter
    fingerprint both name it by its key."""
    master = _build_master("m-alias")
    master.add(Entry("cn=e0,o=xyz", {"objectClass": ["person"], "cn": "e0", "surname": "b"}))
    provider = ResyncProvider(master)
    request = SearchRequest("o=xyz", Scope.SUB, filter_text)
    cookie = provider.handle(request, ReSyncControl(mode=SyncMode.POLL)).cookie
    seen = []
    for value in ("a", "b"):  # enters, then leaves again
        master.modify("cn=e0,o=xyz", [Modification.replace(modified_as, value)])
        response = provider.handle(request, ReSyncControl(mode=SyncMode.POLL, cookie=cookie))
        cookie = response.cookie
        seen += [(u.action.name, str(u.dn)) for u in response.updates]
    assert seen == [("ADD", "cn=e0,o=xyz"), ("DELETE", "cn=e0,o=xyz")]


@settings(max_examples=100, deadline=None)
@given(
    _ops,
    _ops,
    st.lists(_requests, min_size=1, max_size=6),
    st.lists(st.booleans(), min_size=6, max_size=6),
)
def test_routed_fanout_equals_linear(ops1, ops2, requests, persist_flags):
    """Poll batches and persist deliveries are byte-identical between the
    routed provider and the linear oracle, and routing never skips a
    session the linear verdict would notify (audited per update)."""
    routed = _run_side(ResyncProvider, ops1, ops2, requests, persist_flags)
    linear = _run_side(LinearResyncProvider, ops1, ops2, requests, persist_flags)
    assert routed == linear


def test_reentrant_persist_delivery_matches_linear():
    """A persist deliver callback that updates the master re-enters
    on_update mid-flush; the routed two-phase fan-out must interleave
    the nested record between deliveries exactly like the linear scan."""

    def run(provider_cls):
        master = _build_master(provider_cls.__name__)
        for dn in _POOL[:3]:
            _apply(master, ("upsert", dn, "sn", ("a",)))
        provider = provider_cls(master)
        wide = SearchRequest("o=xyz", Scope.SUB, "(sn=*)")
        log1, log2 = [], []
        fired = []

        def deliver1(update):
            log1.append(_update_fp(update))
            if not fired:  # one nested master update, mid-flush
                fired.append(True)
                master.modify(
                    "cn=e1,o=xyz", [Modification.replace("sn", "ba")]
                )

        provider.persist(wide, deliver1)
        provider.persist(wide, lambda u: log2.append(_update_fp(u)))
        master.modify("cn=e0,o=xyz", [Modification.replace("sn", "ab")])
        return log1, log2

    assert run(ResyncProvider) == run(LinearResyncProvider)


def _routed(provider) -> set:
    """Every session any of the router's tables still mentions."""
    router = provider.router
    found = set(router._unanchored)
    for posted in router._postings.values():
        for bucket in posted.values():
            found |= bucket
    for bucket in router._holders.values():
        found |= bucket
    return found


def test_ended_session_is_unrouted():
    master = _build_master("m-end")
    _apply(master, ("upsert", "cn=e0,o=xyz", "sn", ("a",)))
    provider = ResyncProvider(master)
    request = SearchRequest("o=xyz", Scope.SUB, "(sn=*)")
    response = provider.handle(request, ReSyncControl(mode=SyncMode.POLL))
    assert _routed(provider) == set(provider.sessions.active_sessions())
    assert len(_routed(provider)) == 1
    provider.handle(
        request, ReSyncControl(mode=SyncMode.SYNC_END, cookie=response.cookie)
    )
    assert not _routed(provider)
    # Updates after the end must not reach the dead session.
    master.modify("cn=e0,o=xyz", [Modification.replace("sn", "b")])


def test_restart_resets_router():
    master = _build_master("m-restart")
    provider = ResyncProvider(master)
    provider.handle(
        SearchRequest("o=xyz", Scope.SUB, "(sn=*)"),
        ReSyncControl(mode=SyncMode.POLL),
    )
    assert len(_routed(provider)) == 1
    provider.restart()
    assert not _routed(provider)


def test_expired_session_forgotten_at_expiry():
    """An expired session must not wait for an update that happens to
    route to it: with value-level routing a dead ``(sn=a)`` session is
    only ever visited when an entry's sn becomes or stops being ``a``."""
    master = _build_master("m-expire")
    _apply(master, ("upsert", "cn=e0,o=xyz", "sn", ("a",)))
    provider = ResyncProvider(master, idle_limit=2)
    stale_req = SearchRequest("o=xyz", Scope.SUB, "(sn=a)")
    delivered = []
    _response, stale = provider.persist(stale_req, delivered.append)
    record = provider.sessions.get(stale.session_id)
    assert record.deliver is not None and stale.active
    busy_req = SearchRequest("o=xyz", Scope.SUB, "(sn=*)")
    response = provider.handle(busy_req, ReSyncControl(mode=SyncMode.POLL))
    for _ in range(4):  # run the store's activity clock past the limit
        response = provider.handle(
            busy_req, ReSyncControl(mode=SyncMode.POLL, cookie=response.cookie)
        )
    # Gone at expiry, before any update: registration, holder postings
    # and the delivery endpoint (with whatever delivery queue it is) —
    # and the handle reads it.
    assert provider.active_session_count == 1
    assert _routed(provider) == set(provider.sessions.active_sessions())
    assert record not in _routed(provider)
    assert record.deliver is None and record.ended
    assert not stale.active
    master.modify("cn=e0,o=xyz", [Modification.replace("sn", "ab")])
    assert delivered == []


def test_expiry_closes_the_sessions_delivery_queue():
    """Regression: expiry forgot the provider-side callback but told
    neither the handle nor the network — the ``DeliveryQueue`` stayed in
    ``persist_queues`` and ``handle.active`` stayed True for good."""
    master = _build_master("m-expire-net")
    provider = ResyncProvider(master, idle_limit=2)
    net = SimulatedNetwork()
    _deliveries, stale = net.persist_exchange(
        provider, SearchRequest("o=xyz", Scope.SUB, "(sn=a)"), lambda update: None
    )
    queue = stale.delivery_queue
    assert net.persist_queues == {stale.session_id: queue} and stale.active
    busy_req = SearchRequest("o=xyz", Scope.SUB, "(sn=*)")
    response = provider.handle(busy_req, ReSyncControl(mode=SyncMode.POLL))
    for _ in range(4):
        response = provider.handle(
            busy_req, ReSyncControl(mode=SyncMode.POLL, cookie=response.cookie)
        )
    assert provider.active_session_count == 1
    assert not stale.active
    assert net.persist_queues == {}
    queue.offer_many([SyncUpdate.delete(DN.parse("cn=e0,o=xyz"))])  # closed: dropped
    assert queue.pending_count == 0


# ----------------------------------------------------------------------
# precision: value-level, not attribute-level
# ----------------------------------------------------------------------


def test_updates_route_to_the_sessions_their_values_reach():
    """200 single-department + 200 serial-block sessions all *mention*
    departmentNumber / serialNumber / objectClass; a hire, a department
    move and a rename must each visit only the handful whose values they
    carry, while a NOT-shaped session still sees every add in its region."""
    master = _build_master("m-precision")
    master.add(Entry("ou=lab,o=xyz", {"objectClass": ["organizationalUnit"], "ou": "lab"}))
    provider = ResyncProvider(master)
    poll = ReSyncControl(mode=SyncMode.POLL)
    for n in range(200):
        provider.handle(
            SearchRequest(
                "o=xyz", Scope.SUB, f"(&(objectClass=person)(departmentNumber={n:03d}))"
            ),
            poll,
        )
        provider.handle(SearchRequest("o=xyz", Scope.SUB, f"(serialNumber={n:04d}*US)"), poll)
    negated = provider.handle(SearchRequest("ou=lab,o=xyz", Scope.SUB, "(!(sn=a))"), poll)
    candidates = master.metrics.counter("sync.route.candidates")
    notified = master.metrics.counter("sync.route.notified")

    def routed_by(action):
        before = candidates.value, notified.value
        action()
        return candidates.value - before[0], notified.value - before[1]

    def person(dn, serial, dept):
        return Entry(
            dn,
            {
                "objectClass": ["person", "top"],
                "cn": "x",
                "sn": "hire",
                "serialNumber": serial,
                "departmentNumber": dept,
            },
        )

    hire = routed_by(lambda: master.add(person("cn=h1,o=xyz", "004217US", "042")))
    move = routed_by(
        lambda: master.modify(
            "cn=h1,o=xyz", [Modification.replace("departmentNumber", "043")]
        )
    )
    rename = routed_by(lambda: master.modify_dn("cn=h1,o=xyz", new_rdn="cn=h2"))
    for what, (visited, told), expect_told in (
        ("hire", hire, 2),  # its block, its department
        ("move", move, 3),  # its block, the department left and the one joined
        ("rename", rename, 2),
    ):
        assert told == expect_told, what
        assert visited <= 4, f"{what} visited {visited} of 401 sessions"

    # The unanchored session is visited by every add in its region (and
    # by none outside it), whatever the entry's values.
    visited, told = routed_by(
        lambda: master.add(person("cn=h3,ou=lab,o=xyz", "999999US", "999"))
    )
    assert told == 1 and visited <= 2  # (+ the department session posted under person)
    response = provider.handle(
        SearchRequest("ou=lab,o=xyz", Scope.SUB, "(!(sn=a))"),
        ReSyncControl(mode=SyncMode.POLL, cookie=negated.cookie),
    )
    assert [str(u.dn) for u in response.updates] == ["cn=h3,ou=lab,o=xyz"]
