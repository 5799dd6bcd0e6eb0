"""The whole replica stack as one stateful property.

A Hypothesis :class:`RuleBasedStateMachine` over one
:class:`FilterReplica` with a running :class:`FilterSelector`, synced
through one caller-built :class:`SyncLink` on a
:class:`FaultyNetwork`.  Rules: master add / modify / delete / modifyDN
(renames, moves, and a move under an absent superior, which the master
must refuse), ``replica.sync``, ``add_filter`` / ``remove_filter`` /
``selector.revolution``, ``subscribe_persist`` / ``unsubscribe_persist``
and ``network.settle()`` (persist delivery), ``partition`` /
``heal_partition``, and a provider ``restart()`` — recovered from its
journal when the provider is durable, forgetting every session when it
is not.

The model is a dict of master entries, kept by the rules themselves:
``content(F)`` is the entries F selects, and ``answer(Q)`` is
``content(Q)`` whenever QC says Q is contained in a stored filter whose
last poll applied with no master update since, or whose subscription
has been open since before the last ``settle()`` with no partition or
restart since it opened — otherwise the replica may serve what it holds
(stale, and stamped once the link is degraded) or refer.  After every
rule:

* a pending filter answers nothing, and an admitted filter answers
  every probe QC says it contains;
* a HIT from a filter the model calls fresh is the model's answer,
  entry for entry, and carries the link's degraded stamp;
* no rule raised a transport error (any exception fails the run);

and once healed the replica converges — subscribed filters included: no
filter pending, every content equal to the master's, every probe exact.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core import (
    FilterReplica,
    FilterSelector,
    Generalizer,
    IdentityGeneralization,
    query_contained_in,
)
from repro.ldap import Entry, Scope, SearchRequest
from repro.server import (
    DirectoryServer,
    FaultyNetwork,
    LdapError,
    Modification,
    ResultCode,
)
from repro.sync import (
    HealthPolicy,
    MemoryJournal,
    ResyncProvider,
    RetryPolicy,
    SyncLink,
)

NAMES = ["N0", "N1", "N2", "N3"]
UNITS = ["a", "b"]
DEPARTMENTS = ["41", "42", "43"]


def everywhere(filter_text: str) -> SearchRequest:
    return SearchRequest("o=xyz", Scope.SUB, filter_text)


#: What a rule may install: the department queries the selector also
#: proposes, their union, and one region filter (moves cross its edge).
FILTERS = [everywhere(f"(departmentNumber={d})") for d in DEPARTMENTS] + [
    everywhere("(|(departmentNumber=41)(departmentNumber=42))"),
    SearchRequest("ou=a,o=xyz", Scope.SUB, "(objectClass=person)"),
]
#: What a client asks: each contained in at least one of ``FILTERS``.
PROBES = FILTERS + [
    everywhere("(&(departmentNumber=42)(sn=S1))"),
    SearchRequest("ou=a,o=xyz", Scope.SUB, "(&(objectClass=person)(departmentNumber=41))"),
]


def dn_of(name: str, unit: str) -> str:
    return f"cn={name},ou={unit},o=xyz"


def person(name: str, unit: str, dept: str, sn: str) -> Entry:
    return Entry(
        dn_of(name, unit),
        {"objectClass": ["person"], "cn": name, "sn": sn, "departmentNumber": dept},
    )


class ReplicaStack(RuleBasedStateMachine):
    @initialize(durable=st.booleans())
    def build(self, durable):
        self.master = DirectoryServer("M")
        self.master.add_naming_context("o=xyz")
        self.master.add(Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"}))
        for unit in UNITS:
            self.master.add(
                Entry(f"ou={unit},o=xyz", {"objectClass": ["organizationalUnit"], "ou": unit})
            )
        #: the model: DN → the entry the master should hold there
        self.model = {}
        self.durable = durable
        self.provider = ResyncProvider(
            self.master, journal=MemoryJournal() if durable else None
        )
        self.net = FaultyNetwork()
        self.link = SyncLink(
            self.provider,
            network=self.net,
            policy=RetryPolicy(max_attempts=2, base_backoff_ms=1.0, degraded_after=2),
            health=HealthPolicy(max_total_attempts=10**6, max_total_backoff_ms=1e12),
            name="stack",
        )
        self.replica = FilterReplica("branch", network=self.net)
        self.selector = FilterSelector(
            self.replica,
            Generalizer([IdentityGeneralization("(departmentNumber=_)")]),
            lambda request: len(self.master.search(request).entries),
            budget_entries=4,
            revolution_interval=10**9,  # revolutions are a rule of their own
            provider=self.link,
        )
        #: stored filters whose last poll applied, no master update since
        self.fresh = set()
        #: subscribed filters opened with no partition or restart since:
        #: fresh once the transport has delivered
        self.live = set()
        for name, unit, dept in (("N0", "a", "41"), ("N1", "a", "42"), ("N2", "b", "42")):
            self._commit(self.master.add, person(name, unit, dept, "S0"))
            self.model[dn_of(name, unit)] = person(name, unit, dept, "S0")

    # ------------------------------------------------------------------
    # master updates, mirrored on the model
    # ------------------------------------------------------------------
    def _commit(self, operation, *args, refused=None, **kwargs):
        """Run a master update the model expects to succeed, or to be
        refused with *refused*."""
        try:
            operation(*args, **kwargs)
        except LdapError as exc:
            assert exc.code is refused, f"{exc} (the model expected {refused})"
            return False
        assert refused is None, f"the master accepted what the model refuses ({refused})"
        self.fresh.clear()
        return True

    @rule(name=st.sampled_from(NAMES), unit=st.sampled_from(UNITS),
          dept=st.sampled_from(DEPARTMENTS))
    def add(self, name, unit, dept):
        dn = dn_of(name, unit)
        refused = ResultCode.ENTRY_ALREADY_EXISTS if dn in self.model else None
        if self._commit(self.master.add, person(name, unit, dept, "S0"), refused=refused):
            self.model[dn] = person(name, unit, dept, "S0")

    @rule(name=st.sampled_from(NAMES), unit=st.sampled_from(UNITS),
          dept=st.sampled_from(DEPARTMENTS), sn=st.sampled_from(["S0", "S1"]))
    def modify(self, name, unit, dept, sn):
        dn = dn_of(name, unit)
        refused = None if dn in self.model else ResultCode.NO_SUCH_OBJECT
        changes = [
            Modification.replace("departmentNumber", dept),
            Modification.replace("sn", sn),
        ]
        if self._commit(self.master.modify, dn, changes, refused=refused):
            self.model[dn] = person(name, unit, dept, sn)

    @rule(name=st.sampled_from(NAMES), unit=st.sampled_from(UNITS))
    def delete(self, name, unit):
        dn = dn_of(name, unit)
        refused = None if dn in self.model else ResultCode.NO_SUCH_OBJECT
        if self._commit(self.master.delete, dn, refused=refused):
            del self.model[dn]

    @rule(name=st.sampled_from(NAMES), unit=st.sampled_from(UNITS),
          new_name=st.sampled_from(NAMES), new_unit=st.sampled_from(UNITS + ["ghost"]))
    def modify_dn(self, name, unit, new_name, new_unit):
        dn, target = dn_of(name, unit), dn_of(new_name, new_unit)
        if dn not in self.model:
            refused = ResultCode.NO_SUCH_OBJECT
        elif new_unit == "ghost":
            refused = ResultCode.NO_SUCH_OBJECT  # no entry goes parentless
        elif target == dn:
            refused = ResultCode.UNWILLING_TO_PERFORM
        elif target in self.model:
            refused = ResultCode.ENTRY_ALREADY_EXISTS
        else:
            refused = None
        moved = self._commit(
            self.master.modify_dn,
            dn,
            new_rdn=f"cn={new_name}",
            new_superior=f"ou={new_unit},o=xyz",
            refused=refused,
        )
        if moved:
            old = self.model.pop(dn)
            self.model[target] = person(
                new_name, new_unit, old.first("departmentNumber"), old.first("sn")
            )

    # ------------------------------------------------------------------
    # the replica's own moves
    # ------------------------------------------------------------------
    def _note_installed(self, request):
        if request in self.replica._pending:
            self.fresh.discard(request)
        else:
            self.fresh.add(request)

    def _subscribed(self):
        return {
            s.request
            for s in self.replica.stored_filters()
            if self.link.subscription(s.content) is not None
        }

    @rule()
    def sync(self):
        if self.replica.sync(self.link) is not None:
            self.fresh = {s.request for s in self.replica.stored_filters()}
            self.live = self._subscribed()

    @rule()
    def subscribe_persist(self):
        joining = {s.request for s in self.replica.stored_filters()} - self._subscribed()
        opened = self.replica.subscribe_persist(self.link)
        live = {
            s.request
            for s in self.replica.stored_filters()
            if s.request in joining and self.link.subscription(s.content).handle is not None
        }
        assert opened == len(live)
        self.live |= live
        self.fresh |= live  # the opening response is the master's content

    @rule()
    def unsubscribe_persist(self):
        self.replica.unsubscribe_persist()
        assert self.replica.persist_connections == 0 and not self._subscribed()
        self.live.clear()

    @rule()
    def settle(self):
        self.net.settle()
        self.fresh |= self.live

    @rule(request=st.sampled_from(FILTERS))
    def add_filter(self, request):
        if not self.replica.holds(request):
            self.replica.add_filter(request, self.link)
            self._note_installed(request)

    @rule(request=st.sampled_from(FILTERS))
    def remove_filter(self, request):
        self.replica.remove_filter(request, self.link)
        self.fresh.discard(request)
        self.live.discard(request)
        assert not self.replica.holds(request)

    @rule(dept=st.sampled_from(DEPARTMENTS))
    def query(self, dept):
        request = everywhere(f"(departmentNumber={dept})")
        self.replica.answer(request)
        self.selector.observe(request)

    @rule()
    def revolution(self):
        report = self.selector.revolution()
        self.fresh -= set(report.removed)
        self.live -= set(report.removed)
        for request in report.installed:
            self._note_installed(request)
        assert self.selector._since_revolution == 0

    # ------------------------------------------------------------------
    # faults
    # ------------------------------------------------------------------
    @rule()
    def partition(self):
        self.net.partition(self.provider)
        self.live.clear()

    @rule()
    def heal_partition(self):
        self.net.heal_partition(self.provider)

    @rule()
    def restart_provider(self):
        self.provider.restart()
        self.live.clear()
        if self.durable:
            self.provider.recover()

    @rule()
    def heal_and_converge(self):
        self.net.heal_partition(self.provider)
        stored = self.replica.stored_filters()
        if not stored:
            return  # an empty round is a no-op: nothing to converge
        for _ in range(4):
            if self.replica.sync(self.link) is not None:
                break
        else:
            raise AssertionError(f"no successful round once healed ({self.link.position})")
        assert not self.replica._pending and not self.link.degraded
        assert all(s.content.matches_master(self.master) for s in stored)
        self.fresh = {s.request for s in stored}
        self.live = self._subscribed()

    # ------------------------------------------------------------------
    # the model's claims
    # ------------------------------------------------------------------
    def content(self, request):
        return {
            dn: request.project(entry)
            for dn, entry in self.model.items()
            if request.selects(entry)
        }

    @invariant()
    def master_is_the_model(self):
        held = {str(e.dn) for e in self.master.store.all_entries()}
        assert held == set(self.model) | {"o=xyz", "ou=a,o=xyz", "ou=b,o=xyz"}

    @invariant()
    def answers_are_what_the_model_allows(self):
        replica = self.replica
        by_text = {str(s.request): s for s in replica.stored_filters()}
        admitted = [s for s in by_text.values() if s.request not in replica._pending]
        for pending in replica._pending.values():
            assert replica.holds(pending.request) and pending.content.polls == 0
        for probe in PROBES:
            answer = replica.answer(probe)
            contained = any(query_contained_in(probe, s.request) for s in admitted)
            assert answer.is_hit == contained, str(probe)
            if not answer.is_hit:
                continue
            source = by_text[answer.answered_by]
            assert source.request not in replica._pending  # a pending filter never answers
            assert answer.degraded == self.link.degraded
            if source.request in self.fresh:
                got = {str(e.dn): e for e in answer.entries}  # Entry == is semantic
                assert got == self.content(probe), str(probe)

    def teardown(self):
        if hasattr(self, "replica"):
            self.heal_and_converge()
            self.answers_are_what_the_model_allows()


TestReplicaStack = ReplicaStack.TestCase
TestReplicaStack.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None, derandomize=True
)
