"""The whole replica stack as one stateful property.

A Hypothesis :class:`RuleBasedStateMachine` over one
:class:`FilterReplica` with a running :class:`FilterSelector`, synced
through one caller-built :class:`SyncLink` on a
:class:`FaultyNetwork`.  Rules: master add / modify / delete / modifyDN
(renames, moves, and a move under an absent superior, which the master
must refuse), ``replica.sync``, ``add_filter`` / ``remove_filter`` /
``selector.revolution``, ``subscribe_persist`` / ``unsubscribe_persist``
and ``network.settle()`` (persist delivery), a master modify whose
notifications are all lost in flight, a round whose multiplexed poll
is cut mid-session or has one cookie of its N refused, ``partition`` /
``heal_partition``, and a provider ``restart()`` — recovered from its
journal when the provider is durable, forgetting every session when it
is not.  The link refreshes a live subscription every other round, so
refreshes are due throughout a run.

The rules keep a :class:`~repro.chaos.ReferenceModel` — every master
update is mirrored onto its ``entries`` — and track which filters are
fresh: last poll applied with no master update since, or subscribed
before the last ``settle()`` with no partition, restart or lost
notification since.  A subscription that may have lost a notification
is stale until a round re-opens it, which every refresh does; the
content of every subscription a round opened, refreshes included, is
the model's (divergence after any refresh is zero).  After every rule:

* every probe is a HIT exactly when the model's ``answer`` admits it (a
  filter answers once a response is applied to it), and a pending filter
  has applied nothing and answers nothing;
* a HIT from a fresh filter is the model's answer, entry for entry, and
  carries the link's degraded stamp; the link is ``honest``;
* no rule raised a transport error (any exception fails the run);

and once healed, the first successful round converges the replica —
subscribed filters included: no filter pending, the model holds every
content, every probe exact.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.chaos import ReferenceModel
from repro.core import FilterReplica, FilterSelector, Generalizer, IdentityGeneralization
from repro.ldap import Entry, Scope, SearchRequest
from repro.server import (
    DirectoryServer,
    ExchangeFaults,
    FaultPlan,
    FaultSpec,
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


class FirstExchange(FaultPlan):
    """The first exchange (counted from construction) takes *faults*;
    every later one, and every persist batch, is clean."""

    def __init__(self, faults: ExchangeFaults):
        super().__init__(FaultSpec(), seed=0)
        self._script = [faults]

    def next_exchange(self) -> ExchangeFaults:
        return self._script.pop() if self._script else ExchangeFaults()


class ReplicaStack(RuleBasedStateMachine):
    @initialize(durable=st.booleans())
    def build(self, durable):
        self.master = DirectoryServer("M")
        self.master.add_naming_context("o=xyz")
        self.model = ReferenceModel()
        self.entries = self.model.entries  # DN → what the master should hold there
        top = [Entry("o=xyz", {"objectClass": ["organization"], "o": "xyz"})] + [
            Entry(f"ou={unit},o=xyz", {"objectClass": ["organizationalUnit"], "ou": unit})
            for unit in UNITS
        ]
        for entry in top:
            self.master.add(entry)
            self.entries[str(entry.dn)] = entry
        self.durable = durable
        self.provider = ResyncProvider(
            self.master, journal=MemoryJournal() if durable else None
        )
        self.net = FaultyNetwork()
        self.link = SyncLink(
            self.provider,
            network=self.net,
            policy=RetryPolicy(
                max_attempts=2, base_backoff_ms=1.0, degraded_after=2, persist_refresh_interval=2
            ),
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
        #: subscribed filters that may have lost a notification: stale
        #: until a round re-opens their subscription
        self.lossy = set()
        for name, unit, dept in (("N0", "a", "41"), ("N1", "a", "42"), ("N2", "b", "42")):
            self._commit(self.master.add, person(name, unit, dept, "S0"))
            self.entries[dn_of(name, unit)] = person(name, unit, dept, "S0")

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
        refused = ResultCode.ENTRY_ALREADY_EXISTS if dn in self.entries else None
        if self._commit(self.master.add, person(name, unit, dept, "S0"), refused=refused):
            self.entries[dn] = person(name, unit, dept, "S0")

    @rule(name=st.sampled_from(NAMES), unit=st.sampled_from(UNITS),
          dept=st.sampled_from(DEPARTMENTS), sn=st.sampled_from(["S0", "S1"]))
    def modify(self, name, unit, dept, sn):
        dn = dn_of(name, unit)
        refused = None if dn in self.entries else ResultCode.NO_SUCH_OBJECT
        changes = [
            Modification.replace("departmentNumber", dept),
            Modification.replace("sn", sn),
        ]
        if self._commit(self.master.modify, dn, changes, refused=refused):
            self.entries[dn] = person(name, unit, dept, sn)

    @rule(name=st.sampled_from(NAMES), unit=st.sampled_from(UNITS))
    def delete(self, name, unit):
        dn = dn_of(name, unit)
        refused = None if dn in self.entries else ResultCode.NO_SUCH_OBJECT
        if self._commit(self.master.delete, dn, refused=refused):
            del self.entries[dn]

    @rule(name=st.sampled_from(NAMES), unit=st.sampled_from(UNITS),
          new_name=st.sampled_from(NAMES), new_unit=st.sampled_from(UNITS + ["ghost"]))
    def modify_dn(self, name, unit, new_name, new_unit):
        dn, target = dn_of(name, unit), dn_of(new_name, new_unit)
        if dn not in self.entries:
            refused = ResultCode.NO_SUCH_OBJECT
        elif new_unit == "ghost":
            refused = ResultCode.NO_SUCH_OBJECT  # no entry goes parentless
        elif target == dn:
            refused = ResultCode.UNWILLING_TO_PERFORM
        elif target in self.entries:
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
            old = self.entries.pop(dn)
            self.entries[target] = person(
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

    def _round_applied(self):
        """A round succeeded: every polled filter applied a poll, every
        subscription it opened — re-opened, refreshed — holds the
        model's content, and only the subscriptions it left alone may
        still miss a lost notification."""
        subscribed, opened = self._subscribed(), set()
        for stored in self.replica.stored_filters():
            subscription = self.link.subscription(stored.content)
            if subscription is not None and subscription.cycles == 0:
                assert self.model.holds(stored.content), str(stored.request)
                opened.add(stored.request)
        self.lossy &= subscribed - opened
        self.fresh = {s.request for s in self.replica.stored_filters()} - self.lossy
        self.live = subscribed - self.lossy

    @rule()
    def sync(self):
        if self.replica.sync(self.link) is not None:
            self._round_applied()

    def _faulty_round(self, faults: ExchangeFaults):
        self.net.plan = FirstExchange(faults)
        try:
            self.sync()
        finally:
            self.net.plan = None

    @rule(keep=st.floats(0.0, 0.99))
    def cut_round(self, keep):
        """The round's poll exchange is cut *keep* of the way into its
        update stream: the sessions whose cookie arrived apply whole,
        the cut one its safe prefix, the rest are asked again."""
        self._faulty_round(ExchangeFaults(truncate=True, truncate_keep=keep))

    @rule(position=st.floats(0.0, 0.99))
    def refuse_one_cookie(self, position):
        """One cookie of the round's N is refused: that filter alone
        climbs its ``LADDER`` row, the others apply."""
        self._faulty_round(ExchangeFaults(cookie_invalidate=True, truncate_keep=position))

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
        self.lossy -= live
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

    @rule(name=st.sampled_from(NAMES), unit=st.sampled_from(UNITS),
          dept=st.sampled_from(DEPARTMENTS), sn=st.sampled_from(["S0", "S1"]))
    def lose_notification(self, name, unit, dept, sn):
        """A modify whose notifications — and any others in flight — are
        dropped on the wire: every subscription may diverge silently
        until a round re-opens it."""
        self.net.plan = FaultPlan(FaultSpec(notification_drop=1.0), seed=0)
        try:
            self.modify(name, unit, dept, sn)
            self.net.settle()
        finally:
            self.net.plan = None
        self.lossy |= self._subscribed()
        self.live.clear()

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
        self.lossy.discard(request)
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
        self.lossy -= set(report.removed)
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
        self._round_applied()
        # A subscription that lost a notification is whole again at its
        # refresh, at most an interval away.
        for _ in range(self.link.policy.persist_refresh_interval):
            if not self.lossy:
                break
            assert self.replica.sync(self.link) is not None
            self._round_applied()
        assert not self.lossy
        assert not self.replica._pending and not self.link.degraded
        assert all(self.model.holds(s.content) for s in stored)

    # ------------------------------------------------------------------
    # the model's claims
    # ------------------------------------------------------------------
    @invariant()
    def master_is_the_model(self):
        assert ReferenceModel.of(self.master).entries == self.entries

    @invariant()
    def answers_are_what_the_model_allows(self):
        assert self.model.honest(self.link) is None
        by_text = {str(s.request): s for s in self.replica.stored_filters()}
        admitted = [s.request for s in by_text.values() if s.content.polls]
        for pending in self.replica._pending.values():
            assert self.replica.holds(pending.request) and pending.content.polls == 0
        for probe in PROBES:
            answer, truth = self.replica.answer(probe), self.model.answer(probe, admitted)
            assert answer.is_hit == (truth is not None), str(probe)
            if not answer.is_hit:
                continue
            source = by_text[answer.answered_by]
            assert source.request not in self.replica._pending  # a pending filter never answers
            assert answer.degraded == self.link.degraded
            if source.request in self.fresh:
                assert {str(e.dn): e for e in answer.entries} == truth, str(probe)

    def teardown(self):
        if hasattr(self, "replica"):
            self.heal_and_converge()
            self.answers_are_what_the_model_allows()


TestReplicaStack = ReplicaStack.TestCase
TestReplicaStack.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None, derandomize=True
)
