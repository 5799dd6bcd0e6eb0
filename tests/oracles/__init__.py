"""Reference implementations of the production paths.

What the whole stack owes is one model, :class:`ReferenceModel`,
re-exported from :mod:`repro.chaos.model` (the soak checks it too, and
``src/`` cannot import ``tests/``); below are per-layer references.

``repro.core`` answers through one path: candidate routing
(:class:`~repro.core.routing.ContainmentIndex`), indexed evaluation and
an exact negative result cache; ``repro.sync`` fans updates out through
one path, the :class:`~repro.sync.router.SessionRouter`.  The seed's
linear scans live here, as the oracles the equivalence properties
(``tests/core/test_routing_equivalence.py``,
``tests/sync/test_router.py``) compare against and the "linear" arm the
scaling/ablation benches measure:

* :class:`LinearFilterReplica` — every stored filter containment-checked
  in insertion order, no negative cache, hits evaluated by an
  interpreted scan of the whole content (the stored request itself is
  answered with the whole content, which is its answer).  Given a
  :class:`~repro.core.TemplateRegistry` (``templates=``), it runs §3.4.2's
  template-based containment over that scan: a query no template admits
  is referred at once, and a stored filter whose template cannot
  contain the query's is skipped — the pruning E16 measures;
* :class:`LinearRecentQueryCache` — the whole window scanned
  newest-first, hits evaluated the same interpreted way; ``policy="lru"``
  is E16's replacement-policy arm (a hit moves its query to the newest
  end), beside the paper's FIFO window;
* :func:`is_contained` — §3.4.1's ``isContained(b, C)``, transcribed
  line by line, the reference ``SubtreeReplica._context_for`` is held to
  (``tests/core/test_subtree_replica.py``);
* :class:`LinearResyncProvider` — every active session's filter
  evaluated, interpreted, against both images of every update, and its
  :data:`~repro.sync.session.OUTCOMES` row folded into the session one
  update at a time (``_apply_to_session`` and :func:`observe`, which
  left ``src/`` when journal replay started fanning out through the
  router like a live commit).

Each subclasses the production class so filter management, sync, stats,
window and session bookkeeping are shared; only the scans differ.
:func:`holders_of` recomputes the router's one derived table, the
``DN → sessions`` holder index, from the session records it inverts.

:class:`UnenforcedDirectoryServer` is a master that lets a second
entry hold a value of a unique attribute, the counterexample that shows
the replica's key rule rests on the master's enforcement
(``tests/core/test_key_rule.py``).

Two scans a request used to pay for are kept the same way:

* :class:`LinearSessionStore` — expiry by a look at every live session
  on every poll, where ``SessionStore`` reads the front of its activity
  order (``tests/sync/test_session.py`` holds the two to the same
  sessions ended in the same order);
* :func:`linear_substring_candidates` / :func:`linear_substring_estimate`
  — a short substring component answered by a scan of the whole gram
  vocabulary and a union of the postings found, components intersected
  in the order written, where ``SubstringIndex`` remembers the gram
  list and filters the running set (``tests/server/test_indexes.py``:
  equal sets, equal estimates).

A link round polls every content in one multiplexed exchange, and the
provider leaves quiet sessions unnamed (docs/PROTOCOL.md §4);
:class:`PerContentLink` is the round it replaced — one ``poll``
exchange per content, each a full cookie resume through
:meth:`SyncedContent.poll <repro.sync.SyncedContent.poll>` — kept as
the protocol reference ``tests/sync/test_multiplexed_poll.py`` compares
the multiplexed round against.

The network's persist transport batches notifications into encoded
frames (docs/TRANSPORT.md); :func:`per_pdu_persist` is the transport it
replaced — every notification delivered inline and encoded as its own
wire PDU — kept as the control arm ``bench_persist_fanout`` measures
the batched one against.

The system has one provider, :class:`~repro.sync.ResyncProvider`; the
mechanisms §5.2 argues it against — :class:`ChangelogProvider`,
:class:`TombstoneProvider`, :class:`FullReloadProvider` and the
stateless eq.-3 :class:`RetainResyncProvider`, with their
:class:`CsnCookieMixin` cookies — live in :mod:`tests.oracles.strawmen`
and are re-exported here: the E11 bench (``bench_sync_mechanisms``)
measures them, and the convergence properties run every one of them.
So is :func:`copied_pdu`, the ``add``/``modify`` PDU over a private copy
of a caller's entry that they and the tests build (the provider wraps
its frozen store images uncopied).

Recovery and the snapshot dump do each piece of text work once; the
per-piece versions they replaced stay here as references:

* :func:`recover_parsing_each_text` — ``ResyncProvider.recover()`` with
  every DN text parsed where it is read, as before the recovery's
  :class:`~repro.sync.durability.DNMemo` (``tests/sync/test_durability.py``
  holds the two to the same recovered sessions and the same compaction
  snapshot);
* :func:`per_character_is_safe` — the LDIF writer's SAFE-STRING test as
  a loop over the value's characters (``tests/ldap/test_ldif.py``: the
  compiled test agrees on arbitrary text).

The reconcile sketch hashes each position once from pre-made bytes and
takes an item's checksum from the image's remembered digest;
:class:`ReferenceSketch` (:mod:`tests.oracles.sketch`) hashes part by
part and checksums every item it inserts, as the sketch first did
(``tests/sync/test_sketch_reference.py``: every cell equal, after build,
insert and peel).

A master search settles its regions once and runs one loop from the
plan's candidates to the result; :func:`reference_evaluate`
(:class:`ReferenceSearch`, :mod:`tests.oracles.search`) is the region
walk it replaced — a re-entry per held context for a null base, a scope
and a referral test per candidate, a compile per re-entry
(``tests/server/test_evaluate_reference.py``: the same images in the
same order, the same references, codes and ``server.plan.*`` counts).

A content answers its own request as held, and the recent-query
window answers a hit on the cached request itself the same way;
:func:`plan_and_test_evaluate` is the evaluation every request paid
before — plan, insertion rank, compiled filter — and still the one
every other request pays (``tests/core/test_held_request.py``: the same
images in the same order for every other request, under update churn).

A run charges BER lengths without building BER: a persist batch frame
(:func:`repro.ldap.ber.encoded_sync_batch_size`), each update PDU in it
(:func:`repro.ldap.ber.sync_update_size`) and a reconcile sketch
(:meth:`EntrySketch.encoded_size
<repro.sync.reconcile.EntrySketch.encoded_size>`) are length
arithmetic.  The encoders they measure live here:
:func:`encode_sync_batch`, :func:`encode_sync_update` and the TLV
writers under them (:mod:`tests.oracles.ber`), and the sketch's
:func:`encoded_bytes` (:mod:`tests.oracles.sketch`);
:func:`decode_sync_batch`, :func:`decode_sync_update` and the TLV
readers read the frames back (``tests/ldap/test_ber_sizes.py``: every
size equals the length of the bytes built; ``tests/ldap/test_ber_batch.py``:
decode∘encode is the identity).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple
from unittest import mock

from repro.chaos import ReferenceModel
from repro.core import (
    AnswerStatus,
    FilterReplica,
    RecentQueryCache,
    ReplicaAnswer,
    ReplicationContext,
    StoredFilter,
    TemplateRegistry,
    query_contained_in,
    template_key,
)
from repro.ldap import DN, Entry, SearchRequest
from repro.ldap.matching import compile_filter_cached
from repro.server import DirectoryServer, Referral, ResponseTruncated
from repro.server.indexes import NGRAM, _ngrams
from repro.sync import ResyncProvider, SessionStore, SyncLink, SyncProtocolError
from repro.sync import resync
from repro.sync.durability import DNMemo
from repro.sync.ladder import LADDER
from repro.sync.session import OUTCOMES, PDUS

from .ber import (
    APP_SYNC_BATCH,
    BerError,
    TAG_ENUMERATED,
    TAG_SET,
    decode_integer,
    decode_sync_batch,
    decode_sync_update,
    decode_tlv,
    encode_integer,
    encode_octet_string,
    encode_sequence,
    encode_sync_batch,
    encode_sync_update,
    encode_tlv,
    iter_tlvs,
)
from .search import ReferenceSearch, reference_evaluate
from .sketch import ReferenceSketch, encoded_bytes, reference_digest, reference_sketch
from .strawmen import (
    Changelog,
    ChangelogProvider,
    ChangelogRecord,
    CsnCookieMixin,
    FullReloadProvider,
    RetainResyncProvider,
    TombstoneProvider,
    TombstoneStore,
    copied_pdu,
)

__all__ = [
    "APP_SYNC_BATCH",
    "BerError",
    "Changelog",
    "ChangelogProvider",
    "ChangelogRecord",
    "CsnCookieMixin",
    "FullReloadProvider",
    "LinearFilterReplica",
    "LinearRecentQueryCache",
    "LinearResyncProvider",
    "LinearSessionStore",
    "PerContentLink",
    "ReferenceModel",
    "ReferenceSearch",
    "ReferenceSketch",
    "RetainResyncProvider",
    "TAG_ENUMERATED",
    "TAG_SET",
    "TombstoneProvider",
    "TombstoneStore",
    "UnenforcedDirectoryServer",
    "copied_pdu",
    "decode_integer",
    "decode_sync_batch",
    "decode_sync_update",
    "decode_tlv",
    "encode_integer",
    "encode_octet_string",
    "encode_sequence",
    "encode_sync_batch",
    "encode_sync_update",
    "encode_tlv",
    "encoded_bytes",
    "holders_of",
    "is_contained",
    "iter_tlvs",
    "linear_substring_candidates",
    "linear_substring_estimate",
    "observe",
    "per_character_is_safe",
    "per_pdu_persist",
    "plan_and_test_evaluate",
    "recover_parsing_each_text",
    "reference_digest",
    "reference_evaluate",
    "reference_sketch",
]


class LinearRecentQueryCache(RecentQueryCache):
    """Recent-query window answered by a newest-first scan; a hit on
    the cached request itself is the held result, projected.  Under
    ``policy="lru"`` a hit also moves its query to the newest end, so
    eviction drops the least recently used query, not the oldest."""

    POLICIES = ("fifo", "lru")

    def __init__(self, capacity: int = 50, policy: str = "fifo"):
        if policy not in self.POLICIES:
            raise ValueError(f"unknown policy {policy!r}; pick from {self.POLICIES}")
        super().__init__(capacity)
        self.policy = policy

    def lookup(self, request: SearchRequest, probe=None) -> Optional[Tuple[List[Entry], str]]:
        self.lookups += 1
        for cached in reversed(self._window.values()):
            self.containment_checks += 1
            if query_contained_in(request, cached.request):
                self.hits += 1
                held = request == cached.request
                answer = [
                    request.project(entry)
                    for entry in cached.entries.values()
                    if held or request.selects(entry)
                ]
                if self.policy == "lru":
                    self._window.move_to_end(cached.request)
                return answer, str(cached.request)
        return None


class LinearFilterReplica(FilterReplica):
    """Replica answered by the seed's scan over all stored filters.

    With *templates*, the scan is §3.4.2's template-based containment:
    only a query some registered template admits is a candidate for
    local answering (:meth:`_admitted`), and a stored filter whose
    template the registry says cannot contain the query's
    (:meth:`TemplateRegistry.may_answer`) is skipped unchecked.
    *cache_policy* is the window's (:class:`LinearRecentQueryCache`).
    """

    def __init__(
        self,
        *args,
        templates: Optional[TemplateRegistry] = None,
        cache_policy: str = "fifo",
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self.templates = templates
        self.cache = LinearRecentQueryCache(self.cache.capacity, policy=cache_policy)
        #: stored request → its template key, made once at install
        self._template_keys = {}

    def add_filter(
        self, request: SearchRequest, provider=None, sync_interval: int = 1
    ) -> StoredFilter:
        self._template_keys[request] = template_key(request.filter)
        return super().add_filter(request, provider, sync_interval)

    def _admitted(self, request: SearchRequest) -> bool:
        """Template admission: with a registry, only member queries are
        candidates for local answering."""
        return self.templates is None or self.templates.classify(request.filter) is not None

    def _answer(self, request: SearchRequest) -> ReplicaAnswer:
        if self._admitted(request):
            return super()._answer(request)
        answer = ReplicaAnswer(
            AnswerStatus.MISS, referrals=[Referral(self.master_url, request.base)]
        )
        self.stats.record(answer)
        return answer

    def _find_stored(self, request: SearchRequest, probe=None) -> Optional[StoredFilter]:
        templates = self.templates
        qkey = template_key(request.filter) if templates is not None else ""
        for stored in self._stored.values():
            if templates is not None and not templates.may_answer(
                self._template_keys[stored.request], qkey
            ):
                continue
            self.containment_checks += 1
            self._checks_stored.inc()
            if query_contained_in(request, stored.request):
                return stored
        return None

    def _evaluate(self, request: SearchRequest, stored: StoredFilter) -> List[Entry]:
        held = request == stored.request
        return [
            request.project(entry)
            for entry in stored.content.entries.values()
            if held or request.selects(entry)
        ]


def is_contained(contexts: Iterable[ReplicationContext], base: DN) -> bool:
    """§3.4.1's ``isContained(b, C)``: can a query based at *base* be (at
    least partially) answered by a subtree replica holding *contexts*?
    A context whose suffix is *base* answers; one whose suffix is above
    *base* answers unless one of its referral objects is *base* or above
    it; the first context that decides, decides."""
    for context in contexts:
        if context.suffix == base:
            return True
        if not context.suffix.is_suffix_of(base):
            continue
        if any(r.is_ancestor_or_self(base) for r in context.referral_dns()):
            return False
        return True
    return False


class UnenforcedDirectoryServer(DirectoryServer):
    """A master that skips the unique-attribute check: ``add``,
    ``modify`` and ``modify_dn`` accept a second holder of a key value."""

    def _refuse_second_holder(self, entry, keys, holder=None) -> None:
        return None


def plan_and_test_evaluate(content, request: SearchRequest) -> List[Entry]:
    """*request* over *content* (a :class:`~repro.sync.SyncedContent`)
    the way every request was evaluated before a content answered its
    own request as held: the store's plan, candidates in insertion rank,
    the compiled filter and the scope test on each."""
    store = content._store
    compiled = compile_filter_cached(request.filter)
    candidates = store.candidates_for(request.filter)
    if candidates is None:
        images = store.images().values()
    else:
        images = store.in_insertion_order(candidates)
    return [request.project(e) for e in images if request.in_scope(e.dn) and compiled(e)]


class LinearResyncProvider(ResyncProvider):
    """Provider fanning out by the seed's scan over all active sessions."""

    def _fan_out(self, record) -> None:
        for session in self.sessions.active_sessions():
            self._apply_to_session(session, record)

    def _apply_to_session(self, session, record) -> None:
        """Evaluate *record* against one session with both images,
        interpreted — the seed's whole fan-out."""
        request = session.request
        in_before = record.before is not None and request.selects(record.before)
        in_after = record.after is not None and request.selects(record.after)
        if not in_before and not in_after:
            return
        observe(session, in_before, in_after, record.dn, record.effective_dn, record.after)
        session.flush()


def observe(session, in_before: bool, in_after: bool, old_dn: DN, new_dn: DN, after_entry) -> None:
    """Fold one master update into *session*: its row of
    :data:`~repro.sync.session.OUTCOMES`, applied to the membership and
    to the history.

    ``in_before``/``in_after`` say whether the entry was inside the
    session's content before/after the update; ``old_dn``/``new_dn``
    differ only for modifyDN.  The routed fan-out folds the same row
    in two passes over every visited session (memberships, then PDUs);
    this is the one-session fold the all-sessions oracle runs.
    """
    pdus = OUTCOMES[in_before, in_after, old_dn != new_dn]
    session.advance(pdus, old_dn, new_dn)
    for pdu in pdus:
        session.enqueue(PDUS[pdu](old_dn, after_entry))


class LinearSessionStore(SessionStore):
    """Session store expiring by a scan over every live session."""

    def _expire(self) -> None:
        if self._expiring:
            return
        self._expiring = True
        try:
            cutoff = self._tick - self.idle_limit
            stale = [
                sid
                for sid, session in list(self._sessions.items())
                if session.last_active_tick < cutoff and not session.draining
            ]
            for sid in stale:
                self.end(sid)
        finally:
            self._expiring = False


def _linear_short_postings(index, component: str):
    """The postings of every vocabulary gram containing *component*."""
    return [p for gram, p in index._postings.items() if component in gram]


def linear_substring_candidates(index, components) -> Optional[set]:
    """``SubstringIndex.candidates`` as it was: the components in the
    order written, a short one by vocabulary scan and union."""
    result: Optional[set] = None
    usable = False
    for component in components:
        normalized = str(index._atype.normalize(component))
        if not normalized:
            continue
        usable = True
        if len(normalized) < NGRAM:
            found = set().union(*_linear_short_postings(index, normalized))
            result = found if result is None else result & found
            if not result:
                return set()
            continue
        for gram in _ngrams(normalized):
            postings = index._postings.get(gram, set())
            result = set(postings) if result is None else result & postings
            if not result:
                return set()
    return result if usable else None


def linear_substring_estimate(index, components) -> Optional[int]:
    """``SubstringIndex.estimate`` as it was: a vocabulary scan per
    short component."""
    best: Optional[int] = None
    for component in components:
        normalized = str(index._atype.normalize(component))
        if not normalized:
            continue
        if len(normalized) < NGRAM:
            size = sum(len(p) for p in _linear_short_postings(index, normalized))
        else:
            size = min(
                len(index._postings.get(gram, ()))
                for gram in _ngrams(normalized)
            )
        if best is None or size < best:
            best = size
    return best


def holders_of(provider) -> dict:
    """What ``provider.router._holders`` must equal at every quiescent
    point: exactly the inverse of ``{s: s.content_dns}`` over the live
    sessions — no posting of an ended session, none missing."""
    inverse = {}
    for session in provider.sessions.active_sessions():
        for dn in session.content_dns:
            inverse.setdefault(dn, set()).add(session)
    return inverse


def per_pdu_persist(provider, request, deliver, network, cookie=None):
    """Open a persist session whose notifications travel synchronously,
    one BER-encoded PDU each: *deliver* runs inline with the master
    update and *network* is charged the exact frame length
    (:func:`encode_sync_update`) per notification — what
    a per-entry wire transport pays.  *deliver* must not charge on its
    own (apply into a :class:`~repro.sync.SyncedContent` built without
    a network).  Returns ``(initial response, handle)``.
    """

    def wired(update):
        frame_len = len(encode_sync_update(update))
        if update.entry is not None:
            network.charge_sync_entry(frame_len)
        else:
            network.charge_sync_dn(frame_len)
        deliver(update)

    network.charge_round_trip()
    return provider.persist(request, wired, cookie=cookie)


class PerContentLink(SyncLink):
    """A :class:`~repro.sync.SyncLink` whose polled contents each take a
    ``poll`` exchange of their own — a full cookie resume, an empty
    batch and a new cookie for a session with nothing to say — climbing
    ``LADDER`` inline on a refusal: the link round before polls were
    multiplexed."""

    def _poll(self, contents, cap, failures):
        response = None
        for content in contents:
            response, failures = self.attempt(lambda: self._poll_one(content), cap, failures=failures)
            if response is None:
                break
        return response, failures

    def _poll_one(self, content):
        while True:
            cookie = content.cookie
            try:
                return content.poll(self.provider, timeout_ms=self.policy.timeout_ms)
            except ResponseTruncated as exc:
                if exc.partial is not None:
                    self._apply_safe_prefix(content, exc.partial)
                raise
            except SyncProtocolError:
                for tier in LADDER[cookie is not None, self._sketch.pays(content)]:
                    if tier == "raise":
                        raise
                    if tier == "sketch":
                        reconciled = self.reconcile(content)
                        if reconciled is not None or self.suspended:
                            return reconciled
                    else:
                        self._reloads.inc()
                        content.cookie = None


class _ParseEachText(DNMemo):
    """A :class:`DNMemo` that remembers nothing: every lookup parses."""

    def __call__(self, text: str) -> DN:
        return DN.parse(text)


def recover_parsing_each_text(provider) -> int:
    """``provider.recover()`` decoding every DN text of the snapshot and
    the journal tail by its own ``DN.parse`` — one :class:`DN` per
    occurrence, none shared between sessions."""
    with mock.patch.object(resync, "DNMemo", _ParseEachText):
        return provider.recover()


def per_character_is_safe(value: str) -> bool:
    """RFC 2849 SAFE-STRING test, one character at a time: empty, or no
    leading space, ``:`` or ``<``, no trailing space, and every
    character printable ASCII."""
    if value == "":
        return True
    if value[0] in {" ", ":", "<"}:
        return False
    if value[-1] == " ":
        return False
    return all(32 <= ord(ch) < 127 for ch in value)
