"""Sublinear candidate routing for query containment (the QC scan).

``FilterReplica._answer`` and ``RecentQueryCache.lookup`` both scan a
population of stored queries calling :func:`~repro.core.containment.
query_contained_in` until one contains the incoming query — linear in
the population size.  The :class:`ContainmentIndex` here replaces the
scan with candidate routing: every registered query is summarized by

* its **guard sets** — necessary conditions on the incoming query's
  leaf predicates for containment to be provable (see
  :func:`guard_sets`; docs/ROUTING.md §3 carries the soundness
  argument).  The query is posted under one of them; a stored AND
  keeps the guard set of each other conjunct as a *requirement* the
  probe must also meet,
* its **region key** — ``base.reversed_key()``, so the region-
  containment prerequisite (stored base is ancestor-or-self of the
  query base) becomes prefix probing of the query's own key.

``candidates(q)`` returns the registered queries whose posted guard
set intersects ``q``'s :class:`Probe` atoms, whose every required guard set does
too, *and* whose region key prefixes ``q``'s — a superset of
everything the linear scan could match, usually a few entries instead
of the whole population.  A probe carries ``pfx`` atoms only at the
prefix lengths some registered guard has (a
:class:`~repro.sync.router.PrefixLengths`, the counter the
provider-side ``SessionRouter`` keeps its own lengths in).  A bounded
positive memo (query → first containing candidate) short-circuits
repeat queries; it is invalidated lazily through candidate liveness,
so ``remove()`` (and cache eviction, which removes) needs no memo
bookkeeping.

Completeness contract (property-tested in
``tests/core/test_routing.py``): for every pair with
``query_contained_in(q, qs)`` true, ``qs`` appears in
``candidates(q)``.  The index never *proves* containment — callers
still run the full check on each candidate — so a routing bug can cost
recall of nothing: missing candidates are impossible by the tests, and
extra candidates only cost a check.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from ..ldap.attributes import AttributeRegistry, DEFAULT_REGISTRY
from ..ldap.filters import (
    And,
    Equality,
    Filter,
    Or,
    Predicate,
    Substring,
    iter_predicates,
    simplify,
)
from ..ldap.query import SearchRequest
from ..sync.router import PrefixLengths, rank

__all__ = [
    "ContainmentIndex",
    "Candidate",
    "Probe",
    "guard_sets",
]

#: ``(kind, ...)`` tuples; kinds: ``eq``, ``pfx``, ``attr``, ``any``.
Atom = Tuple[str, ...]

_ANY: Atom = ("any",)

#: Memo entries kept before the positive memo is wholesale cleared.
MEMO_CAPACITY = 65_536


def _norm(registry: AttributeRegistry, attr: str, value: str) -> str:
    return str(registry.get(attr).normalize(value))


#: A query leaf, normalized: (attr key, equality value, text prefixes
#: are cut from); the empty string where the leaf has none.
Leaf = Tuple[str, str, str]


def _leaf(pred: Predicate, registry: AttributeRegistry) -> Leaf:
    key = registry.key(pred.attr)
    if isinstance(pred, Equality):
        value = _norm(registry, pred.attr, pred.value)
        return (key, value, value)
    if isinstance(pred, Substring) and pred.initial:
        return (key, "", _norm(registry, pred.attr, pred.initial))
    return (key, "", "")


def _predicate_guard(leaf: Leaf) -> Atom:
    """The single guard atom of a stored leaf predicate.

    Chosen so that ``predicate_contained_in(p1, pred)`` (for any query
    leaf ``p1``) implies ``p1`` probes this atom:

    * ``Equality`` is only containable by an equal-valued equality →
      ``("eq", attr, value)``;
    * ``Substring`` with an anchored initial needs the query value /
      initial to start with it → ``("pfx", attr, initial)``;
    * everything else (ranges, presence, approx, unanchored substrings)
      only requires a query predicate on the same attribute →
      ``("attr", attr)``.
    """
    key, value, text = leaf
    if value:
        return ("eq", key, value)
    if text:
        return ("pfx", key, text)
    return ("attr", key)


#: How many registrations are posted under an atom set (ranking ties).
Posted = Callable[[FrozenSet[Atom]], int]


def guard_sets(
    flt: Filter,
    registry: Optional[AttributeRegistry] = None,
    posted: Posted = lambda atoms: 0,
    probe: Optional["Probe"] = None,
) -> Tuple[FrozenSet[Atom], Tuple[FrozenSet[Atom], ...]]:
    """``(posted, required)`` guard sets of a *stored* filter.

    Necessary condition: if ``filter_contained_in(q, flt)`` holds for
    any query filter ``q``, then ``Probe(q).atoms(...)`` intersects the
    posted set and every required set.  For a filter that is not an
    AND, ``posted`` is its one guard set and nothing is required; the
    shape rules mirror the recursion of
    :func:`repro.core.filter_containment.filter_contained_in`:

    * a predicate — its one guard atom (:func:`_predicate_guard`);
    * OR — ``q ⊆ (| d…)`` may be proved through any one disjunct (and a
      disjunctive ``q`` through different disjuncts per branch), so the
      guard is the union over children.  This is why a plain
      attribute-subset prescreen would be unsound here;
    * NOT and other unprovable shapes — the always-match ``("any",)``
      bucket.

    ``Q ⊆ (& c…)`` needs ``Q ⊆ c`` for *every* conjunct (Proposition
    3), so a stored AND is posted under its best-ranked conjunct's
    guard set (:func:`~repro.sync.router.rank`, the ``SessionRouter``'s
    rule; ties go to the set *posted* reports fewer registrations
    under, then to the first) and requires each other conjunct's —
    less any set holding ``("any",)``, which every probe meets.

    *probe* is the filter's own :class:`Probe` when it was just routed
    as a query (a missed query entering the recent-query window): its
    leaves are reused, not normalized again.
    """
    reg = registry if registry is not None else DEFAULT_REGISTRY
    if probe is not None and probe.registry is not reg:
        probe = None
    flt = simplify(flt)
    if not isinstance(flt, And) or not flt.children:
        return _guard(flt, reg, probe, posted), ()
    sets = [_guard(child, reg, probe, posted) for child in flt.children]
    best = _best(sets, posted)
    # in conjunct order, so a probe tests them in the same order in any process
    required = dict.fromkeys(atoms for atoms in sets if _ANY not in atoms and atoms != best)
    return best, tuple(required)


def _best(sets: List[FrozenSet[Atom]], posted: Posted) -> FrozenSet[Atom]:
    best = sets[0]
    best_rank = rank(best, posted(best))
    for atoms in sets[1:]:
        found = rank(atoms, posted(atoms))
        if found > best_rank:
            best, best_rank = atoms, found
    return best


def _guard(
    flt: Filter, reg: AttributeRegistry, probe: Optional["Probe"], posted: Posted
) -> FrozenSet[Atom]:
    if isinstance(flt, Predicate):
        leaf = probe.leaf(flt) if probe is not None else _leaf(flt, reg)
        return frozenset((_predicate_guard(leaf),))
    if isinstance(flt, And) and flt.children:
        return _best([_guard(child, reg, probe, posted) for child in flt.children], posted)
    if isinstance(flt, Or):
        merged: Set[Atom] = set()
        for child in flt.children:
            merged |= _guard(child, reg, probe, posted)
        return frozenset(merged) if merged else frozenset((_ANY,))
    return frozenset((_ANY,))  # NOT, and an empty AND


class Probe:
    """A query filter's leaves, normalized once for every index that
    routes it — a replica's stored filters, then its recent-query
    window, then its key table, and the window's registration of the
    query when it missed — and only when one first asks."""

    __slots__ = ("filter", "registry", "_leaves")

    def __init__(self, flt: Filter, registry: Optional[AttributeRegistry] = None):
        self.filter = flt
        self.registry = registry if registry is not None else DEFAULT_REGISTRY
        self._leaves: Optional[List[Tuple[Predicate, Leaf]]] = None

    def _derived(self) -> List[Tuple[Predicate, Leaf]]:
        if self._leaves is None:
            reg = self.registry
            self._leaves = [(pred, _leaf(pred, reg)) for pred in iter_predicates(self.filter)]
        return self._leaves

    def leaf(self, pred: Predicate) -> Leaf:
        """*pred*'s leaf: derived with the filter's when *pred* is one of
        its predicates (the same object), else on its own."""
        for held, leaf in self._derived():
            if held is pred:
                return leaf
        return _leaf(pred, self.registry)

    def atoms(self, prefix_lengths: Optional[Dict[str, Dict[int, int]]]) -> Set[Atom]:
        """The probe atoms at the prefix lengths one index registers."""
        atoms: Set[Atom] = {_ANY}
        for _pred, (key, value, text) in self._derived():
            atoms.add(("attr", key))
            if value:
                atoms.add(("eq", key, value))
            lens = prefix_lengths.get(key) if text and prefix_lengths else None
            if lens:
                size = len(text)
                for n in lens:
                    if n <= size:
                        atoms.add(("pfx", key, text[:n]))
        return atoms


class Candidate:
    """One registered query plus its routing summary."""

    __slots__ = ("uid", "request", "handle", "atoms", "required", "region")

    def __init__(
        self,
        uid: int,
        request: SearchRequest,
        handle: object,
        atoms: FrozenSet[Atom],
        required: Tuple[FrozenSet[Atom], ...],
        region: Tuple,
    ):
        self.uid = uid
        self.request = request
        self.handle = handle
        self.atoms = atoms
        self.required = required
        self.region = region

    def guards(self):
        """Every guard set: the posted one, then the required ones."""
        return (self.atoms,) + self.required

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"Candidate(#{self.uid}, {self.request})"


class ContainmentIndex:
    """Candidate index over a population of registered queries.

    Args:
        registry: attribute registry for atom normalization (must match
            the one containment checks run under; default registry by
            default, like the memoized ``query_contained_in``).
        order: candidate iteration order — ``"insertion"`` replays the
            stored-filter dict's first-match semantics (and enables the
            positive memo); ``"recency"`` iterates newest-first,
            mirroring the recent-query cache's window (the memo stays
            off: a later insert may preempt an older winner).
    """

    ORDERS = ("insertion", "recency")

    def __init__(
        self,
        registry: Optional[AttributeRegistry] = None,
        order: str = "insertion",
    ):
        if order not in self.ORDERS:
            raise ValueError(f"unknown order {order!r}; pick from {self.ORDERS}")
        self._registry = registry if registry is not None else DEFAULT_REGISTRY
        self._order = order
        self._uids = itertools.count(1)
        self._by_request: Dict[SearchRequest, Candidate] = {}
        self._atom_postings: Dict[Atom, Set[Candidate]] = {}
        # every pfx atom of every guard set, posted or required
        self._pfx_lens = PrefixLengths()
        self._memo: Dict[SearchRequest, Candidate] = {}
        # plain-int accounting; owners mirror these into metric counters
        self.probes = 0
        self.candidates_yielded = 0
        self.memo_hits = 0

    # ------------------------------------------------------------------
    # population maintenance
    # ------------------------------------------------------------------
    def _posted(self, atoms: FrozenSet[Atom]) -> int:
        postings = self._atom_postings
        return sum(len(postings.get(atom, ())) for atom in atoms)

    def add(
        self, request: SearchRequest, handle: object, probe: Optional[Probe] = None
    ) -> Candidate:
        """Register *request*; an existing registration is replaced.
        *probe* is the request filter's :class:`Probe`, when it has one."""
        self.remove(request)
        atoms, required = guard_sets(request.filter, self._registry, self._posted, probe)
        cand = Candidate(
            uid=next(self._uids),
            request=request,
            handle=handle,
            atoms=atoms,
            required=required,
            region=request.base.reversed_key(),
        )
        self._by_request[request] = cand
        for atom in cand.atoms:
            self._atom_postings.setdefault(atom, set()).add(cand)
        for guard in cand.guards():
            for atom in guard:
                if atom[0] == "pfx":
                    self._pfx_lens.add(atom)
        return cand

    def remove(self, request: SearchRequest) -> bool:
        """Unregister *request*; memo entries die by liveness check."""
        cand = self._by_request.pop(request, None)
        if cand is None:
            return False
        for atom in cand.atoms:
            postings = self._atom_postings.get(atom)
            if postings is not None:
                postings.discard(cand)
                if not postings:
                    del self._atom_postings[atom]
        for guard in cand.guards():
            for atom in guard:
                if atom[0] == "pfx":
                    self._pfx_lens.discard(atom)
        return True

    def clear(self) -> None:
        self._by_request.clear()
        self._atom_postings.clear()
        self._pfx_lens.clear()
        self._memo.clear()

    def __len__(self) -> int:
        return len(self._by_request)

    def __contains__(self, request: SearchRequest) -> bool:
        return request in self._by_request

    # ------------------------------------------------------------------
    # candidate routing
    # ------------------------------------------------------------------
    def candidates(
        self, request: SearchRequest, probe: Optional[Probe] = None
    ) -> List[Candidate]:
        """Registered queries that could contain *request*, in order.

        *probe* is the request filter's :class:`Probe` when the caller
        routes it through another index too; one is made otherwise.

        The posting lists of the request's probe atoms are united; a
        matched query is kept only when the probe also meets each of its
        required guard sets (every other conjunct of a stored AND) and
        its base is an ancestor-or-self of the request's
        (:func:`~repro.core.containment.region_contained_in`), i.e. its
        region key is one of the ``len(rk) + 1`` prefixes of
        ``request.base.reversed_key()``.  Both tests are per matched
        candidate, so their cost tracks the matches, not the
        population.
        """
        self.probes += 1
        if not self._by_request:
            return []
        if probe is None or probe.registry is not self._registry:
            probe = Probe(request.filter, self._registry)
        atoms = probe.atoms(self._pfx_lens)
        matched: Set[Candidate] = set()
        postings_get = self._atom_postings.get
        for atom in atoms:
            postings = postings_get(atom)
            if postings:
                matched |= postings
        if not matched:
            return []
        rk = request.base.reversed_key()
        prefixes = {rk[:i] for i in range(len(rk) + 1)}
        matched = {
            c
            for c in matched
            if c.region in prefixes
            and all(not guard.isdisjoint(atoms) for guard in c.required)
        }
        if self._order == "insertion":
            ordered = sorted(matched, key=lambda c: c.uid)
        else:
            ordered = sorted(matched, key=lambda c: -c.uid)
        self.candidates_yielded += len(ordered)
        return ordered

    # ------------------------------------------------------------------
    # positive memo (insertion order only)
    # ------------------------------------------------------------------
    def memo_get(self, request: SearchRequest) -> Optional[Candidate]:
        """The memoized containing candidate for *request*, if still
        registered.  Stale entries (removed/evicted winners) are
        dropped on sight — new registrations can never preempt an
        insertion-ordered winner, so liveness is the only condition."""
        if self._order != "insertion":
            return None
        cand = self._memo.get(request)
        if cand is None:
            return None
        if self._by_request.get(cand.request) is not cand:
            del self._memo[request]
            return None
        self.memo_hits += 1
        return cand

    def memo_put(self, request: SearchRequest, cand: Candidate) -> None:
        if self._order != "insertion":
            return
        if len(self._memo) >= MEMO_CAPACITY:
            self._memo.clear()
        self._memo[request] = cand
