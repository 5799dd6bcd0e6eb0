"""Sublinear candidate routing for query containment (the QC scan).

``FilterReplica._answer`` and ``RecentQueryCache.lookup`` both scan a
population of stored queries calling :func:`~repro.core.containment.
query_contained_in` until one contains the incoming query — linear in
the population size.  The :class:`ContainmentIndex` here replaces the
scan with candidate routing: every registered query is summarized by

* a set of **guard atoms** — a necessary condition on the incoming
  query's leaf predicates for containment to be provable (see
  :func:`guard_atoms`; docs/ROUTING.md carries the soundness argument),
* its **region key** — ``base.reversed_key()``, so the region-
  containment prerequisite (stored base is ancestor-or-self of the
  query base) becomes prefix probing of the query's own key.

``candidates(q)`` returns the registered queries whose guard atoms
intersect ``probe_atoms(q)`` *and* whose region key prefixes ``q``'s —
a superset of everything the linear scan could match, usually a few
entries instead of the whole population.  A bounded positive memo
(query → first containing candidate) short-circuits repeat queries; it
is invalidated lazily through candidate liveness, so ``remove()`` (and
cache eviction, which removes) needs no memo bookkeeping.

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
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..ldap.attributes import AttributeRegistry, DEFAULT_REGISTRY
from ..ldap.filters import (
    And,
    Equality,
    Filter,
    Not,
    Or,
    Predicate,
    Substring,
    iter_predicates,
    simplify,
)
from ..ldap.query import SearchRequest

__all__ = ["ContainmentIndex", "Candidate", "guard_atoms", "probe_atoms"]

#: ``(kind, ...)`` tuples; kinds: ``eq``, ``pfx``, ``attr``, ``any``.
Atom = Tuple[str, ...]

_ANY: Atom = ("any",)

#: Memo entries kept before the positive memo is wholesale cleared.
MEMO_CAPACITY = 65_536


def _norm(registry: AttributeRegistry, attr: str, value: str) -> str:
    return str(registry.get(attr).normalize(value))


def _predicate_guard(pred: Predicate, registry: AttributeRegistry) -> Atom:
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
    key = registry.key(pred.attr)
    if isinstance(pred, Equality):
        value = _norm(registry, pred.attr, pred.value)
        if value:
            return ("eq", key, value)
    elif isinstance(pred, Substring) and pred.initial:
        prefix = _norm(registry, pred.attr, pred.initial)
        if prefix:
            return ("pfx", key, prefix)
    return ("attr", key)


_STRENGTH = {"any": 0, "attr": 1, "pfx": 2, "eq": 3}


def _guard_score(atoms: FrozenSet[Atom]) -> Tuple[int, int, int]:
    """Selectivity rank of one guard set (higher = better).

    A guard set has OR semantics, so it is as weak as its weakest atom;
    prefer any-free sets, then a stronger weakest atom, then fewer
    atoms.
    """
    has_any = any(a[0] == "any" for a in atoms)
    weakest = min(_STRENGTH[a[0]] for a in atoms)
    return (0 if has_any else 1, weakest, -len(atoms))


def guard_atoms(flt: Filter, registry: Optional[AttributeRegistry] = None) -> FrozenSet[Atom]:
    """Guard atoms of a *stored* filter.

    Necessary condition: if ``filter_contained_in(q, flt)`` holds for
    any query filter ``q``, then ``probe_atoms(q)`` intersects
    ``guard_atoms(flt)``.  Shape rules mirror the recursion of
    :func:`repro.core.filter_containment.filter_contained_in`:

    * AND — containment requires ``q ⊆ c`` for *every* conjunct, so any
      single conjunct's guards suffice; the most selective one is kept.
    * OR — ``q ⊆ (| d…)`` may be proved through any one disjunct (and a
      disjunctive ``q`` through different disjuncts per branch), so the
      guard is the union over children.  This is why a plain
      attribute-subset prescreen would be unsound here.
    * NOT and other unprovable shapes — the always-match ``("any",)``
      bucket.
    """
    reg = registry if registry is not None else DEFAULT_REGISTRY
    return _guard(simplify(flt), reg)


def _guard(flt: Filter, reg: AttributeRegistry) -> FrozenSet[Atom]:
    if isinstance(flt, Predicate):
        return frozenset((_predicate_guard(flt, reg),))
    if isinstance(flt, And):
        best: Optional[FrozenSet[Atom]] = None
        for child in flt.children:
            atoms = _guard(child, reg)
            if best is None or _guard_score(atoms) > _guard_score(best):
                best = atoms
        return best if best is not None else frozenset((_ANY,))
    if isinstance(flt, Or):
        merged: Set[Atom] = set()
        for child in flt.children:
            merged |= _guard(child, reg)
        return frozenset(merged) if merged else frozenset((_ANY,))
    if isinstance(flt, Not):
        return frozenset((_ANY,))
    return frozenset((_ANY,))  # pragma: no cover - all node kinds handled


def probe_atoms(flt: Filter, registry: Optional[AttributeRegistry] = None) -> Set[Atom]:
    """Atoms an incoming *query* filter satisfies.

    Every leaf predicate contributes its attribute atom; equalities add
    their exact-value atom plus every prefix (matching stored anchored
    substrings); anchored substrings add their initial's prefixes.  The
    ``("any",)`` bucket is always probed.  Probing all leaves — also
    those under NOT — keeps the set a superset of what any containment
    derivation can require.
    """
    reg = registry if registry is not None else DEFAULT_REGISTRY
    atoms: Set[Atom] = {_ANY}
    for pred in iter_predicates(flt):
        key = reg.key(pred.attr)
        atoms.add(("attr", key))
        if isinstance(pred, Equality):
            value = _norm(reg, pred.attr, pred.value)
            if value:
                atoms.add(("eq", key, value))
                for i in range(1, len(value) + 1):
                    atoms.add(("pfx", key, value[:i]))
        elif isinstance(pred, Substring) and pred.initial:
            prefix = _norm(reg, pred.attr, pred.initial)
            for i in range(1, len(prefix) + 1):
                atoms.add(("pfx", key, prefix[:i]))
    return atoms


class Candidate:
    """One registered query plus its routing summary."""

    __slots__ = ("uid", "seq", "request", "handle", "atoms", "region")

    def __init__(
        self,
        uid: int,
        seq: int,
        request: SearchRequest,
        handle: object,
        atoms: FrozenSet[Atom],
        region: Tuple,
    ):
        self.uid = uid
        self.seq = seq
        self.request = request
        self.handle = handle
        self.atoms = atoms
        self.region = region

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
        self._seqs = itertools.count(1)
        self._by_request: Dict[SearchRequest, Candidate] = {}
        self._atom_postings: Dict[Atom, Set[Candidate]] = {}
        self._memo: Dict[SearchRequest, Candidate] = {}
        # plain-int accounting; owners mirror these into metric counters
        self.probes = 0
        self.candidates_yielded = 0
        self.memo_hits = 0

    # ------------------------------------------------------------------
    # population maintenance
    # ------------------------------------------------------------------
    def add(self, request: SearchRequest, handle: object) -> Candidate:
        """Register *request*; an existing registration is replaced."""
        self.remove(request)
        cand = Candidate(
            uid=next(self._uids),
            seq=next(self._seqs),
            request=request,
            handle=handle,
            atoms=guard_atoms(request.filter, self._registry),
            region=request.base.reversed_key(),
        )
        self._by_request[request] = cand
        for atom in cand.atoms:
            self._atom_postings.setdefault(atom, set()).add(cand)
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
        return True

    def touch(self, request: SearchRequest) -> None:
        """Refresh *request*'s recency stamp (LRU move-to-end)."""
        cand = self._by_request.get(request)
        if cand is not None:
            cand.seq = next(self._seqs)

    def clear(self) -> None:
        self._by_request.clear()
        self._atom_postings.clear()
        self._memo.clear()

    def __len__(self) -> int:
        return len(self._by_request)

    def __contains__(self, request: SearchRequest) -> bool:
        return request in self._by_request

    # ------------------------------------------------------------------
    # candidate routing
    # ------------------------------------------------------------------
    def candidates(self, request: SearchRequest) -> List[Candidate]:
        """Registered queries that could contain *request*, in order.

        Guard-atom buckets are intersected with the region prefix
        probes of ``request.base.reversed_key()`` — a registered query
        can only contain *request* when its base is an ancestor-or-self
        of the request's base (:func:`~repro.core.containment.
        region_contained_in`), i.e. its region key is one of the
        ``len(rk) + 1`` prefixes of the request's own key.  The region
        test is a per-candidate membership check against that small
        prefix set, so its cost tracks the matched candidates, not the
        population.
        """
        self.probes += 1
        if not self._by_request:
            return []
        matched: Set[Candidate] = set()
        postings_get = self._atom_postings.get
        for atom in probe_atoms(request.filter, self._registry):
            postings = postings_get(atom)
            if postings:
                matched |= postings
        if not matched:
            return []
        rk = request.base.reversed_key()
        prefixes = {rk[:i] for i in range(len(rk) + 1)}
        matched = {c for c in matched if c.region in prefixes}
        if self._order == "insertion":
            ordered = sorted(matched, key=lambda c: c.uid)
        else:
            ordered = sorted(matched, key=lambda c: -c.seq)
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
