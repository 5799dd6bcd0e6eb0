"""Cost-based search planning for the entry store.

Directory workloads are read-dominated (§1); the paper's replication
algorithms assume filter evaluation at the master is cheap.  The planner
makes it cheap by choosing, per search filter, *how* to produce the
candidate DN set the server then verifies:

* every leaf predicate gets a **selectivity estimate** — an upper bound
  on its candidate-set size read from index posting sizes without
  materializing any set (``estimate*`` methods in
  :mod:`repro.server.indexes`);
* an AND **intersects multiple indexable conjuncts**, cheapest first,
  stopping when the running set is small enough that further
  intersection costs more than it saves;
* OR, NOT, a range (``>=``/``<=``) and anything else without an index
  strategy fall back to a **scope scan** — Table 1's traffic is
  equality, substring and AND, and a scan is a sound superset of any
  filter's matches;
* a filter whose whole candidate set would approach the store size is
  answered by a scan outright — walking the region beats materializing
  a near-total set and then probing it.

Soundness invariant: a plan's candidate set is always a **superset** of
the entries matching the filter within the store (property-tested).  The
server re-verifies every candidate, so the planner can only cost speed,
never correctness.

Plans carry a ``strategy`` string which the server feeds into the
``server.plan.*`` metrics (docs/PLANNER.md, docs/OBSERVABILITY.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Set

from ..ldap.dn import DN
from ..ldap.filters import And, Equality, Filter, Predicate, Present, Substring

__all__ = ["SearchPlan", "SearchPlanner"]


@dataclass
class SearchPlan:
    """Outcome of planning one filter.

    ``candidates`` is None for a scope scan; otherwise it is a sound
    candidate superset.  ``estimate`` is the cost-model upper bound the
    decision was based on (for a scan: the store size).
    """

    strategy: str
    candidates: Optional[Set[DN]]
    estimate: int

    #: strategies a plan can report (the ``strategy`` label values of
    #: the ``server.plan.strategy`` counter).
    STRATEGIES = (
        "scan",        # no index help — walk the scope region
        "equality",    # single equality posting list
        "presence",    # presence index
        "substring",   # n-gram candidate set
        "intersect",   # AND of several indexable conjuncts
        "absent",      # predicate over an attribute no entry holds
    )

    @property
    def is_scan(self) -> bool:
        return self.candidates is None


class _NodePlan:
    """Internal per-node plan: an estimate plus a lazy materializer.

    ``materialize`` may return None (e.g. a substring assertion whose
    components all normalize empty); callers treat that as "no candidate
    set from this node".
    """

    __slots__ = ("kind", "estimate", "materialize")

    def __init__(
        self,
        kind: str,
        estimate: int,
        materialize: Callable[[], Optional[Set[DN]]],
    ):
        self.kind = kind
        self.estimate = estimate
        self.materialize = materialize


class SearchPlanner:
    """Plans filters against one :class:`repro.server.backend.EntryStore`.

    The cost model is deliberately simple — posting sizes are exact for
    equality/presence and upper bounds for substring — because the
    estimates only need to *rank* strategies, not predict runtimes.
    """

    #: candidate sets at least this fraction of the store degrade to a
    #: scan — probing a near-total set costs more than walking.
    SCAN_FRACTION = 0.5
    #: ...but tiny sets are always worth returning, whatever the ratio.
    MIN_SCAN_SIZE = 16
    #: stop intersecting once the running AND set is this small.
    INTERSECT_STOP = 8
    #: skip a conjunct whose estimate exceeds this multiple of the
    #: running set — materializing a huge posting list to trim an
    #: already-small set is a net loss.
    INTERSECT_BLOWUP = 4

    def __init__(self, store):
        self._store = store

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def plan(self, flt: Filter) -> SearchPlan:
        """The cheapest sound plan for *flt* over the current store."""
        total = len(self._store)
        node = self._plan_node(flt)
        if node is None:
            return SearchPlan("scan", None, total)
        if (
            node.estimate >= total * self.SCAN_FRACTION
            and node.estimate >= self.MIN_SCAN_SIZE
        ):
            return SearchPlan("scan", None, node.estimate)
        candidates = node.materialize()
        if candidates is None:
            return SearchPlan("scan", None, total)
        return SearchPlan(node.kind, candidates, node.estimate)

    # ------------------------------------------------------------------
    # recursive planning
    # ------------------------------------------------------------------
    def _plan_node(self, flt: Filter) -> Optional[_NodePlan]:
        if isinstance(flt, Predicate):
            return self._plan_predicate(flt)
        if isinstance(flt, And):
            plans = [self._plan_node(child) for child in flt.children]
            return self._plan_and([p for p in plans if p is not None])
        # OR and NOT: a union of children's candidates, or the
        # complement of a lookup, is not planned; a scan is sound.
        return None

    def _plan_and(self, plans: List[_NodePlan]) -> Optional[_NodePlan]:
        if not plans:
            return None
        plans.sort(key=lambda p: p.estimate)

        def materialize() -> Optional[Set[DN]]:
            current: Optional[Set[DN]] = None
            for node in plans:
                if current is not None:
                    if len(current) <= self.INTERSECT_STOP:
                        break
                    if node.estimate > max(
                        len(current) * self.INTERSECT_BLOWUP, 64
                    ):
                        break
                found = node.materialize()
                if found is None:
                    continue
                current = found if current is None else current & found
                if not current:
                    return current
            return current

        kind = "intersect" if len(plans) > 1 else plans[0].kind
        return _NodePlan(kind, plans[0].estimate, materialize)

    def _plan_predicate(self, pred: Predicate) -> Optional[_NodePlan]:
        index = self._store.index_for(pred.attr)
        if not index.presence:
            # index_for resolves any spelling to the attribute's one set,
            # built from every stored image: an empty presence index
            # means no entry holds it, so a positive assertion on it
            # matches nothing.
            return _NodePlan("absent", 0, set)
        if isinstance(pred, Present):
            presence = index.presence
            return _NodePlan("presence", len(presence), presence.dns)
        if isinstance(pred, Equality):
            equality, value = index.equality, pred.value
            return _NodePlan(
                "equality", equality.estimate(value), lambda: equality.lookup(value)
            )
        if isinstance(pred, Substring):
            substring, components = index.substring, pred.components
            estimate = substring.estimate(components)
            if estimate is None:
                # Only short components: the gram-vocabulary fallback is
                # sound but its size is unknown; bound by presence.
                estimate = len(index.presence)
            return _NodePlan(
                "substring", estimate, lambda: substring.candidates(components)
            )
        # Ranges, Approx (and future predicate kinds) have no index strategy.
        return None
