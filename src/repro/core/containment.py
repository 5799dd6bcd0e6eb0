"""LDAP query containment — the ``QC`` algorithm of §4.

A query ``Q`` is semantically contained in a stored query ``Qs`` when:

(i)   the region defined by Q's base and scope falls completely inside
      the corresponding region of Qs,
(ii)  Q's requested attributes are a subset of Qs's and, under an
      attribute list, Q is Qs or the list holds every attribute Q's
      filter tests, and
(iii) Q's filter is more restrictive than Qs's filter.

Scope values are the integers BASE=0, SINGLE LEVEL=1, SUBTREE=2, as the
paper's pseudocode assumes.  Region containment enumerates the three
ways Qs's region can cover Q's:

* same base, Qs's scope at least as deep,
* Qs is a SUBTREE search over an ancestor(-or-self) of Q's base,
* Qs is a SINGLE LEVEL search on the parent of a BASE search's target.

Condition (iii) delegates to
:func:`repro.core.filter_containment.filter_contained_in` — sound and
template-friendly — so ``query_contained_in(Q, Qs) == True`` guarantees
``answer(Q) ⊆ answer(Qs)`` on every directory (property-tested).

Default-registry checks are memoized in a process-global ``lru_cache``
whose hit/miss/eviction statistics are exported as the
``core.qc.cache.*`` metrics via :func:`observe_containment_cache`
(docs/OBSERVABILITY.md §3 has the worked hit-ratio example).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Optional

from ..ldap.attributes import AttributeRegistry
from ..ldap.filters import attributes_of
from ..ldap.query import Scope, SearchRequest
from .filter_containment import filter_contained_in

__all__ = [
    "region_contained_in",
    "attributes_contained_in",
    "query_contained_in",
    "containment_cache_info",
    "containment_cache_metrics",
    "observe_containment_cache",
    "clear_containment_cache",
]

#: Capacity of the default-registry QC memo (``core.qc.cache.capacity``).
QC_CACHE_MAXSIZE = 262_144


def region_contained_in(q: SearchRequest, qs: SearchRequest) -> bool:
    """True when (base, scope) of *q* lies inside the region of *qs*.

    Transcription of the region part of the paper's ``QC`` pseudocode::

        if (bS = b & sS >= s)            -> NEXT
        else if (!issuffix(bS, b))       -> FALSE
        if (sS = SUBTREE)                -> NEXT
        else if ((sS > s) & isparent(bS, b)) -> NEXT
        FALSE

    Deviation from the paper (found by property testing): with equal
    bases the paper's ``sS >= s`` admits BASE ⊆ SINGLE LEVEL, but a
    single-level search does *not* return the base entry itself
    (RFC 2251 §4.5.1), so region(BASE) ⊄ region(ONE).  The correct
    same-base rule is ``sS == s or sS == SUBTREE``.
    """
    b, s = q.base, q.scope
    bs, ss = qs.base, qs.scope
    if bs == b:
        return ss == s or ss is Scope.SUB
    if not bs.is_suffix_of(b):
        return False
    if ss is Scope.SUB:
        return True
    return ss > s and bs.is_parent_of(b)


def attributes_contained_in(q: SearchRequest, qs: SearchRequest) -> bool:
    """Condition (ii): A ⊆ As, with ``*`` meaning all user attributes,
    and — under an attribute list As — either Q is Qs or every attribute
    Q's filter tests is in As.

    A replica holds Qs's entries projected to As, so it cannot test an
    attribute outside As: ``(departmentNumber=42)`` over images that
    kept only ``cn`` would match nothing.  Qs itself needs no test —
    its content is its answer (docs/ALGORITHMS.md §1, condition 2).
    """
    if qs.wants_all_attributes:
        return True
    if q.wants_all_attributes:
        return False
    if not q.attributes <= qs.attributes:
        return False
    return q == qs or attributes_of(q.filter) <= qs.attributes


def query_contained_in(
    q: SearchRequest,
    qs: SearchRequest,
    registry: Optional[AttributeRegistry] = None,
) -> bool:
    """The full ``QC(Q, Qs)`` check: region, attributes and filter.

    Results under the default attribute registry are memoized — queries
    and requests are immutable, and temporal locality in workloads makes
    repeat checks the common case.
    """
    if registry is None:
        return _query_contained_in_cached(q, qs)
    if not region_contained_in(q, qs):
        return False
    if not attributes_contained_in(q, qs):
        return False
    return filter_contained_in(q.filter, qs.filter, registry)


@lru_cache(maxsize=QC_CACHE_MAXSIZE)
def _query_contained_in_cached(q: SearchRequest, qs: SearchRequest) -> bool:
    if not region_contained_in(q, qs):
        return False
    if not attributes_contained_in(q, qs):
        return False
    return filter_contained_in(q.filter, qs.filter, None)


# ----------------------------------------------------------------------
# QC cache observability (docs/OBSERVABILITY.md §3, ``core.qc.cache.*``)
#
# The memo above is the hottest structure in the whole repository, so it
# is instrumented *by export, not by interception*: ``lru_cache`` keeps
# its own hit/miss/size statistics for free, and these helpers translate
# them into registry metrics on demand — zero added cost per lookup.
# ----------------------------------------------------------------------
def containment_cache_info():
    """The raw ``functools.lru_cache`` statistics of the QC memo."""
    return _query_contained_in_cached.cache_info()


def containment_cache_metrics() -> Dict[str, int]:
    """QC memo statistics under their registry metric names.

    ``evictions`` is derived: every miss inserts one key and only
    evictions remove them (short of an explicit clear), so
    ``evictions = misses - currsize``.
    """
    info = containment_cache_info()
    return {
        "core.qc.cache.hits": info.hits,
        "core.qc.cache.misses": info.misses,
        "core.qc.cache.evictions": info.misses - info.currsize,
        "core.qc.cache.size": info.currsize,
        "core.qc.cache.capacity": info.maxsize,
    }


def observe_containment_cache(registry) -> Dict[str, int]:
    """Sync the QC memo statistics into *registry* and return them.

    Hits/misses/evictions become counters (set to the memo's absolute
    count — the memo is process-global, so the counters are too), size
    and capacity become gauges.
    """
    metrics = containment_cache_metrics()
    for name in ("core.qc.cache.hits", "core.qc.cache.misses", "core.qc.cache.evictions"):
        registry.counter(name).set(metrics[name])
    for name in ("core.qc.cache.size", "core.qc.cache.capacity"):
        registry.gauge(name).set(metrics[name])
    return metrics


def clear_containment_cache() -> None:
    """Drop the QC memo (tests and long-lived processes)."""
    _query_contained_in_cached.cache_clear()
