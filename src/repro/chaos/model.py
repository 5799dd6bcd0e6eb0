"""The reference model: what the stack owes, stated once (docs/FAULTS.md §5).

A contained query is answered as the master would answer it (QC, §3–4),
a key lookup is answered as the master answered it when the holding
content last synced (:meth:`ReferenceModel.keyed`), ReSync converges
(§5), and a degraded replica never lies about staleness.  ``entries``
is the master as it should be: kept by a state machine's own rules, or
read by :meth:`ReferenceModel.of` in an interpreted walk of the store
that shares no planner, index or compiled filter with the
``master.evaluate`` path that served the replica.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Sequence

from ..core.containment import (
    attributes_contained_in,
    query_contained_in,
    region_contained_in,
)
from ..ldap.attributes import DEFAULT_REGISTRY
from ..ldap.entry import Entry
from ..ldap.filters import And, Equality
from ..ldap.query import SearchRequest
from ..sync.consumer import SyncedContent
from ..sync.health import HealthMachine

__all__ = ["ReferenceModel"]


class ReferenceModel:
    """DN → entry, and the four claims made against it."""

    def __init__(self, entries: Optional[Dict[str, Entry]] = None):
        self.entries: Dict[str, Entry] = {} if entries is None else entries

    @classmethod
    def of(cls, master) -> "ReferenceModel":
        """*master*'s store; referral objects are never content (§2.3)."""
        referral = master.store.is_referral
        return cls({str(e.dn): e for e in master.store.all_entries() if not referral(e.dn)})

    def content(self, request: SearchRequest) -> Dict[str, Entry]:
        """Every entry *request* selects, projected as it asks."""
        return {dn: request.project(e) for dn, e in self.entries.items() if request.selects(e)}

    def answer(
        self, request: SearchRequest, admitted: Iterable[SearchRequest]
    ) -> Optional[Dict[str, Entry]]:
        """content(Q) when QC proves Q contained in an *admitted* filter
        (one holding an applied response), else None: a referral."""
        if any(query_contained_in(request, f) for f in admitted):
            return self.content(request)
        return None

    def keyed(
        self, request: SearchRequest, held: SearchRequest
    ) -> Optional[Dict[str, Entry]]:
        """The key rule, stated once (docs/ALGORITHMS.md §1, "The key
        rule").  A replica answers *request* — an equality on a unique
        attribute, alone or a conjunct of a top-level AND — from the one
        image of that value it holds, in the content of *held*.  The
        master holds at most one entry with that value (it refuses a
        second holder), so its answer is that entry or nothing, and the
        answer owed is content(request) of the master as of the holding
        content's sync point: this model, taken then.

        The master enforces the key over what it holds, so the rule is
        sound only while *request*'s region lies inside *held*'s, a
        region the master answered from its own contexts; and, as QC's
        condition (ii), while *held* keeps every attribute *request*
        asks for and tests.  Otherwise None: a referral."""
        flt = request.filter
        conjuncts = flt.children if isinstance(flt, And) else (flt,)
        unique = DEFAULT_REGISTRY.unique_keys()
        if not any(isinstance(c, Equality) and c.attr_key in unique for c in conjuncts):
            return None
        if not (region_contained_in(request, held) and attributes_contained_in(request, held)):
            return None
        return self.content(request)

    def holds(self, content: SyncedContent) -> bool:
        """*content* is image-identical to its request's content
        (``Entry ==`` is ``semantically_equal``)."""
        return {str(dn): e for dn, e in content.entries.items()} == self.content(content.request)

    @staticmethod
    def honest(link: HealthMachine) -> Optional[str]:
        """Why *link* serves fresh-looking stale reads, or None: stood
        down, or ``degraded_after`` failed rounds behind, it is degraded."""
        if link.degraded:
            return None
        if link.position in ("quarantined", "gave_up"):
            return f"is {link.position} but serving non-degraded reads"
        if link.failed_cycles >= link.policy.degraded_after:
            return f"failed {link.failed_cycles} rounds in a row but is serving non-degraded reads"
        return None

    def converge(
        self, sync: Callable[[], object], contents: Sequence[SyncedContent], max_rounds: int
    ) -> Optional[int]:
        """Call *sync* until every one of *contents* holds: the rounds
        taken (≥ 1), or None when *max_rounds* were not enough."""
        for rounds in range(1, max_rounds + 1):
            sync()
            if all(self.holds(content) for content in contents):
                return rounds
        return None
