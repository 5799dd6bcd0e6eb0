"""In-memory directory backend: the entry store.

One :class:`EntryStore` holds the entries of one server, keyed by DN,
with a parent→children tree index for scope traversal and per-attribute
value indexes (:mod:`repro.server.indexes`) for filter evaluation: one
index set per attribute any stored entry holds, under the key entries
hold it by (:meth:`~repro.ldap.attributes.AttributeRegistry.key`), so a
filter finds it under any spelling and none means it occurs nowhere.
A set's equality and presence indexes are kept from the first value;
its substring and ordering indexes are built from the stored images the
first time a plan reads them.

The store is deliberately dumb about LDAP semantics — naming contexts,
referrals and schema live in :class:`repro.server.directory.DirectoryServer`.
It guarantees:

* hierarchy integrity: an entry's parent must exist (except context
  suffixes, which the server registers as roots),
* index consistency: every mutation goes through :meth:`put` /
  :meth:`delete` which keep value indexes in sync (property-tested),
* candidate soundness: :meth:`candidates_for` returns a superset of the
  entries matching a filter within the store.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..ldap.attributes import AttributeRegistry, DEFAULT_REGISTRY
from ..ldap.dn import DN
from ..ldap.entry import Entry
from ..ldap.filters import Filter
from ..ldap.query import Scope
from .indexes import AttributeIndexSet
from .planner import SearchPlan, SearchPlanner

__all__ = ["EntryStore", "REFERRAL_CLASS"]

#: The object class that makes an entry a referral object (§2.3): read
#: once per image, at :meth:`EntryStore.put`.
REFERRAL_CLASS = "referral"


class _MaxKey:
    """Sorts after every reversed-DN key component (reflected compares).

    Appending it to a subtree key yields the exclusive upper bound of
    that subtree's range: ``key < anything-in-subtree < key + (_MAX,)``.
    """

    __slots__ = ()

    def __lt__(self, other) -> bool:
        return False

    def __gt__(self, other) -> bool:
        return True


_MAX_KEY = _MaxKey()


class EntryStore:
    """DN-keyed entry storage with tree and attribute indexes."""

    def __init__(self, registry: Optional[AttributeRegistry] = None):
        self._registry = registry if registry is not None else DEFAULT_REGISTRY
        self._entries: Dict[DN, Entry] = {}
        self._children: Dict[DN, Set[DN]] = defaultdict(set)
        self._roots: Set[DN] = set()
        self._indexes: Dict[str, AttributeIndexSet] = {}
        self._referral_dns: Set[DN] = set()
        # Subtree range index: DNs sorted by reversed-DN key, so every
        # subtree is one contiguous [lo, hi) slice (parents first).
        self._order_keys: List[Tuple] = []
        self._order_dns: List[DN] = []
        self._planner = SearchPlanner(self)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, dn: DN) -> bool:
        return dn in self._entries

    def get(self, dn: DN) -> Optional[Entry]:
        """The entry at *dn*, or None."""
        return self._entries.get(dn)

    def children_of(self, dn: DN) -> List[DN]:
        """DNs of the direct children of *dn*."""
        return sorted(self._children.get(dn, ()), key=str)

    def roots(self) -> List[DN]:
        """Registered root DNs (naming-context suffixes)."""
        return sorted(self._roots, key=str)

    def all_entries(self) -> Iterator[Entry]:
        """Every entry in the store (arbitrary order)."""
        return iter(list(self._entries.values()))

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def register_root(self, dn: DN) -> None:
        """Declare *dn* a tree root (a naming-context suffix).

        Root entries are exempt from the parent-must-exist rule.
        """
        self._roots.add(dn)

    def has_parent(self, dn: DN) -> bool:
        """True when *dn* is a root or its parent entry exists."""
        if dn in self._roots or dn.is_root:
            return True
        return dn.parent in self._entries

    def put(self, entry: Entry) -> None:
        """Insert or replace the entry at ``entry.dn``, updating indexes.

        The store adopts *entry* itself — no copy — and freezes it: the
        caller hands over an image nobody edits again (DESIGN.md, "Entry
        images: who owns, who copies").  Replacing an entry costs what
        changed: only the attributes whose value list differs from the
        replaced image's are un-indexed and re-indexed.
        """
        dn = entry.dn
        existing = self._entries.get(dn)
        if existing is None:
            if not dn.is_root:
                self._children[dn.parent].add(dn)
            key = dn.reversed_key()
            pos = bisect.bisect_left(self._order_keys, key)
            self._order_keys.insert(pos, key)
            self._order_dns.insert(pos, dn)
        self._reindex(
            dn,
            existing.values_by_key() if existing is not None else {},
            entry.values_by_key(),
        )
        # Object classes under their syntax's rule ("Referral " is one),
        # read before the freeze so the image remembers only what
        # queries ask of it.
        referral = REFERRAL_CLASS in entry.normalized("objectClass")
        self._entries[dn] = entry.freeze()
        if referral:
            self._referral_dns.add(dn)
        else:
            self._referral_dns.discard(dn)

    def delete(self, dn: DN) -> Optional[Entry]:
        """Remove the entry at *dn*; returns it (or None if absent).

        Children are untouched — the caller (the server) enforces the
        leaf-only rule or performs subtree deletes child-first.
        """
        entry = self._entries.pop(dn, None)
        if entry is None:
            return None
        self._reindex(dn, entry.values_by_key(), {})
        self._referral_dns.discard(dn)
        key = dn.reversed_key()
        pos = bisect.bisect_left(self._order_keys, key)
        if pos < len(self._order_keys) and self._order_keys[pos] == key:
            del self._order_keys[pos]
            del self._order_dns[pos]
        if not dn.is_root:
            siblings = self._children.get(dn.parent)
            if siblings is not None:
                siblings.discard(dn)
                if not siblings:
                    del self._children[dn.parent]
        return entry

    def has_children(self, dn: DN) -> bool:
        """True when *dn* has at least one child entry."""
        return bool(self._children.get(dn))

    def referral_dns(self) -> Set[DN]:
        """DNs of held referral objects (maintained on put/delete)."""
        return set(self._referral_dns)

    def is_referral(self, dn: DN) -> bool:
        """True when the entry at *dn* is a referral object."""
        return dn in self._referral_dns

    def has_referrals(self) -> bool:
        """True when any held entry is a referral object."""
        return bool(self._referral_dns)

    def referrals_under(self, base: DN) -> List[DN]:
        """DNs of the held referral objects at or below *base*."""
        return [dn for dn in self._referral_dns if base.is_ancestor_or_self(dn)]

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def iter_scope(self, base: DN, scope: Scope) -> Iterator[Entry]:
        """Yield entries in the (base, scope) region, base first.

        The base entry must exist for BASE/ONE/SUB per LDAP semantics;
        callers check existence beforehand (the server returns
        NO_SUCH_OBJECT otherwise).
        """
        if scope is Scope.BASE:
            entry = self._entries.get(base)
            if entry is not None:
                yield entry
            return
        if scope is Scope.ONE:
            for child in self.children_of(base):
                yield self._entries[child]
            return
        # SUBTREE: depth-first, base included.  Absent intermediate DNs
        # (e.g. the virtual root) are traversed but not yielded.
        stack = [base]
        while stack:
            dn = stack.pop()
            entry = self._entries.get(dn)
            if entry is not None:
                yield entry
            stack.extend(self._children.get(dn, ()))

    def subtree_region(self, base: DN) -> List[DN]:
        """DNs in the subtree at *base*, sorted parents-first.

        One ``bisect`` range over the reversed-DN order index — no tree
        walking.  Includes *base* itself when stored.
        """
        key = base.reversed_key()
        lo = bisect.bisect_left(self._order_keys, key)
        hi = bisect.bisect_left(self._order_keys, key + (_MAX_KEY,), lo)
        return self._order_dns[lo:hi]

    def subtree_dns(self, base: DN) -> List[DN]:
        """All DNs in the subtree rooted at *base* (base included)."""
        return self.subtree_region(base)

    # ------------------------------------------------------------------
    # index-accelerated candidate selection
    # ------------------------------------------------------------------
    def plan_for(self, flt: Filter) -> SearchPlan:
        """Cost-based plan for *flt*: strategy plus candidate set.

        See :mod:`repro.server.planner` — the plan intersects multiple
        indexable conjuncts of an AND (cheapest first), unions OR
        children, and degrades to a scope scan (``candidates is None``)
        when no branch is indexable or the candidate set would approach
        the store size.  Candidate sets are sound supersets of the true
        matches within the store; callers re-verify with the filter.
        """
        return self._planner.plan(flt)

    def candidates_for(self, flt: Filter) -> Optional[Set[DN]]:
        """Candidate DNs possibly matching *flt*, or None for "scan all"."""
        return self.plan_for(flt).candidates

    def index_for(self, attr: str) -> Optional[AttributeIndexSet]:
        """The index set for *attr* (any case, any alias).  Every
        attribute ever stored has one, under the key its entries hold it
        by, so None proves the attribute occurs on no entry."""
        return self._indexes.get(self._registry.key(attr))

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _ensure_index(self, attr: str) -> AttributeIndexSet:
        key = self._registry.key(attr)
        index = self._indexes.get(key)
        if index is None:
            index = AttributeIndexSet(self._registry.get(attr), self._entries)
            self._indexes[key] = index
        return index

    def _reindex(
        self, dn: DN, was: Dict[str, List[str]], now: Dict[str, List[str]]
    ) -> None:
        """Move the postings of *dn* from the values *was* to the values
        *now*, touching only the attributes whose values differ.

        Both are :meth:`Entry.values_by_key` maps (``{}`` for "no
        image": a new DN indexes everything, a delete un-indexes
        everything).  An entry holds one list per attribute under the
        key its index is held by, so they are diffed as they are.
        """
        for attr, values in was.items():
            if now.get(attr) != values:
                self.index_for(attr).remove(dn, values)
        for attr, values in now.items():
            if was.get(attr) != values:
                self._ensure_index(attr).insert(dn, values)
