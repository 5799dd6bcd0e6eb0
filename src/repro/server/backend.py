"""In-memory directory backend: the entry store.

One :class:`EntryStore` holds the entries of one server — or of one
replicated content (:class:`repro.sync.consumer.SyncedContent`) — keyed
by DN.  The DN → image dict is the only structure a ``put`` always
writes.  Everything else is built the first time something asks for it,
from the stored images, and kept up to date by :meth:`put` and
:meth:`delete` from then on:

* one per-attribute index set (:mod:`repro.server.indexes`) per
  attribute a plan asked about, under the key entries hold it by
  (:meth:`~repro.ldap.attributes.AttributeRegistry.key`), so a filter
  finds it under any spelling; within a set, the substring and ordering
  indexes are again built on first ask;
* the parent → children map, for one-level scope and the leaf rule,
  and each walked parent's children sorted by name, kept until a child
  of it is put or deleted;
* the referral set, for continuation references;
* the subtree order lists, for subtree regions;
* an insertion rank, for returning candidates in the order a scan of
  the dict would.

Built late or early, a structure holds what a fresh load of the final
images builds (property-tested).

The store is deliberately dumb about LDAP semantics — naming contexts,
the suffix-as-root rule, referral chasing and schema live in
:class:`repro.server.directory.DirectoryServer`.  It guarantees:

* index consistency: every mutation goes through :meth:`put` /
  :meth:`delete`, which keep every built structure in sync,
* candidate soundness: :meth:`candidates_for` returns a superset of the
  entries matching a filter within the store.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from operator import itemgetter
from typing import Collection, Dict, Iterator, List, Mapping, Optional, Set, Tuple

from ..ldap.attributes import AttributeRegistry, DEFAULT_REGISTRY
from ..ldap.dn import DN
from ..ldap.entry import Entry
from ..ldap.filters import Filter
from .indexes import AttributeIndexSet
from .planner import SearchPlan, SearchPlanner

__all__ = ["EntryStore", "REFERRAL_CLASS"]

#: The object class that makes an entry a referral object (§2.3).
REFERRAL_CLASS = "referral"


def _is_referral(entry: Entry) -> bool:
    # Object classes under their syntax's rule ("Referral " is one).
    return REFERRAL_CLASS in entry.normalized("objectClass")


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
    """DN-keyed entry storage with tree and attribute indexes, each
    built on first ask."""

    def __init__(self, registry: Optional[AttributeRegistry] = None):
        self._registry = registry if registry is not None else DEFAULT_REGISTRY
        self._entries: Dict[DN, Entry] = {}
        # First-ask structures: None (or, for the index sets, absent)
        # until something reads them.
        self._indexes: Dict[str, AttributeIndexSet] = {}
        self._children: Optional[Dict[DN, Set[DN]]] = None
        self._sorted_children: Dict[DN, List[DN]] = {}
        self._referral_dns: Optional[Set[DN]] = None
        # Subtree range index: (keys, DNs), sorted by reversed-DN key, so
        # every subtree is one contiguous [lo, hi) slice (parents first).
        self._order: Optional[Tuple[List[Tuple], List[DN]]] = None
        self._ranks: Optional[Dict[DN, int]] = None
        self._next_rank = 0
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

    def images(self) -> Mapping[DN, Entry]:
        """DN → stored image, in insertion order (a replaced DN keeps
        its place).  The store's own dict: read-only."""
        return self._entries

    def all_entries(self) -> Iterator[Entry]:
        """Every entry in the store (arbitrary order)."""
        return iter(list(self._entries.values()))

    def children_of(self, dn: DN) -> List[DN]:
        """DNs of the direct children of *dn*, sorted by name.  A parent's
        list is sorted once and kept until a child of it is put or
        deleted: the store's own list, read-only."""
        kids = self._sorted_children.get(dn)
        if kids is None:
            found = self._tree().get(dn)
            if not found:
                return []
            kids = self._sorted_children[dn] = sorted(found, key=str)
        return kids

    def has_children(self, dn: DN) -> bool:
        """True when *dn* has at least one child entry."""
        return bool(self._tree().get(dn))

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def put(self, entry: Entry) -> None:
        """Insert or replace the entry at ``entry.dn``, updating every
        built structure.

        The store adopts *entry* itself — no copy — and freezes it: the
        caller hands over an image nobody edits again (DESIGN.md, "Entry
        images: who owns, who copies").  Replacing an entry costs what
        changed: only the built index sets whose attribute's value list
        differs from the replaced image's are un-indexed and re-indexed.
        """
        dn = entry.dn
        existing = self._entries.get(dn)
        if existing is None:
            self._admit(dn)
        if self._indexes:
            self._reindex(dn, existing, entry)
        if self._referral_dns is not None:
            if _is_referral(entry):
                self._referral_dns.add(dn)
            else:
                self._referral_dns.discard(dn)
        self._entries[dn] = entry.freeze()

    def delete(self, dn: DN) -> Optional[Entry]:
        """Remove the entry at *dn*; returns it (or None if absent).

        Children are untouched — the caller (the server) enforces the
        leaf-only rule or performs subtree deletes child-first.
        """
        entry = self._entries.pop(dn, None)
        if entry is None:
            return None
        if self._indexes:
            self._reindex(dn, entry, None)
        if self._referral_dns is not None:
            self._referral_dns.discard(dn)
        if self._ranks is not None:
            del self._ranks[dn]
        if self._order is not None:
            keys, dns = self._order
            pos = bisect.bisect_left(keys, dn.reversed_key())
            del keys[pos]
            del dns[pos]
        if self._children is not None and not dn.is_root:
            self._sorted_children.pop(dn.parent, None)
            siblings = self._children.get(dn.parent)
            if siblings is not None:
                siblings.discard(dn)
                if not siblings:
                    del self._children[dn.parent]
        return entry

    def _admit(self, dn: DN) -> None:
        """Place a new DN in every built non-attribute structure."""
        if self._ranks is not None:
            self._ranks[dn] = self._next_rank
            self._next_rank += 1
        if self._order is not None:
            keys, dns = self._order
            key = dn.reversed_key()
            pos = bisect.bisect_left(keys, key)
            keys.insert(pos, key)
            dns.insert(pos, dn)
        if self._children is not None and not dn.is_root:
            self._sorted_children.pop(dn.parent, None)
            self._children[dn.parent].add(dn)

    # ------------------------------------------------------------------
    # referral objects
    # ------------------------------------------------------------------
    def referral_dns(self) -> Set[DN]:
        """DNs of held referral objects."""
        return set(self._referrals())

    def is_referral(self, dn: DN) -> bool:
        """True when the entry at *dn* is a referral object."""
        return dn in self._referrals()

    def has_referrals(self) -> bool:
        """True when any held entry is a referral object."""
        return bool(self._referrals())

    def referrals_under(self, base: DN) -> List[DN]:
        """DNs of the held referral objects at or below *base*."""
        return [dn for dn in self._referrals() if base.is_ancestor_or_self(dn)]

    # ------------------------------------------------------------------
    # regions and order
    # ------------------------------------------------------------------
    def subtree_region(self, base: DN) -> List[DN]:
        """DNs in the subtree at *base*, sorted parents-first.

        One ``bisect`` range over the reversed-DN order index — no tree
        walking.  Includes *base* itself when stored.
        """
        keys, dns = self._ordered()
        key = base.reversed_key()
        lo = bisect.bisect_left(keys, key)
        hi = bisect.bisect_left(keys, key + (_MAX_KEY,), lo)
        return dns[lo:hi]

    def in_insertion_order(self, dns: Collection[DN]) -> List[Entry]:
        """The images at *dns* (stored DNs), in the order a scan of
        :meth:`images` meets them."""
        entries = self._entries
        if len(dns) < 2:  # in order without a rank
            return [entries[dn] for dn in dns]
        return [entries[dn] for dn in sorted(dns, key=self._ranked().__getitem__)]

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

    def index_for(self, attr: str) -> AttributeIndexSet:
        """The index set for *attr* (any case, any alias), built from
        the stored images on the first ask.  An empty presence index
        proves the attribute occurs on no entry."""
        key = self._registry.key(attr)
        index = self._indexes.get(key)
        if index is None:
            index = self._indexes[key] = AttributeIndexSet.of(
                self._registry.get(attr), self._entries
            )
        return index

    # ------------------------------------------------------------------
    # first-ask builds and upkeep
    # ------------------------------------------------------------------
    def _tree(self) -> Dict[DN, Set[DN]]:
        if self._children is None:
            children: Dict[DN, Set[DN]] = defaultdict(set)
            for dn in self._entries:
                if not dn.is_root:
                    children[dn.parent].add(dn)
            self._children = children
        return self._children

    def _referrals(self) -> Set[DN]:
        if self._referral_dns is None:
            self._referral_dns = {
                dn for dn, entry in self._entries.items() if _is_referral(entry)
            }
        return self._referral_dns

    def _ranked(self) -> Dict[DN, int]:
        if self._ranks is None:
            self._ranks = {dn: rank for rank, dn in enumerate(self._entries)}
            self._next_rank = len(self._ranks)
        return self._ranks

    def _ordered(self) -> Tuple[List[Tuple], List[DN]]:
        if self._order is None:
            pairs = sorted(
                ((dn.reversed_key(), dn) for dn in self._entries), key=itemgetter(0)
            )
            self._order = ([key for key, _dn in pairs], [dn for _key, dn in pairs])
        return self._order

    def _reindex(self, dn: DN, was: Optional[Entry], now: Optional[Entry]) -> None:
        """Move the postings of *dn* from image *was* to image *now*
        (None: no image) in every built index set whose attribute's
        values differ between the two."""
        before = was.values_by_key() if was is not None else {}
        after = now.values_by_key() if now is not None else {}
        for key, index in self._indexes.items():
            old, new = before.get(key), after.get(key)
            if old != new:
                if old:
                    index.remove(dn, old)
                if new:
                    index.insert(dn, new)
