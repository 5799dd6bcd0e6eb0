"""The LDAP search operation ("query") model.

§2.2 of the paper: a query consists of a **base** DN, a **scope**
(BASE / SINGLE LEVEL / SUBTREE), a **filter** and a set of requested
**attributes**.  This quadruple is the semantic unit the whole paper
works with — it is both the thing clients send and the paper's *unit of
replication*.

Scope values are ordered integers (BASE=0, ONE=1, SUB=2) exactly as the
containment algorithm ``QC`` of §4 assumes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional, Union

from .attributes import DEFAULT_REGISTRY
from .dn import DN
from .entry import Entry
from .filter_parser import parse_filter
from .filters import Filter, MATCH_ALL, template_of
from .matching import matches

__all__ = ["Scope", "SearchRequest", "ALL_ATTRIBUTES"]


class Scope(enum.IntEnum):
    """Search scope; integer ordering is meaningful (BASE < ONE < SUB)."""

    BASE = 0
    ONE = 1  # SINGLE LEVEL
    SUB = 2  # SUBTREE


ALL_ATTRIBUTES: FrozenSet[str] = frozenset({"*"})
"""The special attribute selection ``*`` — all user attributes (§2.2)."""


def _freeze_attrs(attributes: Optional[Iterable[str]]) -> FrozenSet[str]:
    if attributes is None:
        return ALL_ATTRIBUTES
    frozen = frozenset(DEFAULT_REGISTRY.key(a) for a in attributes)
    return frozen if frozen else ALL_ATTRIBUTES


@dataclass(frozen=True)
class SearchRequest:
    """An LDAP query: (base, scope, filter, attributes).

    Hashable and immutable so queries can key caches and replica
    metadata.  ``base`` and ``filter`` accept strings for convenience and
    are parsed on construction.

    >>> q = SearchRequest("o=xyz", Scope.SUB, "(sn=Doe)")
    >>> q.template
    '(sn=_)'
    """

    base: DN
    scope: Scope = Scope.SUB
    filter: Filter = MATCH_ALL
    attributes: FrozenSet[str] = ALL_ATTRIBUTES

    def __init__(
        self,
        base: Union[DN, str],
        scope: Scope = Scope.SUB,
        filter: Union[Filter, str] = MATCH_ALL,  # noqa: A002 - LDAP's own name
        attributes: Optional[Iterable[str]] = None,
    ):
        object.__setattr__(
            self, "base", base if isinstance(base, DN) else DN.parse(base)
        )
        object.__setattr__(self, "scope", Scope(scope))
        object.__setattr__(
            self,
            "filter",
            filter if isinstance(filter, Filter) else parse_filter(filter),
        )
        object.__setattr__(self, "attributes", _freeze_attrs(attributes))

    # ------------------------------------------------------------------
    # semantics
    # ------------------------------------------------------------------
    @property
    def wants_all_attributes(self) -> bool:
        """True when the request selects all user attributes."""
        return "*" in self.attributes

    @property
    def template(self) -> str:
        """The paper's template string of this query's filter (§3.4.2)."""
        return template_of(self.filter)

    def in_scope(self, dn: DN) -> bool:
        """True when *dn* lies in the base/scope region of this query."""
        if self.scope is Scope.BASE:
            return dn == self.base
        if self.scope is Scope.ONE:
            return self.base.is_parent_of(dn)
        return self.base.is_ancestor_or_self(dn)

    def selects(self, entry: Entry) -> bool:
        """True when *entry* is in scope and satisfies the filter."""
        return self.in_scope(entry.dn) and matches(self.filter, entry)

    def project(self, entry: Entry) -> Entry:
        """*entry* as this request returns or replicates it.  When every
        attribute is requested, a frozen image is returned as it is —
        shared, not copied; a caller that edits it calls ``copy()`` — and
        a mutable entry is copied.  Under an attribute list, a new entry
        holding only those attributes."""
        if self.wants_all_attributes:
            return entry if entry.frozen else entry.copy()
        return entry.project(self.attributes)

    def __hash__(self) -> int:
        # Requests key the stored-filter map, the routing memo, the QC
        # window, and the negative result caches — several probes per
        # answered query on the same object.  The generated dataclass
        # hash walks the whole filter tree each call; memoize it.
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.base, self.scope, self.filter, self.attributes))
            object.__setattr__(self, "_hash", h)
        return h

    # ------------------------------------------------------------------
    # derived requests
    # ------------------------------------------------------------------
    def with_base(self, base: Union[DN, str]) -> "SearchRequest":
        """Copy with a different base (used when chasing referrals)."""
        return SearchRequest(base, self.scope, self.filter, self.attributes)

    def with_filter(self, flt: Union[Filter, str]) -> "SearchRequest":
        """Copy with a different filter (used by generalization)."""
        return SearchRequest(self.base, self.scope, flt, self.attributes)

    def __str__(self) -> str:
        # Labels every replica and cache hit (answered_by); the request
        # never changes, so neither does its text.  Memoized like the hash.
        text = self.__dict__.get("_str")
        if text is None:
            attrs = ",".join(sorted(self.attributes))
            base = str(self.base) if not self.base.is_root else '""'
            text = (
                f"search(base={base}, scope={self.scope.name}, "
                f"filter={self.filter}, attrs={attrs})"
            )
            object.__setattr__(self, "_str", text)
        return text
