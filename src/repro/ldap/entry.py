"""Directory entries.

An LDAP entry is a set of attribute/value pairs named by a DN.  The
mandatory ``objectClass`` attribute ties the entry to its schema classes
(Figure 1 of the paper shows an ``inetOrgPerson`` example).

:class:`Entry` holds **one value list per attribute** (LDAP attributes
are multi-valued by default): every accessor resolves names through
:meth:`~repro.ldap.attributes.AttributeRegistry.key`, so ``put(s, v);
get(t)`` round-trips for any two spellings — any case, any alias — of
one type.  It keeps the original value spelling (for serialization and
returning search results) and normalizes on demand (for matching).

An entry is mutable until :meth:`Entry.freeze` is called on it.  A
*committed* entry image is frozen: the directory server never edits an
entry in place — a modify copies the stored image, edits the copy and
commits it, and the store freezes what it is handed — so the store, the
update record, every session history, the update PDU, every replica
content and every all-attribute search result share that one object
(DESIGN.md, "Entry images: who owns, who copies").  A caller that edits
a result calls :meth:`Entry.copy`; :meth:`Entry.copy`,
:meth:`Entry.project` and :meth:`Entry.with_dn` return fresh mutable
entries.  Because a frozen image never changes, it remembers what is
derived from it — its normalized values per attribute
(:meth:`Entry.normalized`), its :meth:`Entry.estimated_size`, its
reconcile digest (:meth:`Entry.derived`) and its LDIF record
(:meth:`Entry.rendered`) — the first time they are asked for; a mutable
entry derives them afresh.
"""

from __future__ import annotations

import sys
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
    Union,
)

from .attributes import AttributeRegistry, DEFAULT_REGISTRY
from .dn import DN

__all__ = ["Entry"]

AttrValues = Union[str, int, Sequence[Union[str, int]]]
T = TypeVar("T")


def _as_value_list(values: AttrValues) -> List[str]:
    if isinstance(values, (str, int)):
        return [str(values)]
    return [str(v) for v in values]


def _shared(norm, raw: str):
    """*norm*, held as an object others hold too: the raw value itself
    when normalizing left it unchanged, an interned string otherwise."""
    if norm == raw:
        return raw
    return sys.intern(norm) if isinstance(norm, str) else norm


class Entry:
    """A directory entry: a DN plus a multi-valued attribute map.

    Args:
        dn: the entry's distinguished name (a :class:`~repro.ldap.dn.DN`
            or a string, which is parsed).
        attributes: mapping of attribute name to a value or list of values.
        registry: attribute registry supplying syntaxes; defaults to the
            standard registry.

    Example::

        Entry("cn=John Doe,ou=research,c=us,o=xyz", {
            "cn": ["John Doe", "John M Doe"],
            "objectClass": "inetOrgPerson",
            "telephoneNumber": "2618-2618",
            "mail": "john@us.xyz.com",
            "serialNumber": "0456",
            "departmentNumber": "80",
        })
    """

    __slots__ = ("_dn", "_attrs", "_registry", "_frozen", "_size", "_derived", "_ldif")

    def __init__(
        self,
        dn: Union[DN, str],
        attributes: Optional[Mapping[str, AttrValues]] = None,
        registry: Optional[AttributeRegistry] = None,
    ):
        self._dn = dn if isinstance(dn, DN) else DN.parse(dn)
        self._registry = registry if registry is not None else DEFAULT_REGISTRY
        self._frozen = False
        self._size: Optional[int] = None  # a frozen image's, once measured
        self._derived: Optional[Tuple] = None  # a frozen image's (derive, value)
        self._ldif: Optional[str] = None  # a frozen image's LDIF record, once rendered
        # AttributeRegistry.key(name) -> (canonical name, [values]), and on
        # a frozen image whose normalized values were asked for,
        # (canonical name, [values], normalized values).
        self._attrs: Dict[str, Tuple] = {}
        if attributes:
            for name, values in attributes.items():
                self.append_values(name, values)

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @property
    def dn(self) -> DN:
        """The entry's distinguished name."""
        return self._dn

    @property
    def registry(self) -> AttributeRegistry:
        """The attribute registry supplying value syntaxes."""
        return self._registry

    def with_dn(self, dn: Union[DN, str]) -> "Entry":
        """A copy of this entry renamed to *dn* (used by modifyDN)."""
        clone = self.copy()
        clone._dn = dn if isinstance(dn, DN) else DN.parse(dn)
        return clone

    # ------------------------------------------------------------------
    # freezing
    # ------------------------------------------------------------------
    @property
    def frozen(self) -> bool:
        """True once :meth:`freeze` was called: every mutator raises."""
        return self._frozen

    def freeze(self) -> "Entry":
        """Make this entry immutable, for good, and return it.

        Whoever shares an entry image with others freezes it first (the
        store on commit, an update PDU over what it carries);
        idempotent.  There is no thaw: edit a :meth:`copy`.
        """
        self._frozen = True
        return self

    def _check_mutable(self) -> None:
        if self._frozen:
            raise TypeError(
                f"entry {str(self._dn)!r} is frozen (a committed image is "
                "shared, not edited): modify a copy()"
            )

    # ------------------------------------------------------------------
    # attribute access
    # ------------------------------------------------------------------
    def put(self, name: str, values: AttrValues) -> None:
        """Replace all values of attribute *name*."""
        self._check_mutable()
        vals = _as_value_list(values)
        key = self._registry.key(name)
        if vals:
            self._attrs[key] = (self._registry.canonical(name), vals)
        else:
            self._attrs.pop(key, None)

    def append_values(self, name: str, values: AttrValues) -> None:
        """Append *values* to attribute *name* verbatim, in order — how
        an entry is read from a mapping, an LDIF record or a PDU:
        spellings of one attribute fill one list, under the first one's
        name, and nothing is dropped for matching an earlier value (the
        modify operation's rule is :meth:`add_values`)."""
        held = self._attrs.get(self._registry.key(name))
        if held is None:
            self.put(name, values)
        else:
            self._check_mutable()
            held[1].extend(_as_value_list(values))

    def add_values(self, name: str, values: AttrValues) -> None:
        """Append values to attribute *name*, skipping duplicates."""
        self._check_mutable()
        new_vals = _as_value_list(values)
        key = self._registry.key(name)
        atype = self._registry.get(name)
        if key in self._attrs:
            canonical, existing = self._attrs[key]
            have = {atype.normalize(v) for v in existing}
            merged = list(existing)
            for v in new_vals:
                if atype.normalize(v) not in have:
                    merged.append(v)
                    have.add(atype.normalize(v))
            self._attrs[key] = (canonical, merged)
        else:
            self.put(name, new_vals)

    def remove_values(self, name: str, values: Optional[AttrValues] = None) -> None:
        """Delete listed values of *name*, or the whole attribute if None."""
        self._check_mutable()
        key = self._registry.key(name)
        if key not in self._attrs:
            return
        if values is None:
            del self._attrs[key]
            return
        atype = self._registry.get(name)
        drop = {atype.normalize(v) for v in _as_value_list(values)}
        canonical, existing = self._attrs[key]
        remaining = [v for v in existing if atype.normalize(v) not in drop]
        if remaining:
            self._attrs[key] = (canonical, remaining)
        else:
            del self._attrs[key]

    def get(self, name: str) -> List[str]:
        """Values of attribute *name* (empty list when absent)."""
        found = self._attrs.get(self._registry.key(name))
        return list(found[1]) if found is not None else []

    def first(self, name: str) -> Optional[str]:
        """First value of *name*, or None when absent."""
        found = self._attrs.get(self._registry.key(name))
        return found[1][0] if found is not None and found[1] else None

    def has_attribute(self, name: str) -> bool:
        """True when the entry carries at least one value for *name*."""
        return self._registry.key(name) in self._attrs

    def normalized(self, name: str) -> Tuple:
        """Values of *name* normalized under its syntax, in value order
        (``()`` when absent).  A frozen image computes the tuple once
        and remembers it; a mutable entry computes it per call."""
        key = self._registry.key(name)
        held = self._attrs.get(key)
        if held is None:
            return ()
        if len(held) == 3:
            return held[2]
        canonical, values = held
        normalize = self._registry.get(key).normalize
        norms = tuple(_shared(normalize(v), v) for v in values)
        if self._frozen:
            self._attrs[key] = (canonical, values, norms)
        return norms

    def normalized_values(self, name: str) -> Set:
        """Normalized value set of *name* under its syntax."""
        return set(self.normalized(name))

    def attribute_names(self) -> List[str]:
        """Canonical names of all attributes present."""
        return [held[0] for held in self._attrs.values()]

    def values_by_key(self) -> Dict[str, List[str]]:
        """``key → values`` for every attribute held, under the key
        accessors, indexes and routers resolve names to
        (:meth:`AttributeRegistry.key`; ``__iter__`` yields the canonical
        spelling).  The lists are the entry's own: read-only."""
        return {key: held[1] for key, held in self._attrs.items()}

    @property
    def object_classes(self) -> Set[str]:
        """Object classes of the entry, normalized under objectClass's
        syntax (``"Referral "`` is ``referral``)."""
        return set(self.normalized("objectClass"))

    def __contains__(self, name: str) -> bool:
        return self.has_attribute(name)

    def __iter__(self) -> Iterator[Tuple[str, List[str]]]:
        for held in self._attrs.values():
            yield held[0], list(held[1])

    def items(self) -> Iterator[Tuple[str, List[str]]]:
        """``(canonical name, values)`` for every attribute held, as
        iteration yields them but uncopied: the lists are the entry's
        own, read-only."""
        for held in self._attrs.values():
            yield held[0], held[1]

    # ------------------------------------------------------------------
    # projection and copying
    # ------------------------------------------------------------------
    def copy(self) -> "Entry":
        """Deep-enough copy (values are immutable strings)."""
        clone = Entry(self._dn, registry=self._registry)
        clone._attrs = {k: (held[0], list(held[1])) for k, held in self._attrs.items()}
        return clone

    def project(self, attributes: Optional[Iterable[str]] = None) -> "Entry":
        """Copy restricted to *attributes* (``None`` / ``*`` keeps all).

        This implements the *attributes* parameter of the LDAP search
        operation: the server only returns requested attributes.
        """
        if attributes is None:
            return self.copy()
        wanted = {self._registry.key(a) for a in attributes}
        if "*" in wanted:
            return self.copy()
        clone = Entry(self._dn, registry=self._registry)
        clone._attrs = {
            k: (held[0], list(held[1])) for k, held in self._attrs.items() if k in wanted
        }
        return clone

    def estimated_size(self) -> int:
        """Approximate wire size of the entry in bytes.

        Used by the update-traffic experiments.  When the generator stamped
        an explicit ``entrySizeBytes`` (to model the paper's ~6KB employee
        entries without storing 6KB of filler), that wins; otherwise the
        size of the textual representation is used.  A frozen image
        remembers it.
        """
        if self._size is not None:
            return self._size
        size = self._measure()
        if self._frozen:
            self._size = size
        return size

    def derived(self, derive: Callable[["Entry"], T]) -> T:
        """``derive(self)`` for a pure function of the entry's DN and
        values.  A frozen image remembers the value for the last *derive*
        asked — one slot, whose caller is the reconcile digest
        (:func:`repro.sync.reconcile.entry_digest`): every party sharing
        the image hashes it once, however many sketches read it.  A
        mutable entry derives afresh."""
        held = self._derived
        if held is not None and held[0] is derive:
            return held[1]
        value = derive(self)
        if self._frozen:
            self._derived = (derive, value)
        return value

    def rendered(self, render: Callable[["Entry"], str]) -> str:
        """``render(self)``: the entry's LDIF record, asked for by
        :func:`repro.ldap.ldif.entry_to_ldif` alone.  A frozen image renders
        it once and remembers it in a slot of its own — not
        :meth:`derived`'s, which the reconcile digest holds for the same
        consumer images a snapshot dump reads.  A mutable entry renders
        afresh."""
        text = self._ldif
        if text is None:
            text = render(self)
            if self._frozen:
                self._ldif = text
        return text

    def _measure(self) -> int:
        stamped = self.first("entrySizeBytes")
        if stamped is not None:
            try:
                return int(stamped)
            except ValueError:
                pass
        total = len(str(self._dn))
        for held in self._attrs.values():
            for v in held[1]:
                total += len(held[0]) + len(v) + 2
        return total

    # ------------------------------------------------------------------
    # equality / repr
    # ------------------------------------------------------------------
    def semantically_equal(self, other: "Entry") -> bool:
        """True when DNs match and every attribute's value set matches."""
        if other is self:
            return True  # a shared image (DESIGN.md §8): nothing to normalize
        if self._dn != other._dn:
            return False
        if set(self._attrs) != set(other._attrs):
            return False
        return all(
            set(self.normalized(key)) == set(other.normalized(key))
            for key in self._attrs
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Entry):
            return NotImplemented
        return self.semantically_equal(other)

    def __hash__(self) -> int:  # pragma: no cover - entries are mutable
        raise TypeError("Entry is mutable and unhashable; key by entry.dn")

    def __repr__(self) -> str:
        return f"Entry({str(self._dn)!r}, {len(self._attrs)} attrs)"
