"""Attribute types, syntaxes and matching rules.

LDAP attribute values carry a *syntax* which determines how they are
normalized, compared for equality and — crucially for the paper's range
predicates ``(age>=30)`` — ordered.  RFC 2252 defines dozens of syntaxes;
the replication algorithms only depend on three behaviours, so we model
exactly those:

* :data:`Syntax.DIRECTORY_STRING` — case-insensitive strings with
  insignificant surrounding whitespace (``caseIgnoreMatch`` /
  ``caseIgnoreOrderingMatch``).  Ordering is lexicographic on the
  normalized form, which is what makes the paper's
  ``(serialnumber=_*_)`` substring-as-range trick work.
* :data:`Syntax.INTEGER` — numeric comparison (``integerOrderingMatch``).
* :data:`Syntax.CASE_EXACT_STRING` — case-sensitive strings, for values
  like mail local parts where case is meaningful to orderings.

An :class:`AttributeType` bundles a canonical name, aliases and a syntax.
The :class:`AttributeRegistry` resolves attribute names case-insensitively
(LDAP attribute descriptions are case-insensitive) and falls back to
directory-string semantics for unregistered attributes, so the library
works out of the box on schemaless data.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

__all__ = [
    "Syntax",
    "AttributeType",
    "AttributeRegistry",
    "DEFAULT_REGISTRY",
    "normalize_value",
]


class Syntax(enum.Enum):
    """Value syntax, determining normalization and ordering."""

    DIRECTORY_STRING = "directory_string"
    CASE_EXACT_STRING = "case_exact_string"
    INTEGER = "integer"
    DN_STRING = "dn_string"


def _norm_string(value: str) -> str:
    return " ".join(value.strip().lower().split())


def _norm_exact(value: str) -> str:
    return value.strip()


def _norm_integer(value: str):
    try:
        return int(str(value).strip())
    except (TypeError, ValueError):
        # Schema-violating value: fall back to string semantics rather
        # than refusing to store/compare the entry (real servers accept
        # and later reject at compare time; we degrade gracefully).
        return _norm_string(str(value))


_NORMALIZERS = {
    Syntax.DIRECTORY_STRING: _norm_string,
    Syntax.CASE_EXACT_STRING: _norm_exact,
    Syntax.INTEGER: _norm_integer,
    Syntax.DN_STRING: _norm_string,
}


@dataclass(frozen=True)
class AttributeType:
    """Description of one attribute type.

    Attributes:
        name: canonical name, e.g. ``serialNumber``.
        syntax: value syntax used for matching and ordering.
        aliases: alternative names resolving to this type (e.g. ``sn`` /
            ``surname``).
        single_valued: whether the schema restricts the attribute to one
            value (advisory; the store enforces it on add/modify).
        ordered: whether ordering (``>=``/``<=``) matches are defined.
        unique: whether the attribute is a key: no two entries of one
            master hold a value equal under the attribute's equality
            syntax (the master refuses a second holder).
    """

    name: str
    syntax: Syntax = Syntax.DIRECTORY_STRING
    aliases: Tuple[str, ...] = ()
    single_valued: bool = False
    ordered: bool = True
    unique: bool = False

    @property
    def key(self) -> str:
        """Normalized lookup key for the canonical name."""
        return self.name.lower()

    def normalize(self, value: str):
        """Normalize *value* for equality/ordering comparison."""
        return _NORMALIZERS[self.syntax](value)


class AttributeRegistry:
    """Case-insensitive registry of attribute types.

    Unknown attributes resolve to a synthesized directory-string type so
    callers never need to special-case unregistered names.
    """

    def __init__(self, types: Iterable[AttributeType] = ()):
        self._by_name: Dict[str, AttributeType] = {}
        self._keys: Dict[str, str] = {}  # spelling -> key() memo
        self._unique: Optional[FrozenSet[str]] = None
        for at in types:
            self.register(at)

    def register(self, attribute_type: AttributeType) -> None:
        """Register a type under its canonical name and all aliases."""
        self._by_name[attribute_type.key] = attribute_type
        for alias in attribute_type.aliases:
            self._by_name[alias.lower()] = attribute_type
        self._keys.clear()  # a spelling may resolve differently now
        self._unique = None

    def key(self, name: str) -> str:
        """The identity of the attribute *name* spells: the lower-cased
        canonical name of the type it resolves to (any case, any alias),
        the lower-cased spelling itself when unregistered.  The only
        place that decides whether two spellings name one attribute:
        entries, filters, indexes, routers and serializers key by it
        (DESIGN.md §7).  Memoised per spelling; interned, so every holder
        of an attribute shares one key string."""
        key = self._keys.get(name)
        if key is None:
            key = self._keys[name] = sys.intern(self.get(name).key)
        return key

    def unique_keys(self) -> FrozenSet[str]:
        """Keys of the registered attributes marked ``unique``."""
        if self._unique is None:
            self._unique = frozenset(at.key for at in self._by_name.values() if at.unique)
        return self._unique

    def get(self, name: str) -> AttributeType:
        """Resolve *name*, synthesizing a directory-string type if unknown."""
        found = self._by_name.get(name.lower())
        if found is not None:
            return found
        return AttributeType(name=name)

    def known(self, name: str) -> bool:
        """True when *name* (or an alias) has been registered."""
        return name.lower() in self._by_name

    def canonical(self, name: str) -> str:
        """Canonical spelling of *name* (the input itself when unknown)."""
        found = self._by_name.get(name.lower())
        return found.name if found is not None else name


def _standard_types() -> Tuple[AttributeType, ...]:
    """Attribute types used by the paper's directory and the RFCs it cites."""
    return (
        AttributeType("objectClass", aliases=("objectclass",), ordered=False),
        AttributeType("cn", aliases=("commonName",)),
        AttributeType("sn", aliases=("surname",)),
        AttributeType("givenName"),
        AttributeType("uid", aliases=("userid",), unique=True),
        AttributeType("mail", syntax=Syntax.CASE_EXACT_STRING, unique=True),
        AttributeType("telephoneNumber"),
        AttributeType("serialNumber"),
        AttributeType("employeeNumber", single_valued=True),
        AttributeType("departmentNumber"),
        AttributeType("divisionNumber"),
        AttributeType("ou", aliases=("organizationalUnitName",)),
        AttributeType("o", aliases=("organizationName",)),
        AttributeType("c", aliases=("countryName",), single_valued=True),
        AttributeType("l", aliases=("localityName", "location")),
        AttributeType("st", aliases=("stateOrProvinceName",)),
        AttributeType("title"),
        AttributeType("description"),
        AttributeType("age", syntax=Syntax.INTEGER),
        AttributeType("roomNumber"),
        AttributeType("buildingName"),
        AttributeType("postalCode"),
        AttributeType("manager", syntax=Syntax.DN_STRING),
        AttributeType("seeAlso", syntax=Syntax.DN_STRING),
        AttributeType("member", syntax=Syntax.DN_STRING),
        AttributeType("modifyTimestamp", single_valued=True),
        AttributeType("createTimestamp", single_valued=True),
        AttributeType("entrySizeBytes", syntax=Syntax.INTEGER, single_valued=True),
    )


DEFAULT_REGISTRY = AttributeRegistry(_standard_types())
"""Registry preloaded with the schema the paper's workloads touch."""


def normalize_value(attr: str, value: str, registry: Optional[AttributeRegistry] = None):
    """Normalize *value* under *attr*'s syntax (module-level convenience)."""
    reg = registry if registry is not None else DEFAULT_REGISTRY
    return reg.get(attr).normalize(value)
