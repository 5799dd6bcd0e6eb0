"""Object class schema.

Every entry belongs to at least one object class (§2.2); the
``objectclass`` attribute determines its mandatory and optional
attributes.  This module models the small slice of X.500/RFC 2798 schema
the paper's directory uses — ``inetOrgPerson`` and its superiors, the
organizational container classes, and the special ``referral`` class
that terminates naming contexts (§2.3).

Schema checking is advisory: :func:`validate_entry` reports violations
but the store does not refuse schema-violating entries unless asked,
matching the loose behaviour of the deployed directories the paper
measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .attributes import DEFAULT_REGISTRY
from .entry import Entry

__all__ = [
    "ObjectClass",
    "SchemaRegistry",
    "DEFAULT_SCHEMA",
    "SchemaViolation",
    "validate_entry",
]


@dataclass(frozen=True)
class ObjectClass:
    """One object class definition.

    Attributes:
        name: class name (matched case-insensitively).
        superior: name of the parent class, or None for ``top``.
        must: attributes (by key, so under any spelling) every entry
            of this class must carry.
        may: attributes entries of this class may carry.
        structural: whether the class is structural (vs abstract/aux).
    """

    name: str
    superior: Optional[str] = None
    must: FrozenSet[str] = frozenset()
    may: FrozenSet[str] = frozenset()
    structural: bool = True

    @property
    def key(self) -> str:
        return self.name.lower()


def _oc(
    name: str,
    superior: Optional[str] = None,
    must: Iterable[str] = (),
    may: Iterable[str] = (),
    structural: bool = True,
) -> ObjectClass:
    return ObjectClass(
        name=name,
        superior=superior,
        must=frozenset(DEFAULT_REGISTRY.key(a) for a in must),
        may=frozenset(DEFAULT_REGISTRY.key(a) for a in may),
        structural=structural,
    )


class SchemaRegistry:
    """Registry of object classes with superior-chain resolution."""

    def __init__(self, classes: Iterable[ObjectClass] = ()):
        self._classes: Dict[str, ObjectClass] = {}
        for oc in classes:
            self.register(oc)

    def register(self, object_class: ObjectClass) -> None:
        self._classes[object_class.key] = object_class

    def get(self, name: str) -> Optional[ObjectClass]:
        return self._classes.get(name.lower())

    def known(self, name: str) -> bool:
        return name.lower() in self._classes

    def effective_must(self, name: str) -> Set[str]:
        """MUST attributes of *name* including inherited ones."""
        must: Set[str] = set()
        for oc in self.superior_chain(name):
            must.update(oc.must)
        return must

    def effective_may(self, name: str) -> Set[str]:
        """MAY attributes of *name* including inherited ones."""
        may: Set[str] = set()
        for oc in self.superior_chain(name):
            may.update(oc.may)
        return may

    def superior_chain(self, name: str) -> List[ObjectClass]:
        """The class and its superiors, most derived first."""
        chain: List[ObjectClass] = []
        seen: Set[str] = set()
        current = self.get(name)
        while current is not None and current.key not in seen:
            chain.append(current)
            seen.add(current.key)
            current = self.get(current.superior) if current.superior else None
        return chain


def _standard_classes() -> Tuple[ObjectClass, ...]:
    return (
        _oc("top", must=("objectclass",), structural=False),
        _oc(
            "person",
            superior="top",
            must=("cn", "sn"),
            may=("telephoneNumber", "description", "seeAlso"),
        ),
        _oc(
            "organizationalPerson",
            superior="person",
            may=("ou", "title", "l", "st", "postalCode", "roomNumber"),
        ),
        # RFC 2798 — the paper's Figure 1 entry is an inetOrgPerson.
        _oc(
            "inetOrgPerson",
            superior="organizationalPerson",
            may=(
                "uid",
                "mail",
                "givenName",
                "employeeNumber",
                "departmentNumber",
                "manager",
                "serialNumber",
                "divisionNumber",
                "buildingName",
                "entrySizeBytes",
            ),
        ),
        _oc("organization", superior="top", must=("o",), may=("description", "l")),
        _oc(
            "organizationalUnit",
            superior="top",
            must=("ou",),
            may=("description", "l", "telephoneNumber"),
        ),
        _oc("country", superior="top", must=("c",), may=("description",)),
        _oc("locality", superior="top", may=("l", "st", "description")),
        _oc(
            "groupOfNames",
            superior="top",
            must=("cn", "member"),
            may=("description",),
        ),
        # Referral objects point to subordinate naming contexts (§2.3).
        _oc("referral", superior="top", must=("ref",)),
        # Department/division records of the paper's enterprise DIT.
        _oc(
            "department",
            superior="top",
            must=("departmentNumber",),
            may=("description", "divisionNumber", "cn", "l", "entrySizeBytes"),
        ),
        _oc(
            "division",
            superior="top",
            must=("divisionNumber",),
            may=("description", "cn", "entrySizeBytes"),
        ),
        _oc(
            "location",
            superior="top",
            must=("l",),
            may=("description", "buildingName", "postalCode", "c", "entrySizeBytes"),
        ),
    )


DEFAULT_SCHEMA = SchemaRegistry(_standard_classes())
"""Schema preloaded with the classes the paper's directory uses."""


@dataclass(frozen=True)
class SchemaViolation:
    """One schema problem found in an entry."""

    dn: str
    problem: str


def validate_entry(
    entry: Entry, schema: Optional[SchemaRegistry] = None
) -> List[SchemaViolation]:
    """Check *entry* against *schema*; returns a list of violations.

    Checks: at least one object class; all classes known; every effective
    MUST attribute present.  MAY attributes are not policed (real
    deployments commonly carry operational extras).
    """
    reg = schema if schema is not None else DEFAULT_SCHEMA
    violations: List[SchemaViolation] = []
    classes = entry.get("objectClass")
    if not classes:
        violations.append(SchemaViolation(str(entry.dn), "entry has no objectClass"))
        return violations
    for name in classes:
        if not reg.known(name):
            violations.append(
                SchemaViolation(str(entry.dn), f"unknown objectClass {name!r}")
            )
            continue
        for attr in reg.effective_must(name):
            if not entry.has_attribute(attr):
                violations.append(
                    SchemaViolation(
                        str(entry.dn),
                        f"missing MUST attribute {attr!r} of class {name!r}",
                    )
                )
    return violations
