"""LDAP protocol substrate: DNs, entries, filters, queries, controls.

This package is the self-contained model of the LDAP v3 concepts
(RFC 2251/2252/2254) that the replication algorithms are built on.  It
performs no I/O; the simulated servers live in :mod:`repro.server`.
"""

from .attributes import AttributeRegistry, AttributeType, DEFAULT_REGISTRY, Syntax
from .controls import Control, ReSyncControl, SortControl, SyncAction, SyncMode
from .dn import DN, DNParseError, RDN, ROOT_DN
from .entry import Entry
from .filter_parser import FilterParseError, parse_filter
from .filters import (
    And,
    Approx,
    Equality,
    Filter,
    GreaterOrEqual,
    LessOrEqual,
    MATCH_ALL,
    Not,
    Or,
    Present,
    Substring,
    attributes_of,
    is_positive,
    simplify,
    template_of,
    to_dnf,
    to_nnf,
)
from .ldif import entries_to_ldif, entry_to_ldif, parse_ldif, write_ldif
from .matching import matches, substring_match
from .query import ALL_ATTRIBUTES, Scope, SearchRequest
from .schema import (
    DEFAULT_SCHEMA,
    ObjectClass,
    SchemaRegistry,
    SchemaViolation,
    validate_entry,
)

__all__ = [
    "DN",
    "RDN",
    "ROOT_DN",
    "DNParseError",
    "Entry",
    "AttributeType",
    "AttributeRegistry",
    "DEFAULT_REGISTRY",
    "Syntax",
    "Filter",
    "And",
    "Or",
    "Not",
    "Equality",
    "GreaterOrEqual",
    "LessOrEqual",
    "Approx",
    "Present",
    "Substring",
    "MATCH_ALL",
    "parse_filter",
    "FilterParseError",
    "matches",
    "substring_match",
    "simplify",
    "template_of",
    "to_nnf",
    "to_dnf",
    "attributes_of",
    "is_positive",
    "Scope",
    "SearchRequest",
    "ALL_ATTRIBUTES",
    "Control",
    "SortControl",
    "ReSyncControl",
    "SyncMode",
    "SyncAction",
    "ObjectClass",
    "SchemaRegistry",
    "DEFAULT_SCHEMA",
    "SchemaViolation",
    "validate_entry",
    "entry_to_ldif",
    "entries_to_ldif",
    "parse_ldif",
    "write_ldif",
]
