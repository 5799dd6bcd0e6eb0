"""LDAP search filter abstract syntax.

Filters are boolean combinations of predicates over entry attributes,
written in the parenthesized prefix notation of RFC 2254::

    (&(sn=Doe)(givenName=John))
    (|(departmentNumber=2406)(departmentNumber=2407))
    (!(objectClass=referral))
    (serialNumber=04*)            ; substring
    (age>=30)                     ; ordering
    (cn=*)                        ; presence

The paper (§2.2) considers predicates ``(name op value)`` with
``op ∈ {=, >=, <=}`` plus substring and presence assertions; filters with
no NOT operator are *positive* filters, the class for which Propositions
2 and 3 give tractable containment.

The AST here is immutable (frozen dataclasses) so filters can be hashed,
deduplicated and used as dictionary keys in replica metadata.  Structure
only — evaluation lives in :mod:`repro.ldap.matching` and containment in
:mod:`repro.core.filter_containment`.

Every node renders back to RFC 2254 text via ``str()`` and to the paper's
*template* notation (assertion values replaced by ``_``, §3.4.2) via
:func:`template_of`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterator, List, Tuple

from .attributes import DEFAULT_REGISTRY

__all__ = [
    "Filter",
    "Predicate",
    "Present",
    "Equality",
    "GreaterOrEqual",
    "LessOrEqual",
    "Approx",
    "Substring",
    "And",
    "Or",
    "Not",
    "MATCH_ALL",
    "escape_assertion_value",
    "template_of",
    "simplify",
    "to_nnf",
    "to_dnf",
    "conjuncts",
    "disjuncts",
    "iter_predicates",
    "attributes_of",
    "is_positive",
]

# Characters escaped in assertion values (RFC 2254 §4).
_ESCAPE_MAP = {"*": r"\2a", "(": r"\28", ")": r"\29", "\\": r"\5c", "\0": r"\00"}


def escape_assertion_value(value: str) -> str:
    """Escape ``* ( ) \\`` in an assertion value for serialization."""
    return "".join(_ESCAPE_MAP.get(ch, ch) for ch in value)


class Filter:
    """Base class for all filter nodes."""

    __slots__ = ()

    def __and__(self, other: "Filter") -> "And":
        return And((self, other))

    def __or__(self, other: "Filter") -> "Or":
        return Or((self, other))

    def __invert__(self) -> "Not":
        return Not(self)


class Predicate(Filter):
    """Base class for leaf predicates (one attribute, one assertion)."""

    __slots__ = ()

    attr: str

    @property
    def attr_key(self) -> str:
        """The attribute's :meth:`AttributeRegistry.key` under the default
        registry (a caller handed a registry asks that one instead)."""
        return DEFAULT_REGISTRY.key(self.attr)


@dataclass(frozen=True)
class Present(Predicate):
    """Presence assertion ``(attr=*)``.

    ``(objectClass=*)`` matches every entry (every entry has at least one
    object class) and is how a subtree specification is expressed as a
    query (§3, "Note that a query specification can be reduced...").
    """

    attr: str

    def __str__(self) -> str:
        return f"({self.attr}=*)"


@dataclass(frozen=True)
class Equality(Predicate):
    """Equality assertion ``(attr=value)``."""

    attr: str
    value: str

    def __str__(self) -> str:
        return f"({self.attr}={escape_assertion_value(self.value)})"


@dataclass(frozen=True)
class GreaterOrEqual(Predicate):
    """Ordering assertion ``(attr>=value)`` — the paper's ``(a ≥ v)``."""

    attr: str
    value: str

    def __str__(self) -> str:
        return f"({self.attr}>={escape_assertion_value(self.value)})"


@dataclass(frozen=True)
class LessOrEqual(Predicate):
    """Ordering assertion ``(attr<=value)`` — the paper's ``(a ≤ v)``."""

    attr: str
    value: str

    def __str__(self) -> str:
        return f"({self.attr}<={escape_assertion_value(self.value)})"


@dataclass(frozen=True)
class Approx(Predicate):
    """Approximate-match assertion ``(attr~=value)``.

    Not used by the paper's algorithms; matched as case-insensitive
    equality so that workloads containing ``~=`` still evaluate.
    """

    attr: str
    value: str

    def __str__(self) -> str:
        return f"({self.attr}~={escape_assertion_value(self.value)})"


@dataclass(frozen=True)
class Substring(Predicate):
    """Substring assertion ``(attr=initial*any1*any2*final)``.

    Any of *initial*, *any_parts*, *final* may be empty/absent, but at
    least one component must be non-empty (otherwise the assertion is a
    presence test and must be written :class:`Present`).

    The paper interprets substring assertions as range assertions on the
    ordered value space (§4.1, "extended for substring assertions by
    interpreting substrings as range assertions"); that interpretation
    lives in :mod:`repro.core.filter_containment`.
    """

    attr: str
    initial: str = ""
    any_parts: Tuple[str, ...] = ()
    final: str = ""

    def __post_init__(self):
        if not self.initial and not self.final and not any(self.any_parts):
            raise ValueError(
                "substring assertion needs at least one non-empty component; "
                "use Present for (attr=*)"
            )

    @property
    def components(self) -> Tuple[str, ...]:
        """All components in order: initial, any parts, final."""
        return (self.initial,) + tuple(self.any_parts) + (self.final,)

    def pattern(self) -> str:
        """The assertion's pattern text, e.g. ``smi*th*`` for (sn=smi*th*)."""
        parts = [escape_assertion_value(self.initial)]
        parts.extend(escape_assertion_value(p) for p in self.any_parts)
        parts.append(escape_assertion_value(self.final))
        return "*".join(parts)

    def __str__(self) -> str:
        return f"({self.attr}={self.pattern()})"


@dataclass(frozen=True)
class And(Filter):
    """Conjunction ``(&(f1)(f2)...)``."""

    children: Tuple[Filter, ...]

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if not self.children:
            raise ValueError("And requires at least one child filter")

    def __str__(self) -> str:
        return "(&" + "".join(str(c) for c in self.children) + ")"


@dataclass(frozen=True)
class Or(Filter):
    """Disjunction ``(|(f1)(f2)...)``."""

    children: Tuple[Filter, ...]

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if not self.children:
            raise ValueError("Or requires at least one child filter")

    def __str__(self) -> str:
        return "(|" + "".join(str(c) for c in self.children) + ")"


@dataclass(frozen=True)
class Not(Filter):
    """Negation ``(!(f))``."""

    child: Filter

    def __str__(self) -> str:
        return f"(!{self.child})"


MATCH_ALL = Present("objectClass")
"""The filter ``(objectClass=*)`` matching every entry (§2.2)."""


# ----------------------------------------------------------------------
# structural helpers
# ----------------------------------------------------------------------
def iter_predicates(node: Filter) -> Iterator[Predicate]:
    """Yield every leaf predicate of *node*, left to right."""
    stack: List[Filter] = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, Predicate):
            yield current
        elif isinstance(current, Not):
            stack.append(current.child)
        elif isinstance(current, (And, Or)):
            stack.extend(reversed(current.children))
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown filter node {current!r}")


def attributes_of(node: Filter) -> FrozenSet[str]:
    """Keys (``attr_key``) of the attributes mentioned anywhere in *node*."""
    return frozenset(p.attr_key for p in iter_predicates(node))


def is_positive(node: Filter) -> bool:
    """True when *node* contains no NOT operator (§2.2 positive filters)."""
    stack: List[Filter] = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, Not):
            return False
        if isinstance(current, (And, Or)):
            stack.extend(current.children)
    return True


def simplify(node: Filter) -> Filter:
    """Flatten nested AND/OR, dedupe children and unwrap singletons.

    ``(&(a=1))`` becomes ``(a=1)``; ``(&(&(a=1)(b=2))(c=3))`` becomes
    ``(&(a=1)(b=2)(c=3))``.  Double negation cancels.  The result is
    semantically equivalent to the input.
    """
    if isinstance(node, Predicate):
        return node
    if isinstance(node, Not):
        inner = simplify(node.child)
        if isinstance(inner, Not):
            return inner.child
        return Not(inner)
    if isinstance(node, (And, Or)):
        kind = type(node)
        flat: List[Filter] = []
        seen = set()
        for child in node.children:
            child = simplify(child)
            grandchildren = child.children if isinstance(child, kind) else (child,)
            for gc in grandchildren:
                if gc not in seen:
                    seen.add(gc)
                    flat.append(gc)
        if len(flat) == 1:
            return flat[0]
        return kind(tuple(flat))
    raise TypeError(f"unknown filter node {node!r}")  # pragma: no cover


def to_nnf(node: Filter, negate: bool = False) -> Filter:
    """Negation normal form: NOTs pushed down to the leaves.

    Leaf negations are kept as ``Not(predicate)`` — LDAP has no negated
    predicate forms, and the containment machinery treats ``Not(leaf)``
    as a literal.
    """
    if isinstance(node, Not):
        return to_nnf(node.child, not negate)
    if isinstance(node, And):
        kind = Or if negate else And
        return kind(tuple(to_nnf(c, negate) for c in node.children))
    if isinstance(node, Or):
        kind = And if negate else Or
        return kind(tuple(to_nnf(c, negate) for c in node.children))
    if isinstance(node, Predicate):
        return Not(node) if negate else node
    raise TypeError(f"unknown filter node {node!r}")  # pragma: no cover


def to_dnf(node: Filter, max_terms: int = 4096) -> Tuple[Tuple[Filter, ...], ...]:
    """Disjunctive normal form as a tuple of conjunctions of literals.

    Each inner tuple is one conjunct ``Bi`` of Proposition 1's
    ``F1 ∧ ¬F2 = B1 ∨ B2 ∨ … ∨ Bk``.  Literals are predicates or
    ``Not(predicate)``.

    Raises :class:`OverflowError` when expansion would exceed *max_terms*
    conjunctions — DNF is exponential in the worst case, which is exactly
    why the paper's template-based containment (§3.4.2) exists.
    """
    nnf = to_nnf(simplify(node))

    def expand(n: Filter) -> Tuple[Tuple[Filter, ...], ...]:
        if isinstance(n, Predicate) or isinstance(n, Not):
            return ((n,),)
        if isinstance(n, Or):
            terms: List[Tuple[Filter, ...]] = []
            for child in n.children:
                terms.extend(expand(child))
                if len(terms) > max_terms:
                    raise OverflowError("DNF expansion exceeds max_terms")
            return tuple(terms)
        if isinstance(n, And):
            product: List[Tuple[Filter, ...]] = [()]
            for child in n.children:
                child_terms = expand(child)
                product = [
                    existing + new for existing in product for new in child_terms
                ]
                if len(product) > max_terms:
                    raise OverflowError("DNF expansion exceeds max_terms")
            return tuple(product)
        raise TypeError(f"unknown filter node {n!r}")  # pragma: no cover

    return expand(nnf)


def conjuncts(node: Filter) -> Tuple[Filter, ...]:
    """Top-level conjuncts of *node* (the node itself when not an AND)."""
    simplified = simplify(node)
    if isinstance(simplified, And):
        return simplified.children
    return (simplified,)


def disjuncts(node: Filter) -> Tuple[Filter, ...]:
    """Top-level disjuncts of *node* (the node itself when not an OR)."""
    simplified = simplify(node)
    if isinstance(simplified, Or):
        return simplified.children
    return (simplified,)


# ----------------------------------------------------------------------
# templates (§3.4.2)
# ----------------------------------------------------------------------
def template_of(node: Filter) -> str:
    """The paper's template string for *node*: values replaced by ``_``.

    Substring assertions keep their *shape* — ``(serialNumber=04*56)``
    has template ``(serialNumber=_*_)`` and ``(sn=smith*)`` has template
    ``(sn=_*)`` — because containment behaviour differs per shape.
    AND/OR children are sorted so that semantically identical filters
    written in different orders share a template, and attributes are
    named by key, so ``(surname=_)`` and ``(sn=_)`` are one template.
    """
    if isinstance(node, Present):
        return f"({node.attr_key}=*)"
    if isinstance(node, Equality):
        return f"({node.attr_key}=_)"
    if isinstance(node, GreaterOrEqual):
        return f"({node.attr_key}>=_)"
    if isinstance(node, LessOrEqual):
        return f"({node.attr_key}<=_)"
    if isinstance(node, Approx):
        return f"({node.attr_key}~=_)"
    if isinstance(node, Substring):
        shape = "*".join(
            "_" if component else "" for component in node.components
        )
        return f"({node.attr_key}={shape})"
    if isinstance(node, Not):
        return f"(!{template_of(node.child)})"
    if isinstance(node, And):
        return "(&" + "".join(sorted(template_of(c) for c in node.children)) + ")"
    if isinstance(node, Or):
        return "(|" + "".join(sorted(template_of(c) for c in node.children)) + ")"
    raise TypeError(f"unknown filter node {node!r}")  # pragma: no cover
