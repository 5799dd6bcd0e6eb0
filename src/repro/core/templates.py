"""LDAP templates — query prototypes (§3.4.2).

Typical directory applications generate query filters from a finite set
of prototypes.  A *template* is a filter with assertion values replaced
by ``_``: ``(&(cn=_)(ou=research))``, ``(uid=_)``, ``(sn=_*)``.  Note
that a template may keep some values fixed (``ou=research`` above).

Templates make containment tractable three ways (§3.4.2):

1. **Candidate pruning** — containment checks against templates that
   cannot possibly answer the query are skipped.
   :meth:`TemplateRegistry.may_answer` precomputes, per template pair,
   whether a stored query of one template can contain a query of the
   other (by predicate-shape compatibility).
2. **A-priori cross-template conditions** — for the remaining pairs,
   the containment check reduces to assertion-value comparisons
   (Proposition 2), implemented in
   :mod:`repro.core.filter_containment`.
3. **Same-template fast path** — filters of the same template need only
   predicate-wise value comparison (Proposition 3).

In template-based containment, only queries belonging to a configured
template set are replicated and answered; everything else is referred.
Admission and pruning simplify the paper's linear scan, and that scan is
the reference ``tests.oracles.LinearFilterReplica(templates=)`` (E16);
the production replica routes its candidates instead and takes no
registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Type

from ..ldap.filter_parser import parse_filter
from ..ldap.filters import (
    And,
    Approx,
    Equality,
    Filter,
    GreaterOrEqual,
    LessOrEqual,
    Not,
    Or,
    Predicate,
    Present,
    Substring,
    simplify,
    template_of,
)

__all__ = ["Template", "TemplateRegistry", "template_key"]

WILDCARD = "_"


def template_key(flt: Filter) -> str:
    """Canonical fully-blanked template string of *flt* (grouping key)."""
    return template_of(flt)


# Which stored-predicate shapes can contain a query predicate of a given
# shape (the static part of Proposition 2's a-priori conditions).
_CONTAINABLE_BY: Dict[Type[Predicate], Tuple[Type[Predicate], ...]] = {
    Equality: (Equality, GreaterOrEqual, LessOrEqual, Substring, Present),
    GreaterOrEqual: (GreaterOrEqual, Present),
    LessOrEqual: (LessOrEqual, Present),
    Substring: (Substring, GreaterOrEqual, LessOrEqual, Present),
    Present: (Present,),
    Approx: (Approx, Present),
}


@dataclass(frozen=True)
class Template:
    """One query prototype.

    Attributes:
        text: the template's source text, e.g. ``(&(sn=_)(givenName=_))``.
        pattern: parsed filter AST in which assertion value ``_`` (or a
            substring component ``_``) means "any value here".
    """

    text: str
    pattern: Filter

    @classmethod
    def parse(cls, text: str) -> "Template":
        """Parse template *text* (RFC 2254 syntax with ``_`` wildcards)."""
        return cls(text=text, pattern=simplify(parse_filter(text)))

    @property
    def key(self) -> str:
        """Fully-blanked canonical key (what §7's workload types use)."""
        return template_of(self.pattern)

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def matches(self, flt: Filter) -> bool:
        """True when *flt* is an instance of this template."""
        return self._match_node(self.pattern, simplify(flt))

    def _match_node(self, pattern: Filter, node: Filter) -> bool:
        if isinstance(pattern, (And, Or)):
            if type(pattern) is not type(node):
                return False
            if len(pattern.children) != len(node.children):
                return False
            # Children are matched canonically: sort both sides by their
            # blanked template string, then greedily pair within groups.
            return self._match_children(list(pattern.children), list(node.children))
        if isinstance(pattern, Not):
            return isinstance(node, Not) and self._match_node(pattern.child, node.child)
        if isinstance(pattern, Predicate):
            return isinstance(node, Predicate) and self._match_predicate(pattern, node)
        return False  # pragma: no cover - all node kinds handled

    def _match_children(self, pats: List[Filter], nodes: List[Filter]) -> bool:
        remaining = list(nodes)
        # Most-constrained patterns first: fixed values before wildcards.
        for pat in sorted(pats, key=_pattern_specificity, reverse=True):
            for candidate in remaining:
                if self._match_node(pat, candidate):
                    remaining.remove(candidate)
                    break
            else:
                return False
        return True

    def _match_predicate(self, pattern: Predicate, node: Predicate) -> bool:
        if pattern.attr_key != node.attr_key:
            return False
        if isinstance(pattern, Present):
            return isinstance(node, Present)
        if isinstance(pattern, Substring):
            if not isinstance(node, Substring):
                return False
            return self._match_substring(pattern, node)
        if type(pattern) is not type(node):
            return False
        return pattern.value == WILDCARD or pattern.value == node.value  # type: ignore[attr-defined]

    @staticmethod
    def _match_substring(pattern: Substring, node: Substring) -> bool:
        pcomp, ncomp = pattern.components, node.components
        if len(pcomp) != len(ncomp):
            return False
        for p, n in zip(pcomp, ncomp):
            if p == WILDCARD:
                if not n:
                    return False
            elif p != n:
                return False
        return True

    def __str__(self) -> str:
        return self.text


def _pattern_specificity(pattern: Filter) -> int:
    """Fixed-value predicates outrank wildcards when pairing children."""
    if isinstance(pattern, Predicate):
        value = getattr(pattern, "value", WILDCARD)
        return 1 if value != WILDCARD else 0
    return 2


class TemplateRegistry:
    """The configured template set plus the pair-compatibility matrix."""

    def __init__(self, templates: Iterable[Template] = ()):
        self._templates: List[Template] = []
        self._may_answer: Dict[Tuple[str, str], bool] = {}
        for template in templates:
            self.add(template)

    @classmethod
    def from_strings(cls, *texts: str) -> "TemplateRegistry":
        return cls(Template.parse(t) for t in texts)

    def add(self, template: Template) -> None:
        """Register *template*, extending the compatibility matrix."""
        self._templates.append(template)
        for other in self._templates:
            self._may_answer[(template.key, other.key)] = _shape_compatible(
                template.pattern, other.pattern
            )
            self._may_answer[(other.key, template.key)] = _shape_compatible(
                other.pattern, template.pattern
            )

    @property
    def templates(self) -> Tuple[Template, ...]:
        return tuple(self._templates)

    def classify(self, flt: Filter) -> Optional[Template]:
        """The first registered template *flt* belongs to, or None."""
        for template in self._templates:
            if template.matches(flt):
                return template
        return None

    def may_answer(self, stored_key: str, query_key: str) -> bool:
        """Precomputed: can a stored query of *stored_key* possibly
        contain a query of *query_key*?

        Unknown template keys fall back to True (the full containment
        check still guards correctness; the matrix only prunes).
        """
        return self._may_answer.get((stored_key, query_key), True)

    def __len__(self) -> int:
        return len(self._templates)


def _shape_compatible(stored: Filter, query: Filter) -> bool:
    """Static shape test: could *stored* contain some query of *query*'s
    template?  Conservative — True unless provably impossible.

    For positive conjunctive shapes: every conjunct of *stored* needs a
    query predicate on the same attribute whose shape it can contain
    (containment demands q ⊆ every conjunct of s, and a conjunctive q
    is contained in a predicate iff one of its predicates is).
    """
    stored_preds = _conjunctive_predicates(stored)
    query_preds = _conjunctive_predicates(query)
    if stored_preds is None or query_preds is None:
        return True  # non-conjunctive template: no pruning
    for ps in stored_preds:
        compatible = any(
            pq.attr_key == ps.attr_key
            and type(ps) in _CONTAINABLE_BY.get(type(pq), ())
            for pq in query_preds
        )
        if not compatible:
            return False
    return True


def _conjunctive_predicates(flt: Filter) -> Optional[List[Predicate]]:
    """Predicates of a positive conjunction, or None for other shapes."""
    if isinstance(flt, Predicate):
        return [flt]
    if isinstance(flt, And):
        preds: List[Predicate] = []
        for child in flt.children:
            if not isinstance(child, Predicate):
                return None
            preds.append(child)
        return preds
    return None
