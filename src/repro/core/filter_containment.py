"""LDAP filter containment (§4.1, Propositions 1–3).

A filter ``F1`` is *contained* in ``F2`` when no entry can satisfy
``F1`` but not ``F2``.  Deciding this in general is NP-complete in the
query size [11], so the paper trades completeness for tractability:

* :func:`predicate_contained_in` — the assertion-value comparison table
  underlying Proposition 2: each condition is a simple ``(a ⋚ b)``
  comparison between assertion values of the two filters.  Substring
  assertions are interpreted as range assertions (anchored prefixes
  bound the value lexicographically), per the §4.1 extension.
* :func:`filter_contained_in` — structural containment for positive
  filters: sound recursion over AND/OR covering both the same-template
  case (Proposition 3: predicate-wise containment, ``O(n)`` value
  comparisons) and the cross-template conditions of Proposition 2.
* :func:`general_contained_in` — Proposition 1: ``F1 ∧ ¬F2`` is
  expanded to DNF and every conjunct must be proved inconsistent.  Used
  as the expensive general fallback and by the E12 cost-comparison
  bench.

Everything here is **sound but incomplete**: ``True`` always implies
semantic containment (property-tested against random entries); a
``False`` may merely mean "could not prove it".  Incompleteness only
costs replicas hit-ratio, never correctness.

Multi-valued attributes are respected: an entry satisfies ``(a=1)(a=2)``
when it holds both values, so positive predicates on one attribute are
never declared mutually inconsistent unless the attribute is
single-valued by schema.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence

from ..ldap.attributes import AttributeRegistry, AttributeType, DEFAULT_REGISTRY
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
    to_dnf,
)
from ..ldap.matching import compare_values, substring_match

__all__ = [
    "predicate_contained_in",
    "filter_contained_in",
    "general_contained_in",
    "prefix_upper_bound",
]


def prefix_upper_bound(prefix: str) -> str:
    """Smallest string greater than every string with *prefix*.

    Interprets an anchored substring assertion as a range (§4.1): every
    value starting with ``p`` satisfies ``p <= value < prefix_upper_bound(p)``
    lexicographically.
    """
    if not prefix:
        raise ValueError("empty prefix has no upper bound")
    return prefix[:-1] + chr(ord(prefix[-1]) + 1)


# ----------------------------------------------------------------------
# predicate-level containment (the comparisons of Proposition 2)
# ----------------------------------------------------------------------
def predicate_contained_in(
    p1: Predicate,
    p2: Predicate,
    registry: Optional[AttributeRegistry] = None,
) -> bool:
    """True when every value satisfying *p1* satisfies *p2*.

    This is value-level containment: sound also for multi-valued
    attributes, because "the entry has a value satisfying p1" then
    implies "the entry has a value satisfying p2".
    """
    reg = registry if registry is not None else DEFAULT_REGISTRY
    if reg.key(p1.attr) != reg.key(p2.attr):
        return False  # different attributes, however either is spelled
    atype = reg.get(p1.attr)

    if isinstance(p2, Present):
        return True  # any assertion implies the attribute is present
    if isinstance(p1, Present):
        return False  # presence guarantees no particular value

    if isinstance(p2, Equality):
        if isinstance(p1, Equality):
            return compare_values(atype, p1.value, p2.value) == 0
        return False  # ranges/substrings admit more than one value

    if isinstance(p2, Approx) or isinstance(p1, Approx):
        # Approximate matching is server-defined; only identical
        # assertions are safely comparable.
        return (
            type(p1) is type(p2)
            and isinstance(p1, Approx)
            and compare_values(atype, p1.value, p2.value) == 0
        )

    if isinstance(p2, GreaterOrEqual):
        if isinstance(p1, Equality):
            return compare_values(atype, p1.value, p2.value) >= 0
        if isinstance(p1, GreaterOrEqual):
            return compare_values(atype, p1.value, p2.value) >= 0
        if isinstance(p1, Substring) and p1.initial:
            # value >= initial (lexicographically), so initial >= bound
            # suffices.  Only valid for string ordering.
            if _string_ordered(atype):
                return str(atype.normalize(p1.initial)) >= str(
                    atype.normalize(p2.value)
                )
        return False

    if isinstance(p2, LessOrEqual):
        if isinstance(p1, Equality):
            return compare_values(atype, p1.value, p2.value) <= 0
        if isinstance(p1, LessOrEqual):
            return compare_values(atype, p1.value, p2.value) <= 0
        if isinstance(p1, Substring) and p1.initial:
            if _string_ordered(atype):
                bound = prefix_upper_bound(str(atype.normalize(p1.initial)))
                return bound <= str(atype.normalize(p2.value))
        return False

    if isinstance(p2, Substring):
        if isinstance(p1, Equality):
            return substring_match(
                atype, p1.value, p2.initial, p2.any_parts, p2.final
            )
        if isinstance(p1, Substring):
            return _substring_contained_in(p1, p2, atype)
        return False

    return False  # pragma: no cover - all predicate kinds handled


def _string_ordered(atype: AttributeType) -> bool:
    """True when the attribute's ordering is plain string ordering."""
    return atype.ordered and isinstance(atype.normalize("a"), str)


def _substring_contained_in(
    s1: Substring, s2: Substring, atype: AttributeType
) -> bool:
    """Sound embedding test: every value matching *s1* matches *s2*.

    *s2*'s components must be guaranteed by *s1*'s:

    * ``s2.initial`` must be a prefix of ``s1.initial``,
    * ``s2.final`` must be a suffix of ``s1.final``,
    * each ``s2.any_part`` must occur, in order, inside the *guaranteed
      text blocks* of *s1* (a component of s1 is a contiguous block that
      every matching value contains; text spanning two blocks is not
      guaranteed).

    Handles the paper's generalization chains such as
    ``(serialNumber=0456*) ⊆ (serialNumber=04*)`` and
    ``(serialNumber=04*56) ⊆ (serialNumber=0*6)``.
    """

    def norm(text: str) -> str:
        return str(atype.normalize(text)) if text else ""

    init1, init2 = norm(s1.initial), norm(s2.initial)
    fin1, fin2 = norm(s1.final), norm(s2.final)
    if init2 and not init1.startswith(init2):
        return False
    if fin2 and not fin1.endswith(fin2):
        return False

    # Guaranteed blocks of s1, with the parts of init1/fin1 not already
    # consumed by init2/fin2 available for embedding any-parts.
    blocks: List[str] = []
    blocks.append(init1[len(init2):])
    blocks.extend(norm(p) for p in s1.any_parts)
    final_block = fin1[: len(fin1) - len(fin2)] if fin2 else fin1
    blocks.append(final_block)

    block_index = 0
    offset = 0
    for part in (norm(p) for p in s2.any_parts):
        if not part:
            continue
        placed = False
        while block_index < len(blocks):
            found = blocks[block_index].find(part, offset)
            if found >= 0:
                offset = found + len(part)
                placed = True
                break
            block_index += 1
            offset = 0
        if not placed:
            return False
    return True


# ----------------------------------------------------------------------
# structural containment for positive filters (Propositions 2 & 3)
# ----------------------------------------------------------------------
def filter_contained_in(
    f1: Filter,
    f2: Filter,
    registry: Optional[AttributeRegistry] = None,
) -> bool:
    """True when *f1* is provably contained in *f2* (sound, incomplete).

    The recursion mirrors the logical structure:

    * ``f1 ⊆ (& q…)``  ⇔ f1 contained in every conjunct,
    * ``(| p…) ⊆ f2``  ⇔ every disjunct contained in f2,
    * ``f1 ⊆ (| q…)``  ⇐ f1 contained in some disjunct,
    * ``(& p…) ⊆ q``   ⇐ some conjunct contained in q,
    * leaf ⊆ leaf     ⇔ :func:`predicate_contained_in`,
    * ``(!p) ⊆ (!q)``  ⇔ q ⊆ p.

    Same-template filters resolve entirely through the first, fourth and
    fifth rules — exactly Proposition 3's predicate-wise comparison.

    Default-registry results are memoized (filters are immutable).
    """
    if registry is None:
        return _filter_contained_in_cached(f1, f2)
    return _contained(simplify(f1), simplify(f2), registry)


@lru_cache(maxsize=262_144)
def _filter_contained_in_cached(f1: Filter, f2: Filter) -> bool:
    return _contained(simplify(f1), simplify(f2), DEFAULT_REGISTRY)


def _contained(f1: Filter, f2: Filter, reg: AttributeRegistry) -> bool:
    if f1 == f2:
        return True
    # Disjunction on the left: every branch must be contained.
    if isinstance(f1, Or):
        return all(_contained(child, f2, reg) for child in f1.children)
    # Conjunction on the right: must be contained in every conjunct.
    if isinstance(f2, And):
        return all(_contained(f1, child, reg) for child in f2.children)
    # Disjunction on the right: contained in some branch suffices.
    if isinstance(f2, Or):
        if any(_contained(f1, child, reg) for child in f2.children):
            return True
        return False
    # Conjunction on the left: some conjunct contained in f2 suffices.
    if isinstance(f1, And):
        return any(_contained(child, f2, reg) for child in f1.children)
    if isinstance(f1, Not) and isinstance(f2, Not):
        return _contained(f2.child, f1.child, reg)
    if isinstance(f1, Predicate) and isinstance(f2, Predicate):
        return predicate_contained_in(f1, f2, reg)
    return False


# ----------------------------------------------------------------------
# Proposition 1: general containment via DNF inconsistency
# ----------------------------------------------------------------------
def general_contained_in(
    f1: Filter,
    f2: Filter,
    registry: Optional[AttributeRegistry] = None,
    max_terms: int = 4096,
) -> bool:
    """Proposition 1 check: ``F1 ∧ ¬F2`` must be inconsistent.

    Expands ``F1 ∧ ¬F2`` into DNF ``B1 ∨ … ∨ Bk`` and proves every
    ``Bi`` inconsistent.  A conjunct is proved inconsistent when it
    contains a positive predicate P and a negative literal ¬Q on the
    same attribute with P's values contained in Q's (the entry would
    both have and lack a Q-satisfying value), or a positive predicate
    together with ¬(attr=*).  This criterion stays sound for
    multi-valued attributes, where an "empty intersection" of two
    positive predicates proves nothing.

    Exponential in the worst case (raises :class:`OverflowError` past
    *max_terms*), which is precisely the cost Propositions 2/3 avoid.
    """
    reg = registry if registry is not None else DEFAULT_REGISTRY
    expression = And((f1, Not(f2)))
    conjunctions = to_dnf(expression, max_terms=max_terms)
    return all(_conjunct_inconsistent(b, reg) for b in conjunctions)


def _conjunct_inconsistent(literals: Sequence[Filter], reg: AttributeRegistry) -> bool:
    positives: List[Predicate] = []
    negatives: List[Predicate] = []
    for literal in literals:
        if isinstance(literal, Not):
            child = literal.child
            if isinstance(child, Predicate):
                negatives.append(child)
        elif isinstance(literal, Predicate):
            positives.append(literal)
    for p in positives:
        for q in negatives:
            if reg.key(p.attr) != reg.key(q.attr):
                continue
            if isinstance(q, Present):
                # ¬(attr=*) says the attribute is absent; any positive
                # assertion on it is then unsatisfiable.
                return True
            if predicate_contained_in(p, q, reg):
                # Some value must satisfy p ⊆ q, yet no value may
                # satisfy q.
                return True
    return False
