"""Filter evaluation: does an entry match a filter?

Implements LDAP's three-ish-valued matching pragmatically as two-valued:
an assertion on an absent attribute evaluates FALSE (and its negation
TRUE), which is the behaviour of the deployed servers the paper measures
against and the one its algorithms assume.

Matching respects attribute syntaxes from the entry's registry:
directory strings compare case-insensitively, integers numerically.
Which attribute a predicate names is the registry's ``key`` to decide,
here as everywhere: ``(surname=x)`` and ``(sn=x)`` are one assertion,
over an entry that spells the attribute either way.
Ordering assertions on attributes whose values mix syntaxes degrade to
string comparison rather than failing, mirroring real servers.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence

from .attributes import AttributeRegistry, AttributeType, DEFAULT_REGISTRY
from .entry import Entry
from .filters import (
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
)

__all__ = [
    "matches",
    "substring_match",
    "compare_values",
    "compile_filter",
    "compile_filter_cached",
]


def compare_values(atype: AttributeType, left: str, right: str) -> int:
    """Three-way comparison of two attribute values under *atype*'s syntax.

    Returns -1 / 0 / +1.  When normalization yields mixed types (e.g. an
    integer-syntax attribute holding a non-numeric value), both sides are
    compared as normalized strings.
    """
    lnorm = atype.normalize(left)
    rnorm = atype.normalize(right)
    if type(lnorm) is not type(rnorm):
        lnorm, rnorm = str(lnorm), str(rnorm)
    if lnorm < rnorm:
        return -1
    if lnorm > rnorm:
        return 1
    return 0


def substring_match(
    atype: AttributeType,
    value: str,
    initial: str,
    any_parts: Iterable[str],
    final: str,
) -> bool:
    """Match one value against a substring assertion.

    Components must appear in order without overlap; comparison is under
    the attribute's normalization (case-insensitive for directory
    strings).
    """
    norm = str(atype.normalize(value))
    cursor = 0
    if initial:
        prefix = str(atype.normalize(initial))
        if not norm.startswith(prefix):
            return False
        cursor = len(prefix)
    for part in any_parts:
        needle = str(atype.normalize(part))
        found = norm.find(needle, cursor)
        if found < 0:
            return False
        cursor = found + len(needle)
    if final:
        suffix = str(atype.normalize(final))
        if len(norm) - cursor < len(suffix):
            return False
        if not norm.endswith(suffix):
            return False
    return True


def _match_predicate(pred: Predicate, entry: Entry) -> bool:
    atype = entry.registry.get(pred.attr)
    if isinstance(pred, Present):
        return entry.has_attribute(pred.attr)
    values = entry.get(pred.attr)
    if not values:
        return False
    if isinstance(pred, Equality):
        assertion = atype.normalize(pred.value)
        return any(atype.normalize(v) == assertion for v in values)
    if isinstance(pred, Approx):
        # Approximate matching is server-defined; case/space-insensitive
        # equality is the common lowest denominator.
        assertion = str(atype.normalize(pred.value)).lower()
        return any(str(atype.normalize(v)).lower() == assertion for v in values)
    if isinstance(pred, GreaterOrEqual):
        if not atype.ordered:
            return False
        return any(compare_values(atype, v, pred.value) >= 0 for v in values)
    if isinstance(pred, LessOrEqual):
        if not atype.ordered:
            return False
        return any(compare_values(atype, v, pred.value) <= 0 for v in values)
    if isinstance(pred, Substring):
        return any(
            substring_match(atype, v, pred.initial, pred.any_parts, pred.final)
            for v in values
        )
    raise TypeError(f"unknown predicate {pred!r}")  # pragma: no cover


def matches(node: Filter, entry: Entry) -> bool:
    """True when *entry* satisfies filter *node*."""
    if isinstance(node, Predicate):
        return _match_predicate(node, entry)
    if isinstance(node, And):
        return all(matches(child, entry) for child in node.children)
    if isinstance(node, Or):
        return any(matches(child, entry) for child in node.children)
    if isinstance(node, Not):
        return not matches(node.child, entry)
    raise TypeError(f"unknown filter node {node!r}")  # pragma: no cover


# ----------------------------------------------------------------------
# compiled filters
# ----------------------------------------------------------------------
CompiledFilter = Callable[[Entry], bool]


def _normalized(
    entry: Entry, registry: AttributeRegistry, attr: str, normalize: Callable
) -> Sequence:
    """The values of *attr* as a filter compiled under *registry* reads
    them: the entry's remembered ones (:meth:`Entry.normalized`) when it
    is held under the same registry, else normalized in this call under
    the compile-time syntax — what :func:`compile_filter` has always
    evaluated for such an entry."""
    if entry.registry is registry:
        return entry.normalized(attr)
    return list(map(normalize, entry.get(attr)))


def _ordering_test(
    registry: AttributeRegistry,
    atype: AttributeType,
    attr: str,
    assertion: str,
    want: int,
) -> CompiledFilter:
    """Closure for ``>=`` (want=+1) / ``<=`` (want=-1) under *atype*."""
    normalize = atype.normalize
    rnorm = normalize(assertion)
    rtype = type(rnorm)
    rstr = str(rnorm)

    def test(entry: Entry) -> bool:
        for lnorm in _normalized(entry, registry, attr, normalize):
            if type(lnorm) is rtype:
                cmp = -1 if lnorm < rnorm else (1 if lnorm > rnorm else 0)
            else:
                lstr = str(lnorm)
                cmp = -1 if lstr < rstr else (1 if lstr > rstr else 0)
            if cmp * want >= 0:
                return True
        return False

    return test


def _compile_predicate(pred: Predicate, registry: AttributeRegistry) -> CompiledFilter:
    atype = registry.get(pred.attr)
    attr = registry.key(pred.attr)
    normalize = atype.normalize
    if isinstance(pred, Present):
        return lambda entry: entry.has_attribute(attr)
    if isinstance(pred, Equality):
        assertion = normalize(pred.value)
        return lambda entry: assertion in _normalized(entry, registry, attr, normalize)
    if isinstance(pred, Approx):
        assertion = str(normalize(pred.value)).lower()
        return lambda entry: any(
            str(norm).lower() == assertion
            for norm in _normalized(entry, registry, attr, normalize)
        )
    if isinstance(pred, GreaterOrEqual):
        if not atype.ordered:
            return lambda entry: False
        return _ordering_test(registry, atype, attr, pred.value, +1)
    if isinstance(pred, LessOrEqual):
        if not atype.ordered:
            return lambda entry: False
        return _ordering_test(registry, atype, attr, pred.value, -1)
    if isinstance(pred, Substring):
        initial = str(normalize(pred.initial)) if pred.initial else ""
        needles = tuple(str(normalize(p)) for p in pred.any_parts)
        final = str(normalize(pred.final)) if pred.final else ""

        def substring_test(entry: Entry) -> bool:
            for value in _normalized(entry, registry, attr, normalize):
                norm = str(value)
                cursor = 0
                if initial:
                    if not norm.startswith(initial):
                        continue
                    cursor = len(initial)
                ok = True
                for needle in needles:
                    found = norm.find(needle, cursor)
                    if found < 0:
                        ok = False
                        break
                    cursor = found + len(needle)
                if not ok:
                    continue
                if final:
                    if len(norm) - cursor < len(final) or not norm.endswith(final):
                        continue
                return True
            return False

        return substring_test
    raise TypeError(f"unknown predicate {pred!r}")  # pragma: no cover


def compile_filter(
    node: Filter, registry: Optional[AttributeRegistry] = None
) -> CompiledFilter:
    """Compile *node* into one ``entry -> bool`` closure.

    Attribute types are resolved and assertion values normalized **once
    per filter** instead of once per entry, and the per-entry
    ``isinstance`` dispatch of :func:`matches` disappears — the verify
    path of a search evaluates a chain of plain closures.  An entry's
    side is read from :meth:`Entry.normalized`, which a frozen image
    computes once per attribute, so a stored image is normalized once
    however many queries verify it.  Semantics are identical to
    :func:`matches` evaluated under *registry* (the server's registry;
    entries carry the same one in every store).
    """
    reg = registry if registry is not None else DEFAULT_REGISTRY
    if isinstance(node, Predicate):
        return _compile_predicate(node, reg)
    if isinstance(node, And):
        tests = tuple(compile_filter(child, reg) for child in node.children)
        if len(tests) == 1:
            return tests[0]
        return lambda entry: all(test(entry) for test in tests)
    if isinstance(node, Or):
        tests = tuple(compile_filter(child, reg) for child in node.children)
        if len(tests) == 1:
            return tests[0]
        return lambda entry: any(test(entry) for test in tests)
    if isinstance(node, Not):
        inner = compile_filter(node.child, reg)
        return lambda entry: not inner(entry)
    raise TypeError(f"unknown filter node {node!r}")  # pragma: no cover


@lru_cache(maxsize=65_536)
def compile_filter_cached(node: Filter) -> CompiledFilter:
    """Memoized :func:`compile_filter` under the default registry.

    Filters are immutable and hot paths (replica evaluation, routing,
    session fan-out) compile the same filter over and over — this keeps
    one closure per distinct filter.  Only the default registry is
    memoized, matching the memoization policy of
    :func:`repro.core.containment.query_contained_in`.
    """
    return compile_filter(node, DEFAULT_REGISTRY)
