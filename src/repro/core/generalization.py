"""Filter generalization (§6.1).

User queries typically return too few entries to be efficient units of
replication — the meta-data of ``(telephoneNumber=X)`` is comparable to
its data.  *Generalized* forms of user queries describe frequently
accessed regions instead, following the paper's two guidelines
(developed from [12]):

(i)  **attribute components** — structured values are truncated to a
     component prefix/suffix: ``(telephoneNumber=261-758-4132)`` →
     ``(telephoneNumber=261-758*)``; a serial number with an embedded
     site block and geography code generalizes to the paper's
     ``(serialnumber=_*_)`` shape, e.g. ``(serialNumber=0042*IN)``;

(ii) **natural hierarchy** — a filter naming both levels of a hierarchy
     keeps the upper level and wildcards the lower:
     ``(&(divisionNumber=X)(departmentNumber=Y))`` →
     ``(&(divisionNumber=X)(departmentNumber=*))`` (the paper's
     ``(&(div=X)(dept=_))``).

Rules are small strategy objects; a :class:`Generalizer` dispatches a
query to every applicable rule and returns the candidate generalized
queries, which feed :mod:`repro.core.selection`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Protocol, Tuple

from ..ldap.attributes import DEFAULT_REGISTRY
from ..ldap.filters import (
    And,
    Equality,
    Filter,
    Present,
    Substring,
)
from ..ldap.query import SearchRequest

__all__ = [
    "GeneralizationRule",
    "IdentityGeneralization",
    "PrefixGeneralization",
    "PrefixSuffixGeneralization",
    "SuffixGeneralization",
    "HierarchyGeneralization",
    "Generalizer",
]


class GeneralizationRule(Protocol):
    """Maps a user query to a generalized candidate query (or None)."""

    def generalize(self, request: SearchRequest) -> Optional[SearchRequest]:
        """The generalized query, or None when the rule does not apply."""
        ...  # pragma: no cover - protocol


def _single_equality(flt: Filter, attr: str) -> Optional[Equality]:
    """The filter itself, when it is an equality on *attr*."""
    if isinstance(flt, Equality) and flt.attr_key == DEFAULT_REGISTRY.key(attr):
        return flt
    return None


@dataclass(frozen=True)
class IdentityGeneralization:
    """The query itself as its own replication candidate.

    For query types whose results are already compact — the paper's
    department queries ``(&(dept=X)(div=Y))`` return a handful of
    entries — the finest useful replication unit is the query, and the
    benefit/size selection of §6.2 chooses among them directly.  When
    *template_text* is given, only queries matching that template (see
    :mod:`repro.core.templates`) are candidates.
    """

    template_text: Optional[str] = None

    def __post_init__(self):
        if self.template_text is not None:
            from .templates import Template

            object.__setattr__(
                self, "_template", Template.parse(self.template_text)
            )
        else:
            object.__setattr__(self, "_template", None)

    def generalize(self, request: SearchRequest) -> Optional[SearchRequest]:
        template = getattr(self, "_template")
        if template is not None and not template.matches(request.filter):
            return None
        return request


@dataclass(frozen=True)
class PrefixGeneralization:
    """(attr=VALUE) → (attr=PREFIX*) keeping *prefix_len* characters.

    Guideline (i) for values whose leading component encodes locality
    (telephone exchanges, block-allocated identifiers).
    """

    attr: str
    prefix_len: int

    def generalize(self, request: SearchRequest) -> Optional[SearchRequest]:
        pred = _single_equality(request.filter, self.attr)
        if pred is None or len(pred.value) <= self.prefix_len:
            return None
        return request.with_filter(
            Substring(pred.attr, initial=pred.value[: self.prefix_len])
        )


@dataclass(frozen=True)
class PrefixSuffixGeneralization:
    """(attr=VALUE) → (attr=PREFIX*SUFFIX) — the ``(attr=_*_)`` shape.

    For values structured as ``<block><sequence><code>`` (the paper's
    serialNumber): the block prefix captures spatial allocation and the
    trailing code the geography, so one generalized filter covers a
    semantically local set of entries.
    """

    attr: str
    prefix_len: int
    suffix_len: int

    def generalize(self, request: SearchRequest) -> Optional[SearchRequest]:
        pred = _single_equality(request.filter, self.attr)
        if pred is None:
            return None
        value = pred.value
        if len(value) <= self.prefix_len + self.suffix_len:
            return None
        return request.with_filter(
            Substring(
                pred.attr,
                initial=value[: self.prefix_len],
                final=value[len(value) - self.suffix_len :],
            )
        )


@dataclass(frozen=True)
class SuffixGeneralization:
    """(attr=VALUE) → (attr=*SUFFIX), splitting at *separator*.

    E.g. mail addresses: ``(mail=john@us.xyz.com)`` → ``(mail=*@us.xyz.com)``.
    §7.2(c): because the local part of a mail address is not organized,
    this generalization describes access patterns poorly — the resulting
    filters are large and their per-entry benefit low; the benches
    demonstrate exactly that.
    """

    attr: str
    separator: str = "@"

    def generalize(self, request: SearchRequest) -> Optional[SearchRequest]:
        pred = _single_equality(request.filter, self.attr)
        if pred is None or self.separator not in pred.value:
            return None
        _local, sep, domain = pred.value.partition(self.separator)
        if not domain:
            return None
        return request.with_filter(Substring(pred.attr, final=sep + domain))


@dataclass(frozen=True)
class HierarchyGeneralization:
    """Keep the upper hierarchy level, wildcard the lower (guideline ii).

    Applies to conjunctions containing equalities on both *keep_attr*
    and *wildcard_attr*: the latter becomes a presence assertion.
    ``(&(divisionNumber=X)(departmentNumber=Y))`` →
    ``(&(divisionNumber=X)(departmentNumber=*))``.
    """

    keep_attr: str
    wildcard_attr: str

    def generalize(self, request: SearchRequest) -> Optional[SearchRequest]:
        flt = request.filter
        if not isinstance(flt, And):
            return None
        keep = DEFAULT_REGISTRY.key(self.keep_attr)
        wild = DEFAULT_REGISTRY.key(self.wildcard_attr)
        has_keep = False
        children: List[Filter] = []
        changed = False
        for child in flt.children:
            if isinstance(child, Equality) and child.attr_key == wild:
                children.append(Present(child.attr))
                changed = True
            else:
                if isinstance(child, Equality) and child.attr_key == keep:
                    has_keep = True
                children.append(child)
        if not (has_keep and changed):
            return None
        return request.with_filter(And(tuple(children)))


class Generalizer:
    """Applies every registered rule to a query.

    Rules are tried in registration order; each applicable rule yields
    one candidate.  Duplicate candidates (different rules converging on
    the same query) are collapsed.
    """

    def __init__(self, rules: Iterable[GeneralizationRule] = ()):
        self._rules: List[GeneralizationRule] = list(rules)

    def add_rule(self, rule: GeneralizationRule) -> None:
        self._rules.append(rule)

    @property
    def rules(self) -> Tuple[GeneralizationRule, ...]:
        return tuple(self._rules)

    def generalize(self, request: SearchRequest) -> List[SearchRequest]:
        """All distinct generalized candidates for *request*."""
        seen = set()
        out: List[SearchRequest] = []
        for rule in self._rules:
            candidate = rule.generalize(request)
            if candidate is not None and candidate not in seen:
                seen.add(candidate)
                out.append(candidate)
        return out
