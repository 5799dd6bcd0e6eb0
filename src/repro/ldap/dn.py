"""Distinguished Name (DN) machinery.

LDAP names entries with *distinguished names* drawn from a hierarchical
namespace (RFC 2253).  A DN is a sequence of *relative distinguished names*
(RDNs), most-specific first: ``cn=John Doe,ou=research,c=us,o=xyz``.  The root
of the Directory Information Tree (DIT) has the empty ("null") DN.

This module implements the subset of RFC 2253 the paper relies on:

* parsing / serialization with escaping of special characters,
* case-insensitive attribute types and values (directory strings use
  ``caseIgnoreMatch`` in practice; the paper's directory does too),
* the ancestry predicates used throughout the replication algorithms:
  :meth:`DN.is_suffix_of` (the paper's ``isSuffix``), :meth:`DN.is_parent_of`
  (the paper's ``isparent``) and :meth:`DN.relative_to`.

DNs are immutable and hashable so they can key dictionaries in the directory
backend and in replica metadata.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Iterable, Iterator, Sequence, Tuple

__all__ = ["RDN", "DN", "DNParseError", "ROOT_DN"]

# Characters that must be escaped inside an RDN attribute value (RFC 2253 §2.4).
_ESCAPED_CHARS = {",", "+", '"', "\\", "<", ">", ";", "=", "#"}


class DNParseError(ValueError):
    """Raised when a DN string cannot be parsed."""


def _escape_value(value: str) -> str:
    """Escape an RDN attribute value for string serialization."""
    out = []
    for i, ch in enumerate(value):
        if ch in _ESCAPED_CHARS:
            out.append("\\" + ch)
        elif ch == " " and (i == 0 or i == len(value) - 1):
            out.append("\\ ")
        else:
            out.append(ch)
    return "".join(out)


def _normalize(text: str) -> str:
    """Normalize an attribute type or value for comparison.

    Directory strings compare case-insensitively with insignificant
    surrounding whitespace; inner whitespace runs collapse to one space.
    """
    return " ".join(text.strip().lower().split())


@total_ordering
class RDN:
    """A relative distinguished name: one or more attribute/value pairs.

    Multi-valued RDNs (``cn=John+sn=Doe``) are supported since RFC 2253
    allows them, though the paper's directory only uses single-valued RDNs.
    Comparison is on the normalized (case-folded) form.
    """

    __slots__ = ("_avas", "_normalized")

    def __init__(self, avas: Iterable[Tuple[str, str]]):
        pairs = tuple((str(a), str(v)) for a, v in avas)
        if not pairs:
            raise DNParseError("an RDN needs at least one attribute/value pair")
        for attr, value in pairs:
            if not attr:
                raise DNParseError("empty attribute type in RDN")
            if value == "":
                raise DNParseError(f"empty value for attribute {attr!r} in RDN")
        self._avas = pairs
        # Multi-valued RDNs compare as sets, so sort the normalized pairs.
        self._normalized = tuple(
            sorted((_normalize(a), _normalize(v)) for a, v in pairs)
        )

    @classmethod
    def single(cls, attr: str, value: str) -> "RDN":
        """Build a single-valued RDN such as ``cn=John Doe``."""
        return cls([(attr, value)])

    @property
    def avas(self) -> Tuple[Tuple[str, str], ...]:
        """The attribute/value pairs, in their original order and case."""
        return self._avas

    @property
    def attr(self) -> str:
        """Attribute type of the first (usually only) pair."""
        return self._avas[0][0]

    @property
    def value(self) -> str:
        """Value of the first (usually only) pair."""
        return self._avas[0][1]

    def __str__(self) -> str:
        return "+".join(f"{a}={_escape_value(v)}" for a, v in self._avas)

    def __repr__(self) -> str:
        return f"RDN({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RDN):
            return NotImplemented
        return self._normalized == other._normalized

    def __lt__(self, other: "RDN") -> bool:
        if not isinstance(other, RDN):
            return NotImplemented
        return self._normalized < other._normalized

    def __hash__(self) -> int:
        return hash(self._normalized)


class DN:
    """An immutable distinguished name: a tuple of RDNs, leaf first.

    ``DN.parse("cn=a,ou=b,o=xyz")`` has three RDNs; its parent is
    ``ou=b,o=xyz``.  The empty DN (``DN(())`` / :data:`ROOT_DN`) names the
    DIT root and is an ancestor of every DN.
    """

    # ``_str`` is filled by the first ``str()``: a DN never changes, so
    # its text is built once, and construction pays nothing for it.
    __slots__ = ("_rdns", "_normalized", "_hash", "_str")

    def __init__(self, rdns: Iterable[RDN] = ()):
        self._rdns: Tuple[RDN, ...] = tuple(rdns)
        self._normalized = tuple(r._normalized for r in self._rdns)
        self._hash = hash(self._normalized)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "DN":
        """Parse an RFC 2253 string into a DN.

        The empty string parses to the root DN.  Raises
        :class:`DNParseError` on malformed input.
        """
        if text.strip() == "":
            return ROOT_DN
        rdns = []
        for rdn_text in _split_unescaped(text, ","):
            avas = []
            for ava_text in _split_unescaped(rdn_text, "+"):
                attr, sep, value = _partition_unescaped(ava_text, "=")
                if not sep:
                    raise DNParseError(f"missing '=' in RDN component {ava_text!r}")
                avas.append((attr.strip(), _unescape_value(_strip_unescaped(value))))
            rdns.append(RDN(avas))
        return cls(rdns)

    def child(self, rdn: RDN | str) -> "DN":
        """Return the DN of a child entry named by *rdn* under this DN."""
        if isinstance(rdn, str):
            attr, sep, value = _partition_unescaped(rdn, "=")
            if not sep:
                raise DNParseError(f"missing '=' in RDN {rdn!r}")
            rdn = RDN.single(attr.strip(), _unescape_value(value.strip()))
        return DN((rdn,) + self._rdns)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def rdns(self) -> Tuple[RDN, ...]:
        """RDNs, most specific (leaf) first."""
        return self._rdns

    @property
    def rdn(self) -> RDN:
        """The leaf RDN.  Raises :class:`ValueError` for the root DN."""
        if not self._rdns:
            raise ValueError("the root DN has no RDN")
        return self._rdns[0]

    @property
    def parent(self) -> "DN":
        """The parent DN.  Raises :class:`ValueError` for the root DN."""
        if not self._rdns:
            raise ValueError("the root DN has no parent")
        return DN(self._rdns[1:])

    @property
    def is_root(self) -> bool:
        """True for the null DN naming the DIT root."""
        return not self._rdns

    def depth(self) -> int:
        """Number of RDNs (0 for the root)."""
        return len(self._rdns)

    def ancestors(self, include_self: bool = False) -> Iterator["DN"]:
        """Yield ancestors from parent up to (and including) the root."""
        start = 0 if include_self else 1
        for i in range(start, len(self._rdns) + 1):
            yield DN(self._rdns[i:])

    # ------------------------------------------------------------------
    # the paper's predicates
    # ------------------------------------------------------------------
    def is_suffix_of(self, other: "DN") -> bool:
        """The paper's ``isSuffix(self, other)``.

        True when *self* is an ancestor of *other* — i.e. *other* lies in the
        subtree rooted at *self*.  Matches the paper's convention where
        ``isSuffix(a, b)`` is "a is an ancestor of b".  A DN is **not** a
        suffix of itself (callers test equality separately, as the paper's
        algorithms do).
        """
        gap = len(other._normalized) - len(self._normalized)
        if gap <= 0:
            return False
        return other._normalized[gap:] == self._normalized

    def is_ancestor_or_self(self, other: "DN") -> bool:
        """True when *other* equals *self* or lies in *self*'s subtree."""
        return self == other or self.is_suffix_of(other)

    def is_parent_of(self, other: "DN") -> bool:
        """The paper's ``isparent(self, other)``: *self* is *other*'s parent."""
        return (
            len(other._normalized) == len(self._normalized) + 1
            and other._normalized[1:] == self._normalized
        )

    def relative_to(self, ancestor: "DN") -> Tuple[RDN, ...]:
        """RDNs of *self* below *ancestor* (leaf first).

        Raises :class:`ValueError` when *ancestor* is not an ancestor-or-self.
        """
        if not ancestor.is_ancestor_or_self(self):
            raise ValueError(f"{ancestor} is not an ancestor of {self}")
        gap = len(self._rdns) - len(ancestor._rdns)
        return self._rdns[:gap]

    def rename(self, old_ancestor: "DN", new_ancestor: "DN") -> "DN":
        """Rebase this DN from *old_ancestor* onto *new_ancestor*.

        Used by modifyDN processing to compute the new DNs of moved
        subtree entries.
        """
        return DN(self.relative_to(old_ancestor) + new_ancestor._rdns)

    def reversed_key(self) -> Tuple[Tuple[Tuple[str, str], ...], ...]:
        """Normalized RDN tuples root-first — the subtree range-index key.

        Under this key every subtree is a contiguous range of the sorted
        DN space: the descendants of ``d`` are exactly the DNs whose key
        extends ``d.reversed_key()``.  :class:`repro.server.backend.EntryStore`
        keeps its DNs sorted by it so SUBTREE regions come from one
        ``bisect`` range scan.
        """
        return self._normalized[::-1]

    # ------------------------------------------------------------------
    # dunder plumbing
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        try:
            return self._str
        except AttributeError:
            text = self._str = ",".join(str(r) for r in self._rdns)
            return text

    def __repr__(self) -> str:
        return f"DN({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DN):
            return NotImplemented
        return self._normalized == other._normalized

    def __lt__(self, other: "DN") -> bool:
        if not isinstance(other, DN):
            return NotImplemented
        return self._normalized[::-1] < other._normalized[::-1]

    def __le__(self, other: "DN") -> bool:
        return self == other or self < other

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self._rdns)

    def __iter__(self) -> Iterator[RDN]:
        return iter(self._rdns)


ROOT_DN = DN(())
"""The null DN naming the root of the DIT."""


# ----------------------------------------------------------------------
# parsing helpers
# ----------------------------------------------------------------------
def _split_unescaped(text: str, sep: str) -> Sequence[str]:
    """Split *text* on unescaped occurrences of the single character *sep*."""
    parts = []
    current = []
    escaped = False
    for ch in text:
        if escaped:
            current.append("\\" + ch)
            escaped = False
        elif ch == "\\":
            escaped = True
        elif ch == sep:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if escaped:
        raise DNParseError(f"dangling escape at end of {text!r}")
    parts.append("".join(current))
    return parts


def _partition_unescaped(text: str, sep: str) -> Tuple[str, str, str]:
    """Like ``str.partition`` but ignoring escaped separators."""
    escaped = False
    for i, ch in enumerate(text):
        if escaped:
            escaped = False
        elif ch == "\\":
            escaped = True
        elif ch == sep:
            return text[:i], sep, text[i + 1 :]
    return text, "", ""


def _strip_unescaped(value: str) -> str:
    """Strip insignificant surrounding spaces, preserving escaped ones.

    A trailing space is significant when preceded by an odd number of
    backslashes (``cn=x\\ `` names the value ``"x "``).
    """
    stripped = value.lstrip(" ")
    while stripped.endswith(" "):
        backslashes = 0
        i = len(stripped) - 2
        while i >= 0 and stripped[i] == "\\":
            backslashes += 1
            i -= 1
        if backslashes % 2 == 1:
            break
        stripped = stripped[:-1]
    return stripped


def _unescape_value(value: str) -> str:
    """Remove RFC 2253 escapes from an attribute value."""
    out = []
    escaped = False
    for ch in value:
        if escaped:
            out.append(ch)
            escaped = False
        elif ch == "\\":
            escaped = True
        else:
            out.append(ch)
    if escaped:
        raise DNParseError(f"dangling escape in value {value!r}")
    return "".join(out)
