"""Attribute indexes for the in-memory directory backend.

Directory servers are optimized for read access (§1); real servers keep
per-attribute indexes so that equality and substring filters do not scan
the whole database.  The simulated backend does the same:

* :class:`EqualityIndex` — normalized value → set of DNs,
* :class:`PresenceIndex` — DNs holding the attribute at all (refcounted
  over values), answering ``(attr=*)`` and feeding planner estimates,
* :class:`SubstringIndex` — n-gram (trigram by default) posting lists,
  giving candidate sets for substring filters; candidates are verified
  against the real filter by the caller.

An :class:`AttributeIndexSet` exists once a plan asks about its
attribute (:meth:`repro.server.backend.EntryStore.index_for` builds it
from the stored images, equality and presence included); its substring
index exists once a query needs it: the first read builds it from the
owner's frozen images, and every later insert/remove maintains it.
Each index normalizes assertion values through its own memo, so a
plan's estimate and its lookup, and a recurring query, normalize each
value once.

Indexes return *candidate supersets* (every true match is included, some
non-matches may be); the backend always re-verifies candidates with
:func:`repro.ldap.matching.matches`, so index bugs can cost speed but
never correctness.  Each index also exposes a cheap ``estimate*``
method — an upper bound on its candidate-set size computed without
materializing the set — which the cost-based search planner
(:mod:`repro.server.planner`) uses to rank predicates by selectivity.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from ..ldap.attributes import AttributeType
from ..ldap.dn import DN
from ..ldap.entry import Entry

__all__ = [
    "EqualityIndex",
    "PresenceIndex",
    "SubstringIndex",
    "AttributeIndexSet",
]


class _Assertions(dict):
    """Assertion value → its normalized form, one index's memo.

    Every plan reads an assertion value twice — its estimate, then its
    lookup — and a recurring query asks for the same values again; an
    index reads them through its memo, so each is normalized once.
    Cleared when it reaches :attr:`LIMIT`, so clients cannot grow it
    without bound.
    """

    LIMIT = 1 << 12

    __slots__ = ("_atype",)

    def __init__(self, atype: AttributeType):
        super().__init__()
        self._atype = atype

    def __missing__(self, value: str):
        if len(self) >= self.LIMIT:
            self.clear()
        normalized = self[value] = self._atype.normalize(value)
        return normalized


class EqualityIndex:
    """Maps normalized attribute values to the DNs holding them."""

    def __init__(self, atype: AttributeType):
        self._atype = atype
        self._assertions = _Assertions(atype)
        self._postings: Dict[object, Set[DN]] = defaultdict(set)

    def insert(self, dn: DN, values: Iterable[str]) -> None:
        for value in values:
            self._postings[self._atype.normalize(value)].add(dn)

    def remove(self, dn: DN, values: Iterable[str]) -> None:
        for value in values:
            key = self._atype.normalize(value)
            postings = self._postings.get(key)
            if postings is not None:
                postings.discard(dn)
                if not postings:
                    del self._postings[key]

    def lookup(self, value: str) -> Set[DN]:
        """DNs holding *value* (exact, normalized)."""
        return set(self._postings.get(self._assertions[value], ()))

    def estimate(self, value: str) -> int:
        """Posting-list size for *value* without copying the set."""
        return len(self._postings.get(self._assertions[value], ()))

    def __len__(self) -> int:
        return sum(len(p) for p in self._postings.values())


class PresenceIndex:
    """DNs holding at least one value of the attribute (refcounted)."""

    def __init__(self):
        self._counts: Dict[DN, int] = {}

    def insert(self, dn: DN, values: Sequence[str]) -> None:
        n = len(values)
        if n:
            self._counts[dn] = self._counts.get(dn, 0) + n

    def remove(self, dn: DN, values: Sequence[str]) -> None:
        n = len(values)
        if not n:
            return
        remaining = self._counts.get(dn, 0) - n
        if remaining > 0:
            self._counts[dn] = remaining
        else:
            self._counts.pop(dn, None)

    def dns(self) -> Set[DN]:
        """All DNs holding the attribute."""
        return set(self._counts)

    def __iter__(self) -> Iterator[DN]:
        return iter(self._counts)

    def __len__(self) -> int:
        return len(self._counts)


#: Gram length of every :class:`SubstringIndex`.
NGRAM = 3


def _ngrams(text: str) -> Set[str]:
    if len(text) < NGRAM:
        return {text} if text else set()
    return {text[i : i + NGRAM] for i in range(len(text) - NGRAM + 1)}


class SubstringIndex:
    """N-gram index giving candidate DNs for substring assertions.

    A component at least one gram long is looked up: its grams' posting
    lists intersect.  A shorter one has no gram of its own; the grams
    that *contain* it stand in (:meth:`_grams_containing`), found by one
    scan of the gram vocabulary that is then remembered for as long as
    the vocabulary holds the same gram keys.  A lookup costs what it
    returns: long components intersect first, smallest list first, and a
    short component only filters what they left
    (``tests/oracles.linear_substring_candidates`` is the vocabulary
    scan and in-order union it replaced; sets and estimates are equal).
    """

    def __init__(self, atype: AttributeType):
        self._atype = atype
        self._assertions = _Assertions(atype)
        self._postings: Dict[str, Set[DN]] = {}
        # short component -> the vocabulary grams containing it; emptied
        # whenever a gram key appears or disappears.
        self._containing: Dict[str, List[str]] = {}

    def _grams_of_value(self, value: str) -> Set[str]:
        return _ngrams(str(self._atype.normalize(value)))

    def insert(self, dn: DN, values: Iterable[str]) -> None:
        for value in values:
            for gram in self._grams_of_value(value):
                postings = self._postings.get(gram)
                if postings is None:
                    postings = self._postings[gram] = set()
                    self._containing.clear()
                postings.add(dn)

    def remove(self, dn: DN, values: Iterable[str]) -> None:
        for value in values:
            for gram in self._grams_of_value(value):
                postings = self._postings.get(gram)
                if postings is not None:
                    postings.discard(dn)
                    if not postings:
                        del self._postings[gram]
                        self._containing.clear()

    def _grams_containing(self, component: str) -> List[str]:
        """The vocabulary grams containing *component*, itself shorter
        than a gram.

        Any value containing the component has some n-gram — or, for
        values shorter than the gram size, its full indexed text —
        containing it, so the union of these grams' postings is a sound
        candidate superset.  Only non-empty lists are remembered, which
        bounds the memo by the vocabulary (a gram has five proper
        substrings) whatever components clients send.
        """
        grams = self._containing.get(component)
        if grams is None:
            grams = [gram for gram in self._postings if component in gram]
            if grams:
                self._containing[component] = grams
        return grams

    def _split(self, components: Iterable[str]) -> Tuple[List[str], List[str]]:
        """The normalized non-empty *components*: (long, short)."""
        long: List[str] = []
        short: List[str] = []
        for component in components:
            normalized = str(self._assertions[component])
            if len(normalized) >= NGRAM:
                long.append(normalized)
            elif normalized:
                short.append(normalized)
        return long, short

    def candidates(self, components: Iterable[str]) -> Optional[Set[DN]]:
        """Candidate DNs for a substring assertion with *components*:
        the intersection, over the components, of each one's candidates
        — for a long component the intersection of its grams' postings,
        for a short one the union of the postings of the grams
        containing it (so even a two-letter assertion prunes instead of
        forcing "scan all").

        Evaluated cheapest first: the long components' posting lists,
        smallest first; then each short component as a filter over the
        running set — one small intersection per containing gram, each
        walking the smaller side — and as the union itself only when no
        long component left a running set.  Returns None only when
        every component normalizes to the empty string.
        """
        long, short = self._split(components)
        if not long and not short:
            return None
        result: Optional[Set[DN]] = None
        grams = {gram for component in long for gram in _ngrams(component)}
        for postings in sorted((self._postings.get(g, ()) for g in grams), key=len):
            result = set(postings) if result is None else result & postings
            if not result:
                return set()
        for component in short:
            lists = [self._postings[g] for g in self._grams_containing(component)]
            if result is None:
                result = set().union(*lists)
            else:
                result = set().union(*(result & postings for postings in lists))
            if not result:
                return set()
        return result

    def estimate(self, components: Iterable[str]) -> Optional[int]:
        """Upper bound on the candidate-set size, or None when unknown.

        Long components use their smallest n-gram posting list; short
        components bound their union by the summed sizes of the
        postings of every vocabulary gram containing them.  Returns None
        only when every component normalizes to the empty string.
        """
        long, short = self._split(components)
        sizes = [
            min(len(self._postings.get(g, ())) for g in _ngrams(component))
            for component in long
        ] + [
            sum(len(self._postings[g]) for g in self._grams_containing(component))
            for component in short
        ]
        return min(sizes) if sizes else None


class AttributeIndexSet:
    """All indexes for one attribute, kept consistent together.

    ``equality`` and ``presence`` are kept from the set's first value
    (:meth:`of` builds a set from the stored images): every plan that
    reads the attribute reads them.  ``substring`` is built on first
    ask, from the frozen *images* of the presence DNs (the owner's
    ``DN -> Entry`` map, which holds every DN posted here), and
    maintained by :meth:`insert`/:meth:`remove` from then on.  Built
    late or early, it holds the same postings.
    """

    def __init__(self, atype: AttributeType, images: Mapping[DN, Entry]):
        self.atype = atype
        self.equality = EqualityIndex(atype)
        self.presence = PresenceIndex()
        self._images = images
        self._substring: Optional[SubstringIndex] = None

    @classmethod
    def of(cls, atype: AttributeType, images: Mapping[DN, Entry]) -> "AttributeIndexSet":
        """The set :meth:`insert` of every image in *images* leaves: a
        new set has built no substring index, so equality and presence
        are all there is to post."""
        index = cls(atype, images)
        name = atype.name
        for dn, image in images.items():
            values = image.get(name)
            if values:
                index.equality.insert(dn, values)
                index.presence.insert(dn, values)
        return index

    @property
    def substring(self) -> SubstringIndex:
        if self._substring is None:
            index = SubstringIndex(self.atype)
            name = self.atype.name
            for dn in self.presence:
                index.insert(dn, self._images[dn].get(name))
            self._substring = index
        return self._substring

    def insert(self, dn: DN, values: Iterable[str]) -> None:
        values = list(values)
        self.equality.insert(dn, values)
        self.presence.insert(dn, values)
        if self._substring is not None:
            self._substring.insert(dn, values)

    def remove(self, dn: DN, values: Iterable[str]) -> None:
        values = list(values)
        self.equality.remove(dn, values)
        self.presence.remove(dn, values)
        if self._substring is not None:
            self._substring.remove(dn, values)
