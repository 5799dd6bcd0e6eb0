"""Routed ReSync update fan-out (provider side).

``ResyncProvider.on_update`` must decide, for every committed master
update, which active sessions to notify.  The seed implementation
evaluates every session's filter against the update's before/after
entries — linear in the session count, twice per update, interpreted
(kept as ``tests/oracles.LinearResyncProvider``).  The
:class:`SessionRouter` indexes the sessions themselves — each
:class:`~repro.sync.session.Session` carries its own routing summary —
so only sessions the update's *values* can reach are visited:

* **holders** — a ``DN → sessions`` map, the reverse index of every
  registered session's master-side content (``Session.content_dns``),
  which the session keeps current as its membership moves.  It is
  exact, so it answers ``in_before`` outright: an update can only leave
  (or change inside) the sessions holding its DN.
* **value atoms** — a necessary condition for an entry to *match* the
  filter, in the vocabulary of the replica-side
  :class:`~repro.core.routing.ContainmentIndex`: ``("eq", attr, value)``,
  ``("pfx", attr, initial)`` and ``("attr", attr)``, ``attr`` being the
  attribute's key (``AttributeRegistry.key``: the key entries hold its
  values by, so no spelling routes differently).  Sessions are
  posted under their atoms; an entry can only *enter* the sessions its
  own normalized values probe (:meth:`SessionRouter.anchor_atoms`).
  Filters without derivable atoms (NOT shapes) see every add in region.
* **attribute fingerprints** — ``attributes_of(filter)``.  An in-place
  MODIFY can only flip a filter's verdict when some *changed* attribute
  occurs in the filter, so holders outside the changed set stay put
  without evaluation and entering candidates outside it are dropped.
* **regions** — ``base.reversed_key()``; a DN can only be in a
  session's scope when the session base's key prefixes the DN's, so
  matched sessions are checked against the DN's own key prefixes.

Soundness (property-tested in ``tests/sync/test_router.py``,
docs/ROUTING.md §6): routing never skips a session the linear scan
would notify — skipped sessions provably have ``in_before == in_after
== False``.  Visited candidates re-evaluate exactly the linear
predicate (scope + compiled filter), in session-creation order, so the
notification streams are byte-identical to the linear scan's.
"""

from __future__ import annotations

import itertools
import weakref
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Set, Tuple

from ..ldap.attributes import DEFAULT_REGISTRY
from ..ldap.dn import DN
from ..ldap.entry import Entry
from ..ldap.filters import (
    And,
    Equality,
    Filter,
    Or,
    Predicate,
    Substring,
    simplify,
)
from ..server.operations import UpdateRecord

if TYPE_CHECKING:  # session.py imports this module: the store owns a router
    from .session import Session

__all__ = ["PrefixLengths", "SessionRouter", "rank"]

#: ``(kind, attr[, value])``; kinds ``eq``, ``pfx``, ``attr`` as in
#: :mod:`repro.core.routing` (which adds ``any``), ranked by how few
#: entries — or, there, queries — reach them.
Atom = Tuple
_STRENGTH = {"any": 0, "attr": 1, "pfx": 2, "eq": 3}


def rank(atoms: FrozenSet[Atom], posted: int) -> Tuple[int, int]:
    """Selectivity of one atom set (higher = fewer reach it).

    A set has OR semantics, so it is as weak as its weakest atom; among
    equally weak sets the one fewer registrations are *currently*
    posted under ranks higher (*posted*, counted by the caller).  The
    :class:`SessionRouter` and the replica-side
    :class:`~repro.core.routing.ContainmentIndex` choose an AND's
    conjunct by this rule.
    """
    weakest = min((_STRENGTH[atom[0]] for atom in atoms), default=len(_STRENGTH))
    return (weakest, -posted)


class PrefixLengths(dict):
    """``attr → {prefix length → registrations}`` over ``pfx`` atoms.

    A ``pfx`` atom is keyed by the whole prefix, so a value could be
    probed with every one of its own prefixes — one atom per
    character.  Counting the registered lengths per attribute lets a
    probe slice each value once per length something is registered
    at.  What counts as a registration is the owner's: the
    :class:`SessionRouter` counts every distinct posted atom, the
    :class:`~repro.core.routing.ContainmentIndex` every ``pfx`` atom of
    every guard set it holds.
    """

    def add(self, atom: Atom) -> None:
        lens = self.setdefault(atom[1], {})
        n = len(atom[2])
        lens[n] = lens.get(n, 0) + 1

    def discard(self, atom: Atom) -> None:
        lens = self[atom[1]]
        n = len(atom[2])
        lens[n] -= 1
        if not lens[n]:
            del lens[n]
            if not lens:
                del self[atom[1]]


_EMPTY: FrozenSet["Session"] = frozenset()
_serial = attrgetter("serial")  # creation order == the linear scan's order

# Pre-resolved membership verdicts (see SessionRouter.route_verdicts).
_VERDICT_STAYS: Tuple[bool, bool] = (True, True)
_VERDICT_GONE: Tuple[bool, bool] = (True, False)


def _leaf_atom(pred: Predicate) -> Atom:
    """The atom every entry matching *pred* probes.

    Attribute identity and normalization are literally the compiled
    predicate's (``compile_filter_cached``: the default registry's
    ``key`` and syntax, ``str()`` for substring parts) and the key is
    the one the entry holds its values under, so "the entry matches"
    implies "the entry's values hit this atom" by construction.
    """
    key = pred.attr_key
    normalize = DEFAULT_REGISTRY.get(pred.attr).normalize
    if isinstance(pred, Equality):
        return ("eq", key, normalize(pred.value))
    if isinstance(pred, Substring) and pred.initial:
        prefix = str(normalize(pred.initial))
        if prefix:
            return ("pfx", key, prefix)
    return ("attr", key)


class HolderIndex(dict):
    """``DN → sessions holding it``: exactly the inverse of ``{s:
    s.content_dns}`` over the registered sessions, which post themselves
    here through a *weak* proxy — a strong link back makes a cycle only
    the cyclic collector frees (+12 % peak RSS on ``restart_recovery``)."""


class SessionRouter:
    """Value-atom/region/holder routing over a provider's sessions."""

    def __init__(self):
        self._serials = itertools.count(1)
        # attr -> atom -> sessions anchored on it; attribute first, so an
        # entry's unposted attributes cost one lookup, not a normalization.
        self._postings: Dict[str, Dict[Atom, Set[Session]]] = {}
        # attr -> {prefix length -> distinct ``pfx`` atoms of that length}:
        # a value is probed once per registered length, never per character.
        self._pfx_lens = PrefixLengths()
        self._unanchored: Set[Session] = set()
        self._holders: Dict[DN, Set[Session]] = HolderIndex()

    # ------------------------------------------------------------------
    # anchor atoms
    # ------------------------------------------------------------------
    def anchor_atoms(self, flt: Filter) -> Optional[FrozenSet[Atom]]:
        """Atoms of which any entry matching *flt* must probe one.

        ``None`` means no such set is derivable (the filter may match
        entries lacking any particular attribute — NOT shapes), so the
        session must see every add.  A leaf anchors on its own atom; an
        AND on any one conjunct's atoms — the most selective is kept,
        ranked by the weakest atom's kind and then by how many sessions
        are *currently* posted under the atoms, so
        ``(&(objectClass=person)(departmentNumber=42))`` lands on the
        department once anything else is posted under ``person``; an OR
        needs atoms from *every* disjunct and takes the union.
        """
        return self._atoms(simplify(flt))

    def _atoms(self, flt: Filter) -> Optional[FrozenSet[Atom]]:
        if isinstance(flt, Predicate):
            return frozenset((_leaf_atom(flt),))
        if isinstance(flt, And):
            best: Optional[FrozenSet[Atom]] = None
            for child in flt.children:
                found = self._atoms(child)
                if found is not None and (
                    best is None or self._rank(found) > self._rank(best)
                ):
                    best = found
            return best
        if isinstance(flt, Or):
            merged: Set[Atom] = set()
            for child in flt.children:
                found = self._atoms(child)
                if found is None:
                    return None
                merged |= found
            return frozenset(merged)
        return None  # NOT: matches entries lacking the attribute

    def _rank(self, atoms: FrozenSet[Atom]) -> Tuple[int, int]:
        """Selectivity of one atom set (higher = fewer entries reach it),
        by :func:`rank` over the sessions posted now."""
        posted = sum(
            len(self._postings.get(atom[1], {}).get(atom, ())) for atom in atoms
        )
        return rank(atoms, posted)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, session: Session) -> None:
        """Index *session*: the next serial, a posting per anchor atom, and
        its membership (a snapshot image arrives with one) in the holders."""
        atoms = session.atoms = self.anchor_atoms(session.request.filter)
        session.serial = next(self._serials)
        if atoms is None:
            self._unanchored.add(session)
        for atom in atoms or ():
            posted = self._postings.setdefault(atom[1], {})
            bucket = posted.get(atom)
            if bucket is None:
                bucket = posted[atom] = set()
                if atom[0] == "pfx":
                    self._pfx_lens.add(atom)
            bucket.add(session)
        session.index_under(weakref.proxy(self._holders))

    def unregister(self, session: Session) -> None:
        """Drop *session*'s atom and holder postings."""
        self._unanchored.discard(session)
        for atom in session.atoms or ():
            posted = self._postings[atom[1]]
            posted[atom].discard(session)
            if not posted[atom]:
                del posted[atom]
                if not posted:
                    del self._postings[atom[1]]
                if atom[0] == "pfx":
                    self._pfx_lens.discard(atom)
        session.index_under(None)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _reachable(self, entry: Entry) -> Set[Session]:
        """Sessions whose anchor atoms *entry*'s own values probe, plus
        the unanchored ones — every session *entry* could match."""
        found = set(self._unanchored)
        for key, values in entry.values_by_key().items():
            posted = self._postings.get(key)
            if posted is None:
                continue
            postings = posted.get
            found |= postings(("attr", key), _EMPTY)
            normalize = DEFAULT_REGISTRY.get(key).normalize
            lens = self._pfx_lens.get(key)
            for value in values:
                norm = normalize(value)
                found |= postings(("eq", key, norm), _EMPTY)
                if lens:
                    text = str(norm)
                    for n in lens:
                        found |= postings(("pfx", key, text[:n]), _EMPTY)
        return found

    @staticmethod
    def _changed_attrs(before: Entry, after: Entry) -> Set[str]:
        """Keys of the attributes whose raw value lists differ (a
        superset of the semantically changed set, which is all soundness
        needs) — the keys fingerprints name filter attributes by, so a
        change made under one spelling reaches filters on any other."""
        old, new = before.values_by_key(), after.values_by_key()
        return {
            key
            for key in old.keys() | new.keys()
            if old.get(key) != new.get(key)
            and sorted(old.get(key, ())) != sorted(new.get(key, ()))
        }

    def route_verdicts(
        self, record: UpdateRecord
    ) -> List[Tuple[Session, Optional[Tuple[bool, bool]]]]:
        """Sessions *record* may affect, in creation order — a superset
        of ``{s : in_before(s) or in_after(s)}`` — with ``(in_before,
        in_after)`` pre-resolved where the holder index already knows it.

        The holder index inverts each session's content exactly — seeded
        from the initial search, advanced with the exact verdict on
        every update — so ``in_before`` is "holds the old DN" and only
        holders can leave.  Only the *after* image decides who enters:
        the sessions its values reach (:meth:`_reachable`) whose region
        covers the new DN.  Two cases need no filter evaluation at all:

        * **DELETE**: every candidate is a holder of the deleted DN, so
          the verdict is ``(True, False)``.
        * **in-place MODIFY** where the changed attributes miss a
          holder's filter fingerprint: the compiled verdict cannot flip
          (``_changed_attrs`` over-approximates the semantic change) and
          the scope verdict is fixed by the unchanged DN, so the verdict
          stays ``(True, True)``.  For the same reason a non-holder the
          changed attributes miss cannot enter and is not a candidate.

        Every other candidate carries ``None``: the caller reads
        ``in_before`` off ``content_dns`` and evaluates ``selects`` on
        the after image only.
        """
        old_dn = record.dn
        after = record.after
        holders = (
            self._holders.get(old_dn, _EMPTY) if record.before is not None else _EMPTY
        )
        if after is None:
            return [(s, _VERDICT_GONE) for s in sorted(holders, key=_serial)]
        new_dn = record.effective_dn
        changed: Optional[Set[str]] = None
        if record.before is not None and old_dn == new_dn:
            changed = self._changed_attrs(record.before, after)
        rk = new_dn.reversed_key()
        regions = {rk[:i] for i in range(len(rk) + 1)}
        candidates = {
            s
            for s in self._reachable(after)
            if s.region in regions
            and (changed is None or not changed.isdisjoint(s.fingerprint))
        }
        candidates |= holders
        ordered = sorted(candidates, key=_serial)
        if changed is None:
            return [(s, None) for s in ordered]
        return [
            (
                s,
                _VERDICT_STAYS
                if s in holders and changed.isdisjoint(s.fingerprint)
                else None,
            )
            for s in ordered
        ]
