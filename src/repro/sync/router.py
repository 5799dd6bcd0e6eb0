"""Routed ReSync update fan-out (provider side).

``ResyncProvider.on_update`` must decide, for every committed master
update, which active sessions to notify.  The seed implementation
evaluates every session's filter against the update's before/after
entries — linear in the session count, twice per update, interpreted
(kept as ``tests/oracles.LinearResyncProvider``).  The
:class:`SessionRouter` keeps per-session routing summaries so only
sessions the update's *values* can reach are visited:

* **holders** — a ``DN → sessions`` map mirroring each session's
  master-side content (``Session.content_dns``), seeded from the
  initial content and advanced by :meth:`note_delivery` after every
  notification.  It is exact, so it answers ``in_before`` outright: an
  update can only leave (or change inside) the sessions holding its DN.
* **value atoms** — a necessary condition for an entry to *match* the
  filter, in the vocabulary of the replica-side
  :class:`~repro.core.routing.ContainmentIndex`: ``("eq", attr, value)``,
  ``("pfx", attr, initial)`` and ``("attr", attr)``.  Sessions are
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
from operator import attrgetter
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

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
    attributes_of,
    simplify,
)
from ..ldap.matching import compile_filter_cached
from ..server.operations import UpdateRecord
from .session import Session

__all__ = ["SessionRouter", "RoutedSession"]

#: ``(kind, attr[, value])``; kinds ``eq``, ``pfx``, ``attr`` as in
#: :mod:`repro.core.routing`, ranked by how few entries they admit.
Atom = Tuple
_STRENGTH = {"attr": 0, "pfx": 1, "eq": 2}

_EMPTY: FrozenSet["RoutedSession"] = frozenset()
_serial = attrgetter("serial")  # creation order == the linear scan's order

# Pre-resolved membership verdicts (see SessionRouter.route_verdicts).
_VERDICT_STAYS: Tuple[bool, bool] = (True, True)
_VERDICT_GONE: Tuple[bool, bool] = (True, False)


def _leaf_atom(pred: Predicate) -> Atom:
    """The atom every entry matching *pred* probes.

    Normalization is literally the compiled predicate's
    (``compile_filter_cached``: default registry, the predicate's own
    attribute spelling, ``str()`` for substring parts), so "the entry
    matches" implies "the entry's values hit this atom" by construction.
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


class RoutedSession:
    """One registered session plus its routing summary."""

    __slots__ = (
        "session",
        "session_id",
        "serial",
        "request",
        "compiled",
        "fingerprint",
        "atoms",
        "region",
        "held",
    )

    def __init__(
        self, session: Session, serial: int, atoms: Optional[FrozenSet[Atom]]
    ):
        self.session = session
        self.session_id = session.session_id
        self.serial = serial
        self.request = session.request
        self.compiled = compile_filter_cached(session.request.filter)
        self.fingerprint = attributes_of(session.request.filter)
        self.atoms = atoms  # None: unanchored, sees every add in region
        self.region = session.request.base.reversed_key()
        self.held: Set[DN] = set()

    def selects(self, entry: Entry) -> bool:
        """Exactly ``request.selects`` with the compiled filter."""
        return self.request.in_scope(entry.dn) and self.compiled(entry)

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"RoutedSession({self.session_id})"


class SessionRouter:
    """Value-atom/region/holder routing over a provider's sessions."""

    def __init__(self):
        self._serials = itertools.count(1)
        self._sessions: Dict[str, RoutedSession] = {}
        # attr -> atom -> sessions anchored on it; attribute first, so an
        # entry's unposted attributes cost one lookup, not a normalization.
        self._postings: Dict[str, Dict[Atom, Set[RoutedSession]]] = {}
        # attr -> {prefix length -> distinct ``pfx`` atoms of that length}:
        # a value is probed once per registered length, never per character.
        self._pfx_lens: Dict[str, Dict[int, int]] = {}
        self._unanchored: Set[RoutedSession] = set()
        self._holders: Dict[DN, Set[RoutedSession]] = {}

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, session_id: str) -> bool:
        return session_id in self._sessions

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
        """Selectivity of one atom set (higher = fewer entries reach it):
        OR semantics make it as weak as its weakest atom."""
        posted = sum(
            len(self._postings.get(atom[1], {}).get(atom, ())) for atom in atoms
        )
        weakest = min((_STRENGTH[atom[0]] for atom in atoms), default=len(_STRENGTH))
        return (weakest, -posted)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, session: Session, dns=()) -> RoutedSession:
        """Enter *session* with *dns* as its held content — the content
        its ``create`` fold just delivered (live or replayed), or a
        snapshot image's content mirror (docs/PROTOCOL.md §10.1).  Any
        stale registration (and its holder state) is replaced
        wholesale."""
        self.unregister(session.session_id)
        atoms = self.anchor_atoms(session.request.filter)
        rs = RoutedSession(session, next(self._serials), atoms)
        self._sessions[rs.session_id] = rs
        if atoms is None:
            self._unanchored.add(rs)
        for atom in atoms or ():
            posted = self._postings.setdefault(atom[1], {})
            bucket = posted.get(atom)
            if bucket is None:
                bucket = posted[atom] = set()
                if atom[0] == "pfx":
                    lens = self._pfx_lens.setdefault(atom[1], {})
                    lens[len(atom[2])] = lens.get(len(atom[2]), 0) + 1
            bucket.add(rs)
        for dn in dns:
            self._hold(rs, dn)
        return rs

    def unregister(self, session_id: str) -> None:
        rs = self._sessions.pop(session_id, None)
        if rs is None:
            return
        self._unanchored.discard(rs)
        for atom in rs.atoms or ():
            posted = self._postings[atom[1]]
            posted[atom].discard(rs)
            if not posted[atom]:
                del posted[atom]
                if not posted:
                    del self._postings[atom[1]]
                if atom[0] == "pfx":
                    lens = self._pfx_lens[atom[1]]
                    lens[len(atom[2])] -= 1
                    if not lens[len(atom[2])]:
                        del lens[len(atom[2])]
                        if not lens:
                            del self._pfx_lens[atom[1]]
        for dn in list(rs.held):
            self._unhold(rs, dn)

    def reset(self) -> None:
        """Forget every session (provider restart)."""
        self._sessions.clear()
        self._postings.clear()
        self._pfx_lens.clear()
        self._unanchored.clear()
        self._holders.clear()

    # ------------------------------------------------------------------
    # holder tracking (mirrors Session._track_content)
    # ------------------------------------------------------------------
    def _hold(self, rs: RoutedSession, dn: DN) -> None:
        rs.held.add(dn)
        self._holders.setdefault(dn, set()).add(rs)

    def _unhold(self, rs: RoutedSession, dn: DN) -> None:
        rs.held.discard(dn)
        bucket = self._holders.get(dn)
        if bucket is not None:
            bucket.discard(rs)
            if not bucket:
                del self._holders[dn]

    def note_delivery(
        self,
        rs: RoutedSession,
        in_before: bool,
        in_after: bool,
        old_dn: DN,
        new_dn: DN,
    ) -> None:
        """Advance *rs*'s holder state after one notification — the same
        transitions ``Session.observe`` applies to ``content_dns``."""
        if in_before and not in_after:
            self._unhold(rs, old_dn)
        elif in_after and not in_before:
            self._hold(rs, new_dn)
        elif in_before and in_after:
            if old_dn != new_dn:
                self._unhold(rs, old_dn)
            self._hold(rs, new_dn)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _reachable(self, entry: Entry) -> Set[RoutedSession]:
        """Sessions whose anchor atoms *entry*'s own values probe, plus
        the unanchored ones — every session *entry* could match."""
        found = set(self._unanchored)
        for key, values in entry.keyed_values():
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
        """Attributes whose raw value lists differ (a superset of the
        semantically changed set, which is all soundness needs), under
        the literal lower-cased names filters look values up by."""
        old, new = dict(before.keyed_values()), dict(after.keyed_values())
        return {
            key
            for key in old.keys() | new.keys()
            if old.get(key) != new.get(key)
            and sorted(old.get(key, ())) != sorted(new.get(key, ()))
        }

    def route_verdicts(
        self, record: UpdateRecord
    ) -> List[Tuple[RoutedSession, Optional[Tuple[bool, bool]]]]:
        """Sessions *record* may affect, in creation order — a superset
        of ``{s : in_before(s) or in_after(s)}`` — with ``(in_before,
        in_after)`` pre-resolved where the holder index already knows it.

        Holder state mirrors each session's content exactly — seeded
        from the initial search, advanced with the exact verdict on
        every delivery — so ``in_before`` is "holds the old DN" and only
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
        ``in_before`` off ``held`` and evaluates ``selects`` on the
        after image only.
        """
        old_dn = record.dn
        after = record.after
        holders = (
            self._holders.get(old_dn, _EMPTY) if record.before is not None else _EMPTY
        )
        if after is None:
            return [(rs, _VERDICT_GONE) for rs in sorted(holders, key=_serial)]
        new_dn = record.effective_dn
        changed: Optional[Set[str]] = None
        if record.before is not None and old_dn == new_dn:
            changed = self._changed_attrs(record.before, after)
        rk = new_dn.reversed_key()
        regions = {rk[:i] for i in range(len(rk) + 1)}
        candidates = {
            rs
            for rs in self._reachable(after)
            if rs.region in regions
            and (changed is None or not changed.isdisjoint(rs.fingerprint))
        }
        candidates |= holders
        ordered = sorted(candidates, key=_serial)
        if changed is None:
            return [(rs, None) for rs in ordered]
        return [
            (
                rs,
                _VERDICT_STAYS
                if rs in holders and changed.isdisjoint(rs.fingerprint)
                else None,
            )
            for rs in ordered
        ]
