"""The replica-wide key table: which held images carry a key value.

A master refuses a second holder of a value of a unique attribute
(``AttributeType.unique``; ``mail`` and ``uid`` in the default
registry), so an equality on such an attribute — the whole filter, or a
conjunct of a top-level AND — selects at most the one entry that holds
the value.  A :class:`KeyTable` maps each unique attribute's normalized
values to the (content, DN) pairs a replica's admitted stored contents
hold them at.  An attribute's postings are built from the held images
the first time a lookup asks about that attribute, as a store builds an
index on the first ask, and kept current from then on: every change of
an attached content reaches the table through the content's ``watcher``
hook, and only a change of a key value moves a posting.  So the table is
never rebuilt per query or per poll, and a lookup is one dict probe per
key conjunct, whatever the number of stored filters.  ``FilterReplica``
consults it when the stored filters and the recent-query window both
missed (docs/ALGORITHMS.md §1, "The key rule").
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..ldap.attributes import DEFAULT_REGISTRY
from ..ldap.dn import DN
from ..ldap.entry import Entry
from ..ldap.filters import And, Equality, Filter
from ..sync.consumer import SyncedContent
from .routing import Probe

__all__ = ["KeyTable"]

#: one held image of a value: (the holding content's handle, its DN)
Holder = Tuple[object, DN]


class KeyTable:
    """Unique attribute key → normalized value → the holders of it.

    The keys are the default registry's ``unique`` attributes, the
    registry a query's :class:`~repro.core.routing.Probe` normalizes its
    leaves under; an image posts its values as ``Entry.normalized``
    gives them.
    """

    def __init__(self):
        self._keys = DEFAULT_REGISTRY.unique_keys()
        # built on a key's first lookup
        self._postings: Dict[str, Dict[str, List[Holder]]] = {}
        # content serial → (handle, content), every attached content
        self._attached: Dict[int, Tuple[object, SyncedContent]] = {}

    def attach(self, content: SyncedContent, handle: object) -> None:
        """Post every image *content* holds, and follow its changes; a
        lookup names *handle* for them."""
        self._attached[content.serial] = (handle, content)
        content.watcher = self
        self.fill(content)

    def detach(self, content: SyncedContent) -> None:
        """Unpost *content*'s images and stop following it."""
        if content.watcher is self:
            self.drop(content)
            content.watcher = None
            del self._attached[content.serial]

    def fill(self, content: SyncedContent) -> None:
        """Post every image *content* holds."""
        self._post(content, content.entries.values(), self._postings)

    def drop(self, content: SyncedContent) -> None:
        """Unpost every image *content* holds (it is about to lose them)."""
        self._unpost(content, content.entries.values())

    def replace(self, content: SyncedContent, was: Optional[Entry], now: Entry) -> None:
        """*content*'s image of one DN goes from *was* (None: none) to
        *now*.  Only a key value that changes moves a posting."""
        if was is None:
            self._post(content, (now,), self._postings)
        elif any(was.get(key) != now.get(key) for key in self._postings):
            # equal raw values normalize equal: compare before normalizing
            self._unpost(content, (was,))
            self._post(content, (now,), self._postings)

    def remove(self, content: SyncedContent, was: Entry) -> None:
        """*content* lost its image *was*."""
        self._unpost(content, (was,))

    def holders(self, flt: Filter, probe: Probe) -> List[Holder]:
        """The holders of the value of *flt*'s first key equality — *flt*
        itself or a conjunct of a top-level AND — that any image holds;
        ``[]`` when none does."""
        conjuncts = flt.children if isinstance(flt, And) else (flt,)
        for pred in conjuncts:
            if isinstance(pred, Equality):
                key, value, _text = probe.leaf(pred)
                if key not in self._keys:
                    continue
                postings = self._postings.get(key)
                if postings is None:
                    postings = self._build(key)
                held = postings.get(value)
                if held:
                    return held
        return []

    def _build(self, key: str) -> dict:
        postings = self._postings[key] = {}
        for _handle, content in self._attached.values():
            self._post(content, content.entries.values(), {key: postings})
        return postings

    def _post(self, content: SyncedContent, images: Iterable[Entry], keys: dict) -> None:
        handle = self._attached[content.serial][0]
        for key, postings in keys.items():
            for image in images:
                for value in image.normalized(key):
                    postings.setdefault(str(value), []).append((handle, image.dn))

    def _unpost(self, content: SyncedContent, images: Iterable[Entry]) -> None:
        handle = self._attached[content.serial][0]
        for key, postings in self._postings.items():
            for image in images:
                for value in image.normalized(key):
                    value = str(value)
                    held = postings.get(value)
                    if held is None:
                        continue
                    held[:] = [(h, d) for h, d in held if h is not handle or d != image.dn]
                    if not held:
                        del postings[value]
