"""The simulated LDAP directory server.

A :class:`DirectoryServer` holds one or more **naming contexts** (§2.3):
subtrees rooted at a *suffix* entry and terminated by leaf entries or
special *referral objects* pointing to subordinate naming contexts held
elsewhere.  Formally a context is ``C = (S, R1..Rn)``.

The server implements the LDAP functional model:

* **search** — distributed name resolution (superior/default referral
  when the target is not held locally), scope traversal, filter
  evaluation (index-accelerated), continuation references for referral
  objects inside the search region, attribute projection;
* **update operations** — add, modify, delete, modifyDN (subtree move);
  every committed update is assigned a change sequence number (CSN) and
  pushed to registered :class:`UpdateListener`\\ s — the hook the
  synchronization mechanisms of :mod:`repro.sync` build on.

Referral objects are ordinary entries with object class ``referral`` and
a ``ref`` attribute holding the subordinate server's URL; the subtree
beneath a referral object is *not* held by this server.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Protocol, Sequence, Tuple, Union

from ..ldap.attributes import AttributeRegistry, DEFAULT_REGISTRY
from ..ldap.dn import DN
from ..ldap.entry import Entry
from ..ldap.controls import SortControl
from ..ldap.matching import compile_filter
from ..ldap.query import Scope, SearchRequest
from ..ldap.schema import DEFAULT_SCHEMA, validate_entry
from ..obs.registry import Counter, MetricsRegistry
from .backend import EntryStore
from .planner import SearchPlan
from .operations import (
    LdapError,
    Modification,
    ModType,
    OperationInstruments,
    Referral,
    ResultCode,
    SearchResult,
    UpdateOp,
    UpdateRecord,
    timed_operation,
)

__all__ = ["NamingContext", "DirectoryServer", "UpdateListener"]


@dataclass(frozen=True)
class NamingContext:
    """Meta information for one held naming context: ``C = (S, R1..Rn)``.

    ``referral_dns`` is computed on demand from the live store (referral
    objects can be added/removed at runtime), so this dataclass records
    only the suffix; :meth:`DirectoryServer.context_referrals` supplies
    the ``Ri``.
    """

    suffix: DN

    def contains(self, dn: DN) -> bool:
        """True when *dn* lies inside this context's subtree region."""
        return self.suffix.is_ancestor_or_self(dn)


class UpdateListener(Protocol):
    """Anything observing committed updates at a master server."""

    def on_update(self, record: UpdateRecord) -> None:
        """Called synchronously after each committed update."""
        ...  # pragma: no cover - protocol


class DirectoryServer:
    """One simulated directory server (master or replica substrate).

    Args:
        name: host name used in referral URLs, e.g. ``hostA``.
        default_referral: URL of the superior server to refer clients to
            when name resolution fails (Figure 2's "default referral"),
            or None to answer ``NO_SUCH_OBJECT``.
        registry: attribute registry.
        check_schema: when True, add/modify reject violations of
            :data:`~repro.ldap.schema.DEFAULT_SCHEMA`.
        metrics: observability registry receiving the ``server.op.*``
            instruments (default: a private registry).
    """

    #: SUBTREE candidate sets larger than this intersect with the
    #: store's sorted subtree range instead of doing per-DN scope checks.
    RANGE_SCAN_THRESHOLD = 64

    def __init__(
        self,
        name: str,
        default_referral: Optional[str] = None,
        registry: Optional[AttributeRegistry] = None,
        check_schema: bool = False,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.name = name
        self.default_referral = default_referral
        self._registry = registry if registry is not None else DEFAULT_REGISTRY
        self._check_schema = check_schema
        self.store = EntryStore(self._registry)
        #: per-operation latency/count instruments (``server.op.*``,
        #: docs/OBSERVABILITY.md §3); reads via ``self.metrics.to_dict()``.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.ops = OperationInstruments(self.metrics)
        #: search-planner accounting (``server.plan.*``, docs/PLANNER.md):
        #: strategy choices plus candidates examined vs. matched.
        self._plan_examined = self.metrics.counter("server.plan.examined")
        self._plan_matched = self.metrics.counter("server.plan.matched")
        self._plan_strategy_counters: Dict[str, Counter] = {}
        self._contexts: List[NamingContext] = []
        self._listeners: List[UpdateListener] = []
        self._csn = 0

    @property
    def url(self) -> str:
        """This server's LDAP URL."""
        return f"ldap://{self.name}"

    # ------------------------------------------------------------------
    # naming contexts
    # ------------------------------------------------------------------
    def add_naming_context(self, suffix: Union[DN, str]) -> NamingContext:
        """Register a naming context rooted at *suffix*.

        The suffix entry itself must subsequently be added via
        :meth:`add`; registration only exempts it from the
        parent-must-exist rule (:meth:`_has_parent`).
        """
        suffix_dn = suffix if isinstance(suffix, DN) else DN.parse(suffix)
        context = NamingContext(suffix_dn)
        self._contexts.append(context)
        return context

    @property
    def naming_contexts(self) -> Tuple[NamingContext, ...]:
        return tuple(self._contexts)

    def context_for(self, dn: DN) -> Optional[NamingContext]:
        """The most specific held context containing *dn*, or None."""
        best: Optional[NamingContext] = None
        for context in self._contexts:
            if context.contains(dn):
                if best is None or best.suffix.is_suffix_of(context.suffix):
                    best = context
        return best

    def _has_parent(self, dn: DN) -> bool:
        """True when *dn* may be added: it is a context suffix (a tree
        root, exempt from the parent-must-exist rule) or its parent
        entry exists."""
        if dn.is_root or any(context.suffix == dn for context in self._contexts):
            return True
        return dn.parent in self.store

    def context_referrals(self, context: NamingContext) -> List[DN]:
        """DNs of referral objects inside *context* (the ``Ri`` of §2.3)."""
        return sorted(
            (dn for dn in self.store.referral_dns() if context.contains(dn)),
            key=str,
        )

    # ------------------------------------------------------------------
    # update listeners
    # ------------------------------------------------------------------
    def add_update_listener(self, listener: UpdateListener) -> None:
        """Register *listener* for every subsequently committed update."""
        self._listeners.append(listener)

    def remove_update_listener(self, listener: UpdateListener) -> None:
        """Deregister *listener*; idempotent (a provider being replaced
        after crash recovery may detach more than once)."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def _commit(self, record: UpdateRecord) -> UpdateRecord:
        for listener in self._listeners:
            listener.on_update(record)
        return record

    def _next_csn(self) -> int:
        self._csn += 1
        return self._csn

    @property
    def current_csn(self) -> int:
        """CSN of the most recently committed update (0 when pristine)."""
        return self._csn

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    @timed_operation("search")
    def search(
        self, request: SearchRequest, controls: Sequence["object"] = ()
    ) -> SearchResult:
        """Evaluate a search operation against this server.

        :meth:`evaluate`, with each entry projected onto the requested
        attributes on its way out of the server: under an attribute
        list a new entry, the caller's own; for all attributes the
        store's frozen image itself, which a caller that edits copies
        first (DESIGN.md, "Entry images: who owns, who copies").
        """
        result = self.evaluate(request, controls)
        result.entries = [request.project(entry) for entry in result.entries]
        return result

    def evaluate(
        self, request: SearchRequest, controls: Sequence["object"] = ()
    ) -> SearchResult:
        """The whole of a search but its out-boundary projection: the
        entries of the result are the store's own frozen images,
        unprojected.

        For readers inside the trust boundary that share images instead
        of owning copies — a sync provider reading the content it is
        about to send (:mod:`repro.sync.resync`) — and the one
        evaluation :meth:`search` projects.

        Performs the name-resolution and continuation-reference logic of
        §2.3: a base outside every held context yields the default
        (superior) referral; referral objects inside the search region
        yield one continuation reference each and their subtrees are not
        descended into.  Which entries are referral objects is the
        store's knowledge, settled when they were put.

        Null-based searches (base = root DN, §3.1.1's minimally
        directory enabled applications) are answered across all held
        contexts when this server is authoritative (no superior
        referral configured); a distributed member refers them upward.

        Name resolution settles the search's regions — the base, or
        for a null base every held context's suffix — and
        :meth:`_search_regions` runs one loop from the plan's candidates
        to the result (docs/PLANNER.md, "From plan to result").
        """
        base = request.base
        if base.is_root:
            if self.default_referral is not None:
                return self._refer_upward(base)
            if not self._contexts:
                return SearchResult(code=ResultCode.NO_SUCH_OBJECT)
            if request.scope is not Scope.SUB:
                # BASE/ONE on the (virtual) root match nothing: the
                # root has no entry.
                return SearchResult()
            # SUBTREE covers the union of the context subtrees; a
            # suffix not held, or held as a referral object, adds none.
            store = self.store
            regions = [
                context.suffix
                for context in self._contexts
                if context.suffix in store and not store.is_referral(context.suffix)
            ]
            if not regions:
                return SearchResult()
            return self._search_regions(request, regions, controls)

        context = self.context_for(base)
        if context is None:
            if self.default_referral is not None:
                return self._refer_upward(base)
            return SearchResult(code=ResultCode.NO_SUCH_OBJECT)

        base_entry = self.store.get(base)
        if base_entry is None:
            # The base may lie under a referral object we hold: then the
            # client must continue at the subordinate server.
            referral = self._referral_above(base, context)
            if referral is not None:
                return SearchResult(referrals=[referral], code=ResultCode.REFERRAL)
            return SearchResult(code=ResultCode.NO_SUCH_OBJECT)

        if request.scope is not Scope.BASE and self.store.is_referral(base):
            target = self._referral_of(base_entry, base)
            return SearchResult(referrals=[target], code=ResultCode.REFERRAL)
        return self._search_regions(request, [base], controls)

    def _refer_upward(self, base: DN) -> SearchResult:
        return SearchResult(
            referrals=[Referral(self.default_referral, base)],
            code=ResultCode.REFERRAL,
        )

    def _search_regions(
        self, request: SearchRequest, regions: List[DN], controls: Sequence["object"]
    ) -> SearchResult:
        """Plan once, compile the filter once, then one loop per region
        from the plan's candidates to the result.

        Each region is a held, non-referral base entry.  The order of
        the entries is the region's: candidate-set order, subtree-range
        order past :attr:`RANGE_SCAN_THRESHOLD` SUBTREE candidates, and
        walk order for a scan or a BASE search; regions follow one
        another, and an entry a nested region meets again is dropped.
        A candidate is tested for scope only where the region does not
        cover every stored DN (:meth:`_covers`), and for referral
        objects only when the store holds one.
        """
        store = self.store
        flt = request.filter
        plan = store.plan_for(flt)
        candidates = plan.candidates
        predicate = compile_filter(flt, self._registry)
        scope = request.scope
        get = store.images().get
        held = store.has_referrals()
        result = SearchResult()
        examined = matched = 0
        for base in regions:
            in_scope = base.is_ancestor_or_self if scope is Scope.SUB else base.is_parent_of
            by_walk = scope is Scope.BASE or candidates is None
            if by_walk:
                dns: Iterable[DN] = self._walk(base, scope)
            elif scope is Scope.SUB and len(candidates) > self.RANGE_SCAN_THRESHOLD:
                dns = [dn for dn in store.subtree_region(base) if dn in candidates]
            elif scope is Scope.SUB and self._covers(base):
                dns = candidates
            else:
                dns = [dn for dn in candidates if in_scope(dn)]
            found: List[Entry] = []
            keep = found.append
            if not held:
                for dn in dns:
                    entry = get(dn)
                    if entry is not None:
                        examined += 1
                        if predicate(entry):
                            keep(entry)
            else:
                # A walk never descends below a referral object; any
                # other region drops what lies below one.
                is_referral = store.is_referral
                under_referral = self._under_referral
                referrals = result.referrals
                for dn in dns:
                    if not by_walk and under_referral(dn, base):
                        continue
                    entry = get(dn)
                    if entry is None:
                        continue
                    if is_referral(dn):
                        if dn != base:
                            referrals.append(self._referral_of(entry, dn))
                        continue
                    examined += 1
                    if predicate(entry):
                        keep(entry)
                if not by_walk:
                    # Referral objects in the region surface even when
                    # the index skipped them.
                    for dn in store.referrals_under(base):
                        if dn in candidates or dn == base:
                            continue
                        if in_scope(dn) and not under_referral(dn, base):
                            referrals.append(self._referral_of(get(dn), dn))
            matched += len(found)
            if len(regions) == 1:
                result.entries = found
            else:
                seen = {entry.dn for entry in result.entries}
                result.entries.extend(entry for entry in found if entry.dn not in seen)
        self._record_plan(plan, examined, matched, len(regions))
        if controls:
            self._apply_controls(result, controls)
        return result

    def _covers(self, base: DN) -> bool:
        """True when the subtree at *base* holds every stored DN: every
        held context's suffix lies in it, and ``add``, ``load`` and
        ``modify_dn`` keep every entry inside a held context."""
        return all(base.is_ancestor_or_self(context.suffix) for context in self._contexts)

    def _walk(self, base: DN, scope: Scope) -> List[DN]:
        """The region at the stored *base* in walk order: the base; its
        children; or a depth-first walk (children in reverse name
        order) that does not descend below a referral object."""
        store = self.store
        if scope is Scope.BASE:
            return [base]
        children_of = store.children_of
        if scope is Scope.ONE:
            return children_of(base)
        is_referral = store.is_referral if store.has_referrals() else None
        walked: List[DN] = []
        stack = [base]
        while stack:
            dn = stack.pop()
            walked.append(dn)
            if is_referral is not None and dn != base and is_referral(dn):
                continue  # do not descend below a referral object
            stack.extend(children_of(dn))
        return walked

    def _record_plan(
        self, plan: SearchPlan, examined: int, matched: int, regions: int
    ) -> None:
        """One plan per region, as each region was once its own search."""
        counter = self._plan_strategy_counters.get(plan.strategy)
        if counter is None:
            counter = self.metrics.counter(
                "server.plan.strategy", strategy=plan.strategy
            )
            self._plan_strategy_counters[plan.strategy] = counter
        counter.inc(regions)
        self._plan_examined.inc(examined)
        self._plan_matched.inc(matched)

    def _apply_controls(self, result: SearchResult, controls: Sequence["object"]) -> None:
        """Apply search controls to a result (RFC 2891 sorting, §2.2)."""
        for control in controls:
            if isinstance(control, SortControl) and control.keys:

                def sort_key(entry: Entry):
                    parts = []
                    for attr in control.keys:
                        atype = self._registry.get(attr)
                        value = entry.first(attr)
                        # Absent values sort last, per RFC 2891.
                        parts.append(
                            (value is None, str(atype.normalize(value or "")))
                        )
                    return tuple(parts)

                result.entries.sort(key=sort_key, reverse=control.reverse)

    def _referral_of(self, entry: Entry, target: DN) -> Referral:
        url = entry.first("ref") or (self.default_referral or self.url)
        return Referral(url, target)

    def _referral_above(self, dn: DN, context: NamingContext) -> Optional[Referral]:
        for ancestor in dn.ancestors():
            if not context.contains(ancestor):
                break
            if self.store.is_referral(ancestor):
                return self._referral_of(self.store.get(ancestor), dn)
        return None

    def _under_referral(self, dn: DN, base: DN) -> bool:
        """True when *dn* sits strictly below a referral object (not
        held) — by membership in the store's referral set, and without
        a look at any ancestor when that set is empty."""
        if not self.store.has_referrals():
            return False
        is_referral = self.store.is_referral
        for ancestor in dn.ancestors():
            if ancestor == base:
                break
            if is_referral(ancestor):
                return True
        return False

    # ------------------------------------------------------------------
    # update operations
    # ------------------------------------------------------------------
    def _refuse_second_holder(
        self, entry: Entry, keys: Iterable[str], holder: Optional[DN] = None
    ) -> None:
        """Refuse *entry* when another entry than *holder* (default: the
        entry's own DN) holds one of its values of a unique attribute
        among *keys*: ``CONSTRAINT_VIOLATION``.  Values compare under
        the attribute's equality syntax, through the store's equality
        index (built on the first ask)."""
        holder = entry.dn if holder is None else holder
        for key in keys:
            values = entry.get(key)
            if not values:
                continue
            equality = self.store.index_for(key).equality
            for value in values:
                if equality.lookup(value) - {holder}:
                    raise LdapError(
                        ResultCode.CONSTRAINT_VIOLATION,
                        f"{key}={value} is held by another entry than {entry.dn}",
                    )

    @timed_operation("add")
    def add(self, entry: Entry) -> UpdateRecord:
        """Add *entry*; parent must exist (or be a context suffix)."""
        if self.context_for(entry.dn) is None:
            raise LdapError(
                ResultCode.NO_SUCH_OBJECT, f"no naming context for {entry.dn}"
            )
        if entry.dn in self.store:
            raise LdapError(ResultCode.ENTRY_ALREADY_EXISTS, str(entry.dn))
        if not self._has_parent(entry.dn):
            raise LdapError(
                ResultCode.NO_SUCH_OBJECT, f"parent of {entry.dn} not found"
            )
        if self._check_schema:
            violations = validate_entry(entry, DEFAULT_SCHEMA)
            if violations:
                raise LdapError(
                    ResultCode.OBJECT_CLASS_VIOLATION, violations[0].problem
                )
        self._refuse_second_holder(entry, self._registry.unique_keys())
        csn = self._next_csn()
        stored = entry.copy()  # the caller keeps its own
        self.store.put(stored)
        return self._commit(
            UpdateRecord(csn=csn, op=UpdateOp.ADD, dn=stored.dn, after=stored)
        )

    @timed_operation("modify")
    def modify(self, dn: Union[DN, str], modifications: Sequence[Modification]) -> UpdateRecord:
        """Apply LDAP modify semantics to the entry at *dn*."""
        target = dn if isinstance(dn, DN) else DN.parse(dn)
        before = self.store.get(target)
        if before is None:
            raise LdapError(ResultCode.NO_SUCH_OBJECT, str(target))
        # The one copy of a modify: the image it edits.  The store then
        # adopts and freezes it, and the record shares both images.
        updated = before.copy()
        for mod in modifications:
            if mod.mod_type is ModType.ADD:
                updated.add_values(mod.attr, list(mod.values))
            elif mod.mod_type is ModType.REPLACE:
                updated.put(mod.attr, list(mod.values))
            elif mod.mod_type is ModType.DELETE:
                updated.remove_values(mod.attr, list(mod.values) or None)
        if self._check_schema:
            violations = validate_entry(updated, DEFAULT_SCHEMA)
            if violations:
                raise LdapError(
                    ResultCode.OBJECT_CLASS_VIOLATION, violations[0].problem
                )
        key = self._registry.key
        touched = self._registry.unique_keys().intersection(key(m.attr) for m in modifications)
        if touched:
            self._refuse_second_holder(updated, touched)
        csn = self._next_csn()
        self.store.put(updated)
        return self._commit(
            UpdateRecord(
                csn=csn,
                op=UpdateOp.MODIFY,
                dn=target,
                before=before,
                after=updated,
                modifications=tuple(modifications),
            )
        )

    @timed_operation("delete")
    def delete(self, dn: Union[DN, str]) -> UpdateRecord:
        """Delete the (leaf) entry at *dn*."""
        target = dn if isinstance(dn, DN) else DN.parse(dn)
        if target not in self.store:
            raise LdapError(ResultCode.NO_SUCH_OBJECT, str(target))
        if self.store.has_children(target):
            raise LdapError(ResultCode.NOT_ALLOWED_ON_NON_LEAF, str(target))
        before = self.store.delete(target)
        return self._commit(
            UpdateRecord(
                csn=self._next_csn(),
                op=UpdateOp.DELETE,
                dn=target,
                before=before,
            )
        )

    def delete_subtree(self, dn: Union[DN, str]) -> List[UpdateRecord]:
        """Delete *dn* and everything beneath it, child-first."""
        target = dn if isinstance(dn, DN) else DN.parse(dn)
        if target not in self.store:
            raise LdapError(ResultCode.NO_SUCH_OBJECT, str(target))
        doomed = sorted(self.store.subtree_region(target), key=len, reverse=True)
        return [self.delete(d) for d in doomed]

    @timed_operation("modify_dn")
    def modify_dn(
        self,
        dn: Union[DN, str],
        new_rdn: Optional[str] = None,
        new_superior: Optional[Union[DN, str]] = None,
    ) -> List[UpdateRecord]:
        """Rename/move the entry at *dn* (and its subtree).

        Emits one MODIFY_DN record per affected entry so downstream
        synchronization sees every DN change (§5.2: a rename is a delete
        action for the old DN followed by an add for the new one, from
        the point of view of a filter's content).
        """
        old_dn = dn if isinstance(dn, DN) else DN.parse(dn)
        entry = self.store.get(old_dn)
        if entry is None:
            raise LdapError(ResultCode.NO_SUCH_OBJECT, str(old_dn))
        superior = (
            old_dn.parent
            if new_superior is None
            else (new_superior if isinstance(new_superior, DN) else DN.parse(new_superior))
        )
        rdn_text = new_rdn if new_rdn is not None else str(old_dn.rdn)
        new_dn = superior.child(rdn_text)
        if self.context_for(new_dn) is None or not self._has_parent(new_dn):
            # add's rule, applied to the target: no entry goes parentless
            # or outside every held context (a renamed suffix included)
            raise LdapError(ResultCode.NO_SUCH_OBJECT, f"no parent or context for {new_dn}")
        if new_dn == old_dn:
            raise LdapError(ResultCode.UNWILLING_TO_PERFORM, "no-op modifyDN")
        if new_dn in self.store:
            raise LdapError(ResultCode.ENTRY_ALREADY_EXISTS, str(new_dn))
        if old_dn.is_ancestor_or_self(new_dn):
            raise LdapError(
                ResultCode.UNWILLING_TO_PERFORM, "cannot move a subtree under itself"
            )
        naming = self._registry.key(new_dn.rdn.attr)
        if naming in self._registry.unique_keys():
            # the new naming value replaces the entry's values there
            renamed = entry.copy()
            renamed.put(naming, [new_dn.rdn.value])
            self._refuse_second_holder(renamed, (naming,), old_dn)

        records: List[UpdateRecord] = []
        moved = sorted(self.store.subtree_region(old_dn), key=len)
        for source in moved:
            source_entry = self.store.delete(source)
            target_dn = source.rename(old_dn, new_dn)
            renamed = source_entry.with_dn(target_dn)
            if source == old_dn:
                # Update the naming attribute of the renamed entry itself.
                new_leaf = target_dn.rdn
                renamed.put(new_leaf.attr, [new_leaf.value])
            csn = self._next_csn()
            self.store.put(renamed)
            records.append(
                self._commit(
                    UpdateRecord(
                        csn=csn,
                        op=UpdateOp.MODIFY_DN,
                        dn=source,
                        before=source_entry,
                        after=renamed,
                        new_dn=target_dn,
                    )
                )
            )
        return records

    # ------------------------------------------------------------------
    # bulk loading
    # ------------------------------------------------------------------
    def load(self, entries: Iterable[Entry]) -> int:
        """Bulk-add entries (parents before children); returns the count.

        Loading bypasses update listeners — it models the initial state
        of the master, not live updates.
        """
        ordered = sorted(entries, key=lambda e: len(e.dn))
        self.refuse_duplicate_keys(ordered)
        count = 0
        for entry in ordered:
            if self.context_for(entry.dn) is None:
                raise LdapError(
                    ResultCode.NO_SUCH_OBJECT, f"no naming context for {entry.dn}"
                )
            if not self._has_parent(entry.dn):
                raise LdapError(
                    ResultCode.NO_SUCH_OBJECT, f"parent of {entry.dn} not found"
                )
            self.store.put(entry.copy())  # the caller keeps its own
            count += 1
        return count

    def refuse_duplicate_keys(self, entries: Sequence[Entry]) -> None:
        """Refuse a bulk load of *entries* when two of them, or one of
        them and another stored entry, hold one value of a unique
        attribute: ``CONSTRAINT_VIOLATION``, before anything is stored.
        One pass per unique attribute over the batch's values,
        normalized under its equality syntax; the stored entries are
        asked (through the equality index) only when there are some."""
        unique = self._registry.unique_keys()
        for key in unique:
            normalize = self._registry.get(key).normalize
            holders: Dict[object, DN] = {}
            for entry in entries:
                for value in entry.get(key):
                    holder = holders.setdefault(normalize(value), entry.dn)
                    if holder != entry.dn:
                        raise LdapError(
                            ResultCode.CONSTRAINT_VIOLATION,
                            f"{key}={value} is held by both {holder} and {entry.dn}",
                        )
        if len(self.store):
            for entry in entries:
                self._refuse_second_holder(entry, unique)

    def __repr__(self) -> str:
        suffixes = ", ".join(str(c.suffix) for c in self._contexts)
        return f"DirectoryServer({self.name!r}, contexts=[{suffixes}], {len(self.store)} entries)"
