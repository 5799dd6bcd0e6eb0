"""The master's search evaluation as a walk of regions and re-entries.

:func:`reference_evaluate` is ``DirectoryServer.evaluate`` as it was
before a search became one pass from plan to result (docs/PLANNER.md,
"From plan to result"): a null-based search re-enters the evaluation
once per held context with a request rebased on its suffix and merges
the partial results through a ``seen`` set; every candidate DN is
tested for scope and for a referral object above it, every entry for
being a referral object; the filter is compiled on every re-entry; and
the sort control is applied to each partial and to the merge.

It reads the server it is handed — store, contexts, default referral,
registry, ``RANGE_SCAN_THRESHOLD`` — and records its plans into the
server's own ``server.plan.*`` counters, so the production path, run
on the same server for the same request, must return the same images
in the same order and move the counters by the same amounts
(``tests/server/test_evaluate_reference.py``).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Set

from repro.ldap.controls import SortControl
from repro.ldap.dn import DN
from repro.ldap.entry import Entry
from repro.ldap.matching import compile_filter
from repro.ldap.query import Scope, SearchRequest
from repro.server import DirectoryServer
from repro.server.directory import NamingContext
from repro.server.operations import Referral, ResultCode, SearchResult
from repro.server.planner import SearchPlan

__all__ = ["ReferenceSearch", "reference_evaluate"]


def reference_evaluate(
    server: DirectoryServer, request: SearchRequest, controls: Sequence[object] = ()
) -> SearchResult:
    """*request* evaluated on *server* the way the region walk did."""
    return ReferenceSearch(server).evaluate(request, controls)


class ReferenceSearch:
    """The parent evaluation's methods, over a server read from outside."""

    def __init__(self, server: DirectoryServer):
        self.server = server
        self.store = server.store

    def evaluate(
        self, request: SearchRequest, controls: Sequence[object] = ()
    ) -> SearchResult:
        server = self.server
        if request.base.is_root:
            if server.default_referral is not None:
                return SearchResult(
                    referrals=[Referral(server.default_referral, request.base)],
                    code=ResultCode.REFERRAL,
                )
            if server.naming_contexts:
                return self._evaluate_all_contexts(request, controls)
            return SearchResult(code=ResultCode.NO_SUCH_OBJECT)

        context = server.context_for(request.base)
        if context is None:
            if server.default_referral is not None:
                return SearchResult(
                    referrals=[Referral(server.default_referral, request.base)],
                    code=ResultCode.REFERRAL,
                )
            return SearchResult(code=ResultCode.NO_SUCH_OBJECT)

        base_entry = self.store.get(request.base)
        if base_entry is None:
            referral = self._referral_above(request.base, context)
            if referral is not None:
                return SearchResult(referrals=[referral], code=ResultCode.REFERRAL)
            return SearchResult(code=ResultCode.NO_SUCH_OBJECT)

        is_referral = self.store.is_referral
        if is_referral(request.base) and request.scope is not Scope.BASE:
            target = self._referral_of(base_entry, request.base)
            return SearchResult(referrals=[target], code=ResultCode.REFERRAL)

        result = SearchResult()
        plan = self.store.plan_for(request.filter)
        predicate = compile_filter(request.filter, server._registry)
        examined = matched = 0
        for entry in self._iter_region(request, plan.candidates):
            if is_referral(entry.dn):
                if entry.dn != request.base:
                    result.referrals.append(self._referral_of(entry, entry.dn))
                continue
            examined += 1
            if predicate(entry):
                matched += 1
                result.entries.append(entry)
        self._record_plan(plan, examined, matched)
        self._apply_controls(result, controls)
        return result

    def _evaluate_all_contexts(
        self, request: SearchRequest, controls: Sequence[object] = ()
    ) -> SearchResult:
        merged = SearchResult()
        if request.scope is not Scope.SUB:
            return merged
        seen = set()
        for context in self.server.naming_contexts:
            partial = self.evaluate(request.with_base(context.suffix))
            if partial.code is not ResultCode.SUCCESS:
                continue
            for entry in partial.entries:
                if entry.dn not in seen:
                    seen.add(entry.dn)
                    merged.entries.append(entry)
            merged.referrals.extend(partial.referrals)
        self._apply_controls(merged, controls)
        return merged

    def _iter_region(
        self, request: SearchRequest, candidates: Optional[Set[DN]]
    ) -> Iterable[Entry]:
        if request.scope is Scope.BASE or candidates is None:
            yield from self._walk_region(request.base, request.scope)
            return
        if (
            request.scope is Scope.SUB
            and len(candidates) > self.server.RANGE_SCAN_THRESHOLD
        ):
            for dn in self.store.subtree_region(request.base):
                if dn in candidates and not self._under_referral(dn, request.base):
                    entry = self.store.get(dn)
                    if entry is not None:
                        yield entry
        else:
            for dn in candidates:
                if request.in_scope(dn):
                    entry = self.store.get(dn)
                    if entry is not None and not self._under_referral(
                        dn, request.base
                    ):
                        yield entry
        for dn in self.store.referrals_under(request.base):
            if dn in candidates or dn == request.base:
                continue
            if request.in_scope(dn) and not self._under_referral(dn, request.base):
                yield self.store.get(dn)

    def _walk_region(self, base: DN, scope: Scope) -> Iterable[Entry]:
        if scope is Scope.BASE:
            entry = self.store.get(base)
            if entry is not None:
                yield entry
            return
        if scope is Scope.ONE:
            for child_dn in self.store.children_of(base):
                yield self.store.get(child_dn)
            return
        stack = [base]
        while stack:
            dn = stack.pop()
            entry = self.store.get(dn)
            if entry is not None:
                yield entry
                if dn != base and self.store.is_referral(dn):
                    continue
            stack.extend(self.store.children_of(dn))

    def _referral_of(self, entry: Entry, target: DN) -> Referral:
        url = entry.first("ref") or (self.server.default_referral or self.server.url)
        return Referral(url, target)

    def _referral_above(self, dn: DN, context: NamingContext) -> Optional[Referral]:
        for ancestor in dn.ancestors():
            if not context.contains(ancestor):
                break
            if self.store.is_referral(ancestor):
                return self._referral_of(self.store.get(ancestor), dn)
        return None

    def _under_referral(self, dn: DN, base: DN) -> bool:
        if not self.store.has_referrals():
            return False
        for ancestor in dn.ancestors():
            if ancestor == base:
                break
            if self.store.is_referral(ancestor):
                return True
        return False

    def _record_plan(self, plan: SearchPlan, examined: int, matched: int) -> None:
        metrics = self.server.metrics
        metrics.counter("server.plan.strategy", strategy=plan.strategy).inc()
        metrics.counter("server.plan.examined").inc(examined)
        metrics.counter("server.plan.matched").inc(matched)

    def _apply_controls(self, result: SearchResult, controls: Sequence[object]) -> None:
        registry = self.server._registry
        for control in controls:
            if isinstance(control, SortControl) and control.keys:

                def sort_key(entry: Entry):
                    parts = []
                    for attr in control.keys:
                        atype = registry.get(attr)
                        value = entry.first(attr)
                        parts.append(
                            (value is None, str(atype.normalize(value or "")))
                        )
                    return tuple(parts)

                result.entries.sort(key=sort_key, reverse=control.reverse)
