"""Spans recorded from outside the program, around layer entry points.

The benchmark's own files install a timing wrapper at each name in
``spec.SPANS`` — at the attribute the callers read (a module global such
as ``query_contained_in`` as bound in ``repro.core.filter_replica``, a
method through its class) — and nothing under ``src/`` changes.  A name
that no longer resolves is listed in :attr:`Tracer.missing`; its two
metrics read ``null`` and the run goes on.

Every span carries an id, its parent's id, the id of the root op (one
query, update or recovery step, opened by the workload loop), a start
and an end.  Spans stay in memory and are written when the run ends.  A
span's self time is its duration minus the durations of its children;
an op's self time is the harness glue no layer span covers.
"""

from __future__ import annotations

import importlib
import json
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from . import spec

#: hook(sums, args, result, token) runs after a traced call; a hook with
#: a ``before(args)`` attribute gets that call's return as *token*.
Hook = Callable[[Dict[str, float], tuple, object, object], None]


def resolve(target: str) -> Optional[Tuple[object, str]]:
    """(owner, attribute) for ``module:attr`` / ``package:Class.method``,
    or None when any step of the path is gone."""
    module_name, _, path = target.partition(":")
    try:
        owner: object = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, leaf = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        # A method the class only inherits is reached through the base
        # class's own target; wrapping it here would count it twice.
        return (owner, leaf) if leaf in vars(owner) else None
    return (owner, leaf) if hasattr(owner, leaf) else None


def lookup(target: str) -> Optional[object]:
    """The object *target* names, or None."""
    found = resolve(target)
    return getattr(found[0], found[1]) if found else None


class Tracer:
    """Installs the wrappers, keeps spans and per-name totals."""

    def __init__(self):
        self.names: List[str] = []
        self.calls: List[int] = []
        self.self_s: List[float] = []
        self.missing: List[str] = []
        #: sums the hooks keep (count metrics read at the same boundary)
        self.sums: Dict[str, float] = {}
        self.op_wall = 0.0
        self.op_self = 0.0
        self._stack: List[list] = []
        self._op_names: Dict[str, int] = {}
        self._root = 0
        self._next_id = 1
        self._patched: List[Tuple[object, str, object]] = []
        # span records, one column each
        self._ids = array("q")
        self._parents = array("q")
        self._roots = array("q")
        self._name_idx = array("q")
        self._starts = array("d")
        self._ends = array("d")

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self, hooks: Optional[Dict[str, Hook]] = None) -> None:
        hooks = hooks or {}
        for span, targets in spec.SPANS.items():
            idx = self._index(span)
            resolved = [r for r in map(resolve, targets) if r is not None]
            if not resolved:
                self.missing.append(span)
            for owner, attr in resolved:
                original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
                setattr(owner, attr, self._wrap(idx, original, hooks.get(span)))
                self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _index(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def _wrap(self, idx: int, fn: Callable, hook: Optional[Hook]) -> Callable:
        stack = self._stack
        calls, self_s, sums = self.calls, self.self_s, self.sums
        record = self._record
        before = getattr(hook, "before", None)

        def traced(*args, **kwargs):
            if not stack or stack[-1][0] == idx:
                # Outside a root op (set-up, verification) nothing is
                # recorded; and a subclass method calling its wrapped
                # base method is one span, not two.
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [idx, 0.0, span_id]
            parent = stack[-1]
            token = before(args) if before is not None else None
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                calls[idx] += 1
                self_s[idx] += duration - frame[1]
                parent[1] += duration
                record(span_id, parent[2], idx, start, end)
            if hook is not None:
                hook(sums, args, result, token)
            return result

        traced.__wrapped__ = fn
        return traced

    def _record(self, span_id: int, parent: int, idx: int, start: float, end: float) -> None:
        self._ids.append(span_id)
        self._parents.append(parent)
        self._roots.append(self._root)
        self._name_idx.append(idx)
        self._starts.append(start)
        self._ends.append(end)

    # ------------------------------------------------------------------
    # root ops (opened by the workload loop through the meter)
    # ------------------------------------------------------------------
    def begin_op(self, kind: str) -> None:
        span_id = self._next_id
        self._next_id = span_id + 1
        self._root = span_id
        self._stack.append([-1, 0.0, span_id, kind, perf_counter()])

    def end_op(self) -> None:
        end = perf_counter()
        _, covered, span_id, kind, start = self._stack.pop()
        self._root = 0
        duration = end - start
        self.op_wall += duration
        self.op_self += duration - covered
        idx = self._op_names.get(kind)
        if idx is None:
            idx = self._op_names[kind] = self._index(f"op.{kind}")
        self.calls[idx] += 1
        self.self_s[idx] += duration - covered
        self._record(span_id, 0, idx, start, end)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def span_metrics(self) -> Dict[str, Optional[float]]:
        """``<span>.calls`` and ``<span>.self_s`` for every name in
        ``spec.SPANS``; ``None`` for a span whose target is gone."""
        out: Dict[str, Optional[float]] = {}
        for idx, name in enumerate(self.names):
            if name not in spec.SPANS:
                continue
            gone = name in self.missing
            out[f"{name}.calls"] = None if gone else self.calls[idx]
            out[f"{name}.self_s"] = None if gone else self.self_s[idx]
        return out

    @property
    def attributed_frac(self) -> float:
        """Share of the traced op time that layer spans account for."""
        return 1.0 - self.op_self / self.op_wall if self.op_wall else 0.0

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (id, parent, root, name,
        start, end), after a header line naming the missing targets."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"trace_missing": self.missing, "spans": len(self._ids)}) + "\n")
            names = self.names
            for i in range(len(self._ids)):
                fh.write(
                    f'{{"id":{self._ids[i]},"parent":{self._parents[i]},'
                    f'"root":{self._roots[i]},"name":"{names[self._name_idx[i]]}",'
                    f'"start":{self._starts[i]!r},"end":{self._ends[i]!r}}}\n'
                )
