"""Lightweight tracing spans for the simulation's phase accounting.

``span("sync.resync.history_scan")`` opens a context manager that — when
a :class:`TraceCollector` is installed — records the block's wall-clock
duration, its nesting path (``parent>child``), and any counts attached
with :meth:`SpanHandle.add`.  With **no collector installed** (the
module-level default) ``span()`` returns a shared no-op handle: one
global read and a constant-returning call, so instrumented hot paths
cost essentially nothing in normal runs (the <5% overhead budget of
docs/OBSERVABILITY.md §4).

Usage::

    from repro.obs import span, TraceCollector, collecting

    with collecting() as trace:          # install for one block
        with span("sync.resync.poll", mode="poll") as sp:
            updates = do_poll()
            sp.add("entries_emitted", len(updates))
    trace.aggregate()                    # {path: {count, total_s, ...}}

Span names follow the same ``layer.component.phase`` convention as
metric names; the full naming table lives in docs/OBSERVABILITY.md.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List, Optional

__all__ = [
    "span",
    "SpanRecord",
    "TraceCollector",
    "install_collector",
    "uninstall_collector",
    "get_collector",
    "collecting",
]

_collector: Optional["TraceCollector"] = None


class SpanRecord:
    """One finished span: name, nesting path, duration, attached counts."""

    __slots__ = ("name", "path", "duration_s", "counts", "attrs")

    def __init__(
        self,
        name: str,
        path: str,
        duration_s: float,
        counts: Dict[str, float],
        attrs: Dict[str, str],
    ):
        self.name = name
        self.path = path
        self.duration_s = duration_s
        self.counts = counts
        self.attrs = attrs

    def __repr__(self) -> str:
        return f"SpanRecord({self.path!r}, {self.duration_s * 1e3:.3f}ms)"


class _NullSpan:
    """Shared do-nothing handle returned when no collector is installed."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def add(self, _key: str, _amount: float = 1) -> None:
        pass


_NULL_SPAN = _NullSpan()


class SpanHandle:
    """A live span: times its block and carries attached counts."""

    __slots__ = ("_collector", "name", "attrs", "_counts", "_start")

    def __init__(self, collector: "TraceCollector", name: str, attrs: Dict[str, str]):
        self._collector = collector
        self.name = name
        self.attrs = attrs
        self._counts: Dict[str, float] = {}
        self._start = 0.0

    def add(self, key: str, amount: float = 1) -> None:
        """Attach a named count to this span (summed in aggregation)."""
        self._counts[key] = self._counts.get(key, 0) + amount

    def __enter__(self) -> "SpanHandle":
        self._collector._push(self.name)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        duration = perf_counter() - self._start
        self._collector._pop(self, duration)
        return False


class TraceCollector:
    """Records finished spans and aggregates them by nesting path.

    The collector keeps an explicit stack (the simulation is
    single-threaded), so a span opened inside another is recorded under
    the composite path ``outer>inner`` — nested durations stay
    attributable to their phase.
    """

    def __init__(self, max_records: int = 100_000):
        self.max_records = max_records
        self.records: List[SpanRecord] = []
        self.dropped = 0
        self._stack: List[str] = []
        self._aggregate: Dict[str, Dict[str, float]] = {}

    # ------------------------------------------------------------------
    # span lifecycle (driven by SpanHandle)
    # ------------------------------------------------------------------
    def _push(self, name: str) -> None:
        self._stack.append(name)

    def _pop(self, handle: SpanHandle, duration_s: float) -> None:
        path = ">".join(self._stack)
        if self._stack:
            self._stack.pop()
        agg = self._aggregate.get(path)
        if agg is None:
            agg = {"count": 0, "total_s": 0.0, "max_s": 0.0}
            self._aggregate[path] = agg
        agg["count"] += 1
        agg["total_s"] += duration_s
        if duration_s > agg["max_s"]:
            agg["max_s"] = duration_s
        for key, amount in handle._counts.items():
            agg[key] = agg.get(key, 0) + amount
        if len(self.records) < self.max_records:
            self.records.append(
                SpanRecord(handle.name, path, duration_s, handle._counts, handle.attrs)
            )
        else:
            self.dropped += 1

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per-path totals: count, total_s, max_s plus attached counts."""
        return {path: dict(stats) for path, stats in self._aggregate.items()}

    def paths(self) -> List[str]:
        return sorted(self._aggregate)

    def count(self, path: str) -> int:
        """Finished-span count at *path* (0 when never entered)."""
        return int(self._aggregate.get(path, {}).get("count", 0))

    def total_seconds(self, path: str) -> float:
        return float(self._aggregate.get(path, {}).get("total_s", 0.0))

    def clear(self) -> None:
        self.records.clear()
        self.dropped = 0
        self._stack.clear()
        self._aggregate.clear()

    def to_dict(self) -> Dict[str, Dict[str, float]]:
        return self.aggregate()


def span(name: str, **attrs: str):
    """A context manager timing one named phase.

    No-op (a shared constant handle) unless a collector is installed —
    safe to leave in hot paths.
    """
    collector = _collector
    if collector is None:
        return _NULL_SPAN
    return SpanHandle(collector, name, attrs)


def install_collector(collector: TraceCollector) -> TraceCollector:
    """Make *collector* receive every span until uninstalled."""
    global _collector
    _collector = collector
    return collector


def uninstall_collector() -> None:
    global _collector
    _collector = None


def get_collector() -> Optional[TraceCollector]:
    return _collector


@contextmanager
def collecting(collector: Optional[TraceCollector] = None):
    """Install a collector for one ``with`` block (restores the prior one)."""
    global _collector
    previous = _collector
    active = collector if collector is not None else TraceCollector()
    _collector = active
    try:
        yield active
    finally:
        _collector = previous
