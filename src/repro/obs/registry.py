"""Metrics registry — named instruments for every layer of the stack.

The repository's measurement needs (docs/OBSERVABILITY.md) are served
by four instrument kinds, all dependency-free and cheap enough for the
simulation hot paths:

* :class:`Counter` — monotonically increasing count (``inc``); an
  explicit ``set`` exists only to mirror a count kept elsewhere (an
  ``lru_cache``'s statistics) into the registry.
* :class:`Gauge` — a value that goes up and down (``set``/``inc``/``dec``).
* :class:`Histogram` — fixed log-scale buckets (each bound a constant
  multiple of the previous), recording count, sum and per-bucket
  occupancy.
* :class:`Timer` — a histogram of seconds fed by a context manager.

Instruments have **hierarchical dotted names** (``layer.component.metric``,
e.g. ``sync.resync.entries_sent``) and optional **labels**: calling
``instrument.labels(op="search")`` returns a child instrument of the
same kind registered under the same name plus the label set, so one
logical metric fans out into per-dimension series.

A :class:`MetricsRegistry` is the unit of isolation — every
:class:`~repro.server.network.SimulatedNetwork` and
:class:`~repro.server.directory.DirectoryServer` owns one, so parallel
experiments never share counters.  Fault injection
(``net.fault.*``, :mod:`repro.server.faults`) and consumer resilience
(``sync.resilient.*``, :mod:`repro.sync.resilient`) record into the
owning network's registry under this same scheme — the per-``kind``
fault series are label children, per docs/PROTOCOL.md §9.
Exporters: :meth:`~MetricsRegistry.to_dict`
(JSON-friendly) and :meth:`~MetricsRegistry.to_prometheus_text`
(Prometheus exposition format, dots mapped to underscores).
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    "default_buckets",
]

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _label_suffix(labels: LabelKey) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + inner + "}"


def default_buckets(
    start: float = 1e-6, factor: float = 4.0, count: int = 12
) -> Tuple[float, ...]:
    """Log-scale bucket bounds: ``start * factor**i`` for i in [0, count).

    The default spans 1µs … ~16.8s in twelve ×4 steps — wide enough for
    every simulated operation while keeping bucket search trivial.
    """
    if start <= 0 or factor <= 1 or count < 1:
        raise ValueError("buckets need start > 0, factor > 1, count >= 1")
    return tuple(start * factor**i for i in range(count))


class Instrument:
    """Base: a named, optionally labeled instrument inside one registry."""

    kind = "instrument"

    def __init__(self, registry: "MetricsRegistry", name: str, labels: LabelKey = ()):
        self._registry = registry
        self.name = name
        self.label_values: LabelKey = labels

    def labels(self, **labels: str) -> "Instrument":
        """The child instrument for this label set (get-or-create)."""
        merged = dict(self.label_values)
        merged.update({k: str(v) for k, v in labels.items()})
        return self._registry._get_or_create(
            type(self), self.name, _label_key(merged), template=self
        )

    @property
    def full_name(self) -> str:
        """Name plus rendered labels, e.g. ``server.op.latency{op="search"}``."""
        return self.name + _label_suffix(self.label_values)

    def value_dict(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def reset(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError


class Counter(Instrument):
    """Monotonic count. ``set`` exists only to mirror an external count."""

    kind = "counter"

    def __init__(self, registry, name, labels=()):
        super().__init__(registry, name, labels)
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount

    def set(self, value: int) -> None:
        """Overwrite the count — for syncing externally maintained
        counts (e.g. ``lru_cache`` statistics); instrumentation that
        counts events itself should only ever :meth:`inc`."""
        self.value = value

    def reset(self) -> None:
        self.value = 0

    def value_dict(self):
        return self.value


class Gauge(Instrument):
    """A value that can go up and down (sizes, open connections)."""

    kind = "gauge"

    def __init__(self, registry, name, labels=()):
        super().__init__(registry, name, labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def reset(self) -> None:
        self.value = 0.0

    def value_dict(self):
        return self.value


class Histogram(Instrument):
    """Fixed log-scale buckets; records count, sum, min, max, occupancy.

    ``bounds`` are the *upper* bounds of each finite bucket; one
    implicit +Inf bucket catches the tail.  Export is cumulative
    (Prometheus ``le`` convention).
    """

    kind = "histogram"

    def __init__(self, registry, name, labels=(), bounds: Optional[Sequence[float]] = None):
        super().__init__(registry, name, labels)
        self.bounds: Tuple[float, ...] = (
            tuple(bounds) if bounds is not None else default_buckets()
        )
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be sorted ascending")
        self._bucket_counts = [0] * (len(self.bounds) + 1)  # +Inf tail
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self._bucket_counts[i] += 1
                return
        self._bucket_counts[-1] += 1

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """(upper bound, cumulative count) pairs, ending with +Inf."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.bounds, self._bucket_counts):
            running += n
            out.append((bound, running))
        out.append((math.inf, self.count))
        return out

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def reset(self) -> None:
        self._bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def value_dict(self):
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "buckets": {
                ("+Inf" if math.isinf(b) else repr(b)): n
                for b, n in self.cumulative_buckets()
            },
        }


class Timer(Histogram):
    """A histogram of durations in seconds, fed by ``with timer.time():``."""

    kind = "timer"

    class _Timing:
        __slots__ = ("_timer", "_start")

        def __init__(self, timer: "Timer"):
            self._timer = timer
            self._start = 0.0

        def __enter__(self) -> "Timer._Timing":
            from time import perf_counter

            self._start = perf_counter()
            return self

        def __exit__(self, *exc) -> bool:
            from time import perf_counter

            self._timer.observe(perf_counter() - self._start)
            return False

    def time(self) -> "Timer._Timing":
        """Context manager observing the elapsed seconds of its block."""
        return Timer._Timing(self)


class MetricsRegistry:
    """Get-or-create home of named instruments.

    ``counter``/``gauge``/``histogram``/``timer`` return the existing
    instrument when the (name, labels) pair is already registered; a
    name registered under a different kind raises ``ValueError`` —
    names are global within a registry, exactly like Prometheus.
    """

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, LabelKey], Instrument] = {}

    # ------------------------------------------------------------------
    # factories
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: str) -> Counter:
        return self._get_or_create(Counter, name, _label_key(labels))

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get_or_create(Gauge, name, _label_key(labels))

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None, **labels: str
    ) -> Histogram:
        return self._get_or_create(Histogram, name, _label_key(labels), bounds=bounds)

    def timer(self, name: str, **labels: str) -> Timer:
        return self._get_or_create(Timer, name, _label_key(labels))

    def _get_or_create(self, cls, name, labels: LabelKey, template=None, bounds=None):
        key = (name, labels)
        existing = self._instruments.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"{name!r} already registered as {existing.kind}, "
                    f"requested {cls.kind}"
                )
            return existing
        if cls is Histogram or cls is Timer:
            if bounds is None and isinstance(template, Histogram):
                bounds = template.bounds
            instrument = cls(self, name, labels, bounds=bounds)
        else:
            instrument = cls(self, name, labels)
        self._instruments[key] = instrument
        return instrument

    # ------------------------------------------------------------------
    # inspection and export
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Instrument]:
        return iter(
            sorted(self._instruments.values(), key=lambda i: (i.name, i.label_values))
        )

    def __len__(self) -> int:
        return len(self._instruments)

    def get(self, name: str, **labels: str) -> Optional[Instrument]:
        """The instrument at (name, labels), or None."""
        return self._instruments.get((name, _label_key(labels)))

    def reset(self) -> None:
        """Zero every instrument (bucket layouts are preserved)."""
        for instrument in self._instruments.values():
            instrument.reset()

    def to_dict(self) -> Dict[str, object]:
        """Flat JSON-friendly mapping ``full name -> value``.

        Counters and gauges map to numbers; histograms and timers map
        to ``{count, sum, mean, min, max, buckets}`` sub-dicts.
        """
        return {i.full_name: i.value_dict() for i in self}

    def to_prometheus_text(self) -> str:
        """Prometheus exposition format (name dots become underscores)."""
        lines: List[str] = []
        seen_types: set = set()
        for instrument in self:
            pname = instrument.name.replace(".", "_").replace("-", "_")
            if pname not in seen_types:
                kind = "histogram" if instrument.kind == "timer" else instrument.kind
                lines.append(f"# TYPE {pname} {kind}")
                seen_types.add(pname)
            labels = instrument.label_values
            if isinstance(instrument, Histogram):
                for bound, cum in instrument.cumulative_buckets():
                    le = "+Inf" if math.isinf(bound) else repr(bound)
                    lab = _label_suffix(labels + (("le", le),))
                    lines.append(f"{pname}_bucket{lab} {cum}")
                lab = _label_suffix(labels)
                lines.append(f"{pname}_sum{lab} {instrument.sum}")
                lines.append(f"{pname}_count{lab} {instrument.count}")
            else:
                lab = _label_suffix(labels)
                lines.append(f"{pname}{lab} {instrument.value}")
        return "\n".join(lines) + ("\n" if lines else "")

