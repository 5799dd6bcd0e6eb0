"""Unified observability: metrics registry + tracing spans.

The measurement substrate every layer reports through:

* :mod:`repro.obs.registry` — named :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` / :class:`Timer` instruments with hierarchical
  names and labeled children, grouped in a :class:`MetricsRegistry`
  with ``to_dict`` / ``to_prometheus_text`` exporters;
* :mod:`repro.obs.tracing` — ``span("layer.component.phase")`` context
  managers recording nested durations and counts, no-ops unless a
  :class:`TraceCollector` is installed.

Naming conventions, the full instrument table and worked examples live
in docs/OBSERVABILITY.md.
"""

from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    default_buckets,
)
from .tracing import (
    SpanRecord,
    TraceCollector,
    collecting,
    get_collector,
    install_collector,
    span,
    uninstall_collector,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    "default_buckets",
    "span",
    "SpanRecord",
    "TraceCollector",
    "install_collector",
    "uninstall_collector",
    "get_collector",
    "collecting",
]
