"""MetricsRegistry: instrument semantics, labels, export, diffing."""

from __future__ import annotations

import math

import pytest

from repro.obs import Histogram, MetricsRegistry, default_buckets


class TestCounter:
    def test_inc_and_value(self):
        c = MetricsRegistry().counter("a.b.c")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_inc_raises(self):
        c = MetricsRegistry().counter("a.b.c")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_set_for_facade_aliasing(self):
        c = MetricsRegistry().counter("a.b.c")
        c.set(42)
        assert c.value == 42

    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_reset(self):
        c = MetricsRegistry().counter("x")
        c.inc(3)
        c.reset()
        assert c.value == 0


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("net.connections.open")
        g.set(5)
        g.inc()
        g.dec(2)
        assert g.value == 4

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")


class TestHistogram:
    def test_default_buckets_are_log_scale(self):
        bounds = default_buckets(start=1.0, factor=2.0, count=4)
        assert bounds == (1.0, 2.0, 4.0, 8.0)

    def test_bad_bucket_params_raise(self):
        with pytest.raises(ValueError):
            default_buckets(start=0.0)
        with pytest.raises(ValueError):
            default_buckets(factor=1.0)
        with pytest.raises(ValueError):
            default_buckets(count=0)

    def test_unsorted_bounds_raise(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", bounds=(2.0, 1.0))

    def test_observe_accumulates(self):
        h = MetricsRegistry().histogram("h", bounds=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(55.5)
        assert h.mean == pytest.approx(18.5)
        assert h.min == 0.5
        assert h.max == 50.0

    def test_cumulative_buckets_end_at_inf(self):
        h = MetricsRegistry().histogram("h", bounds=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        cumulative = h.cumulative_buckets()
        assert cumulative == [(1.0, 1), (10.0, 2), (math.inf, 3)]

    def test_value_dict_shape(self):
        h = MetricsRegistry().histogram("h", bounds=(1.0,))
        h.observe(0.25)
        d = h.value_dict()
        assert d["count"] == 1
        assert d["sum"] == 0.25
        assert d["buckets"]["+Inf"] == 1

    def test_empty_histogram_min_max_are_zero(self):
        d = MetricsRegistry().histogram("h").value_dict()
        assert d["min"] == 0.0 and d["max"] == 0.0 and d["count"] == 0


class TestTimer:
    def test_time_context_manager_observes(self):
        t = MetricsRegistry().timer("server.op.latency")
        with t.time():
            pass
        assert t.count == 1
        assert t.sum >= 0.0

    def test_timer_is_histogram(self):
        assert isinstance(MetricsRegistry().timer("t"), Histogram)


class TestLabels:
    def test_labeled_child_is_distinct_and_cached(self):
        registry = MetricsRegistry()
        parent = registry.counter("server.op.count")
        child = parent.labels(op="search")
        assert child is not parent
        assert child is parent.labels(op="search")
        assert child is registry.counter("server.op.count", op="search")

    def test_full_name_renders_labels(self):
        child = MetricsRegistry().counter("server.op.count").labels(op="add")
        assert child.full_name == 'server.op.count{op="add"}'

    def test_labeled_timer_inherits_bounds(self):
        registry = MetricsRegistry()
        parent = registry.histogram("h", bounds=(1.0, 2.0))
        child = parent.labels(op="x")
        assert child.bounds == parent.bounds

    def test_counts_are_independent(self):
        parent = MetricsRegistry().counter("c")
        a, b = parent.labels(op="a"), parent.labels(op="b")
        a.inc(3)
        b.inc(1)
        assert (a.value, b.value, parent.value) == (3, 1, 0)


class TestRegistryExport:
    def test_to_dict_is_flat_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b").inc(2)
        registry.gauge("a").set(1.5)
        registry.counter("b", op="x").inc()
        d = registry.to_dict()
        assert d == {"a": 1.5, "b": 2, 'b{op="x"}': 1}
        assert list(d) == ["a", "b", 'b{op="x"}']

    def test_get_and_len(self):
        registry = MetricsRegistry()
        registry.counter("a")
        assert registry.get("a").value == 0
        assert registry.get("missing") is None
        assert len(registry) == 1

    def test_registry_reset_zeroes_everything(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(5)
        registry.histogram("h").observe(1.0)
        registry.reset()
        assert registry.to_dict()["a"] == 0
        assert registry.to_dict()["h"]["count"] == 0

    def test_to_dict_is_detached(self):
        # The e2e harness diffs two to_dict() frames of one registry.
        registry = MetricsRegistry()
        c = registry.counter("a")
        h = registry.histogram("h", bounds=(1.0,))
        c.inc(1)
        h.observe(0.5)
        frame = registry.to_dict()
        c.inc(10)
        h.observe(2.0)
        assert frame["a"] == 1
        assert frame["h"]["count"] == 1 and frame["h"]["buckets"]["+Inf"] == 1

    def test_prometheus_text(self):
        registry = MetricsRegistry()
        registry.counter("net.traffic.round_trips").inc(2)
        registry.counter("server.op.count", op="search").inc()
        h = registry.histogram("h", bounds=(1.0,))
        h.observe(0.5)
        text = registry.to_prometheus_text()
        assert "# TYPE net_traffic_round_trips counter" in text
        assert "net_traffic_round_trips 2" in text
        assert 'server_op_count{op="search"} 1' in text
        assert 'h_bucket{le="1.0"} 1' in text
        assert 'h_bucket{le="+Inf"} 1' in text
        assert "h_sum 0.5" in text
        assert "h_count 1" in text
        assert text.endswith("\n")

    def test_prometheus_timer_exported_as_histogram(self):
        registry = MetricsRegistry()
        registry.timer("t")
        assert "# TYPE t histogram" in registry.to_prometheus_text()

    def test_iteration_yields_instruments(self):
        registry = MetricsRegistry()
        registry.counter("a")
        registry.gauge("b")
        kinds = [i.kind for i in registry]
        assert kinds == ["counter", "gauge"]
