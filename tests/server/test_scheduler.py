"""The deterministic scheduler under the network transport.

docs/TRANSPORT.md §2's determinism contract: same seed + same schedule
of calls → identical execution order, clock trajectory and instrument
values, across runs.  asyncio could not promise this; the explicit
run-queue must.
"""

import pytest

from repro.obs.registry import MetricsRegistry
from repro.server.scheduler import DeterministicScheduler


class TestOrdering:
    def test_events_run_in_due_time_order(self):
        sched = DeterministicScheduler(seed=1)
        ran = []
        sched.call_later(30.0, ran.append, "c")
        sched.call_later(10.0, ran.append, "a")
        sched.call_later(20.0, ran.append, "b")
        sched.run_until_idle()
        assert ran == ["a", "b", "c"]
        assert sched.now == 30.0

    def test_call_soon_runs_at_current_time(self):
        sched = DeterministicScheduler()
        ran = []
        sched.call_later(5.0, ran.append, "later")
        sched.call_soon(ran.append, "soon")
        assert sched.run_next()
        assert ran == ["soon"]
        assert sched.now == 0.0

    def test_same_due_time_order_is_seed_stable(self):
        def order(seed):
            sched = DeterministicScheduler(seed=seed)
            ran = []
            for name in "abcdefgh":
                sched.call_later(1.0, ran.append, name)
            sched.run_until_idle()
            return ran

        assert order(7) == order(7)  # replayable
        # Different seeds shuffle ties differently for at least one of
        # a handful of seeds (statistically certain with 8 events).
        assert any(order(s) != order(7) for s in range(6))

    def test_clock_never_runs_backwards(self):
        sched = DeterministicScheduler()
        seen = []
        sched.call_later(10.0, lambda: (seen.append(sched.now), sched.call_soon(lambda: seen.append(sched.now))))
        sched.call_later(10.0, lambda: seen.append(sched.now))
        sched.run_until_idle()
        assert seen == sorted(seen)
        assert sched.now == 10.0

    def test_callback_scheduling_more_work(self):
        sched = DeterministicScheduler()
        ran = []

        def step(n):
            ran.append(n)
            if n < 3:
                sched.call_later(1.0, step, n + 1)

        sched.call_soon(step, 0)
        sched.run_until_idle()
        assert ran == [0, 1, 2, 3]
        assert sched.now == 3.0


class TestControl:
    def test_cancel(self):
        sched = DeterministicScheduler()
        ran = []
        event = sched.call_later(1.0, ran.append, "x")
        sched.call_later(2.0, ran.append, "y")
        sched.cancel(event)
        assert sched.pending == 1
        sched.run_until_idle()
        assert ran == ["y"]

    def test_negative_delay_rejected(self):
        sched = DeterministicScheduler()
        with pytest.raises(ValueError):
            sched.call_later(-1.0, lambda: None)

    def test_run_for_window(self):
        sched = DeterministicScheduler()
        ran = []
        sched.call_later(5.0, ran.append, "in")
        sched.call_later(15.0, ran.append, "out")
        assert sched.run_for(10.0) == 1
        assert ran == ["in"]
        assert sched.now == 10.0  # advanced to the deadline
        assert sched.pending == 1
        sched.run_until_idle()
        assert ran == ["in", "out"]

    def test_runaway_backstop(self):
        sched = DeterministicScheduler()

        def forever():
            sched.call_soon(forever)

        sched.call_soon(forever)
        with pytest.raises(RuntimeError):
            sched.run_until_idle(max_events=100)

    def test_idle_empty(self):
        sched = DeterministicScheduler()
        assert sched.idle
        assert not sched.run_next()


class TestDeterminism:
    def test_two_runs_identical_order_clock_and_metrics(self):
        def run():
            registry = MetricsRegistry()
            sched = DeterministicScheduler(seed=99, registry=registry)
            trace = []

            def tick(name):
                trace.append((name, sched.now))
                if len(trace) < 40:
                    # same-due fan-out: exercises tie-breaking
                    sched.call_later(2.0, tick, name + "x")
                    sched.call_later(2.0, tick, name + "y")

            sched.call_soon(tick, "r")
            sched.run_until_idle()
            return trace, sched.now, sched.events_run, registry.to_dict()

        first = run()
        second = run()
        assert first == second

    def test_metrics_registered(self):
        registry = MetricsRegistry()
        sched = DeterministicScheduler(registry=registry)
        sched.call_later(4.0, lambda: None)
        sched.run_until_idle()
        assert registry.counter("net.sched.events").value == 1
        assert registry.gauge("net.sched.now_ms").value == 4.0


class TestCallAt:
    def test_absolute_time_scheduling(self):
        sched = DeterministicScheduler(seed=1)
        ran = []
        sched.call_at(50.0, ran.append, "late")
        sched.call_at(10.0, ran.append, "early")
        sched.run_until_idle()
        assert ran == ["early", "late"]
        assert sched.now == 50.0

    def test_past_due_time_clamps_to_now(self):
        sched = DeterministicScheduler()
        sched.call_later(25.0, lambda: None)
        sched.run_until_idle()
        assert sched.now == 25.0
        ran = []
        sched.call_at(10.0, ran.append, "past")  # already behind the clock
        sched.run_until_idle()
        assert ran == ["past"]
        assert sched.now == 25.0  # ran immediately, no time travel
