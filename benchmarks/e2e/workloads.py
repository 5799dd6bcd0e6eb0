"""The five workloads: inputs, set-up, the timed loop, its checks.

Each workload is one closed loop — a single client or writer that sends
its next op only when the previous one is done — over objects built by
:mod:`build`.  The loop times ops through a :class:`Meter`; everything
the loop does between ``begin`` and ``end`` is inside the measurement,
everything else (drawing the next input, verification against the
master) is outside it.
"""

from __future__ import annotations

import random
from collections import defaultdict
from statistics import median
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from . import build, spec

#: Seconds of timed work between two runs of the control loop.
CONTROL_EVERY_S = 0.1
#: What the control loop takes on the calibration machine (README.md)
#: in its usual state; a wall-clock metric is reported as if the machine
#: had run the control loop in exactly this time throughout.
CONTROL_NOMINAL_S = 0.0027


def control_loop() -> float:
    """Seconds a fixed piece of interpreter work takes right now.

    The benchmark shares a two-core box: for seconds at a time the same
    code runs a quarter faster or slower, depending on what else the
    core is doing.  No change to the program can move this loop, so the
    ratio of its time to :data:`CONTROL_NOMINAL_S` is the machine's
    speed at this moment and nothing else.
    """
    started = perf_counter()
    table: Dict[int, int] = {}
    total = 0
    for i in range(30000):
        total += (i * 7) % 13
        table[i & 1023] = total
    return perf_counter() - started


def speed_factor(control_samples: Sequence[float]) -> float:
    """How much slower than nominal the machine ran (1.0 == nominal)."""
    return sum(control_samples) / len(control_samples) / CONTROL_NOMINAL_S


#: one chased miss in this many is compared with the master's answer
MISS_CHECK_EVERY = 20
#: one hit in this many is compared where the replica cannot be stale
HIT_CHECK_EVERY = 200


class Meter:
    """Wall time by op kind, cut into segments; attempts and failures.

    Between ops, every :data:`CONTROL_EVERY_S` of timed work, the meter
    runs :func:`control_loop`; each segment's statistics are divided by
    the segment's speed factor, so they read as at nominal machine speed.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.segments: List[Dict[str, List[float]]] = []
        self.controls: List[List[float]] = []
        self._current: Dict[str, List[float]] = {}
        self._next_control = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: exact counts the loop keeps (round trips, bytes, tiers, ...)
        self.facts: Dict[str, float] = defaultdict(float)
        #: called between segments (the traced pass samples queue depths)
        self.on_segment: Optional[Callable[[], None]] = None

    def segment(self) -> None:
        if self.segments and self.on_segment is not None:
            self.on_segment()
        self._current = defaultdict(list)
        self.segments.append(self._current)
        self.controls.append([control_loop()])
        self._next_control = perf_counter() + CONTROL_EVERY_S

    def begin(self, kind: str) -> float:
        if self.tracer is not None:
            self.tracer.begin_op(kind)
        return perf_counter()

    def end(self, kind: str, started: float) -> float:
        now = perf_counter()
        elapsed = now - started
        if self.tracer is not None:
            self.tracer.end_op()
        self._current[kind].append(elapsed)
        if now >= self._next_control:
            self.controls[-1].append(control_loop())
            self._next_control = perf_counter() + CONTROL_EVERY_S
        return elapsed

    def note(self, kind: str, value: float) -> None:
        """Keep a sample that is not itself a timed op (an event total)."""
        self._current[kind].append(value)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)

    # ------------------------------------------------------------------
    # median-segment statistics: (median, min, max) over the segments
    # ------------------------------------------------------------------
    def _over_segments(self, per_segment: Callable[[Dict[str, List[float]], float], Optional[float]]):
        """*per_segment*(samples by kind, speed factor) over the segments."""
        factors = map(speed_factor, self.controls)
        values = [v for v in map(per_segment, self.segments, factors) if v is not None]
        if not values:
            return None
        return (median(values), min(values), max(values))

    @property
    def speed_factor(self) -> float:
        """The whole window's speed factor (printed beside the metrics)."""
        return speed_factor([c for segment in self.controls for c in segment])

    def rate(self, count_kinds: Sequence[str], wall_kinds: Optional[Sequence[str]], per: float = 1.0):
        """Ops of *count_kinds* (times *per*) per second of the summed
        wall time of *wall_kinds* (None: of everything timed)."""

        def one(segment, factor):
            kinds = wall_kinds if wall_kinds is not None else [k for k in segment if k[0] != "_"]
            wall = sum(sum(segment.get(k, ())) for k in kinds)
            count = sum(len(segment.get(k, ())) for k in count_kinds)
            return count * per / (wall / factor) if wall and count else None

        return self._over_segments(one)

    def p50_us(self, kinds: Sequence[str], per: float = 1.0):
        def one(segment, factor):
            samples = [s for k in kinds for s in segment.get(k, ())]
            return median(samples) * 1e6 / per / factor if samples else None

        return self._over_segments(one)

    def p99_us(self, kinds: Sequence[str]) -> float:
        samples = sorted(s for seg in self.segments for k in kinds for s in seg.get(k, ()))
        return samples[int(0.99 * (len(samples) - 1))] * 1e6 if samples else 0.0

    def count(self, kinds: Sequence[str]) -> int:
        return sum(len(seg.get(k, ())) for seg in self.segments for k in kinds)

    def wall(self) -> float:
        """Everything timed, at nominal machine speed."""
        return sum(
            sum(samples) / speed_factor(controls)
            for seg, controls in zip(self.segments, self.controls)
            for k, samples in seg.items()
            if not k.startswith("_")
        )


def same_answer(got: Iterable, want: Iterable) -> bool:
    """Entry-for-entry equality of two search answers."""
    want_by_dn = {e.dn: e for e in want}
    got = list(got)
    return len(got) == len(want_by_dn) and all(
        e.dn in want_by_dn and e.semantically_equal(want_by_dn[e.dn]) for e in got
    )


QUERY_KINDS = ("query_hit", "query_miss")


def query_metrics(meter: Meter) -> Dict[str, object]:
    """The client-side metrics of a workload whose loop times queries."""
    queries = meter.count(QUERY_KINDS)
    return {
        "queries_per_s": meter.rate(QUERY_KINDS, QUERY_KINDS),
        "query_hit_p50_us": meter.p50_us(("query_hit",)),
        "query_miss_p50_us": meter.p50_us(("query_miss",)),
        "hit_ratio": meter.count(("query_hit",)) / queries,
        "round_trips_per_query": meter.facts["round_trips"] / queries,
    }


def sync_metrics(meter: Meter) -> Dict[str, object]:
    """Replication traffic per master update: whatever crossed the wire
    during the window that was not a client's search result."""
    facts = meter.facts
    return {
        "sync_bytes_per_update": (facts["wire_bytes"] - facts["client_bytes"]) / facts["updates"],
        "sync_pdus_per_update": facts["sync_pdus"] / facts["updates"],
    }


def segments_of(total: int) -> List[range]:
    """*total* ops as :data:`spec.SEGMENTS` equal ranges."""
    each = total // spec.SEGMENTS
    return [range(s * each, (s + 1) * each) for s in range(spec.SEGMENTS)]


class Workload:
    """One workload: how its inputs, system and timed loop are made."""

    name: str
    #: op kinds that count as ops / whose latency is ``op_p50_us``
    op_kinds: Tuple[str, ...]
    primary_kinds: Tuple[str, ...]
    #: ops one sample of a primary kind stands for (a burst of updates)
    primary_per: float = 1.0

    def __init__(self, scale: float = 1.0, seconds: float = spec.RUN_SECONDS):
        self.sizes = spec.scaled(self.name, scale, seconds)

    def inputs(self, seed: int) -> build.Inputs:
        raise NotImplementedError

    def setup(self, inputs: build.Inputs):
        raise NotImplementedError

    def run(self, system, inputs: build.Inputs, meter: Meter) -> None:
        raise NotImplementedError

    def metrics(self, system, inputs: build.Inputs, meter: Meter) -> Dict[str, object]:
        """The by-class end-to-end metrics this workload reports."""
        raise NotImplementedError

    def view(self, system) -> Dict[str, object]:
        """The objects whose public counters the per-layer pass reads."""
        raise NotImplementedError

    def replica_size_frac(self, system, inputs: build.Inputs) -> float:
        raise NotImplementedError


# ----------------------------------------------------------------------
# branch_read / wide_read
# ----------------------------------------------------------------------
class ReadWorkload(Workload):
    """One client replays day 2 against a replica frontend; a miss
    chases the referral to the master and feeds the recent-query cache."""

    op_kinds = QUERY_KINDS + ("commit",)
    primary_kinds = QUERY_KINDS
    update_every = 0
    sync_every = 0

    def inputs(self, seed):
        sizes = self.sizes
        inputs = build.make_inputs(seed, sizes.employees, sizes.train, sizes.ops)
        inputs.filters = self.select_filters(inputs)
        return inputs

    def select_filters(self, inputs):
        raise NotImplementedError

    def setup(self, inputs):
        return build.build_read_system(inputs, self.sizes.cache)

    def run(self, system, inputs, meter):
        client, url, replica = system.client, system.url, system.replica
        master, stats = system.master, system.network.stats
        facts = meter.facts
        queries = inputs.queries
        fresh_check_due = self.update_every == 0
        hits = misses = 0
        for segment in segments_of(len(queries)):
            meter.segment()
            for i in segment:
                request = queries[i]
                sent = stats.bytes_sent
                started = meter.begin("query")
                result = client.search(url, request)
                hit = result.round_trips == 1
                if not hit:
                    replica.observe_miss(request, result.entries)
                meter.end("query_hit" if hit else "query_miss", started)
                meter.attempted += 1
                facts["round_trips"] += result.round_trips
                facts["client_bytes"] += stats.bytes_sent - sent
                if hit:
                    hits += 1
                    if self.update_every == 0:
                        # Nothing changes at the master: every hit,
                        # cached ones too, must be the master's answer.
                        if hits % HIT_CHECK_EVERY == 0:
                            self.check_answer(meter, master, request, result)
                    elif fresh_check_due and build.held_by_stored_filter(replica, request):
                        # First stored-filter hit after a sync: the
                        # replica is known fresh, so QC soundness says
                        # the answer equals the master's.
                        self.check_answer(meter, master, request, result)
                        fresh_check_due = False
                else:
                    misses += 1
                    if misses % MISS_CHECK_EVERY == 0:
                        self.check_answer(meter, master, request, result)
                done = i + 1
                if self.update_every and done % self.update_every == 0:
                    started = meter.begin("update")
                    committed = system.updates.apply(1)
                    meter.end("commit", started)
                    meter.check(committed == 1, "update did not commit")
                    facts["updates"] += committed
                    fresh_check_due = False
                if self.sync_every and done % self.sync_every == 0:
                    self.sync(system, meter)
                    fresh_check_due = True
        if self.sync_every:
            # So the measured traffic covers every update.
            self.sync(system, meter)
        for stored in replica.stored_filters():
            meter.check(
                stored.content.matches_master(master),
                f"content of {stored.request} differs from the master",
            )

    @staticmethod
    def check_answer(meter, master, request, result):
        meter.check(
            result.complete and same_answer(result.entries, master.search(request).entries),
            f"answer to {request} differs from the master's",
        )

    @staticmethod
    def sync(system, meter):
        started = meter.begin("sync")
        system.replica.sync(system.provider)
        meter.end("sync", started)

    def metrics(self, system, inputs, meter):
        out = query_metrics(meter)
        if self.update_every:
            out.update(sync_metrics(meter))
        return out

    def view(self, system):
        return {
            "provider": system.provider,
            "network": system.network,
            "replicas": [system.replica],
        }

    def replica_size_frac(self, system, inputs):
        return system.replica.entry_count() / inputs.persons


class BranchRead(ReadWorkload):
    name = "branch_read"
    # Sized so that synchronization stays under 5% of the traced time:
    # this workload is the read path's.
    update_every = 75
    sync_every = 750

    def select_filters(self, inputs):
        return build.static_selection(inputs, budget_entries=inputs.persons // 10)


class WideRead(ReadWorkload):
    name = "wide_read"

    def select_filters(self, inputs):
        return build.wide_selection(inputs, self.sizes.stored)

    def setup(self, inputs):
        system = super().setup(inputs)
        build.warm_cache(system, inputs)
        return system


# ----------------------------------------------------------------------
# fleet_persist
# ----------------------------------------------------------------------
class FleetPersist(Workload):
    """One writer, bursts of updates pushed to every live persist
    session; ``settle()`` runs the virtual clock until all are applied."""

    name = "fleet_persist"
    burst = 10
    probe_every = 200
    probes = 20
    op_kinds = ("burst",)
    primary_kinds = ("burst",)
    primary_per = float(burst)

    def inputs(self, seed):
        inputs = build.make_inputs(seed, self.sizes.employees)
        inputs.requests = build.fleet_requests(inputs, self.sizes.sessions)
        return inputs

    def setup(self, inputs):
        return build.build_persist_fleet(inputs)

    def run(self, system, inputs, meter):
        master, network, contents = system.master, system.network, system.contents
        clock = network.scheduler
        facts = meter.facts
        lags: List[float] = []
        burst_at = [0.0]
        # Lag is measured from outside: the virtual time of the commit
        # burst against the virtual time the consumer callback runs.
        system.on_deliver = lambda update: lags.append(clock.now - burst_at[0])
        bursts = self.sizes.ops // self.burst
        probe = 0
        for segment in segments_of(bursts):
            meter.segment()
            for b in segment:
                burst_at[0] = clock.now
                started = meter.begin("update")
                committed = system.updates.apply(self.burst)
                network.settle()
                meter.end("burst", started)
                meter.check(committed == self.burst, "update did not commit")
                meter.attempted += committed - 1
                facts["updates"] += committed
                if (b + 1) * self.burst % self.probe_every == 0:
                    for _ in range(self.probes):
                        content = contents[probe % len(contents)]
                        probe += 7
                        started = meter.begin("probe")
                        answer = content.evaluate(content.request)
                        meter.end("probe", started)
                        meter.check(
                            same_answer(answer, master.search(content.request).entries),
                            f"probe of {content.request} differs from the master's",
                        )
            # Every tenth content at each segment boundary, rotating.
            offset = len(meter.segments)
            for content in contents[offset::10]:
                meter.check(
                    content.matches_master(master),
                    f"content of {content.request} differs at a segment boundary",
                )
        lags.sort()
        facts["lag_p99"] = lags[int(0.99 * (len(lags) - 1))] if lags else 0.0
        system.on_deliver = None
        for content in contents:
            meter.check(
                content.matches_master(master),
                f"content of {content.request} differs from the master",
            )

    def metrics(self, system, inputs, meter):
        return {
            "updates_per_s": meter.rate(("burst",), ("burst",), per=self.burst),
            "lag_virtual_ms_p99": meter.facts["lag_p99"],
            **sync_metrics(meter),
        }

    def view(self, system):
        return {"provider": system.provider, "network": system.network}

    def replica_size_frac(self, system, inputs):
        held = sum(len(c) for c in system.contents)
        return held / len(system.contents) / inputs.persons


# ----------------------------------------------------------------------
# fleet_poll_mixed
# ----------------------------------------------------------------------
class FleetPollMixed(Workload):
    """Four queries to one update; queries go round-robin over the
    replicas, each replica's selector observes its queries, and replicas
    poll staggered, each every ``poll_every`` updates."""

    name = "fleet_poll_mixed"
    queries_per_update = 4
    poll_every = 40
    revolution_interval = 100
    budget_frac = 0.075
    stale_check_every = 10
    op_kinds = QUERY_KINDS + ("update",)
    primary_kinds = QUERY_KINDS

    def inputs(self, seed):
        sizes = self.sizes
        inputs = build.make_inputs(seed, sizes.employees, sizes.train, sizes.ops)
        hot = build.candidate_hits(inputs.train, [build.SERIAL_BLOCK, build.DEPARTMENT])
        inputs.filters = hot[: sizes.stored * 6]
        return inputs

    def setup(self, inputs):
        return build.build_poll_fleet(
            inputs,
            replicas=self.sizes.replicas,
            filters_each=self.sizes.stored,
            budget_entries=max(30, round(inputs.persons * self.budget_frac)),
            revolution_interval=self.revolution_interval,
        )

    def run(self, system, inputs, meter):
        client, master, provider = system.client, system.master, system.provider
        replicas = system.replicas
        count = len(replicas)
        facts, stats = meter.facts, system.network.stats
        queries = inputs.queries
        # A replica is fresh from its poll until the next master update.
        fresh = [False] * count
        hits = misses = updates = 0
        for segment in segments_of(len(queries)):
            meter.segment()
            for i in segment:
                request = queries[i]
                which = i % count
                target = replicas[which]
                sent = stats.bytes_sent
                started = meter.begin("query")
                result = client.search(target.url, request)
                hit = result.round_trips == 1
                meter.end("query_hit" if hit else "query_miss", started)
                meter.attempted += 1
                facts["round_trips"] += result.round_trips
                facts["client_bytes"] += stats.bytes_sent - sent
                started = meter.begin("select")
                target.selector.observe(request)
                meter.end("select", started)
                if hit:
                    hits += 1
                    if fresh[which] or hits % self.stale_check_every == 0:
                        same = same_answer(result.entries, master.search(request).entries)
                        facts["stale_sampled"] += 1
                        facts["stale"] += not same
                        if fresh[which]:
                            meter.check(same, f"fresh replica's answer to {request} differs")
                            fresh[which] = False
                else:
                    misses += 1
                    if misses % MISS_CHECK_EVERY == 0:
                        ReadWorkload.check_answer(meter, master, request, result)
                if (i + 1) % self.queries_per_update == 0:
                    updates += 1
                    due = [
                        k for k in range(count)
                        if (updates + k * self.poll_every // count) % self.poll_every == 0
                    ]
                    started = meter.begin("update")
                    committed = system.updates.apply(1)
                    for k in due:
                        replicas[k].replica.sync(provider)
                    meter.end("update", started)
                    meter.check(committed == 1, "update did not commit")
                    facts["updates"] += committed
                    fresh = [False] * count
                    for k in due:
                        fresh[k] = True
        started = meter.begin("update")
        for target in replicas:
            target.replica.sync(provider)
        meter.end("final_sync", started)
        for target in replicas:
            for stored in target.replica.stored_filters():
                meter.check(
                    stored.content.matches_master(master),
                    f"{target.replica.name}: content of {stored.request} differs",
                )

    def metrics(self, system, inputs, meter):
        # Here replication traffic includes the selectors' installs.
        return {
            **query_metrics(meter),
            "updates_per_s": meter.rate(("update",), ("update",)),
            **sync_metrics(meter),
            "stale_answer_frac": meter.facts["stale"] / max(1.0, meter.facts["stale_sampled"]),
        }

    def view(self, system):
        return {
            "provider": system.provider,
            "network": system.network,
            "replicas": [r.replica for r in system.replicas],
        }

    def replica_size_frac(self, system, inputs):
        held = sum(r.replica.entry_count() for r in system.replicas)
        return held / len(system.replicas) / inputs.persons


# ----------------------------------------------------------------------
# restart_recovery
# ----------------------------------------------------------------------
class RestartRecovery(Workload):
    """A seeded rotation of failures, each followed by updates and by
    sync cycles until the affected consumers match the master again."""

    name = "restart_recovery"
    events = (
        "snapshot_restart",
        "cold_restart",
        "provider_crash",
        "dead_cookie_small",
        "dead_cookie_large",
        "history_overflow",
    )
    cycle_budget = 12
    updates_between = 10
    op_kinds = ("_event",)
    #: A rotation holds one failure of each kind, so rotations are the
    #: like-for-like unit: ``op_p50_us`` is the median rotation's
    #: recovery time per event (single events run from 2 ms to 0.5 s).
    primary_kinds = ("_rotation",)

    def inputs(self, seed):
        inputs = build.make_inputs(seed, self.sizes.employees)
        inputs.requests = build.recovery_requests(inputs, self.sizes.sessions)
        return inputs

    def setup(self, inputs):
        fleet = build.build_recovery_fleet(inputs)
        for consumer in fleet.consumers:
            consumer.sync_once()
        return fleet

    def run(self, fleet, inputs, meter):
        rng = random.Random(f"events:{inputs.seed}")
        pairs = len(fleet.consumers) // 2  # (poller, persister) per slot
        stats = fleet.network.stats
        tiers = build.RecoveryTiers(fleet)
        for segment in segments_of(self.sizes.ops):
            meter.segment()
            for e in segment:
                rotation, slot = divmod(e, len(self.events))
                if slot == 0:
                    order = rng.sample(self.events, len(self.events))
                    rotation_total = 0.0
                kind = order[slot]
                # The seed orders the failures; whom they hit is fixed,
                # so every seed recovers the same mix of content sizes:
                # a kind walks the fleet in strides, and restarts
                # alternate between a polling and a persisting victim.
                pair = (self.events.index(kind) + 4 * rotation) % pairs
                index = 2 * pair + (rotation % 2 if "restart" in kind else 0)
                tiers.mark()
                affected, restore = self.inject(kind, fleet, index, e, meter)
                self.apply_updates(fleet, meter, self.updates_between)
                # Recovery proper: bring the failed part back, then sync
                # cycles until each affected consumer matches the master.
                # The comparison is verification and is not timed.
                before = stats.bytes_sent
                total = 0.0
                if restore is not None:
                    started = meter.begin("recover")
                    restore()
                    total += meter.end("recover", started)
                for who in affected:
                    consumer = fleet.consumers[who]
                    for _ in range(self.cycle_budget):
                        started = meter.begin("recover")
                        consumer.sync_once()
                        total += meter.end("recover", started)
                        if consumer.content.matches_master(fleet.master):
                            break
                    else:
                        meter.check(False, f"{kind}: {consumer.name} did not converge")
                meter.note("_event", total)
                rotation_total += total
                if slot == len(self.events) - 1:
                    meter.note("_rotation", rotation_total / len(self.events))
                meter.check(True, kind)
                meter.facts["recovery_bytes"] += stats.bytes_sent - before
                # A cold restart transfers the whole content by definition;
                # the others are read off the ladder's own counters.
                tier = "rebuild" if kind == "cold_restart" else tiers.reached()
                meter.facts[f"tier_{tier}"] += 1
                # The rest of the fleet catches up outside the event.
                self.propagate(fleet, meter, skip=affected)
        for consumer in fleet.consumers:
            meter.check(
                consumer.content.matches_master(fleet.master),
                f"{consumer.name} differs from the master at the end",
            )

    def inject(self, kind, fleet, index, e, meter):
        """Make failure *kind* happen.  Returns the consumers that must
        recover and, when something has to be restarted first, the call
        that restarts it (timed as the first step of the recovery).
        Divergence is applied while the victim is not looking."""
        content = len(fleet.consumers[index].content)
        if kind in ("snapshot_restart", "cold_restart"):
            fleet.consumers[index].close()
            self.diverge(fleet, meter, index, max(1, content // 100), f"r{e}")
            warm = kind == "snapshot_restart"
            return [index], lambda: fleet.restart_consumer(index, warm)
        if kind == "provider_crash":
            return list(range(len(fleet.consumers))), fleet.crash_provider
        if kind == "history_overflow":
            self.diverge(fleet, meter, index, build.HISTORY_CAP + 2, f"o{e}")
            return [index], None
        # A dead cookie only reaches the sketch tier when it carries
        # the history-overflow stamp, so overflow first, sync once to
        # be handed the stamped cookie, diverge, then kill the session.
        share = 0.005 if kind == "dead_cookie_small" else 0.05
        self.diverge(fleet, meter, index, build.HISTORY_CAP + 2, f"p{e}")
        started = meter.begin("update")
        fleet.consumers[index].sync_once()
        meter.end("update", started)
        self.diverge(fleet, meter, index, max(1, round(content * share)), f"d{e}")
        build.invalidate_cookie(fleet, index)
        return [index], None

    @staticmethod
    def diverge(fleet, meter, index, count, tag):
        journal = fleet.provider.journal
        size = journal.size_bytes
        started = meter.begin("update")
        done = fleet.diverge(index, count, tag)
        meter.end("update", started)
        meter.facts["updates"] += done
        if journal.size_bytes >= size:  # no compaction in between
            meter.facts["journal_bytes"] += journal.size_bytes - size
            meter.facts["journal_updates"] += done

    @staticmethod
    def apply_updates(fleet, meter, count):
        journal = fleet.provider.journal
        size = journal.size_bytes
        started = meter.begin("update")
        committed = fleet.updates.apply(count)
        meter.end("update", started)
        meter.check(committed == count, "update did not commit")
        meter.facts["updates"] += committed
        if journal.size_bytes >= size:
            meter.facts["journal_bytes"] += journal.size_bytes - size
            meter.facts["journal_updates"] += committed

    def propagate(self, fleet, meter, skip):
        for who, consumer in enumerate(fleet.consumers):
            if who not in skip:
                started = meter.begin("update")
                consumer.sync_once()
                meter.end("update", started)

    def metrics(self, fleet, inputs, meter):
        events = meter.count(("_event",))
        return {
            "recoveries_per_s": meter.rate(("_event",), ("recover",)),
            "recovery_bytes_per_restart": meter.facts["recovery_bytes"] / events,
        }

    def view(self, fleet):
        return {"provider": fleet.provider, "network": fleet.network, "stores": fleet.stores}

    def replica_size_frac(self, fleet, inputs):
        held = sum(len(c.content) for c in fleet.consumers)
        return held / len(fleet.consumers) / inputs.persons


WORKLOADS = {
    w.name: w for w in (BranchRead, WideRead, FleetPersist, FleetPollMixed, RestartRecovery)
}
assert list(WORKLOADS) == list(spec.WORKLOADS)
