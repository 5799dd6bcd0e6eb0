"""Run the end-to-end benchmark.

One workload, as the driver runs it::

    python3 benchmarks/e2e/run.py --workload branch_read --seed 7 --seconds 8 --trace 0

prints every metric by name with its unit and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  Without
``--workload`` the five workloads run one after another, each in its own
fresh process (so each starts with a cold QC memo), and a table of
medians is printed; ``--repeats N`` runs each N times and prints
quartiles, ``--out FILE`` keeps the numbers for ``compare.py``.

``--trace 1`` is the traced pass: after an untraced window on one
system, timing wrappers are installed around the layer entry points, a
second identical system runs the same ops, and the per-layer metrics and
the tracing overhead are printed instead.

Also runnable as ``PYTHONPATH=src python -m benchmarks.e2e.run``.
"""

from __future__ import annotations

import sys
from pathlib import Path

if __package__ in (None, ""):  # run as a script, from any directory
    _root = Path(__file__).resolve().parents[2]
    sys.path[:0] = [str(_root), str(_root / "src")]
    __package__ = "benchmarks.e2e"

import argparse
import gc
import json
import os
import resource
import subprocess
from statistics import median, quantiles
from time import perf_counter
from typing import Dict, List, Optional

from . import layers, spec
from .trace import Tracer, lookup
from .workloads import WORKLOADS, Meter, Workload, control_loop, speed_factor


def _set_up(workload: Workload, inputs, times: List[float]):
    """One set-up; its time, like every wall-clock number reported, is
    divided by the machine's speed factor around it."""
    gc.collect()
    controls = [control_loop() for _ in range(3)]
    started = perf_counter()
    system = workload.setup(inputs)
    elapsed = perf_counter() - started
    controls += [control_loop() for _ in range(3)]
    times.append(elapsed / speed_factor(controls))
    return system


def _window(workload: Workload, system, inputs, meter: Meter) -> None:
    """The timed window: GC stays on (a change that allocates more must
    show), but what set-up built is frozen out of its way."""
    gc.collect()
    gc.freeze()
    stats = workload.view(system)["network"].stats
    before = stats.snapshot()
    workload.run(system, inputs, meter)
    moved = stats - before
    meter.facts["wire_bytes"] = moved.bytes_sent
    meter.facts["sync_pdus"] = moved.sync_entry_pdus + moved.sync_dn_pdus
    meter.facts["wire_pdus"] = (
        moved.entry_pdus + moved.referral_pdus + moved.sync_entry_pdus + moved.sync_dn_pdus
    )
    gc.unfreeze()


def _end_to_end(workload: Workload, system, inputs, meter: Meter, setups: List[float]):
    """name -> (value, min, max): over the segments for a wall-clock
    metric, over the set-ups for ``setup_s``, the value thrice for a count."""
    ops = meter.count(workload.op_kinds) * workload.primary_per
    values = {
        "setup_s": (median(setups), min(setups), max(setups)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_per_s": meter.rate(workload.op_kinds, None, per=workload.primary_per),
        "op_p50_us": meter.p50_us(workload.primary_kinds, per=workload.primary_per),
        "wire_bytes_per_op": meter.facts["wire_bytes"] / ops,
        "wire_pdus_per_op": meter.facts["wire_pdus"] / ops,
        "replica_size_frac": workload.replica_size_frac(system, inputs),
        "failed_ops_frac": meter.failed / meter.attempted,
    }
    values.update(workload.metrics(system, inputs, meter))
    names = spec.e2e_names(workload.name)
    assert set(values) == set(names), set(values) ^ set(names)
    return {
        name: values[name] if isinstance(values[name], tuple) else (values[name],) * 3
        for name in names
    }


def run_workload(
    name: str, seed: int, scale: float, seconds: float, trace: bool, trace_out: Optional[str]
) -> dict:
    workload = WORKLOADS[name](scale, seconds)
    inputs = workload.inputs(seed)
    setups: List[float] = []
    for _ in range(1 if trace else spec.SETUP_REPEATS):
        system = None  # the previous one goes before the next is built
        system = _set_up(workload, inputs, setups)
    meter = Meter()
    _window(workload, system, inputs, meter)
    result = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
        "ops": workload.sizes.ops,
        "attempted": meter.attempted,
        "failed": meter.failed,
        "failures": meter.failures,
        "speed_factor": meter.speed_factor,
        "end_to_end": _end_to_end(workload, system, inputs, meter, setups),
        "per_layer": None,
        "trace_missing": [],
    }
    if trace:
        result.update(_traced_pass(workload, inputs, meter.wall(), trace_out))
    return result


def _traced_pass(workload: Workload, inputs, untraced_wall: float, trace_out: Optional[str]) -> dict:
    """Same seed, same ops, on a second system built after the wrappers
    went in (so callbacks bound during set-up are wrapped too)."""
    clear_memo = lookup("repro.core.containment:clear_containment_cache")
    if clear_memo is not None:
        clear_memo()  # the first window warmed the process-wide QC memo
    tracer = Tracer()
    tracer.install(layers.hooks())
    try:
        system = _set_up(workload, inputs, [])
        view = workload.view(system)
        meter = Meter(tracer)
        history: List[float] = []
        meter.on_segment = lambda: history.append(layers.history_len(view))
        before = layers.snapshot(view)
        _window(workload, system, inputs, meter)
        per_layer = tracer.span_metrics()
        per_layer.update(layers.collect(view, tracer, meter, before, history, untraced_wall))
    finally:
        tracer.uninstall()
    if trace_out:
        tracer.dump(trace_out)
    return {
        "per_layer": per_layer,
        "trace_missing": tracer.missing,
        "traced_attempted": meter.attempted,
        "traced_failed": meter.failed,
        "failures": meter.failures,
    }


# ----------------------------------------------------------------------
# printing
# ----------------------------------------------------------------------
PER_LAYER_UNITS = {name: unit for name, unit, _ in spec.per_layer()}


def _contract_line(result: dict, trace: bool) -> str:
    """The driver's last line: end-to-end metrics untraced, per-layer
    metrics traced.  It wants a number for every name, so a per-layer
    metric whose target is gone reads 0 there (``trace_missing`` above
    it says which)."""
    if trace:
        metrics = {
            name: {"value": 0.0 if value is None else float(value), "unit": PER_LAYER_UNITS[name]}
            for name, value in result["per_layer"].items()
        }
        attempted, failed = result["traced_attempted"], result["traced_failed"]
    else:
        metrics = {
            m.name: {"value": float(result["end_to_end"][m.name][0]), "unit": m.unit}
            for m in spec.UNIVERSAL
        }
        attempted, failed = result["attempted"], result["failed"]
    return json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def summarize(values: List[float]):
    """(median, first quartile, third quartile) of one metric's runs."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = quantiles(values, n=4)
    return median(values), q1, q3


def _print_metrics(workload: str, results: List[dict]) -> None:
    """One row a metric.  One run: the median segment [min .. max
    segment]; several: the median run [first .. third quartile]."""
    for metric in spec.e2e_names(workload):
        if len(results) == 1:
            mid, low, high = results[0]["end_to_end"][metric]
        else:
            mid, low, high = summarize([r["end_to_end"][metric][0] for r in results])
        unit = spec.E2E_BY_NAME[metric].unit
        print(f"  {metric:<28} {mid:>16.6g} {unit:<9} [{low:.6g} .. {high:.6g}]")
    if results[0]["per_layer"] is not None:
        for metric in results[0]["per_layer"]:
            values = [r["per_layer"][metric] for r in results]
            shown = "null" if values[0] is None else f"{median(values):.6g}"
            print(f"  {metric:<52} {shown:>14} {PER_LAYER_UNITS[metric]}")
        print(f"  trace_missing: {json.dumps(results[0]['trace_missing'])}")


def _print_result(result: dict) -> None:
    print(
        f"workload {result['workload']}  seed {result['seed']}  scale {result['scale']:g}  "
        f"({result['ops']} primary ops, {spec.SEGMENTS} segments, median segment [min .. max])"
    )
    _print_metrics(result["workload"], [result])
    print(
        f"machine speed factor {result['speed_factor']:.3f} "
        "(control loop time / nominal; wall-clock metrics above are divided by it)"
    )
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    print(f"failed {result['failed']} of {result['attempted']} attempted")


# ----------------------------------------------------------------------
# all workloads, one fresh process each
# ----------------------------------------------------------------------
def run_all(args) -> int:
    runs: Dict[str, List[dict]] = {name: [] for name in spec.WORKLOADS}
    for name in spec.WORKLOADS:
        for repeat in range(args.repeats):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--scale", str(args.scale), "--trace", str(args.trace), "--emit-result",
            ]
            if args.trace_out:
                command += ["--trace-out", f"{args.trace_out}.{name}.{repeat}.jsonl"]
            done = subprocess.run(command, capture_output=True, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode
            line = next(l for l in done.stdout.splitlines() if l.startswith("result: "))
            runs[name].append(json.loads(line[len("result: "):]))
    _print_table(runs, args.repeats)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "scale": args.scale, "runs": runs}, fh, indent=1)
    return 1 if any(r["failed"] for rs in runs.values() for r in rs) else 0


def _print_table(runs: Dict[str, List[dict]], repeats: int) -> None:
    spread = "quartiles of the runs" if repeats > 1 else "min .. max of the segments"
    for name, results in runs.items():
        print(f"== {name}  ({len(results)} run(s); [{spread}])")
        _print_metrics(name, results)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="length of the timed window the op counts are sized for")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies the calibrated op counts (smoke runs)")
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--out", help="write all numbers here, for compare.py")
    parser.add_argument("--trace-out", help="write the spans here (default: keep in memory)")
    parser.add_argument("--emit-result", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    if argv is None and "PYTHONHASHSEED" not in os.environ:
        # String-hash layout alone moves wall-clock numbers by several
        # percent from one process to the next; pin it (the counts are
        # checked to be the same under every hash seed).
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    result = run_workload(
        args.workload, args.seed, args.scale, args.seconds, bool(args.trace), args.trace_out
    )
    _print_result(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
    if args.emit_result:
        print("result: " + json.dumps(result))
    print(_contract_line(result, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
