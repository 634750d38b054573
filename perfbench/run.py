"""The repository benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload campus-1k --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no profiler: it
repeats the workload's timed call while another fits in ``--seconds``
(at least once), then times the set-up in fresh processes.
``--trace 1`` makes one untraced call and one call under the profiler
(see ``layers.py``) and reports the per-layer metrics, with the
difference between the two calls as the tracing overhead.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines above it
are a human-readable table. ``--record`` appends the result, tagged
with the code fingerprint, CPU count, Python version and seed, to
``perfbench/results/ledger.json``; ``--report`` renders that ledger
with a baseline column. See ``perfbench/README.md`` for what each
metric means on each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LEDGER = HERE / "results" / "ledger.json"
#: Spans of traced runs (git-ignored).
OUT = HERE / "out"
SETUP_PROBES = 7
#: Reference kernel passes before each set-up probe and after the last.
SETUP_KERNEL_PASSES = 4
#: The obs full/off pairs run every third simulation config of the
#: untraced call (9 of the 27 figure cells, both figures, all intervals).
OBS_PAIR_STRIDE = 3
#: str hashing is randomised per process, and the dict and set layouts
#: it picks move a simulation's wall time by several percent between
#: processes. Simulated outputs do not depend on it, so the benchmark
#: pins it to measure the code rather than the layout.
HASH_SEED = "0"

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "energy_saved_pct": "%",
    "energy_saved_worst_pct": "%",
    "delivered_pct": "%",
    "queue_delay_ms": "ms",
    "req_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
}

#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER = {
    "sim.self_s": "s",
    "sim.events": "count",
    "sim.events_per_frame": "ratio",
    "sim.ns_per_event": "ns",
    "net.self_s": "s",
    "net.medium.self_s": "s",
    "net.link.self_s": "s",
    "net.tcp.self_s": "s",
    "net.frames": "count",
    "net.frame_misses": "count",
    "core.self_s": "s",
    "core.schedule.decodes": "count",
    "core.schedule.slots_built": "count",
    "core.schedules_broadcast": "count",
    "core.slot_lateness_p50_ms": "ms",
    "core.client.schedules_missed": "count",
    "core.schedule_overrun_frac": "ratio",
    "core.peak_buffer_kib": "KiB",
    "wnic.self_s": "s",
    "wnic.awake_frac": "ratio",
    "wnic.wakes": "count",
    "obs.self_s": "s",
    "obs.inc_calls": "count",
    "obs.full_overhead_frac": "ratio",
    "energy.self_s": "s",
    "energy.analyze_s": "s",
    "workloads.self_s": "s",
    "campus.self_s": "s",
    "campus.handoffs": "count",
    "campus.handoff_bytes": "B",
    "experiments.self_s": "s",
    "experiments.build_s": "s",
    "sweep.self_s": "s",
    "runtime.self_s": "s",
    "runtime.loop_self_s": "s",
    "runtime.loop_wait_s": "s",
    "runtime.cpu_busy_frac": "ratio",
    "runtime.schedules_sent": "count",
    "runtime.schedule_overrun_frac": "ratio",
    "runtime.slot_lateness_p50_ms": "ms",
    "runtime.jitter_p90_ms": "ms",
    "runtime.peak_queue_kib": "KiB",
    "runtime.wire.encodes": "count",
    "runtime.wire.encode_s": "s",
    "other.self_s": "s",
    "trace.total_s": "s",
    "trace.untraced_run_s": "s",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="append the result to perfbench/results/ledger.json")
    parser.add_argument("--report", action="store_true",
                        help="render the ledger with a baseline column and exit")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _call(case, inputs, rescale: bool = False):
    """One timed call; an exception counts every operation as failed.

    With ``rescale`` the call's times are rescaled to the reference
    speed of ``reference.py``.
    """
    from cases import Call
    from reference import HostMeter

    begin = time.perf_counter()
    try:
        if not rescale:
            return case.call(inputs)
        with HostMeter() as meter:
            call = case.call(inputs)
        return meter.rescale(call)
    except Exception:  # one failed call is reported, not fatal
        traceback.print_exc()
        ops = case.ops_per_call
        return Call(
            wall_s=time.perf_counter() - begin, request_s=[], attempted=ops,
            failed=ops, saved_pct=[], worst_pct=[], delivered_pct=0.0,
            queue_delay_ms=0.0, digest="",
        )


def _setup_seconds(workload: str, seed: int) -> float:
    """Median time from process start to inputs ready, over fresh
    processes (interpreter start, imports, input construction), in
    seconds at the reference speed of ``reference.py``: kernel passes
    timed between the probes give the host's slowdown."""
    from reference import HostMeter

    meter = HostMeter()
    times = []
    for _ in range(SETUP_PROBES):
        for _ in range(SETUP_KERNEL_PASSES):
            meter.sample()
        begin = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        ) as child:
            line = child.stdout.readline()
            times.append(time.perf_counter() - begin)
            child.stdout.read()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {line!r}")
    for _ in range(SETUP_KERNEL_PASSES):
        meter.sample()
    return statistics.median(times) / meter.slowdown


def _digest_mismatches(calls) -> int:
    """Failed operations from calls whose simulated outputs differ from
    the first call's (the same seed must give the same digest)."""
    return sum(
        call.attempted - call.failed
        for call in calls[1:] if call.digest != calls[0].digest
    )


def measure(case, inputs, seconds: float) -> list:
    """The untraced run: repeat the timed call while another is expected
    to end inside ``seconds``, and at least ``case.min_calls`` times.
    Simulator calls are rescaled to the reference speed."""
    calls = []
    begin = time.perf_counter()
    while True:
        calls.append(_call(case, inputs, rescale=case.host_rescaled))
        elapsed = time.perf_counter() - begin
        typical = statistics.median(
            call.host_wall_s or call.wall_s for call in calls
        )
        if elapsed + typical > seconds and len(calls) >= case.min_calls:
            return calls


def end_to_end(calls) -> dict:
    """End-to-end metrics from untraced calls (all but ``setup_s`` and
    ``peak_rss_mib``, which belong to the process)."""
    from repro.runtime.loadtest import percentile

    requests = [s for call in calls for s in call.request_s]
    done = [call for call in calls if call.saved_pct]

    def median_of(value) -> float:
        return statistics.median(value(call) for call in done) if done else 0.0

    busy_s = sum(call.busy_s for call in calls)
    return {
        "run_s": statistics.median(call.wall_s for call in calls),
        "energy_saved_pct": median_of(lambda c: statistics.fmean(c.saved_pct)),
        "energy_saved_worst_pct": (
            statistics.fmean(w for call in done for w in call.worst_pct)
            if done else 0.0
        ),
        "delivered_pct": median_of(lambda c: c.delivered_pct),
        "queue_delay_ms": median_of(lambda c: c.queue_delay_ms),
        "req_per_s": sum(call.done for call in calls) / busy_s if busy_s else 0.0,
        "latency_p50_ms": 1000.0 * percentile(requests, 0.50),
        "latency_p95_ms": 1000.0 * percentile(requests, 0.95),
    }


def trace(case, inputs) -> tuple[list, dict, list]:
    """The traced run: one untraced call, then one under the profiler.

    Returns both calls, the per-layer metrics and the recorded spans.
    """
    import layers

    untraced = _call(case, inputs)
    with layers.traced(str(SRC / "repro") + os.sep) as ledger:
        traced = _call(case, inputs)
    spans = ledger.pop("spans")
    metrics = {**traced.facts, **untraced.facts, **ledger}
    events = metrics["sim.events"]
    frames = metrics.get("net.frames", 0)
    metrics.update({
        "sim.events_per_frame": events / frames if frames else 0.0,
        # The kernel's share of the profile, applied to the untraced time.
        "sim.ns_per_event": (
            1e9 * untraced.wall_s * ledger["sim.self_s"] / ledger["trace.total_s"]
            / events if events else 0.0
        ),
        "trace.untraced_run_s": untraced.wall_s,
        "trace.run_s": traced.wall_s,
        "trace.overhead_s": traced.wall_s - untraced.wall_s,
    })
    return [untraced, traced], metrics, spans


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'repro'}; run from the root "
              "of a repository checkout", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.path[:0] = [str(SRC), str(HERE)]
    import trajectory

    if args.report:
        print(trajectory.render(LEDGER))
        return 0
    import cases

    case = cases.WORKLOADS.get(args.workload)
    if case is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(cases.WORKLOADS)}", file=sys.stderr)
        return 2
    inputs = case.inputs(args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    if args.trace:
        calls, measured, spans = trace(case, inputs)
        if case.measures_obs_overhead:
            measured["obs.full_overhead_frac"] = cases.obs_full_overhead(
                calls[0].configs[::OBS_PAIR_STRIDE]
            )
        OUT.mkdir(exist_ok=True)
        (OUT / f"{case.name}-seed{args.seed}-spans.json").write_text(
            json.dumps([vars(span) for span in spans]) + "\n"
        )
        units = PER_LAYER
    else:
        calls = measure(case, inputs, args.seconds)
        measured = end_to_end(calls)
        measured["peak_rss_mib"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        measured["setup_s"] = _setup_seconds(case.name, args.seed)
        units = END_TO_END
    attempted = sum(call.attempted for call in calls)
    failed = sum(call.failed for call in calls) + _digest_mismatches(calls)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(measured.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }
    tags = trajectory.tags(args.seed)
    rescaled = [call for call in calls if call.host_slowdown]
    if rescaled:
        print(
            "  host: wall time as measured "
            f"{statistics.median(c.host_wall_s for c in rescaled):.6g} s, "
            "slowdown against the reference speed "
            f"{statistics.median(c.host_slowdown for c in rescaled):.4g}"
        )
    print(trajectory.table(case.name, args.trace, tags, calls[0].digest, result))
    if args.record:
        trajectory.record(LEDGER, case.name, args.trace, tags, calls[0].digest, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
