"""The benchmark's workloads, driven only through public entry points.

Each workload turns a seed into inputs (``inputs``, the set-up the
``setup_s`` metric times) and runs one timed call (``call``). A call
returns a :class:`Call`: the wall time of the public call, the
observations the end-to-end metrics are made from, a digest of the
simulated outputs, and the per-layer facts the call's own results
carry (counts, fractions, peaks).

* ``figures-quick`` — ``figures.figure4`` + ``figures.figure5`` with
  ``quick=True`` through a serial, cache-less ``SweepEngine``.
* ``campus-1k`` — ``run_experiment`` on the 4-cell, 1000-client
  roaming campus in the shape of ``repro run --cells 4 --roam-rate 0.05
  --clients 1000 --quick --obs metrics``.
* ``live-2c`` — ``run_loadtest`` on loopback: 2 closed-loop clients,
  256 kB per request, 50 ms burst interval.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro.campus import CampusTopology, HandoffSpec, MobilityPlan
from repro.experiments import figures
from repro.experiments.runner import ClientSpec, ExperimentConfig, ExperimentResult
from repro.experiments.runner import run_experiment
from repro.obs import SimRecorder, metrics_json
from repro.runtime.client import AsyncPowerClient
from repro.runtime.loadtest import LoadTestConfig, percentile, run_loadtest
from repro.runtime.wire import RuntimeSchedule
from repro.sweep import SweepEngine


@dataclass
class Call:
    """What one timed call observed."""

    wall_s: float
    #: Host wall time of each request a user waits for: one per call on
    #: the simulator (regenerate the figures, run the campus), one per
    #: proxied request on the live workload.
    request_s: list[float]
    #: Operations (simulation runs or proxied requests) tried and failed.
    attempted: int
    failed: int
    #: Per-client WNIC energy saved versus an always-on card, in %.
    saved_pct: list[float]
    #: Per simulation run (or live call): the mean saving of its worst
    #: 1% of clients, at least the single worst one.
    worst_pct: list[float]
    delivered_pct: float
    queue_delay_ms: float
    #: SHA-256 of the simulated outputs ("" for the live workload).
    digest: str
    #: Per-layer facts read from the call's own results.
    facts: dict[str, float] = field(default_factory=dict)
    #: Requests completed, and the seconds they took (for throughput).
    done: int = 0
    busy_s: float = 0.0
    #: Configs of the simulation runs (for the obs full/off pairs).
    configs: list[Any] = field(default_factory=list)
    #: Set when the times were rescaled to the reference speed (see
    #: ``reference.py``): the wall time as measured, and the host's
    #: slowdown against the reference speed during the call.
    host_wall_s: float = 0.0
    host_slowdown: float = 0.0


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def histogram_quantile(snapshot: Optional[dict], name: str, q: float) -> float:
    """The ``q``-quantile of every histogram called ``name`` in a metrics
    snapshot, merged over label sets, interpolated inside its bucket."""
    merged: list[int] = []
    bounds: list[float] = []
    for hist in (snapshot or {}).get("histograms", []):
        if hist["name"] != name:
            continue
        bounds = hist["buckets"]
        if not merged:
            merged = [0] * len(hist["counts"])
        merged = [a + b for a, b in zip(merged, hist["counts"])]
    total = sum(merged)
    if total == 0:
        return 0.0
    rank = q * total
    seen = 0
    for index, count in enumerate(merged):
        if count and seen + count >= rank:
            lower = bounds[index - 1] if index > 0 else 0.0
            upper = bounds[index] if index < len(bounds) else bounds[-1]
            return lower + (upper - lower) * (rank - seen) / count
        seen += count
    return bounds[-1]


def worst_share(values: list[float], share: float = 0.01) -> float:
    """Mean of the lowest ``share`` of ``values`` (at least one value)."""
    lowest = sorted(values)[: max(1, int(len(values) * share))]
    return statistics.fmean(lowest)


def _snapshot_values(snapshot: Optional[dict], kind: str, name: str) -> list:
    return [
        item for item in (snapshot or {}).get(kind, []) if item["name"] == name
    ]


def _wnic_facts(snapshot: Optional[dict]) -> dict[str, float]:
    """Awake share and wake count from the run's final WNIC gauges."""
    awake = sleep = 0.0
    for gauge in _snapshot_values(snapshot, "gauges", "wnic.residency_s"):
        if gauge["labels"].get("state") == "awake":
            awake += gauge["value"]
        else:
            sleep += gauge["value"]
    wakes = sum(
        g["value"] for g in _snapshot_values(snapshot, "gauges", "wnic.wake_count")
    )
    return {
        "wnic.awake_frac": awake / (awake + sleep) if awake + sleep else 0.0,
        "wnic.wakes": wakes,
    }


def _sim_result_ok(result: Optional[ExperimentResult]) -> bool:
    """Sanity checks on one simulation run's outputs."""
    if result is None or len(result.reports) != len(result.config.clients):
        return False
    for report in result.reports:
        saved, loss = report.energy_saved_pct, report.loss_pct
        if not (math.isfinite(saved) and -100.0 < saved <= 100.0):
            return False
        if not (math.isfinite(loss) and 0.0 <= loss <= 100.0):
            return False
    return math.isfinite(result.mean_queue_delay_s) and result.mean_queue_delay_s >= 0


def _sim_call(
    wall_s: float, results: list, digest: str
) -> Call:
    """A :class:`Call` from simulation results (one per operation)."""
    good = [r for r in results if _sim_result_ok(r)]
    reports = [report for r in good for report in r.reports]
    snapshots = [r.metrics for r in good]
    facts: dict[str, float] = {
        "net.frames": sum(r.medium_frames for r in good),
        "net.frame_misses": sum(r.medium_misses for r in good),
        "core.schedules_broadcast": sum(r.schedules_sent for r in good),
        "core.client.schedules_missed": sum(r.missed_schedules for r in reports),
        "core.peak_buffer_kib": max(
            (r.peak_proxy_buffer_bytes for r in good), default=0
        ) / 1024.0,
        "campus.handoffs": sum(r.handoffs for r in good),
        "campus.handoff_bytes": sum(r.handoff_bytes_transferred for r in good),
    }
    merged = {"histograms": [], "gauges": []}
    for snapshot in snapshots:
        for kind in merged:
            merged[kind].extend((snapshot or {}).get(kind, []))
    facts["core.slot_lateness_p50_ms"] = 1000.0 * histogram_quantile(
        merged, "scheduler.slot_lateness_s", 0.5
    )
    facts.update(_wnic_facts(merged))
    return Call(
        wall_s=wall_s,
        request_s=[wall_s],
        attempted=len(results),
        failed=len(results) - len(good),
        saved_pct=[report.energy_saved_pct for report in reports],
        worst_pct=[
            worst_share([report.energy_saved_pct for report in r.reports])
            for r in good
        ],
        delivered_pct=(
            100.0 - sum(r.loss_pct for r in reports) / len(reports)
            if reports else 0.0
        ),
        queue_delay_ms=(
            1000.0 * sum(r.mean_queue_delay_s for r in good) / len(good)
            if good else 0.0
        ),
        digest=digest,
        facts=facts,
        done=int(len(good) == len(results)),
        busy_s=wall_s,
        configs=[r.config for r in good],
    )


class _CapturingEngine(SweepEngine):
    """A serial, cache-less engine that keeps every outcome it returns."""

    def __init__(self) -> None:
        super().__init__(jobs=1, cache=None)
        self.outcomes: list = []

    def run(self, spec):
        outcome = super().run(spec)
        self.outcomes.append(outcome)
        return outcome


class FiguresQuick:
    """Cold serial regeneration of the Figure 4 and Figure 5 quick grids."""

    name = "figures-quick"
    #: 5 + 4 access patterns × 3 burst-interval policies.
    ops_per_call = 27
    min_calls = 1
    measures_obs_overhead = True
    host_rescaled = True

    def inputs(self, seed: int) -> int:
        # The figure drivers expand their own grids from the seed.
        return seed

    def call(self, seed: int) -> Call:
        engine = _CapturingEngine()
        begin = time.perf_counter()
        rows = figures.figure4(seed=seed, quick=True, engine=engine)
        rows += figures.figure5(seed=seed, quick=True, engine=engine)
        wall_s = time.perf_counter() - begin
        results = [r for outcome in engine.outcomes for r in outcome.results]
        return _sim_call(
            wall_s, results, _digest(json.dumps(rows, sort_keys=True))
        )


class Campus1k:
    """The 4-cell, 1000-client roaming campus smoke (metrics-only obs)."""

    name = "campus-1k"
    ops_per_call = 1
    min_calls = 1
    measures_obs_overhead = False
    host_rescaled = True

    def inputs(self, seed: int) -> ExperimentConfig:
        return ExperimentConfig(
            clients=[ClientSpec("video", video_kbps=56)] * 1000,
            burst_interval_s=0.5,
            duration_s=6.0,
            start_stagger_s=0.003,
            seed=seed,
            campus=CampusTopology(
                n_cells=4,
                mobility=MobilityPlan(roam_rate=0.05, epoch_s=1.0),
                handoff=HandoffSpec(),
            ),
            obs_mode="metrics",
        )

    def call(self, config: ExperimentConfig) -> Call:
        begin = time.perf_counter()
        result = run_experiment(config)
        wall_s = time.perf_counter() - begin
        return _sim_call(
            wall_s, [result], _digest(metrics_json(result.obs))
        )


# -- live -------------------------------------------------------------------


@dataclass
class _Fetch:
    client: AsyncPowerClient
    latency_s: float
    ok: bool
    #: time.monotonic() when the request ended (the VirtualWnic clock).
    ended: float


class _LiveRecorder(SimRecorder):
    """The loadtest's default recorder, also keeping raw slot lateness."""

    def __init__(self) -> None:
        super().__init__()
        self.slot_lateness_s: list[float] = []

    def observe(self, name, value, buckets=None, **labels) -> None:
        if name == "scheduler.slot_lateness_s":
            self.slot_lateness_s.append(value)
        super().observe(name, value, buckets, **labels)


@contextmanager
def _observed_live(fetches: list[_Fetch], overruns: list[int]) -> Iterator[None]:
    """Time every proxied request and classify every schedule encoded.

    ``overruns`` becomes ``[schedules, schedules whose slots end past
    their interval]``.
    """
    fetch, encode = AsyncPowerClient.fetch, RuntimeSchedule.encode

    async def timed_fetch(self, *args, **kwargs):
        begin = time.perf_counter()
        try:
            payload = await fetch(self, *args, **kwargs)
        except BaseException:
            fetches.append(
                _Fetch(self, time.perf_counter() - begin, False, time.monotonic())
            )
            raise
        fetches.append(
            _Fetch(
                self,
                time.perf_counter() - begin,
                len(payload) == kwargs["expect_bytes"],
                time.monotonic(),
            )
        )
        return payload

    def classified_encode(self) -> bytes:
        overruns[0] += 1
        if any(s.offset_s + s.duration_s > self.interval_s for s in self.slots):
            overruns[1] += 1
        return encode(self)

    AsyncPowerClient.fetch = timed_fetch
    RuntimeSchedule.encode = classified_encode
    try:
        yield
    finally:
        AsyncPowerClient.fetch = fetch
        RuntimeSchedule.encode = encode


class Live2c:
    """``run_loadtest`` on loopback: 2 closed-loop clients, 256 kB each."""

    name = "live-2c"
    requests_per_client = 60
    clients = 2
    ops_per_call = requests_per_client * clients
    #: 240 requests: at least ten samples beyond the 95th percentile.
    min_calls = 2
    measures_obs_overhead = False
    #: Timer signals would delay the live clients and proxy, whose
    #: times are set by the burst schedule rather than the CPU.
    host_rescaled = False

    def inputs(self, seed: int) -> LoadTestConfig:
        return LoadTestConfig(
            clients=self.clients,
            requests_per_client=self.requests_per_client,
            bytes_per_request=256_000,
            burst_interval_s=0.05,
            seed=seed,
        )

    def call(self, config: LoadTestConfig) -> Call:
        fetches: list[_Fetch] = []
        overruns = [0, 0]
        recorder = _LiveRecorder()
        with _observed_live(fetches, overruns):
            wall0, cpu0 = time.perf_counter(), time.process_time()
            report = asyncio.run(run_loadtest(config, obs=recorder))
            wall_s = time.perf_counter() - wall0
            cpu_s = time.process_time() - cpu0
        ok = [f for f in fetches if f.ok]
        ends: dict[AsyncPowerClient, float] = {}
        for f in ok:
            ends[f.client] = max(ends.get(f.client, 0.0), f.ended)
        saved = [
            client.wnic.estimated_savings_pct(until=end - client.wnic.epoch)
            for client, end in ends.items()
        ]
        starts = sorted(s.start for s in recorder.spans if s.name == "interval")
        jitter = [
            abs((b - a) - config.burst_interval_s)
            for a, b in zip(starts, starts[1:])
        ]
        # Little's law: mean bytes queued at each schedule build over the
        # byte rate the clients received.
        queued = sum(
            h["sum"]
            for h in _snapshot_values(
                recorder.metrics.snapshot(), "histograms", "scheduler.queue_bytes"
            )
        )
        byte_rate = report.bytes_received / report.duration_s
        mean_queued = queued / report.schedules_sent if report.schedules_sent else 0.0
        attempted = report.requests_total
        failed = attempted - len(ok)
        if report.watermark_exceeded or len(fetches) != attempted:
            failed = attempted
        return Call(
            wall_s=wall_s,
            request_s=[f.latency_s for f in ok],
            attempted=attempted,
            failed=failed,
            saved_pct=saved,
            worst_pct=[worst_share(saved)] if saved else [],
            delivered_pct=(
                100.0 * report.bytes_received
                / (attempted * config.bytes_per_request)
            ),
            queue_delay_ms=1000.0 * mean_queued / byte_rate if byte_rate else 0.0,
            digest="",
            facts={
                "runtime.schedules_sent": report.schedules_sent,
                "runtime.schedule_overrun_frac": (
                    overruns[1] / overruns[0] if overruns[0] else 0.0
                ),
                "runtime.slot_lateness_p50_ms": 1000.0 * percentile(
                    recorder.slot_lateness_s, 0.5
                ),
                "runtime.jitter_p90_ms": 1000.0 * percentile(jitter, 0.9),
                "runtime.peak_queue_kib": report.peak_queue_bytes / 1024.0,
                "runtime.cpu_busy_frac": cpu_s / wall_s,
                "wnic.awake_frac": (
                    sum(
                        c.wnic.awake_time(end - c.wnic.epoch)
                        / (end - c.wnic.epoch)
                        for c, end in ends.items()
                    ) / len(ends)
                    if ends else 0.0
                ),
                "wnic.wakes": sum(
                    c.wnic.wakes_until(end - c.wnic.epoch) for c, end in ends.items()
                ),
            },
            done=len(ok),
            busy_s=report.duration_s,
        )


WORKLOADS = {case.name: case for case in (FiguresQuick(), Campus1k(), Live2c())}


def obs_full_overhead(configs: list) -> float:
    """Obs ``full`` cost over ``off``: the median, over the given
    simulation configs, of t(full) / t(off) − 1, each pair run
    back to back with the order alternating between pairs."""
    ratios = []
    for index, config in enumerate(configs):
        modes = ("full", "off") if index % 2 == 0 else ("off", "full")
        seconds = {}
        for mode in modes:
            begin = time.perf_counter()
            run_experiment(dataclasses.replace(config, obs_mode=mode))
            seconds[mode] = time.perf_counter() - begin
        ratios.append(seconds["full"] / seconds["off"])
    return statistics.median(ratios) - 1.0 if ratios else 0.0
