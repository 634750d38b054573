"""Observability overhead on the schedule-reuse workload.

Three modes of the same run:

* ``trace``  — trace rows only; the pre-obs baseline this repo shipped
  before the recorder facade existed;
* ``off``    — the NullRecorder: hooks present but every call a no-op;
* ``full``   — trace rows + metrics + spans.

The acceptance bar is on the NullRecorder: the facade's no-op hooks
must cost < 5% over the baseline. ``off`` writes no trace rows at
all, so it can come out faster than ``trace``. Full-instrumentation
cost is recorded in the trajectory for trend tracking but not gated.

The modes are interleaved (each rep runs all three, in an order that
rotates from rep to rep), so host drift hits every mode alike, and each
overhead is the median over reps of the within-rep ratio to ``trace``.
One untimed warm-up run comes first, and each run is ~0.6 s long. On a
shared host the within-rep ratios still spread by ten points or more,
so each overhead row carries the interquartile range of its ratios (in
percentage points) next to the median.
"""

import statistics
import time

from repro.experiments.runner import run_experiment, video_only

from benchmarks.bench_utils import print_table, save_results

REPS = 9
MODES = ("trace", "off", "full")
COLUMNS = [
    "t_null_s", "t_trace_s", "t_full_s",
    "null_overhead_pct", "null_overhead_iqr_pct",
    "full_overhead_pct", "full_overhead_iqr_pct",
]


def _config(obs_mode: str):
    return video_only(
        [56] * 8,
        burst_interval_s=0.1,
        duration_s=60.0,
        seed=1,
        reuse_schedules=True,
        obs_mode=obs_mode,
    )


def _timed(obs_mode: str) -> float:
    config = _config(obs_mode)
    start = time.perf_counter()
    run_experiment(config)
    return time.perf_counter() - start


def _interleaved_times() -> dict[str, list[float]]:
    _timed("trace")  # warm-up: imports, caches, allocator
    times: dict[str, list[float]] = {mode: [] for mode in MODES}
    for rep in range(REPS):
        shift = rep % len(MODES)
        for mode in MODES[shift:] + MODES[:shift]:
            times[mode].append(_timed(mode))
    return times


def _overhead_pct(
    times: dict[str, list[float]], mode: str
) -> tuple[float, float]:
    """Median and IQR width (both in %) of ``mode``'s ratios to trace."""
    ratios = [t / base for t, base in zip(times[mode], times["trace"])]
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    return (median - 1.0) * 100.0, (q3 - q1) * 100.0


def test_bench_obs_overhead():
    times = _interleaved_times()
    null_overhead_pct, null_iqr_pct = _overhead_pct(times, "off")
    full_overhead_pct, full_iqr_pct = _overhead_pct(times, "full")
    rows = [
        {
            "experiment": "obs-overhead",
            "t_null_s": round(statistics.median(times["off"]), 4),
            "t_trace_s": round(statistics.median(times["trace"]), 4),
            "t_full_s": round(statistics.median(times["full"]), 4),
            "null_overhead_pct": round(null_overhead_pct, 2),
            "null_overhead_iqr_pct": round(null_iqr_pct, 2),
            "full_overhead_pct": round(full_overhead_pct, 2),
            "full_overhead_iqr_pct": round(full_iqr_pct, 2),
        }
    ]
    save_results(
        "obs_overhead",
        rows,
        meta={
            "reps": REPS,
            "statistic": "median of interleaved within-rep ratios",
            "workload": "schedule-reuse: 8x video:56, 100 ms interval, 60 s",
        },
    )
    print_table("Observability overhead (schedule-reuse workload)", rows, COLUMNS)
    assert null_overhead_pct < 5.0, (
        f"NullRecorder hooks cost {null_overhead_pct:.2f}% over the "
        "trace-only baseline (budget: 5%)"
    )
