"""Tests of the benchmark itself (about six minutes; not part of tier 1).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import cases  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402

#: The simulated end-to-end metrics, deterministic per seed.
SIM_METRICS = ("energy_saved_pct", "energy_saved_worst_pct", "delivered_pct",
               "queue_delay_ms")
COUNTS = [name for name, unit in run.PER_LAYER.items() if unit == "count"]


def _traced(name: str, seed: int) -> dict:
    case = cases.WORKLOADS[name]
    calls, metrics, _spans = run.trace(case, case.inputs(seed))
    untraced, traced = calls
    assert untraced.failed == traced.failed == 0
    assert untraced.digest == traced.digest
    return {
        "metrics": {name: metrics.get(name, 0.0) for name in run.PER_LAYER},
        "sim": {k: v for k, v in run.end_to_end([untraced]).items()
                if k in SIM_METRICS},
        "digest": untraced.digest,
    }


@pytest.fixture(scope="module")
def campus():
    return [_traced("campus-1k", 0), _traced("campus-1k", 0),
            _traced("campus-1k", 1)]


@pytest.fixture(scope="module")
def figures():
    return [_traced("figures-quick", 0), _traced("figures-quick", 0)]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(cases.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[key]} == table


@pytest.mark.parametrize("fixture", ["campus", "figures"])
def test_same_seed_repeats_counts_and_sim_metrics_exactly(fixture, request):
    first, second = request.getfixturevalue(fixture)[:2]
    assert first["digest"] == second["digest"]
    assert first["sim"] == second["sim"]
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_second_seed_changes_the_counts(campus):
    first, _, other = campus
    changed = [n for n in COUNTS if first["metrics"][n] != other["metrics"][n]]
    assert {"sim.events", "campus.handoffs", "core.schedule.decodes"} <= set(changed)
    assert first["digest"] != other["digest"]


def test_campus_decode_counts_match_the_measured_ones(campus):
    metrics = campus[0]["metrics"]
    assert metrics["core.schedule.decodes"] == 16_596
    assert metrics["core.schedule.slots_built"] == 3_058_812


@pytest.mark.parametrize("fixture", ["campus", "figures"])
def test_layer_buckets_sum_to_the_traced_total(fixture, request):
    metrics = request.getfixturevalue(fixture)[0]["metrics"]
    parts = sum(metrics[metric] for bucket, metric in layers.BUCKETS.items()
                if not bucket.startswith("net."))
    assert parts == pytest.approx(metrics["trace.total_s"], rel=1e-9)
    assert metrics["net.self_s"] >= metrics["net.medium.self_s"] > 0


def test_histogram_quantile_interpolates_inside_the_bucket():
    snapshot = {"histograms": [
        {"name": "h", "buckets": [1.0, 2.0], "counts": [2, 2, 0]},
        {"name": "h", "buckets": [1.0, 2.0], "counts": [0, 4, 0]},
    ]}
    # Merged counts [2, 6, 0]: rank 4 lies 2/6 of the way into (1, 2].
    assert cases.histogram_quantile(snapshot, "h", 0.5) == pytest.approx(1 + 2 / 6)
    assert cases.histogram_quantile(snapshot, "missing", 0.5) == 0.0


def test_rescale_drops_kernel_time_and_divides_by_the_slowdown():
    meter = reference.HostMeter()
    meter.samples = [2 * reference.NOMINAL_S] * 10
    call = cases.Call(
        wall_s=10.0, request_s=[10.0], attempted=1, failed=0, saved_pct=[],
        worst_pct=[], delivered_pct=100.0, queue_delay_ms=0.0, digest="",
        busy_s=10.0,
    )
    out = meter.rescale(call)
    # 10 s less 0.1 s in kernel passes, on a host at half the reference speed.
    assert out.wall_s == pytest.approx((10.0 - 0.1) / 2)
    assert out.request_s == [pytest.approx(out.wall_s)]
    assert out.busy_s == pytest.approx(out.wall_s)
    assert out.host_wall_s == 10.0
    assert out.host_slowdown == pytest.approx(2.0)


def test_host_meter_samples_inside_the_block_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with reference.HostMeter() as meter:
        end = time.perf_counter() + 5 * reference.PERIOD_S
        while time.perf_counter() < end:
            pass
    assert len(meter.samples) >= 3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "campus-1k",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
