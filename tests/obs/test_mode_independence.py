"""Results must not depend on the observability mode.

The obs mode decides only what a run exports (trace rows, metrics,
spans). Every per-client result — energy, bytes, and in particular the
loss accounting, which comes from the medium's own miss list — must be
byte-identical under ``full``, ``trace``, ``metrics`` and ``off``.
Each case also asserts that packets were actually missed, so a run
that loses nothing cannot make the comparison pass vacuously.
"""

import dataclasses

import pytest

from repro.campus import CampusTopology, MobilityPlan
from repro.experiments.runner import (
    ClientSpec,
    ExperimentConfig,
    run_experiment,
    video_only,
)
from repro.faults import ChurnEvent, FaultPlan

MODES = ("full", "trace", "metrics", "off")


def _video(obs_mode: str) -> ExperimentConfig:
    return video_only(
        [512, 512, 256, 256, 128], 0.1,
        duration_s=10, seed=1, early_s=0.0, obs_mode=obs_mode,
    )


def _faults(obs_mode: str) -> ExperimentConfig:
    return video_only(
        [256, 256, 128], 0.1,
        duration_s=10, seed=2, obs_mode=obs_mode,
        faults=FaultPlan(churn=(ChurnEvent(0, 3.0, 5.0),)),
    )


def _campus(obs_mode: str) -> ExperimentConfig:
    return ExperimentConfig(
        clients=[ClientSpec("video", video_kbps=56)] * 200,
        burst_interval_s=0.5,
        duration_s=4.0,
        start_stagger_s=0.003,
        seed=1,
        campus=CampusTopology(
            n_cells=4, mobility=MobilityPlan(roam_rate=0.2, epoch_s=1.0)
        ),
        obs_mode=obs_mode,
    )


@pytest.mark.parametrize(
    "build", [_video, _faults, _campus], ids=["video", "faults", "campus"]
)
def test_client_reports_are_identical_in_every_obs_mode(build):
    runs = {mode: run_experiment(build(mode)) for mode in MODES}
    reports = {
        mode: [dataclasses.asdict(r) for r in result.reports]
        for mode, result in runs.items()
    }
    assert sum(r["packets_missed"] for r in reports["full"]) > 0
    for mode in MODES[1:]:
        assert reports[mode] == reports["full"], mode
        assert runs[mode].medium_misses == runs["full"].medium_misses, mode
