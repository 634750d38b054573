"""One planner, two stacks: properties of every interval layout.

The simulator's :class:`DynamicScheduler` and the live
:class:`AsyncProxy` both lay out their intervals with
:func:`repro.core.scheduler.layout_interval`. These properties run
against both planning steps on fake client states — no simulation
events, no sockets — including client counts above what one interval
can hold:

* every slot lies inside its interval;
* slots never overlap;
* no starvation: when at least ``k`` clients get a slot per interval,
  every backlogged client gets one within ``ceil(n / k)`` intervals.
"""

import math
from functools import lru_cache
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bandwidth_model import LinearCostModel, calibrate
from repro.core.scheduler import DEFAULT_SCHEDULE_GUARD_S, DynamicScheduler
from repro.errors import SchedulingError
from repro.experiments.runner import ClientSpec, ExperimentConfig, run_experiment
from repro.experiments.scenarios import ScenarioConfig, build_scenario
from repro.obs import NULL_RECORDER
from repro.runtime.proxy import AsyncProxy, AsyncProxyConfig, _ClientState
from repro.runtime.wire import RuntimeSchedule


@lru_cache(maxsize=1)
def cell_cost_model() -> LinearCostModel:
    """The simulated 11 Mbit/s cell's calibrated send-cost model."""
    return calibrate(build_scenario(ScenarioConfig(n_clients=1, seed=1)).medium)


class FakeSimProxy:
    """The slice of ``TransparentProxy`` the scheduler's snapshot reads."""

    def __init__(self, backlogs: dict[str, int]) -> None:
        self.backlogs = backlogs
        self.obs = NULL_RECORDER
        self.sim = SimpleNamespace(now=0.0)
        self.last_uplink: dict[str, float] = {}

    def iter_queues(self):
        return ((ip, None) for ip in self.backlogs)

    def scheduling_backlog_by_kind(self, ip: str) -> tuple[int, int]:
        # Odd-numbered clients carry TCP, so ACK airtime is charged too.
        nbytes = self.backlogs[ip]
        return (0, nbytes) if int(ip.rsplit("-", 1)[1]) % 2 else (nbytes, 0)

    def channel_state(self, ip: str) -> bool:
        return True


def sim_planner(backlogs: dict[str, int], interval: float):
    """``plan(srp)``: one interval of the simulator's scheduler."""
    scheduler = DynamicScheduler(
        FakeSimProxy(backlogs), cell_cost_model(), interval_s=interval
    )

    def plan(srp: float):
        schedule = scheduler.build_schedule(srp)
        scheduler.seq += 1  # what DynamicScheduler.run does per broadcast
        return schedule

    return plan


def live_planner(backlogs: dict[str, int], interval: float):
    """``plan(srp)``: one interval of the live proxy's scheduler loop."""
    proxy = AsyncProxy(AsyncProxyConfig(burst_interval_s=interval))
    for client_id, nbytes in backlogs.items():
        state = _ClientState(
            client_id, ("127.0.0.1", 9), high=1 << 30, low=1 << 20, now=0.0
        )
        state.bytes_pending = nbytes
        proxy._clients[client_id] = state

    def plan(srp: float):
        schedule = proxy._plan(srp)
        proxy._seq += 1  # what AsyncProxy._scheduler does per broadcast
        return schedule

    return plan


STACKS = {"sim": sim_planner, "live": live_planner}


def backlogs_for(n: int, sizes: list[int]) -> dict[str, int]:
    return {f"client-{i:03d}": sizes[i % len(sizes)] for i in range(n)}


def plan_rounds(stack: str, backlogs: dict[str, int], interval: float):
    """Plan ``n + 1`` consecutive intervals over unchanging backlogs."""
    plan = STACKS[stack](backlogs, interval)
    # A loop-clock-sized SRP, as the live proxy sees it.
    start = 10_000.0
    return [plan(start + i * interval) for i in range(len(backlogs) + 1)]


def assert_inside_and_disjoint(schedule, interval: float) -> None:
    assert schedule.next_srp - schedule.srp == pytest.approx(interval)
    cursor = schedule.srp
    for slot in schedule.slots:
        assert slot.rendezvous >= cursor - 1e-9
        cursor = slot.end
    assert cursor <= schedule.next_srp + 1e-9
    # The datagram form keeps every slot inside the advertised interval.
    wire = RuntimeSchedule.from_schedule(schedule)
    for slot in wire.slots:
        assert slot.offset_s + slot.duration_s <= wire.interval_s


def assert_no_starvation(schedules, clients) -> None:
    k = min(len(schedule.slots) for schedule in schedules)
    assert k >= 1
    window = math.ceil(len(clients) / k)
    for start in range(len(schedules) - window + 1):
        served = {
            slot.client_ip
            for schedule in schedules[start:start + window]
            for slot in schedule.slots
        }
        assert served == set(clients)


@pytest.mark.parametrize("stack", sorted(STACKS))
class TestPlannerProperties:
    @given(
        n=st.integers(min_value=1, max_value=220),
        sizes=st.lists(
            st.integers(min_value=1, max_value=150_000), min_size=1, max_size=6
        ),
        interval=st.sampled_from([0.05, 0.1, 0.5]),
    )
    @settings(max_examples=25, deadline=None)
    def test_slots_fit_never_overlap_and_nobody_starves(
        self, stack, n, sizes, interval
    ):
        backlogs = backlogs_for(n, sizes)
        schedules = plan_rounds(stack, backlogs, interval)
        for schedule in schedules:
            assert_inside_and_disjoint(schedule, interval)
        assert_no_starvation(schedules, backlogs)

    @pytest.mark.parametrize("n", [150, 220])
    def test_above_capacity_defers_whole_bursts(self, stack, n):
        """Past the ~97 clients one 50 ms interval holds, each interval
        serves a prefix of whole bursts and defers the rest."""
        backlogs = backlogs_for(n, [16_000])
        schedules = plan_rounds(stack, backlogs, 0.05)
        for schedule in schedules:
            assert 1 <= len(schedule.slots) < n
            assert all(s.bytes_allotted == 16_000 for s in schedule.slots)
            assert_inside_and_disjoint(schedule, 0.05)
        assert_no_starvation(schedules, backlogs)

    def test_a_slot_that_cannot_fit_raises(self, stack):
        plan = STACKS[stack](backlogs_for(3, [1000]), DEFAULT_SCHEDULE_GUARD_S)
        with pytest.raises(SchedulingError):
            plan(0.0)


def test_hundred_video_clients_at_50ms_finish():
    """One 50 ms interval cannot give 100 clients a slot each; the
    scheduler defers instead of raising out of the run."""
    n = 100
    result = run_experiment(
        ExperimentConfig(
            clients=[ClientSpec("video")] * n,
            burst_interval_s=0.05,
            duration_s=3.0,
            start_stagger_s=0.01,
            scenario=ScenarioConfig(n_clients=n, seed=0, obs_mode="off"),
        )
    )
    assert len(result.reports) == n
    assert result.schedules_sent >= 3.0 / 0.05
    assert sum(report.bytes_received for report in result.reports) > 0
