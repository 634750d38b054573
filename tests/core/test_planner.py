"""One planner, two stacks: properties of every interval layout.

The simulator's :class:`DynamicScheduler` and the live
:class:`AsyncProxy` both plan their intervals with one
:class:`repro.core.scheduler.IntervalPlanner`. Its layout properties
run against the planner as each stack configures it — the simulated
cell's cost model with UDP and TCP backlogs, the live proxy's loopback
drain rate — including client counts above what one interval can hold:

* every slot lies inside its interval;
* slots never overlap;
* no starvation: when at least ``k`` clients get a slot per interval,
  every backlogged client gets one within ``ceil(n / k)`` intervals.

Slot reclamation is the planner's too: a random uplink timeline checks
when a silent client loses and regains its slot, and the same timeline
fed to both stacks must yield the same reclaim/restore sequence.
"""

import asyncio
import math
import selectors
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bandwidth_model import LinearCostModel, calibrate
from repro.core.scheduler import (
    DEFAULT_SCHEDULE_GUARD_S,
    DynamicScheduler,
    IntervalPlanner,
)
from repro.errors import SchedulingError
from repro.experiments.runner import ClientSpec, ExperimentConfig, run_experiment
from repro.experiments.scenarios import ScenarioConfig, build_scenario, client_ip
from repro.obs import SimRecorder
from repro.runtime.proxy import AsyncProxy, AsyncProxyConfig
from repro.runtime.wire import RuntimeSchedule, encode_heartbeat


@lru_cache(maxsize=1)
def cell_cost_model() -> LinearCostModel:
    """The simulated 11 Mbit/s cell's calibrated send-cost model."""
    return calibrate(build_scenario(ScenarioConfig(n_clients=1, seed=1)).medium)


def sim_backlog(key: str, nbytes: int):
    # Odd-numbered clients carry TCP, so ACK airtime is charged too.
    odd = int(key.rsplit("-", 1)[1]) % 2
    return (key, 0, nbytes) if odd else (key, nbytes, 0)


def live_backlog(key: str, nbytes: int):
    return (key, nbytes, 0)


#: stack -> (the planner as that stack builds it, its backlog form).
STACKS = {
    "sim": (lambda interval: IntervalPlanner(cell_cost_model(), interval),
            sim_backlog),
    "live": (lambda interval: AsyncProxy(
        AsyncProxyConfig(burst_interval_s=interval)
    ).planner, live_backlog),
}


def planner_for(stack: str, backlogs: dict[str, int], interval: float):
    """``plan(srp)``: one interval of ``stack``'s planner."""
    make, backlog = STACKS[stack]
    planner = make(interval)
    entries = [backlog(key, nbytes) for key, nbytes in backlogs.items()]
    return lambda srp: planner.plan(srp, srp, entries, {})


def backlogs_for(n: int, sizes: list[int]) -> dict[str, int]:
    return {f"client-{i:03d}": sizes[i % len(sizes)] for i in range(n)}


def plan_rounds(stack: str, backlogs: dict[str, int], interval: float):
    """Plan ``n + 1`` consecutive intervals over unchanging backlogs."""
    plan = planner_for(stack, backlogs, interval)
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
        assert [s.seq for s in schedules] == list(range(len(schedules)))
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
        plan = planner_for(stack, backlogs_for(3, [1000]), DEFAULT_SCHEDULE_GUARD_S)
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
            obs_mode="off",
        )
    )
    assert len(result.reports) == n
    assert result.schedules_sent >= 3.0 / 0.05
    assert sum(report.bytes_received for report in result.reports) > 0


# -- slot reclamation ----------------------------------------------------------

#: SRPs fall on multiples of INTERVAL; a client is heard (registration
#: included) half an interval after one, so no uplink is ever within
#: float error of an SRP or of the silence threshold.
INTERVAL = 0.1
TIMEOUT = 0.3
N_SRPS = 30

#: Per client, the SRP indices after which it is heard again.
uplink_timelines = st.lists(
    st.lists(st.integers(min_value=0, max_value=N_SRPS - 1), max_size=10),
    min_size=1,
    max_size=4,
)


def heard_times(ticks: list[int]) -> list[float]:
    """Half an interval after SRP 0 (registration) and each tick."""
    return [(tick + 0.5) * INTERVAL for tick in sorted({0, *ticks})]


def expected_silences(
    heard: list[float], srps: list[float]
) -> list[tuple[float, float]]:
    """``(reclaim, restore)`` SRPs of each silence longer than TIMEOUT;
    ``restore`` is ``inf`` when the client stays silent to the end."""
    silences = []
    for last, back in zip(heard, heard[1:] + [math.inf]):
        reclaim = next((s for s in srps if s > last + TIMEOUT), math.inf)
        if reclaim < back:
            silences.append(
                (reclaim, next((s for s in srps if s > back), math.inf))
            )
    return silences


def scheduler_events(trace) -> list[tuple[float, str, str]]:
    return [
        (round(row.time, 6), row.category, row.fields["client"])
        for row in trace.query("scheduler.")
        if row.category in ("scheduler.reclaim", "scheduler.restore")
    ]


@given(timeline=uplink_timelines)
@settings(max_examples=60, deadline=None)
def test_silent_client_loses_its_slot_until_heard_again(timeline):
    """Silent longer than ``silence_timeout_s``: no slot from the next
    SRP on, and the slot back at the first SRP after it is heard."""
    recorder = SimRecorder()
    planner = IntervalPlanner(
        cell_cost_model(), INTERVAL, silence_timeout_s=TIMEOUT, obs=recorder
    )
    keys = [f"client-{c}" for c in range(len(timeline))]
    heard = {key: heard_times(ticks) for key, ticks in zip(keys, timeline)}
    srps = [i * INTERVAL for i in range(N_SRPS)]
    silences = {key: expected_silences(heard[key], srps) for key in keys}
    # A client never heard is never judged silent.
    backlogs = [(key, 1000, 0) for key in keys + ["never-heard"]]
    expected = []
    for srp in srps:
        last_uplink = {
            key: max(t for t in heard[key] if t < srp)
            for key in keys
            if heard[key][0] < srp
        }
        served = {
            slot.client_ip
            for slot in planner.plan(srp, srp, backlogs, last_uplink).slots
        }
        assert "never-heard" in served
        for key in keys:
            silent = any(r <= srp < b for r, b in silences[key])
            assert (key not in served) == silent
            for reclaim, restore in silences[key]:
                if srp == reclaim:
                    expected.append((round(srp, 6), "scheduler.reclaim", key))
                if srp == restore:
                    expected.append((round(srp, 6), "scheduler.restore", key))
    assert scheduler_events(recorder.trace) == expected
    assert planner.slots_reclaimed == sum(len(s) for s in silences.values())
    assert planner.slots_restored == sum(
        1 for s in silences.values() for _r, b in s if b < math.inf
    )


class _JumpSelector(selectors.DefaultSelector):
    """Never blocks: a wait for the next timer moves the clock there."""

    def __init__(self, loop: "_VirtualClockLoop") -> None:
        super().__init__()
        self._loop = loop

    def select(self, timeout=None):
        ready = super().select(0)
        if not ready and timeout:
            self._loop.virtual_now += timeout
        return ready


class _VirtualClockLoop(asyncio.SelectorEventLoop):
    """An event loop on virtual time: sleeps cost no wall time."""

    def __init__(self) -> None:
        self.virtual_now = 0.0
        super().__init__(_JumpSelector(self))

    def time(self) -> float:
        return self.virtual_now


def live_silences(
    uplinks: list[tuple[float, str]], keys: list[str], horizon: float
):
    """The live proxy's reclaim/restore events over ``uplinks``: its
    scheduler and reaper run unstarted (no sockets) on virtual time."""
    recorder = SimRecorder()
    proxy = AsyncProxy(
        AsyncProxyConfig(
            burst_interval_s=INTERVAL,
            silence_timeout_s=TIMEOUT,
            evict_timeout_s=2 * horizon,
        ),
        obs=recorder,
    )

    async def drive() -> None:
        loop = asyncio.get_running_loop()
        services = [
            asyncio.create_task(proxy._scheduler()),
            asyncio.create_task(proxy._reaper()),
        ]
        for when, key in uplinks:
            await asyncio.sleep(when - loop.time())
            if key not in proxy._clients:
                proxy._register(key, 20000 + keys.index(key))
            else:
                proxy._on_control_datagram(
                    encode_heartbeat(key, 0), ("127.0.0.1", 9)
                )
        await asyncio.sleep(horizon - loop.time())
        for task in services:
            task.cancel()
        await asyncio.gather(*services, return_exceptions=True)

    loop = _VirtualClockLoop()
    try:
        loop.run_until_complete(drive())
    finally:
        loop.close()
    return scheduler_events(recorder.trace)


def sim_silences(
    uplinks: list[tuple[float, str]], keys: list[str], horizon: float
):
    """The simulated proxy's reclaim/restore events over ``uplinks``."""
    scenario = build_scenario(ScenarioConfig(n_clients=len(keys), seed=3))
    proxy, sim = scenario.proxy, scenario.sim
    proxy.attach_scheduler(
        DynamicScheduler(
            proxy, calibrate(scenario.medium), interval_s=INTERVAL,
            silence_timeout_s=TIMEOUT,
        )
    )
    proxy.start()

    def hear(key: str) -> None:
        proxy.last_uplink[key] = sim.now

    for when, key in uplinks:
        sim.call_at1(when, hear, key)
    sim.run(until=horizon)
    return scheduler_events(scenario.trace)


@given(timeline=uplink_timelines)
@settings(max_examples=15, deadline=None)
def test_both_stacks_reclaim_and_restore_alike(timeline):
    """The same uplink timeline gives the simulated and the live proxy
    the same reclaim/restore sequence, SRP for SRP."""
    keys = [client_ip(c) for c in range(len(timeline))]
    uplinks = sorted(
        (when, key)
        for key, ticks in zip(keys, timeline)
        for when in heard_times(ticks)
    )
    horizon = (N_SRPS - 0.5) * INTERVAL
    live = live_silences(uplinks, keys, horizon)
    assert live == sim_silences(uplinks, keys, horizon)
    if any(len(ticks) < 3 for ticks in timeline):
        assert live  # somebody fell silent
