"""Property-based tests for the scheduling-policy family.

Two layers:

* **policy level** — :meth:`SchedulingPolicy.admit` is a pure function
  from view snapshots to admitted keys: subset of the backlogged
  clients, duplicate-free, deterministic, and each policy's defining
  invariant (dynamic admits everyone, channel never starves, joint is
  a backlog threshold).
* **scheduler level** — whatever the policy decides, the schedule the
  proxy broadcasts stays well-formed: no slot for silenced/departed
  clients, non-overlapping in-interval slots, byte-identical schedules
  for the same seed, and work conservation on an all-good channel
  (every policy admits exactly what the paper's dynamic policy would).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bandwidth_model import calibrate
from repro.core.policy import (
    POLICY_NAMES,
    ChannelAwarePolicy,
    ClientView,
    JointThresholdPolicy,
    PaperDynamicPolicy,
    make_policy,
)
from repro.core.scheduler import DynamicScheduler
from repro.experiments.scenarios import ScenarioConfig, build_scenario, client_ip
from repro.net.addr import Endpoint
from repro.net.packet import Packet

ALL_POLICIES = (
    PaperDynamicPolicy(),
    ChannelAwarePolicy(max_defer=0),
    ChannelAwarePolicy(max_defer=2),
    JointThresholdPolicy(threshold=1),
    JointThresholdPolicy(threshold=3),
)


def views_from(raw):
    """Build a unique-key view list from raw (backlog, good, deferred)."""
    return [
        ClientView(
            key=f"10.0.1.{i + 2}",
            backlog=backlog,
            channel_good=good,
            deferred=deferred,
        )
        for i, (backlog, good, deferred) in enumerate(raw)
    ]


view_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10_000),
        st.booleans(),
        st.integers(min_value=0, max_value=5),
    ),
    min_size=0,
    max_size=8,
).map(views_from)


class TestAdmitContract:
    @given(raw=view_lists)
    @settings(max_examples=200, deadline=None)
    def test_subset_unique_deterministic(self, raw):
        backlogged = {view.key for view in raw if view.backlog > 0}
        for policy in ALL_POLICIES:
            admitted = policy.admit(raw)
            assert set(admitted) <= backlogged, policy
            assert len(admitted) == len(set(admitted)), policy
            assert policy.admit(raw) == admitted, policy
            assert policy.admit(tuple(raw)) == admitted, policy

    @given(raw=view_lists)
    @settings(max_examples=200, deadline=None)
    def test_dynamic_admits_every_backlogged_client(self, raw):
        admitted = PaperDynamicPolicy().admit(raw)
        assert set(admitted) == {v.key for v in raw if v.backlog > 0}

    @given(raw=view_lists, max_defer=st.integers(min_value=0, max_value=4))
    @settings(max_examples=200, deadline=None)
    def test_channel_policy_never_starves(self, raw, max_defer):
        """Good-channel and overdue clients are in; fresh bad-channel
        clients are out — nobody waits past ``max_defer`` intervals."""
        admitted = set(ChannelAwarePolicy(max_defer=max_defer).admit(raw))
        for view in raw:
            if view.backlog == 0:
                assert view.key not in admitted
            elif view.channel_good or view.deferred >= max_defer:
                assert view.key in admitted
            else:
                assert view.key not in admitted

    @given(raw=view_lists, threshold=st.integers(min_value=0, max_value=5000))
    @settings(max_examples=200, deadline=None)
    def test_joint_policy_is_a_backlog_threshold(self, raw, threshold):
        admitted = set(JointThresholdPolicy(threshold=threshold).admit(raw))
        for view in raw:
            if view.backlog == 0:
                assert view.key not in admitted
            elif view.channel_good or view.backlog >= threshold:
                assert view.key in admitted
            else:
                assert view.key not in admitted

    @given(raw=view_lists)
    @settings(max_examples=200, deadline=None)
    def test_work_conservation_on_all_good_channel(self, raw):
        """With every channel good, each policy admits exactly the set
        the paper's dynamic policy would — channel awareness costs
        nothing when there is nothing to be aware of."""
        sunny = [
            ClientView(
                key=v.key, backlog=v.backlog,
                channel_good=True, deferred=v.deferred,
            )
            for v in raw
        ]
        baseline = set(PaperDynamicPolicy().admit(sunny))
        for policy in ALL_POLICIES:
            assert set(policy.admit(sunny)) == baseline, policy


def scenario_with_queues(depths, seed=1):
    """A built scenario with the given per-client queue depths pushed."""
    scenario = build_scenario(ScenarioConfig(n_clients=len(depths), seed=seed))
    for i, nbytes in enumerate(depths):
        queue = scenario.proxy.queue_for(client_ip(i))
        remaining = nbytes
        while remaining > 0:
            size = min(700, remaining)
            queue.push_udp(
                Packet(
                    "udp", Endpoint("10.0.2.1", 20000),
                    Endpoint(client_ip(i), 5004), payload_size=size,
                )
            )
            remaining -= size
    return scenario


def make_scheduler(scenario, policy_name, **kwargs):
    return DynamicScheduler(
        scenario.proxy,
        calibrate(scenario.medium),
        policy=make_policy(policy_name, threshold=2000, max_defer=2),
        **kwargs,
    )


depth_lists = st.lists(
    st.integers(min_value=0, max_value=60_000), min_size=1, max_size=6
)


class TestScheduleShape:
    @given(depths=depth_lists, policy_name=st.sampled_from(POLICY_NAMES))
    @settings(max_examples=40, deadline=None)
    def test_slots_never_overlap_and_fit_the_interval(
        self, depths, policy_name
    ):
        scenario = scenario_with_queues(depths)
        scheduler = make_scheduler(scenario, policy_name, interval_s=0.5)
        schedule = scheduler.build_schedule(srp=0.0)
        cursor = schedule.srp
        for slot in schedule.slots:
            assert slot.rendezvous >= cursor
            assert slot.duration >= 0.0
            cursor = slot.end
        assert cursor <= schedule.next_srp

    @given(depths=depth_lists, policy_name=st.sampled_from(POLICY_NAMES))
    @settings(max_examples=25, deadline=None)
    def test_same_seed_schedules_are_byte_identical(
        self, depths, policy_name
    ):
        schedules = []
        for _ in range(2):
            scenario = scenario_with_queues(depths)
            scheduler = make_scheduler(scenario, policy_name, interval_s=0.5)
            schedules.append(scheduler.build_schedule(srp=0.0))
        assert schedules[0] == schedules[1]

    @given(depths=depth_lists, policy_name=st.sampled_from(POLICY_NAMES))
    @settings(max_examples=40, deadline=None)
    def test_no_slot_for_silenced_clients(self, depths, policy_name):
        scenario = scenario_with_queues(depths)
        scheduler = make_scheduler(scenario, policy_name, interval_s=0.5)
        silenced = {
            client_ip(i) for i in range(len(depths)) if i % 2 == 0
        }
        scheduler.planner.silenced = set(silenced)
        schedule = scheduler.build_schedule(srp=0.0)
        assert not {slot.client_ip for slot in schedule.slots} & silenced

    @given(depths=depth_lists, policy_name=st.sampled_from(POLICY_NAMES))
    @settings(max_examples=40, deadline=None)
    def test_work_conservation_without_a_channel_model(
        self, depths, policy_name
    ):
        """No channel model means every channel reads good, so every
        policy schedules exactly the clients the dynamic policy does —
        the determinism-preservation contract at the schedule level."""
        scenario = scenario_with_queues(depths)
        assert scenario.proxy.channel is None
        baseline = scenario_with_queues(depths)
        schedule = make_scheduler(
            scenario, policy_name, interval_s=0.5
        ).build_schedule(srp=0.0)
        expected = make_scheduler(
            baseline, "dynamic", interval_s=0.5
        ).build_schedule(srp=0.0)
        assert {s.client_ip for s in schedule.slots} == {
            s.client_ip for s in expected.slots
        }
        assert schedule == expected
