"""The dynamic scheduling policy (paper §3.2.1).

At every SRP the proxy snapshots all client queues, builds a schedule
(variable-sized or fixed-sized), broadcasts it, and bursts each client
in turn at its rendezvous point:

* **fixed interval** (100 ms / 500 ms in the paper): each client gets a
  share of the interval *proportional to its queue depth*; data that
  does not fit waits for the next interval;
* **variable interval**: the schedule is sized so every client can
  drain its queue, clamped to [min_interval, max_interval]; when the
  maximum clamps it, allotments degrade to proportional shares.

One sans-IO :class:`IntervalPlanner` schedules both stacks: at each
SRP :class:`DynamicScheduler` feeds it the simulated proxy's queues
and uplink times, the live asyncio proxy (:mod:`repro.runtime.proxy`)
its socket buffers and heartbeat times. It reclaims the slots of
silent clients, applies the admission policy (:mod:`repro.core.policy`)
and lays the interval out with the pure :func:`layout_interval`, which
past the interval's capacity serves a prefix of whole bursts and
defers the rest, with :class:`BurstRotation` keeping the deferral fair.

The schedule-reuse extension (paper §5 future work) can be enabled with
``reuse_schedules=True``: when two consecutive schedules would have the
same relative layout, the proxy broadcasts the first with
``repeats_next=True``, skips the next broadcast entirely, and replays
the same layout — saving every client one schedule wake-up.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence

from repro.core.bandwidth_model import LinearCostModel
from repro.core.policy import ClientView, PaperDynamicPolicy, SchedulingPolicy
from repro.core.schedule import (
    SCHEDULE_HEADER_BYTES,
    SLOT_ENTRY_BYTES,
    BurstSlot,
    Schedule,
)
from repro.errors import SchedulingError
from repro.net.packet import MSS
from repro.obs.metrics import BYTES_BUCKETS, RATIO_BUCKETS, SECONDS_BUCKETS
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.units import ms, us

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.proxy import TransparentProxy
    from repro.sim.core import Event

#: Gap between consecutive burst slots.
DEFAULT_SLOT_GAP_S = us(500)
#: Time reserved between the schedule broadcast and the first slot.
DEFAULT_SCHEDULE_GUARD_S = ms(1.5)

#: One client's backlog as the layout sees it: (client, udp, tcp bytes).
Backlog = tuple[str, int, int]


def burst_cost(cost_model: LinearCostModel, udp_bytes: int, tcp_bytes: int) -> float:
    """Channel time of one client's burst, ACK echoes included.

    TCP data on the half-duplex cell is answered by uplink ACKs —
    with delayed ACKs, about one per two segments — which occupy
    the same medium the next slot needs. The paper's microbenchmark
    calibration measured real transfers and thus absorbed this; we
    account for it explicitly.
    """
    cost = cost_model.burst_cost(udp_bytes)
    if tcp_bytes > 0:
        cost += cost_model.burst_cost(tcp_bytes)
        segments = -(-tcp_bytes // MSS)
        acks = -(-segments // 2)  # delayed ACKs: one per two segments
        cost += acks * cost_model.packet_cost(0)
    return cost


def layout_interval(
    srp: float,
    seq: int,
    pending: Sequence[Backlog],
    cost_model: LinearCostModel,
    interval: Optional[float],
    *,
    slot_gap_s: float = DEFAULT_SLOT_GAP_S,
    schedule_guard_s: float = DEFAULT_SCHEDULE_GUARD_S,
    min_interval_s: float = ms(100),
    max_interval_s: float = ms(500),
) -> Schedule:
    """Lay out one burst interval; pure, with no clock, queue or socket.

    ``pending`` lists the admitted clients in burst order (see
    :class:`BurstRotation`). ``interval=None`` selects the variable
    policy, bounded by ``[min_interval_s, max_interval_s]``.

    Overload: when the lead and one slot gap per client leave a fixed
    interval no burst window, the longest prefix of ``pending`` whose
    *whole* bursts fit is served (at least one client) and the rest is
    deferred. A single slot that cannot fit raises
    :class:`SchedulingError`.
    """
    costs = [burst_cost(cost_model, udp_b, tcp_b) for _, udp_b, tcp_b in pending]
    lead = _lead(cost_model, len(pending), schedule_guard_s)
    drain_all = False
    window = 0.0
    if interval is None:
        total = lead + sum(costs) + slot_gap_s * len(pending)
        # Overrun slack: if the bursts run past the advertised next SRP,
        # the late schedule broadcast defeats every client's arrival
        # anchor. Mirrors the fixed layout's 0.9 window factor.
        total *= 1.1
        interval = min(max_interval_s, max(min_interval_s, total))
        # Every queue drains in full unless the maximum clamps the
        # interval; then allotments degrade to proportional shares.
        drain_all = total <= interval
    if not drain_all:
        window = _window(interval, lead, len(pending), slot_gap_s)
        if window <= 0 and len(pending) > 1:
            # Overload: keep the longest prefix of whole bursts that fits.
            served, used = 1, costs[0]
            while served < len(pending):
                used += costs[served]
                lead = _lead(cost_model, served + 1, schedule_guard_s)
                if used > _window(interval, lead, served + 1, slot_gap_s):
                    break
                served += 1
            pending, costs = pending[:served], costs[:served]
            lead = _lead(cost_model, served, schedule_guard_s)
            window = _window(interval, lead, served, slot_gap_s)
        if window <= 0:
            raise SchedulingError(
                f"interval {interval}s cannot fit the schedule overhead"
            )
    total_cost = sum(costs)
    slots = []
    cursor = srp + lead
    for (ip, udp_b, tcp_b), full_cost in zip(pending, costs):
        nbytes = udp_b + tcp_b
        share = full_cost if drain_all else window * full_cost / total_cost
        if full_cost <= share:
            allotted, duration = nbytes, full_cost
        else:
            # Scale the allotment down to what fits the share,
            # keeping this client's udp/tcp cost ratio.
            inflation = full_cost / max(cost_model.burst_cost(nbytes), 1e-12)
            allotted = min(nbytes, cost_model.bytes_for(share / inflation))
            duration = full_cost * (allotted / nbytes) if nbytes else 0.0
        slots.append(
            BurstSlot(
                client_ip=ip,
                rendezvous=cursor,
                duration=duration,
                bytes_allotted=allotted,
            )
        )
        cursor += duration + slot_gap_s
    return Schedule(
        seq=seq, srp=srp, next_srp=srp + interval, slots=tuple(slots)
    )


def _lead(
    cost_model: LinearCostModel, n_slots: int, schedule_guard_s: float
) -> float:
    """Airtime of the schedule message plus the guard before slot one."""
    payload = SCHEDULE_HEADER_BYTES + SLOT_ENTRY_BYTES * n_slots
    return cost_model.packet_cost(payload) + schedule_guard_s


def _window(
    interval: float, lead: float, n_slots: int, slot_gap_s: float
) -> float:
    """Burst time a fixed interval holds for ``n_slots`` slots."""
    window = interval - lead - slot_gap_s * max(1, n_slots)
    # Safety factor: random backoff and AP forwarding make real
    # airtime exceed the estimate now and then; a slot that spills
    # past the SRP delays every later client's marked packet
    # (§3.2.2's "subsequent clients will not receive their data as
    # scheduled").
    return window * 0.9


class BurstRotation:
    """Where each interval's burst order starts, for both stacks.

    The order rotates by one client per interval, so no client always
    goes first. After an overloaded interval, the next one starts with
    the first client deferred: with ``k`` slots per interval, every
    backlogged client is served within ``ceil(n / k)`` intervals.
    """

    __slots__ = ("_resume",)

    def __init__(self) -> None:
        self._resume: Optional[str] = None

    def order(self, pending: list[Backlog], base: int) -> list[Backlog]:
        """``pending`` rotated by ``base``, or to the deferred client."""
        if not pending:
            return pending
        rotation = base % len(pending)
        if self._resume is not None:
            keys = [key for key, _udp, _tcp in pending]
            if self._resume in keys:
                rotation = keys.index(self._resume)
        return pending[rotation:] + pending[:rotation]

    def advance(self, ordered: Sequence[Backlog], schedule: Schedule) -> None:
        """Remember the first client ``schedule`` deferred, if any."""
        served = len(schedule.slots)
        self._resume = ordered[served][0] if served < len(ordered) else None


class IntervalPlanner:
    """The scheduler of both stacks, with no clock, socket or sim event.

    Each :meth:`plan` call is one SRP: it judges uplink silence,
    observes every queue, leaves out the silenced clients and those the
    admission policy holds back, and lays out the rest in rotated order.
    The planner owns all state that outlives an interval: the sequence
    number, the :class:`BurstRotation`, the silenced set and the
    policy's deferral ages.
    """

    def __init__(
        self,
        cost_model: LinearCostModel,
        interval_s: Optional[float],
        *,
        min_interval_s: float = ms(100),
        max_interval_s: float = ms(500),
        slot_gap_s: float = DEFAULT_SLOT_GAP_S,
        schedule_guard_s: float = DEFAULT_SCHEDULE_GUARD_S,
        reuse_schedules: bool = False,
        silence_timeout_s: Optional[float] = None,
        policy: Optional[SchedulingPolicy] = None,
        channel_state: Callable[[str], bool] = lambda key: True,
        obs: Recorder = NULL_RECORDER,
    ) -> None:
        """Args:
        cost_model: calibrated linear send-cost model.
        interval_s: fixed burst interval; None selects the variable
            policy bounded by ``min_interval_s``/``max_interval_s``.
        reuse_schedules: the caller replays layouts (§5), so the order
            rotates only past overload deferrals.
        silence_timeout_s: reclaim the slot of a client whose uplink
            has been silent this long (None disables reclamation). A
            client that never transmitted anything is never judged
            silent — there is no baseline to decay from.
        policy: slot-admission policy (see :mod:`repro.core.policy`).
            Defaults to the paper's dynamic policy, which admits every
            backlogged client.
        channel_state: a client's channel state (True = good).
        """
        if interval_s is not None and interval_s <= 0:
            raise SchedulingError(f"interval must be positive: {interval_s!r}")
        if min_interval_s <= 0 or max_interval_s < min_interval_s:
            raise SchedulingError(
                f"bad interval bounds: [{min_interval_s}, {max_interval_s}]"
            )
        if silence_timeout_s is not None and silence_timeout_s <= 0:
            raise SchedulingError(
                f"silence_timeout_s must be positive: {silence_timeout_s!r}"
            )
        self.cost_model = cost_model
        self.interval_s = interval_s
        self.min_interval_s = min_interval_s
        self.max_interval_s = max_interval_s
        self.slot_gap_s = slot_gap_s
        self.schedule_guard_s = schedule_guard_s
        self.reuse_schedules = reuse_schedules
        self.silence_timeout_s = silence_timeout_s
        self.policy: SchedulingPolicy = (
            policy if policy is not None else PaperDynamicPolicy()
        )
        self.channel_state = channel_state
        self.obs = obs
        self.seq = 0
        self.silenced: set[str] = set()
        self.slots_reclaimed = 0
        self.slots_restored = 0
        self.policy_grants = 0
        self.policy_defers = 0
        #: Consecutive intervals each backlogged client has been held
        #: back by the policy (cleared on admission or on drain).
        self._deferred: dict[str, int] = {}
        self._rotation = BurstRotation()

    def plan(
        self,
        srp: float,
        now: float,
        backlogs: Iterable[Backlog],
        last_uplink: dict[str, float],
    ) -> Schedule:
        """The schedule of the interval starting at ``srp``.

        ``backlogs`` holds every client's ``(key, udp, tcp)`` bytes in a
        deterministic order; ``last_uplink`` maps each client heard so
        far to when it was last heard, on the clock of ``now``.
        """
        self._update_silenced(now, last_uplink)
        obs = self.obs
        pending = []
        for entry in backlogs:
            key, udp_bytes, tcp_bytes = entry
            backlog = udp_bytes + tcp_bytes
            obs.observe(
                "scheduler.queue_bytes", backlog, buckets=BYTES_BUCKETS,
                client=key,
            )
            if backlog > 0 and key not in self.silenced:
                pending.append(entry)
        pending = self._admit(pending, now)
        # Schedule reuse needs a *stable* order, so reuse rotates only
        # past overload deferrals.
        ordered = self._rotation.order(
            pending, 0 if self.reuse_schedules else self.seq
        )
        schedule = layout_interval(
            srp, self.seq, ordered, self.cost_model, self.interval_s,
            slot_gap_s=self.slot_gap_s, schedule_guard_s=self.schedule_guard_s,
            min_interval_s=self.min_interval_s,
            max_interval_s=self.max_interval_s,
        )
        self._rotation.advance(ordered, schedule)
        self.seq += 1
        return schedule

    def claim_seq(self) -> int:
        """A sequence number for a schedule laid out elsewhere (reuse)."""
        self.seq += 1
        return self.seq - 1

    def forget(self, key: str) -> None:
        """Drop a departed client's silence and deferral state."""
        self.silenced.discard(key)
        self._deferred.pop(key, None)

    def _update_silenced(self, now: float, last_uplink: dict[str, float]) -> None:
        """Reclaim the slots of clients whose uplink (TCP ACKs, feedback
        reports, heartbeats) went quiet; restore them once heard again.
        A silent client keeps its queued data."""
        if self.silence_timeout_s is None:
            return
        for key, last_heard in last_uplink.items():
            silent = (now - last_heard) > self.silence_timeout_s
            if silent and key not in self.silenced:
                self.silenced.add(key)
                self.slots_reclaimed += 1
                self.obs.event(
                    now, "scheduler.reclaim", client=key,
                    silent_s=now - last_heard,
                )
                self.obs.inc("scheduler.slots_reclaimed", client=key)
            elif not silent and key in self.silenced:
                self.silenced.discard(key)
                self.slots_restored += 1
                self.obs.event(now, "scheduler.restore", client=key)
                self.obs.inc("scheduler.slots_restored", client=key)

    def _admit(self, pending: list[Backlog], now: float) -> list[Backlog]:
        """Apply the slot-admission policy, preserving ``pending`` order.

        The policy sees one :class:`ClientView` per backlogged client
        and returns the admitted keys; held-back clients keep their
        bytes queued and age their deferral counter. The default
        dynamic policy admits everyone, so the filter — and all its
        observability — is a no-op on legacy configurations.
        """
        if not pending:
            self._deferred = {}
            return pending
        views = [
            ClientView(
                key=key,
                backlog=udp_b + tcp_b,
                channel_good=self.channel_state(key),
                deferred=self._deferred.get(key, 0),
            )
            for key, udp_b, tcp_b in pending
        ]
        admitted_keys = set(self.policy.admit(views))
        admitted = [entry for entry in pending if entry[0] in admitted_keys]
        deferred: dict[str, int] = {}
        chatty = self.policy.name != "dynamic"
        for view in views:
            if view.key in admitted_keys:
                continue
            deferred[view.key] = view.deferred + 1
            self.policy_defers += 1
            if chatty:
                self.obs.event(
                    now, "scheduler.policy_defer",
                    client=view.key, backlog=view.backlog,
                    deferred=view.deferred + 1,
                    channel="good" if view.channel_good else "bad",
                )
                self.obs.inc("scheduler.policy_defers", client=view.key)
        self._deferred = deferred
        self.policy_grants += len(admitted)
        if chatty and admitted:
            self.obs.inc("scheduler.policy_grants", len(admitted))
        return admitted


class DynamicScheduler:
    """Runs the planner's schedules on the simulated proxy."""

    slots_reclaimed = property(attrgetter("planner.slots_reclaimed"))
    slots_restored = property(attrgetter("planner.slots_restored"))
    policy_grants = property(attrgetter("planner.policy_grants"))
    policy_defers = property(attrgetter("planner.policy_defers"))

    def __init__(
        self,
        proxy: "TransparentProxy",
        cost_model: LinearCostModel,
        interval_s: Optional[float] = None,
        min_interval_s: float = ms(100),
        max_interval_s: float = ms(500),
        slot_gap_s: float = DEFAULT_SLOT_GAP_S,
        schedule_guard_s: float = DEFAULT_SCHEDULE_GUARD_S,
        reuse_schedules: bool = False,
        silence_timeout_s: Optional[float] = None,
        policy: Optional[SchedulingPolicy] = None,
    ) -> None:
        """``proxy`` supplies the queues, uplink times, channel state,
        burster and socket; ``reuse_schedules`` enables the §5
        schedule-reuse extension; the rest configure the planner."""
        self.proxy = proxy
        self.cost_model = cost_model
        self.planner = IntervalPlanner(
            cost_model, interval_s,
            min_interval_s=min_interval_s, max_interval_s=max_interval_s,
            slot_gap_s=slot_gap_s, schedule_guard_s=schedule_guard_s,
            reuse_schedules=reuse_schedules,
            silence_timeout_s=silence_timeout_s, policy=policy,
            channel_state=proxy.channel_state, obs=proxy.obs,
        )
        self.schedules_sent = 0
        self.schedules_reused = 0
        self._last_layout: Optional[tuple] = None

    def build_schedule(self, srp: float) -> Schedule:
        """Snapshot the queues and plan the schedule for one interval."""
        proxy = self.proxy
        backlog = proxy.scheduling_backlog_by_kind
        backlogs = ((ip, *backlog(ip)) for ip, _queue in proxy.iter_queues())
        return self.planner.plan(srp, proxy.sim.now, backlogs, proxy.last_uplink)

    def forget_client(self, client_ip: str) -> None:
        """Drop per-client scheduling state after a shard handoff.

        Reserved for :class:`repro.campus.handoff.HandoffCoordinator`
        (analysis rule CAM001). The cached reuse layout is invalidated
        so a repeated schedule can never re-grant the departed slot.
        """
        self.planner.forget(client_ip)
        self._last_layout = None

    # -- execution ------------------------------------------------------------

    def run(self) -> Iterator[Event]:
        """The proxy-side scheduling process (a simulation generator)."""
        sim = self.proxy.sim
        planned_srp: Optional[float] = None
        while True:
            srp = sim.now
            if planned_srp is not None:
                self.proxy.obs.observe(
                    "scheduler.srp_lateness_s",
                    max(0.0, srp - planned_srp),
                    buckets=SECONDS_BUCKETS,
                )
            schedule = self.build_schedule(srp)
            repeat = False
            if self.planner.reuse_schedules and self.planner.interval_s is not None:
                layout = self._relative_layout(schedule)
                if layout == self._last_layout and schedule.slots:
                    schedule = Schedule(
                        seq=schedule.seq,
                        srp=schedule.srp,
                        next_srp=schedule.next_srp,
                        slots=schedule.slots,
                        repeats_next=True,
                    )
                    repeat = True
                self._last_layout = layout
            self.proxy.broadcast_schedule(schedule)
            self.schedules_sent += 1
            self.proxy.obs.span(
                schedule.srp, schedule.next_srp, "interval", "proxy",
                seq=schedule.seq, slots=len(schedule.slots),
            )
            planned_srp = schedule.next_srp
            yield from self._execute_interval(schedule)
            if repeat:
                # Replay the same relative layout without a broadcast.
                self.schedules_reused += 1
                shifted = self._shift_schedule(
                    schedule, schedule.interval, self.planner.claim_seq()
                )
                self._last_layout = None  # force a fresh broadcast next
                self.proxy.obs.inc("scheduler.schedules_reused")
                self.proxy.obs.span(
                    shifted.srp, shifted.next_srp, "interval", "proxy",
                    seq=shifted.seq, slots=len(shifted.slots), reused=True,
                )
                planned_srp = shifted.next_srp
                yield from self._execute_interval(shifted)

    def _execute_interval(self, schedule: Schedule):
        sim = self.proxy.sim
        obs = self.proxy.obs
        for slot in schedule.slots:
            if slot.rendezvous > sim.now:
                yield sim.timeout(slot.rendezvous - sim.now)
            if slot.client_ip not in self.proxy.client_ips:
                # The client roamed to another shard after this schedule
                # was built: release the slot instead of bursting into
                # the cell it just left.
                continue
            obs.observe(
                "scheduler.slot_lateness_s",
                max(0.0, sim.now - slot.rendezvous),
                buckets=SECONDS_BUCKETS,
                client=slot.client_ip,
            )
            obs.span(
                slot.rendezvous, slot.rendezvous + slot.duration,
                "slot", f"client {slot.client_ip}",
                seq=schedule.seq, bytes_allotted=slot.bytes_allotted,
            )
            queue = self.proxy.queue_for(slot.client_ip)
            # Only kick when recovery is truly stuck: no progress for
            # well over one interval (ordinary ACK clocking pauses for
            # one interval between bursts by design).
            self.proxy.kick_stalled(
                slot.client_ip, stall_threshold_s=1.5 * schedule.interval
            )
            sent = self.proxy.burster.burst(queue, slot)
            if slot.bytes_allotted > 0:
                obs.observe(
                    "scheduler.slot_utilization",
                    min(1.0, sent / slot.bytes_allotted),
                    buckets=RATIO_BUCKETS,
                    client=slot.client_ip,
                )
            self.proxy.finish_drained_splits(slot.client_ip)
        if schedule.next_srp > sim.now:
            yield sim.timeout(schedule.next_srp - sim.now)

    @staticmethod
    def _relative_layout(schedule: Schedule) -> tuple:
        """Layout signature used to detect repeatable schedules.

        Clients only need the *offsets* to be stable, so durations and
        rendezvous points are quantized to 5 ms buckets: ordinary VBR
        wobble between intervals does not defeat reuse, while a client
        joining/leaving or a real shift in shares does.
        """
        return tuple(
            (
                slot.client_ip,
                round((slot.rendezvous - schedule.srp) / 0.005),
                round(slot.duration / 0.005),
            )
            for slot in schedule.slots
        )

    def _shift_schedule(
        self, schedule: Schedule, delta: float, seq: int
    ) -> Schedule:
        """The implicit repeated schedule: same offsets one interval
        later; allotments are re-derived from slot durations so the
        replay serves whatever is queued *now*."""
        return Schedule(
            seq=seq,
            srp=schedule.srp + delta,
            next_srp=schedule.next_srp + delta,
            slots=tuple(
                BurstSlot(
                    client_ip=slot.client_ip,
                    rendezvous=slot.rendezvous + delta,
                    duration=slot.duration,
                    bytes_allotted=max(
                        slot.bytes_allotted,
                        self.cost_model.bytes_for(slot.duration),
                    ),
                )
                for slot in schedule.slots
            ),
        )
