"""Wiring a :class:`~repro.faults.plan.FaultPlan` into a live scenario.

The controller owns the per-scenario fault state: it builds the
injector pipeline from the plan, installs it on the wireless medium,
wraps client delay compensators with the configured clock error, and
exposes the shared counters the experiment report prints. One
controller per scenario; all randomness comes from the scenario's
named RNG streams, so installation changes nothing unless the plan
actually injects something.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro.core.delay_comp import DelayCompensator
from repro.errors import ConfigurationError
from repro.core.schedule import BurstSlot, Schedule
from repro.faults.counters import FaultCounters
from repro.faults.injectors import (
    Churn,
    Corruptor,
    Duplicator,
    FaultPipeline,
    GilbertElliottLoss,
    IidLoss,
    Injector,
    Outage,
    Reorderer,
    ScheduleBlackout,
)
from repro.faults.plan import FaultPlan
from repro.sim.random import RngStreams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.medium import WirelessMedium


class DriftingCompensator(DelayCompensator):
    """A delay compensator behind a skewed, jittery client clock.

    A clock running at rate ``1 + skew`` fires a timer set for ``Δt``
    after ``Δt · (1 + skew)`` of real time; every wake-up additionally
    slips by a zero-mean Gaussian timer error. The adaptive
    compensator re-anchors on each schedule *arrival*, so only the
    per-interval drift — not the accumulated offset — has to fit
    inside the early transition amount (§3.3's claim, now testable).
    """

    def __init__(
        self,
        inner: DelayCompensator,
        skew_ppm: float,
        jitter_s: float,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(early_s=inner.early_s)
        if jitter_s > 0 and rng is None:
            raise ConfigurationError("clock jitter requires an rng")
        self.inner = inner
        self.skew = skew_ppm * 1e-6
        self.jitter_s = jitter_s
        self.rng = rng

    def _distort(self, anchor: float, target: float) -> float:
        skewed = anchor + (target - anchor) * (1.0 + self.skew)
        if self.jitter_s > 0:
            skewed += float(self.rng.normal(0.0, self.jitter_s))
        return max(anchor, skewed)

    def observe_arrival(self, schedule: Schedule, arrival: float) -> None:
        self.inner.observe_arrival(schedule, arrival)

    def predict_arrival(self, schedule: Schedule, arrival: float) -> float:
        return self.inner.predict_arrival(schedule, arrival)

    def next_schedule_wake(self, schedule: Schedule, arrival: float) -> float:
        return self._distort(
            arrival, self.inner.next_schedule_wake(schedule, arrival)
        )

    def burst_wake(
        self, schedule: Schedule, arrival: float, slot: BurstSlot
    ) -> float:
        return self._distort(
            arrival, self.inner.burst_wake(schedule, arrival, slot)
        )


class FaultController:
    """Builds, installs and accounts for one plan's injectors."""

    def __init__(
        self,
        plan: FaultPlan,
        *,
        medium: "WirelessMedium",
        streams: RngStreams,
        ip_of: Callable[[int], str],
    ) -> None:
        self.plan = plan
        self.medium = medium
        self.streams = streams
        self.ip_of = ip_of
        self.counters: FaultCounters = medium.counters
        self.pipeline: Optional[FaultPipeline] = None
        self.churn: Optional[Churn] = None

    # -- installation -------------------------------------------------------

    def install(self) -> "FaultController":
        """Attach the plan's injectors to the medium (idempotent)."""
        if self.pipeline is not None or not self.plan.touches_medium:
            return self
        plan = self.plan
        injectors: list[Injector] = []
        # Time-gated injectors first (no RNG draws), then the stateful
        # random ones in a fixed order — the draw sequence per stream
        # is then a pure function of the frame sequence.
        if plan.outages:
            injectors.append(Outage(plan.outages))
        if plan.schedule_blackouts:
            injectors.append(ScheduleBlackout(plan.schedule_blackouts))
        if plan.burst_loss is not None:
            injectors.append(
                GilbertElliottLoss(
                    plan.burst_loss, self.streams.get("fault-burst-loss")
                )
            )
        if plan.loss_rate > 0:
            injectors.append(
                IidLoss(plan.loss_rate, self.streams.get("fault-loss"))
            )
        if plan.corrupt_rate > 0:
            injectors.append(
                Corruptor(plan.corrupt_rate, self.streams.get("fault-corrupt"))
            )
        if plan.duplicate_rate > 0:
            injectors.append(
                Duplicator(plan.duplicate_rate, self.streams.get("fault-dup"))
            )
        if plan.reorder_rate > 0:
            injectors.append(
                Reorderer(plan.reorder_rate, self.streams.get("fault-reorder"))
            )
        if plan.churn:
            self.churn = Churn(plan.churn, self.ip_of)
        self.pipeline = FaultPipeline(injectors, churn=self.churn)
        self.medium.faults = self.pipeline
        return self

    # -- client wiring ------------------------------------------------------

    def compensator_for(
        self, index: int, inner: DelayCompensator
    ) -> DelayCompensator:
        """Wrap ``inner`` with this plan's clock error (if any)."""
        clock = self.plan.clock
        if clock is None or (clock.skew_ppm == 0 and clock.jitter_s == 0):
            return inner
        return DriftingCompensator(
            inner,
            skew_ppm=clock.skew_ppm,
            jitter_s=clock.jitter_s,
            rng=self.streams.get(f"fault-clock:{index}"),
        )

    # -- reporting ----------------------------------------------------------

    def totals(self) -> dict[str, int]:
        """Every fault/drop counter of the scenario, by name."""
        return self.counters.totals()
