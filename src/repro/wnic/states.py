"""WNIC power-state machine with a logged transition history."""

from __future__ import annotations

from enum import Enum
from typing import Any, Optional

from repro.errors import ConfigurationError
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.sim.core import Simulator


class WnicState(Enum):
    """Card power states.

    The client daemon switches between SLEEP and IDLE; RECEIVE and
    TRANSMIT are *attributed* states the energy analyzer assigns to
    awake time that overlaps frame airtime (paper §3.1: the trace
    simulator computes time in each mode postmortem).
    """

    SLEEP = "sleep"
    IDLE = "idle"
    RECEIVE = "receive"
    TRANSMIT = "transmit"


class Wnic:
    """A wireless card owned by one client.

    Tracks the sleep/awake timeline and counts sleep→idle wake-ups,
    whose energy cost the paper models as 2 ms of idle time each.
    """

    def __init__(
        self,
        sim: Simulator,
        owner: str,
        start_asleep: bool = False,
        obs: Optional[Recorder] = None,
    ) -> None:
        self.sim = sim
        self.owner = owner
        self.obs = obs if obs is not None else NULL_RECORDER
        self._state = WnicState.SLEEP if start_asleep else WnicState.IDLE
        #: (time, new_state) history; starts with the initial state at t=0.
        self.transitions: list[tuple[float, WnicState]] = [
            (sim.now, self._state)
        ]
        self.wake_count = 0
        #: ``wnic.transitions`` counter handles by target state,
        #: resolved on first use (see Recorder.resolve_counter).
        self._transition_handles: dict[WnicState, Any] = {}

    @property
    def state(self) -> WnicState:
        """Current macro state (SLEEP or IDLE)."""
        return self._state

    @property
    def is_awake(self) -> bool:
        """True when the card can hear the medium."""
        return self._state != WnicState.SLEEP

    def can_receive(self, _packet=None) -> bool:
        """Receive gate wired into the client's wireless interface."""
        return self.is_awake

    def wake(self) -> bool:
        """Transition to high-power mode; returns True if a wake happened."""
        if self.is_awake:
            return False
        self.wake_count += 1
        self._set_state(WnicState.IDLE)
        return True

    def sleep(self) -> bool:
        """Transition to low-power mode; returns True on an actual change."""
        if not self.is_awake:
            return False
        self._set_state(WnicState.SLEEP)
        return True

    def _set_state(self, state: WnicState) -> None:
        previous = self.transitions[-1] if self.transitions else None
        self._state = state
        self.transitions.append((self.sim.now, state))
        self.obs.event(
            self.sim.now, "wnic.transition", owner=self.owner,
            state=state.value,
        )
        handle = self._transition_handles.get(state)
        if handle is None:
            handle = self._transition_handles[state] = self.obs.resolve_counter(
                "wnic.transitions", owner=self.owner, to_state=state.value
            )
        handle.inc()
        if (
            state == WnicState.SLEEP
            and previous is not None
            and previous[1] != WnicState.SLEEP
            and self.sim.now > previous[0]
        ):
            # One completed awake stretch: render it on the timeline.
            self.obs.span(
                previous[0], self.sim.now, "awake", self.owner,
            )

    # -- timeline ----------------------------------------------------------

    def awake_intervals(self, end_time: float) -> list[tuple[float, float]]:
        """Maximal [start, end) intervals the card was awake before ``end_time``.

        Raises:
            ConfigurationError: if ``end_time`` precedes the last transition.
        """
        if self.transitions and end_time < self.transitions[-1][0]:
            raise ConfigurationError(
                f"end_time={end_time} precedes last transition at "
                f"{self.transitions[-1][0]}"
            )
        intervals: list[tuple[float, float]] = []
        awake_since: Optional[float] = None
        for when, state in self.transitions:
            if state != WnicState.SLEEP and awake_since is None:
                awake_since = when
            elif state == WnicState.SLEEP and awake_since is not None:
                if when > awake_since:
                    intervals.append((awake_since, when))
                awake_since = None
        if awake_since is not None and end_time > awake_since:
            intervals.append((awake_since, end_time))
        return intervals

    def awake_time(self, end_time: float) -> float:
        """Total awake seconds before ``end_time``."""
        return sum(end - start for start, end in self.awake_intervals(end_time))
