"""The live client's wake decisions around its burst slot.

The live client follows the simulated daemon's rule
(``TransmitWakeGuard.sleep_until``): it dozes before its slot only
when the card could sleep longer than the minimum sleep gap before
waking ``early_s`` ahead of the rendezvous. A shorter doze would pay a
whole wake transition for next to no sleep.
"""

import asyncio

from repro.core.schedule import BurstSlot, Schedule
from repro.runtime.client import AsyncPowerClient
from repro.runtime.wire import RuntimeSchedule

from tests.runtime.conftest import run_strict


def hear_schedule(offset_s: float, early_s: float = 0.006):
    """The client's card after hearing one schedule with a slot at
    ``offset_s`` and waiting past the slot's wake-up time."""

    async def scenario():
        client = AsyncPowerClient("c0", early_s=early_s)
        planned = Schedule(
            seq=1, srp=0.0, next_srp=0.05,
            slots=(BurstSlot("c0", offset_s, 0.001, 1000),),
        )
        client._on_schedule(RuntimeSchedule.from_schedule(planned))
        await asyncio.sleep(offset_s + 0.01)
        client.stop()
        return client.wnic

    return run_strict(scenario())


class TestSlotWake:
    def test_short_gap_before_the_slot_pays_no_wake(self):
        """A 5 ms offset with a 6 ms early wake leaves no time to sleep."""
        wnic = hear_schedule(offset_s=0.005, early_s=0.006)
        assert wnic.wake_count == 0
        assert wnic.is_awake

    def test_long_gap_sleeps_and_wakes_once_before_the_slot(self):
        wnic = hear_schedule(offset_s=0.030, early_s=0.006)
        assert wnic.wake_count == 1
        assert [state for _t, state in wnic.transitions] == [
            "idle", "sleep", "idle",
        ]
