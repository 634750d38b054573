"""Unit tests for the runtime wire format."""

import pytest

from repro.core.schedule import BurstSlot, Schedule
from repro.errors import SchedulingError
from repro.runtime.wire import (
    RuntimeSchedule,
    RuntimeSlot,
    decode_control,
    encode_mark,
)


def make_schedule():
    return RuntimeSchedule(
        seq=3,
        srp=123.456,
        interval_s=0.1,
        slots=(
            RuntimeSlot("client-0", 0.002, 0.02, 4096),
            RuntimeSlot("client-1", 0.023, 0.03, 8192),
        ),
    )


class TestRuntimeSchedule:
    def test_encode_decode_round_trip(self):
        schedule = make_schedule()
        assert RuntimeSchedule.decode(schedule.encode()) == schedule

    def test_from_schedule_turns_slot_times_into_srp_offsets(self):
        planned = Schedule(
            seq=3, srp=123.5, next_srp=123.625,
            slots=(
                BurstSlot("client-0", 123.5 + 0.0025, 0.02, 4096),
                BurstSlot("client-1", 123.5 + 0.025, 0.03, 8192),
            ),
        )
        schedule = RuntimeSchedule.from_schedule(planned)
        assert (schedule.seq, schedule.srp) == (3, 123.5)
        assert schedule.interval_s == pytest.approx(0.125)
        assert schedule.slots == (
            RuntimeSlot("client-0", pytest.approx(0.0025), 0.02, 4096),
            RuntimeSlot("client-1", pytest.approx(0.025), 0.03, 8192),
        )
        assert RuntimeSchedule.decode(schedule.encode()) == schedule

    def test_slot_for(self):
        schedule = make_schedule()
        assert schedule.slot_for("client-1").nbytes == 8192
        assert schedule.slot_for("client-9") is None

    def test_decode_rejects_garbage(self):
        with pytest.raises(SchedulingError):
            RuntimeSchedule.decode(b"not json at all {")

    def test_decode_rejects_wrong_type(self):
        with pytest.raises(SchedulingError):
            RuntimeSchedule.decode(encode_mark("c", 1))

    def test_numbers_beyond_float_range_are_rejected_not_crashing(self):
        """A JSON integer too large for a float is malformed input for
        both codecs, not an OverflowError."""
        huge = "1" + "0" * 400
        payload = (
            '{"type": "schedule", "seq": 1, "srp": %s, "interval_s": 0.1}' % huge
        )
        with pytest.raises(SchedulingError):
            RuntimeSchedule.decode(payload.encode())
        meta = {"schedule": {"seq": 1, "srp": int(huge), "next_srp": 1.0,
                             "slots": []}}
        with pytest.raises(SchedulingError):
            Schedule.from_meta(meta)


class TestControlDatagrams:
    def test_mark_round_trip(self):
        raw = decode_control(encode_mark("client-7", 42))
        assert raw == {"type": "mark", "client_id": "client-7", "seq": 42}

    def test_decode_control_requires_type(self):
        with pytest.raises(SchedulingError):
            decode_control(b"{}")

    def test_decode_control_rejects_garbage(self):
        with pytest.raises(SchedulingError):
            decode_control(b"\xff\xfe")
