"""Schedule messages, burst slots and SRP bookkeeping (paper §3.2.1).

A schedule is broadcast as a UDP packet at each *scheduler rendezvous
point* (SRP). It lists, per active client, a burst slot: the client's
rendezvous point (when its burst starts) and how long the burst lasts.
It also carries the time of the *next* SRP so every client knows when
to wake for the next schedule, whether or not it has a slot now.

All times inside a schedule are proxy-clock timestamps; power-aware
clients never trust them absolutely — they anchor on the schedule's
*arrival* time and use only the relative offsets (see
:mod:`repro.core.delay_comp`).

The simulated broadcast carries the frozen :class:`Schedule` itself;
only a capture file (:mod:`repro.net.capture_io`) holds its dict form.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import SchedulingError

#: UDP port schedule broadcasts are sent to.
SCHEDULE_PORT = 9797

#: Wire size of a schedule message: fixed header + per-slot entry.
SCHEDULE_HEADER_BYTES = 24
SLOT_ENTRY_BYTES = 16


@dataclass(frozen=True, slots=True)
class BurstSlot:
    """One client's reservation inside a burst interval."""

    client_ip: str
    rendezvous: float  # absolute proxy time the burst starts (RP_i)
    duration: float  # seconds reserved for this client's burst
    bytes_allotted: int  # payload bytes the proxy intends to send

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise SchedulingError(f"negative slot duration: {self.duration!r}")
        if self.bytes_allotted < 0:
            raise SchedulingError(
                f"negative slot allotment: {self.bytes_allotted!r}"
            )

    @property
    def end(self) -> float:
        """Proxy time the slot's reservation ends."""
        return self.rendezvous + self.duration


@dataclass(frozen=True, slots=True)
class Schedule:
    """A full burst-interval schedule, as broadcast to all clients."""

    seq: int
    srp: float  # proxy time this schedule was broadcast
    next_srp: float  # proxy time the *next* schedule will be broadcast
    slots: tuple[BurstSlot, ...] = ()
    #: Set by the schedule-reuse extension (§5 future work): clients may
    #: skip the next schedule reception and reuse this one's offsets.
    repeats_next: bool = False

    def __post_init__(self) -> None:
        if self.next_srp <= self.srp:
            raise SchedulingError(
                f"next_srp {self.next_srp} must follow srp {self.srp}"
            )
        previous_end = None
        for slot in self.slots:
            if slot.rendezvous < self.srp:
                raise SchedulingError(
                    f"slot for {slot.client_ip} starts before the SRP"
                )
            if previous_end is not None and slot.rendezvous < previous_end - 1e-9:
                raise SchedulingError("slots overlap")
            previous_end = slot.end

    @property
    def interval(self) -> float:
        """The burst interval this schedule covers."""
        return self.next_srp - self.srp

    @property
    def wire_payload(self) -> int:
        """UDP payload bytes of the broadcast message."""
        return SCHEDULE_HEADER_BYTES + SLOT_ENTRY_BYTES * len(self.slots)

    def slot_for(self, client_ip: str) -> Optional[BurstSlot]:
        """This client's slot, or None if it has no traffic this interval."""
        for slot in self.slots:
            if slot.client_ip == client_ip:
                return slot
        return None

    def as_meta(self) -> dict:
        """The capture-file (format v1) form of this schedule."""
        return {
            "schedule": {
                "seq": self.seq,
                "srp": self.srp,
                "next_srp": self.next_srp,
                "repeats_next": self.repeats_next,
                "slots": [
                    {
                        "client_ip": slot.client_ip,
                        "rendezvous": slot.rendezvous,
                        "duration": slot.duration,
                        "bytes_allotted": slot.bytes_allotted,
                    }
                    for slot in self.slots
                ],
            }
        }

    @classmethod
    def from_meta(cls, meta: dict) -> "Schedule":
        """Parse the capture-file form (``repeats_next`` may be absent);
        bad fields or schedule invariants raise :class:`SchedulingError`."""
        try:
            raw = meta["schedule"]
            return cls(
                seq=checked_field(raw, "seq", int),
                srp=checked_field(raw, "srp", float),
                next_srp=checked_field(raw, "next_srp", float),
                repeats_next=checked_field(raw, "repeats_next", bool, False),
                slots=tuple(
                    BurstSlot(
                        client_ip=checked_field(s, "client_ip", str),
                        rendezvous=checked_field(s, "rendezvous", float),
                        duration=checked_field(s, "duration", float),
                        bytes_allotted=checked_field(s, "bytes_allotted", int),
                    )
                    for s in checked_field(raw, "slots", list)
                ),
            )
        except (KeyError, TypeError) as exc:
            raise SchedulingError(f"malformed schedule metadata: {exc}") from exc


_REQUIRED = object()
_FLOAT_MAX = sys.float_info.max


def checked_field(
    raw: dict, key: str, kind: type, default: Any = _REQUIRED, *,
    minimum: Optional[float] = None, exclusive: bool = False,
) -> Any:
    """``raw[key]`` (or ``default``), unconverted, checked to be a
    ``kind`` — ``float`` means any finite number and a bool passes only
    as ``bool`` — of at least ``minimum`` (above it when ``exclusive``).
    Both schedule codecs, capture file and live datagram, use it."""
    try:
        value = raw[key]
    except KeyError:
        if default is _REQUIRED:
            raise SchedulingError(f"field {key!r} is missing") from None
        value = default
    if isinstance(value, bool) != (kind is bool) or not isinstance(
        value, (int, float) if kind is float else kind
    ) or (kind is float and not -_FLOAT_MAX <= value <= _FLOAT_MAX):
        raise SchedulingError(f"field {key!r} must be {kind.__name__}: {value!r}")
    if minimum is not None and not (value > minimum if exclusive else value >= minimum):
        raise SchedulingError(f"field {key!r} is out of range: {value!r}")
    return value
