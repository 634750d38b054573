"""Wire format for the runtime proxy's control datagrams.

Schedules and burst-end marks travel as single JSON datagrams on each
client's UDP control socket. Timestamps are the proxy's
``loop.time()`` values; clients use only relative offsets, exactly like
the simulated adaptive delay compensation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from repro.core.schedule import Schedule, checked_field
from repro.errors import SchedulingError


def _client_id(raw: dict) -> str:
    client_id = checked_field(raw, "client_id", str)
    if not client_id:
        raise SchedulingError("field 'client_id' must not be empty")
    return client_id


def _loads_object(payload: bytes, what: str) -> dict:
    """Parse a JSON object, rejecting scalars/arrays/garbage bytes."""
    try:
        raw = json.loads(payload)
    except (ValueError, UnicodeDecodeError) as exc:
        raise SchedulingError(f"bad {what} datagram: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchedulingError(
            f"{what} datagram must be a JSON object, got {type(raw).__name__}"
        )
    return raw


@dataclass(frozen=True, slots=True)
class RuntimeSlot:
    """One client's burst reservation, offsets relative to the SRP."""

    client_id: str
    offset_s: float
    duration_s: float
    nbytes: int


@dataclass(frozen=True, slots=True)
class RuntimeSchedule:
    """A schedule datagram."""

    seq: int
    srp: float  # proxy clock
    interval_s: float
    slots: tuple[RuntimeSlot, ...] = ()

    @classmethod
    def from_schedule(cls, schedule: Schedule) -> "RuntimeSchedule":
        """The datagram form of a planned schedule: slot times become
        offsets from the SRP, since clients trust only relative times."""
        return cls(
            seq=schedule.seq,
            srp=schedule.srp,
            interval_s=schedule.interval,
            slots=tuple(
                RuntimeSlot(
                    client_id=slot.client_ip,
                    offset_s=slot.rendezvous - schedule.srp,
                    duration_s=slot.duration,
                    nbytes=slot.bytes_allotted,
                )
                for slot in schedule.slots
            ),
        )

    def slot_for(self, client_id: str) -> Optional[RuntimeSlot]:
        """This client's reservation, or None."""
        for slot in self.slots:
            if slot.client_id == client_id:
                return slot
        return None

    def encode(self) -> bytes:
        """Serialize to a JSON datagram payload."""
        return json.dumps(
            {
                "type": "schedule",
                "seq": self.seq,
                "srp": self.srp,
                "interval_s": self.interval_s,
                "slots": [
                    {
                        "client_id": s.client_id,
                        "offset_s": s.offset_s,
                        "duration_s": s.duration_s,
                        "nbytes": s.nbytes,
                    }
                    for s in self.slots
                ],
            }
        ).encode()

    @classmethod
    def decode(cls, payload: bytes) -> "RuntimeSchedule":
        """Parse a schedule datagram.

        Every failure mode — truncated bytes, non-JSON, the wrong JSON
        shape, missing or mistyped fields — raises
        :class:`SchedulingError`.  A returned schedule is always fully
        validated; there is no partial decode.
        """
        raw = _loads_object(payload, "schedule")
        if raw.get("type") != "schedule":
            raise SchedulingError(
                f"not a schedule datagram: {raw.get('type')!r}"
            )
        slots = []
        for entry in checked_field(raw, "slots", list, []):
            if not isinstance(entry, dict):
                raise SchedulingError(
                    f"slot must be an object, got {type(entry).__name__}"
                )
            slots.append(RuntimeSlot(
                client_id=_client_id(entry),
                offset_s=float(
                    checked_field(entry, "offset_s", float, minimum=0.0)
                ),
                duration_s=float(
                    checked_field(entry, "duration_s", float, minimum=0.0)
                ),
                nbytes=checked_field(entry, "nbytes", int, minimum=0),
            ))
        return cls(
            seq=checked_field(raw, "seq", int, minimum=0),
            srp=float(checked_field(raw, "srp", float)),
            interval_s=float(checked_field(
                raw, "interval_s", float, minimum=0.0, exclusive=True
            )),
            slots=tuple(slots),
        )


def encode_mark(client_id: str, seq: int) -> bytes:
    """The out-of-band end-of-burst mark (TOS-bit substitute)."""
    return json.dumps({"type": "mark", "client_id": client_id, "seq": seq}).encode()


def encode_heartbeat(client_id: str, seq: int) -> bytes:
    """A client→proxy liveness heartbeat.

    Clients answer every schedule datagram with one of these, so the
    proxy observes uplink liveness even when the TCP data path is idle
    (the live analog of the simulated proxy's passive ``last_uplink``
    bridging signal). A vanished client stops heartbeating and ages out
    of the schedule.
    """
    return json.dumps(
        {"type": "heartbeat", "client_id": client_id, "seq": seq}
    ).encode()


def decode_heartbeat(payload: bytes) -> tuple[str, int]:
    """Parse a heartbeat datagram into ``(client_id, seq)``."""
    raw = _loads_object(payload, "heartbeat")
    if raw.get("type") != "heartbeat":
        raise SchedulingError(f"not a heartbeat datagram: {raw.get('type')!r}")
    return _client_id(raw), checked_field(raw, "seq", int, minimum=0)


# -- CONNECT status lines ----------------------------------------------------
#
# After the client's CONNECT header the proxy answers with exactly one
# status line before any relayed bytes: ``OK\n`` once the origin dial
# succeeded, or ``ERR <reason>\n`` (overloaded, bad-connect,
# origin-unreachable) right before closing. The explicit line lets a
# client distinguish "proxy shed my connection" from "origin sent
# nothing" — the admission-control contract the demo protocol lacked.

STATUS_OK = b"OK\n"


def encode_status_error(reason: str) -> bytes:
    """The refusal status line for ``reason`` (a single token)."""
    if not reason or any(c.isspace() for c in reason):
        raise SchedulingError(f"status reason must be one token: {reason!r}")
    return f"ERR {reason}\n".encode()


def decode_status_line(line: bytes) -> Optional[str]:
    """Parse a CONNECT status line.

    Returns ``None`` for success (``OK``) or the refusal reason string;
    raises :class:`SchedulingError` for anything malformed.
    """
    text = line.decode("ascii", errors="replace").strip()
    if text == "OK":
        return None
    parts = text.split()
    if len(parts) == 2 and parts[0] == "ERR":
        return parts[1]
    raise SchedulingError(f"bad CONNECT status line: {line!r}")


def decode_control(payload: bytes) -> dict:
    """Decode any control datagram (schedule or mark)."""
    raw = _loads_object(payload, "control")
    if not isinstance(raw.get("type"), str):
        raise SchedulingError("control datagram missing string 'type'")
    return raw
