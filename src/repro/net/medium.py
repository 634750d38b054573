"""Shared half-duplex wireless medium (the 802.11b cell).

One frame is in the air at a time; stations queue FIFO for the channel.
Every attached station *hears* every frame: unicast frames are consumed
by the addressed station (or by the gateway — the access point — when
the destination is not a wireless station), broadcast frames by
everyone, and promiscuous stations (the monitoring station) record all
of them. A station whose receive gate is closed (WNIC asleep) misses
frames addressed to it; the medium keeps those misses as
:class:`MissRecord` rows in :attr:`WirelessMedium.misses`, which is how
packet loss enters the evaluation.

The airtime model is ``overhead + wire_size * 8 / rate`` plus a random
contention backoff, which for 1500-byte frames on an 11 Mbps channel
yields the ~4-5 Mbps effective goodput the paper reports.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.errors import NetworkError
from repro.faults.counters import FaultCounters
from repro.net.node import Interface
from repro.net.packet import Packet
from repro.obs.metrics import BYTES_BUCKETS
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.sim.core import Simulator
from repro.units import ms, transmit_time

#: Default nominal channel rate (802.11b).
DEFAULT_RATE_BPS = 11e6
#: Default fixed per-frame MAC/PHY overhead (preamble, SIFS, MAC ACK).
DEFAULT_FRAME_OVERHEAD_S = ms(0.8)
#: Default upper bound of the uniform contention backoff.
DEFAULT_MAX_BACKOFF_S = ms(0.4)


@dataclass(frozen=True, slots=True)
class MissRecord:
    """One frame an addressed station did not receive.

    ``cause`` is ``"sleep"`` (WNIC asleep), ``"channel"`` (faded
    receive channel), ``"churn"`` (out of range) or ``"handoff"`` (the
    addressee roamed away mid-flight).
    """

    time: float
    dst: str
    payload: int
    broadcast: bool
    cause: str


class WirelessMedium:
    """A shared wireless channel connecting the AP and the clients."""

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float = DEFAULT_RATE_BPS,
        frame_overhead_s: float = DEFAULT_FRAME_OVERHEAD_S,
        max_backoff_s: float = DEFAULT_MAX_BACKOFF_S,
        rng: Optional[np.random.Generator] = None,
        drop: Optional[Callable[[Packet], bool]] = None,
        counters: Optional[FaultCounters] = None,
        obs: Optional[Recorder] = None,
    ) -> None:
        if rate_bps <= 0:
            raise NetworkError(f"medium rate must be positive: {rate_bps!r}")
        self.sim = sim
        self.rate_bps = rate_bps
        self.frame_overhead_s = frame_overhead_s
        self.max_backoff_s = max_backoff_s
        self.rng = rng
        self.obs = obs if obs is not None else NULL_RECORDER
        self.drop = drop
        self.counters = counters if counters is not None else FaultCounters()
        #: Optional fault-injection pipeline (see :mod:`repro.faults`);
        #: consulted per frame after airtime, before delivery.
        self.faults = None
        #: Optional per-client channel model (see
        #: :mod:`repro.net.channel`): a client in the bad state loses
        #: uplink frames on transmit and downlink frames at its antenna.
        #: Draws live on exclusive ``channel*`` streams, so installing
        #: one never perturbs fault-plan or backoff replays.
        self.channel = None
        #: Attached interfaces in attach order (broadcast receivers).
        self._stations: list[Interface] = []
        #: Receiver index: a unicast frame visits only the promiscuous
        #: stations and its addressees, merged back into attach order
        #: by each interface's attach sequence number.
        self._by_ip: dict[str, list[Interface]] = {}
        self._promiscuous: list[Interface] = []
        self._attach_seq: dict[Interface, int] = {}
        self._next_seq = 0
        #: Clients that roamed away mid-flight: frames addressed to them
        #: die in this cell instead of bouncing off the gateway. Empty
        #: (and free) outside campus runs.
        self.departed: set[str] = set()
        #: Campus cell label ("" outside campus runs); when set, frame
        #: events and miss counters carry a ``cell`` label.
        self.cell = ""
        self._cell_fields: dict[str, str] = {}
        #: Per-proto (frames counter, frame-bytes histogram) handles,
        #: resolved on first use (see Recorder.resolve_*).
        self._frame_handles: dict[str, tuple] = {}
        self._gateway: Optional[Interface] = None
        self._queue: deque[tuple[Interface, Packet]] = deque()
        #: Buffered contention-backoff draws. ``rng`` ("medium-backoff")
        #: is exclusive to this draw site, and numpy fills an array with
        #: the same bitstream consumption as repeated scalar draws, so
        #: chunked refills yield the identical value sequence (pinned by
        #: the kernel-equivalence goldens) without per-frame Generator
        #: call overhead.
        self._backoff_buf: list[float] = []
        self._backoff_i = 0
        self._busy = False
        self._in_flight: Optional[tuple[Interface, Packet, float]] = None
        self.frames_sent = 0
        #: Every frame an addressed station missed, in miss order: the
        #: medium's own loss record, independent of the obs mode.
        self.misses: list[MissRecord] = []
        self.busy_time = 0.0

    # -- topology ----------------------------------------------------------

    def attach(self, iface: Interface, gateway: bool = False) -> None:
        """Attach a station; ``gateway=True`` marks the access point side."""
        if iface.channel is not None:
            raise NetworkError(f"{iface!r} is already attached to a channel")
        iface.channel = self
        self._stations.append(iface)
        self._by_ip.setdefault(iface.node.ip, []).append(iface)
        if iface.promiscuous:
            self._promiscuous.append(iface)
        self._attach_seq[iface] = self._next_seq
        self._next_seq += 1
        self.departed.discard(iface.node.ip)
        if gateway:
            if self._gateway is not None:
                raise NetworkError("medium already has a gateway")
            self._gateway = iface

    def detach(self, iface: Interface) -> None:
        """Detach a roaming station (the handoff coordinator's half)."""
        if iface is self._gateway:
            raise NetworkError("cannot detach the gateway interface")
        if iface.channel is not self:
            raise NetworkError(f"{iface!r} is not attached to this medium")
        self._stations.remove(iface)
        ip = iface.node.ip
        same_ip = self._by_ip[ip]
        same_ip.remove(iface)
        if not same_ip:
            del self._by_ip[ip]
        if iface.promiscuous:
            self._promiscuous.remove(iface)
        del self._attach_seq[iface]
        iface.channel = None

    def set_cell(self, label: str) -> None:
        """Label this medium as campus cell ``label`` for obs purposes."""
        self.cell = label
        self._cell_fields = {"cell": label} if label else {}

    @property
    def frames_missed(self) -> int:
        """Frames an addressed station missed."""
        return len(self.misses)

    @property
    def stations(self) -> tuple[Interface, ...]:
        """All attached interfaces."""
        return tuple(self._stations)

    # -- airtime -------------------------------------------------------------

    def airtime(self, wire_size: int) -> float:
        """Deterministic part of one frame's channel occupancy."""
        return self.frame_overhead_s + transmit_time(wire_size, self.rate_bps)

    def effective_rate_bps(self, frame_payload: int = 1472) -> float:
        """Goodput for back-to-back frames of ``frame_payload`` bytes."""
        wire = frame_payload + 62  # transport/IP/link headers
        mean_backoff = self.max_backoff_s / 2.0
        return frame_payload * 8.0 / (self.airtime(wire) + mean_backoff)

    # -- transmission -----------------------------------------------------------

    def transmit(self, src_iface: Interface, packet: Packet) -> None:
        """Queue ``packet`` for the channel; FIFO, one frame at a time."""
        if src_iface.channel is not self:
            raise NetworkError(f"{src_iface!r} is not attached to this medium")
        self._queue.append((src_iface, packet))
        if not self._busy:
            self._busy = True
            self._next_frame()

    # The medium's arbitration loop is a callback chain: one airtime
    # timer per frame and nothing else. An idle medium starts the frame
    # in ``transmit`` itself; the old delay-0 start push only deferred
    # it within the same instant, while later senders queued behind it,
    # so frame order — and every RNG backoff draw — is unchanged. The
    # airtime timer is pushed one hop earlier within the instant, the
    # exact-tie gap DESIGN.md §11 describes.

    def _next_frame(self) -> None:
        if not self._queue:
            self._busy = False
            return
        sim = self.sim
        src_iface, packet = self._queue.popleft()
        occupancy = self.airtime(packet.wire_size)
        if self.rng is not None and self.max_backoff_s > 0:
            i = self._backoff_i
            buf = self._backoff_buf
            if i == len(buf):
                buf = self._backoff_buf = self.rng.uniform(
                    0.0, self.max_backoff_s, 256
                ).tolist()
                i = 0
            occupancy += buf[i]
            self._backoff_i = i + 1
        self._in_flight = (src_iface, packet, sim.now)
        sim.call_later(occupancy, self._frame_done)

    def _frame_done(self) -> None:
        sim = self.sim
        src_iface, packet, start = self._in_flight
        self._in_flight = None
        now = sim.now
        self.busy_time += now - start
        if self.drop is not None and self.drop(packet):
            self.counters.incr("medium.channel_drop")
            self.obs.event(
                now, "medium.drop.channel",
                src=packet.src.ip, dst=packet.dst.ip,
                size=packet.wire_size,
            )
            self._next_frame()
            return
        if self.faults is not None:
            verdict = self.faults.judge(now, packet)
            if verdict is not None:
                self.counters.incr(f"faults.{verdict.reason}")
                if verdict.action == "drop":
                    self.obs.event(
                        now, "medium.drop.fault",
                        reason=verdict.reason,
                        src=packet.src.ip, dst=packet.dst.ip,
                        size=packet.wire_size,
                        broadcast=packet.is_broadcast,
                    )
                    self._next_frame()
                    return
                if verdict.action == "reorder":
                    # Requeue behind everything currently waiting:
                    # the frame burns airtime again and arrives
                    # late and out of order.
                    self._queue.append((src_iface, packet))
                    self._next_frame()
                    return
                if verdict.action == "duplicate":
                    # Deliver now and transmit a second copy after
                    # the queue drains (a spurious MAC retry).
                    self._queue.append((src_iface, packet))
        if self.channel is not None and self.channel.tx_blocked(now, packet):
            # The sender's own channel faded: the frame burned airtime
            # but arrives nowhere (uplink ACKs, feedback reports).
            self.counters.incr("channel.tx_loss")
            self.obs.event(
                now, "medium.drop.channel_state",
                src=packet.src.ip, dst=packet.dst.ip,
                size=packet.wire_size,
            )
            self._next_frame()
            return
        self.frames_sent += 1
        self._deliver(src_iface, packet, start, now)
        self._next_frame()

    def _deliver(
        self, src_iface: Interface, packet: Packet, start: float, end: float
    ) -> None:
        self.obs.event(
            end, "medium.frame",
            start=start, end=end,
            src=packet.src.ip, dst=packet.dst.ip,
            src_port=packet.src.port, dst_port=packet.dst.port,
            proto=packet.proto, size=packet.wire_size,
            payload=packet.payload_size, marked=packet.tos_marked,
            broadcast=packet.is_broadcast,
            sender=src_iface.node.name,
            packet_id=packet.packet_id,
            **self._cell_fields,
        )
        handles = self._frame_handles.get(packet.proto)
        if handles is None:
            handles = (
                self.obs.resolve_counter(
                    "medium.frames", proto=packet.proto, **self._cell_fields
                ),
                self.obs.resolve_histogram(
                    "medium.frame_bytes", buckets=BYTES_BUCKETS,
                    proto=packet.proto, **self._cell_fields,
                ),
            )
            self._frame_handles[packet.proto] = handles
        handles[0].inc()
        handles[1].observe(packet.wire_size)
        dst_ip = packet.dst.ip
        if packet.is_broadcast:
            receivers = self._stations
        else:
            receivers = self._promiscuous
            addressees = self._by_ip.get(dst_ip)
            if addressees:
                if receivers:
                    receivers = sorted(
                        receivers
                        + [i for i in addressees if not i.promiscuous],
                        key=self._attach_seq.__getitem__,
                    )
                else:
                    receivers = addressees
        for iface in receivers:
            if iface is src_iface:
                continue
            if iface.promiscuous:
                iface.deliver(packet)
                continue
            out_of_range = self.faults is not None and not self.faults.can_hear(
                end, iface.node.ip
            )
            # The receive-side channel roll happens for every addressed
            # in-range station — even a sleeping one — so the draw
            # sequence depends only on the frame stream, never on WNIC
            # state.
            faded = (
                not out_of_range
                and self.channel is not None
                and self.channel.rx_blocked(end, iface.node.ip)
            )
            if not out_of_range and not faded and iface.can_receive(packet):
                iface.deliver(packet)
            else:
                if out_of_range:
                    cause = "churn"
                    counter = "faults.churn_miss"
                elif faded:
                    cause = "channel"
                    counter = "channel.rx_miss"
                else:
                    cause = "sleep"
                    counter = "medium.sleep_miss"
                self._miss(end, iface.node.ip, packet, cause, counter)
        if packet.is_broadcast or dst_ip in self._by_ip:
            return
        if dst_ip in self.departed:
            # The addressee roamed away mid-flight: the frame dies here
            # instead of bouncing between the gateway and the medium.
            self._miss(end, dst_ip, packet, "handoff", "campus.handoff_miss")
            return
        # Not a wireless station's address: hand it up to the gateway (AP).
        if self._gateway is not None and self._gateway is not src_iface:
            self._gateway.deliver(packet)

    def _miss(
        self, end: float, dst: str, packet: Packet, cause: str, counter: str
    ) -> None:
        """Record that station ``dst`` did not receive ``packet``."""
        self.misses.append(MissRecord(
            end, dst, packet.payload_size, packet.is_broadcast, cause
        ))
        self.counters.incr(counter)
        self.obs.event(
            end, "medium.miss",
            dst=dst, proto=packet.proto,
            size=packet.wire_size, payload=packet.payload_size,
            marked=packet.tos_marked,
            broadcast=packet.is_broadcast,
            packet_id=packet.packet_id,
            **self._cell_fields,
        )
        self.obs.inc(
            "medium.misses", dst=dst, cause=cause, **self._cell_fields
        )
