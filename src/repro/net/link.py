"""Full-duplex point-to-point links (the wired Fast Ethernet segments).

Each direction serializes packets FIFO at the link rate, then delays
them by propagation latency plus optional jitter. A drop hook supports
loss experiments (the paper's Netfilter/DummyNet runs).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import NetworkError
from repro.faults.counters import FaultCounters
from repro.net.node import Interface
from repro.net.packet import Packet
from repro.sim.core import Simulator
from repro.units import transmit_time

#: Optional per-packet hooks.
JitterFn = Callable[[Packet], float]
DropFn = Callable[[Packet], bool]


class _Direction:
    """One direction of a link: FIFO serialization + delayed delivery.

    A fixed-rate FIFO needs no events of its own. A packet enqueued at
    ``now`` finishes serializing at ``done = max(now, free_at) +
    transmit_time(...)``, where ``free_at`` is the previous packet's
    ``done``; that is the same float expression the old chain evaluated
    (a delay-0 start push, a serialization push, a delivery push), so
    delivery times are bit-equal. A hook-free direction therefore
    pushes one event per packet, its arrival at ``done + latency``. A
    direction with a drop or jitter hook pushes one event at ``done``,
    which runs the hooks at the simulated time they always ran, and
    then the arrival. Known gap (DESIGN.md §11): an event pushed at
    enqueue gets an earlier seq than the old chain gave it, so on an
    exact float tie it now fires before an event that was scheduled
    while this packet queued or serialized.
    """

    __slots__ = ("link", "dst_iface", "free_at")

    def __init__(self, link: "Link", dst_iface: Interface) -> None:
        self.link = link
        self.dst_iface = dst_iface
        self.free_at = 0.0

    def enqueue(self, packet: Packet) -> None:
        link = self.link
        sim = link.sim
        now = sim.now
        free_at = self.free_at
        done = (free_at if free_at > now else now) + transmit_time(
            packet.wire_size, link.rate_bps
        )
        self.free_at = done
        if link.drop is None and link.jitter is None:
            sim.call_at1(done + link.latency, self._arrive, packet)
        else:
            sim.call_at1(done, self._transmitted, packet)

    def _transmitted(self, packet: Packet) -> None:
        link = self.link
        if link.drop is not None and link.drop(packet):
            link.counters.incr(link.drop_key)
            return
        delay = link.latency
        if link.jitter is not None:
            delay += max(0.0, link.jitter(packet))
        link.sim.call_later1(delay, self._arrive, packet)

    def _arrive(self, packet: Packet) -> None:
        self.link.packets_delivered += 1
        self.dst_iface.deliver(packet)


class Link:
    """A bidirectional point-to-point link between two interfaces.

    Args:
        sim: owning simulator.
        rate_bps: serialization rate in bits per second.
        latency: one-way propagation delay in seconds.
        jitter: optional per-packet extra delay function.
        drop: optional per-packet drop predicate.
    """

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float,
        latency: float = 0.0,
        jitter: Optional[JitterFn] = None,
        drop: Optional[DropFn] = None,
        counters: Optional[FaultCounters] = None,
        drop_key: str = "link.dropped",
    ) -> None:
        if rate_bps <= 0:
            raise NetworkError(f"link rate must be positive: {rate_bps!r}")
        if latency < 0:
            raise NetworkError(f"negative latency: {latency!r}")
        self.sim = sim
        self.rate_bps = rate_bps
        self.latency = latency
        self.jitter = jitter
        self.drop = drop
        #: Drops are accounted in a (possibly scenario-shared) counter
        #: registry under ``drop_key``, so links, pipes and the wireless
        #: medium all report through one API.
        self.counters = counters if counters is not None else FaultCounters()
        self.drop_key = drop_key
        #: Packets that arrived at the far end (not those still on the
        #: wire when a bounded ``run(until=...)`` stops).
        self.packets_delivered = 0
        self._ifaces: Optional[tuple[Interface, Interface]] = None
        self._directions: dict[Interface, _Direction] = {}

    @property
    def packets_dropped(self) -> int:
        """Packets this link's drop hook discarded."""
        return self.counters.get(self.drop_key)

    def attach(self, iface_a: Interface, iface_b: Interface) -> "Link":
        """Connect the two endpoints of this link."""
        if self._ifaces is not None:
            raise NetworkError("link endpoints already attached")
        for iface in (iface_a, iface_b):
            if iface.channel is not None:
                raise NetworkError(f"{iface!r} is already attached to a channel")
            iface.channel = self
        self._ifaces = (iface_a, iface_b)
        self._directions[iface_a] = _Direction(self, iface_b)
        self._directions[iface_b] = _Direction(self, iface_a)
        return self

    def transmit(self, src_iface: Interface, packet: Packet) -> None:
        """Send ``packet`` from ``src_iface`` toward the other endpoint."""
        direction = self._directions.get(src_iface)
        if direction is None:
            raise NetworkError(f"{src_iface!r} is not an endpoint of this link")
        direction.enqueue(packet)
