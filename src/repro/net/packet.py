"""Packet model.

Packets carry sizes and header metadata, never actual payload bytes —
the evaluation only needs timing, volume and marking. The IP
type-of-service mark (the paper's end-of-burst signal) is a mutable
boolean set by the proxy's bursting path.
"""

from __future__ import annotations

import itertools
from enum import Flag, auto
from typing import Any, Optional

from repro.errors import NetworkError
from repro.net.addr import BROADCAST_IP, Endpoint, FlowKey

#: IPv4 header bytes.
IP_HEADER = 20
#: UDP header bytes.
UDP_HEADER = 8
#: TCP header bytes (no options).
TCP_HEADER = 20
#: Link-layer framing overhead (802.11 MAC + LLC, also used for Ethernet
#: for simplicity; the wired links are never the bottleneck).
LINK_HEADER = 34

#: Standard maximum segment size used by the TCP model.
MSS = 1460

_packet_ids = itertools.count(1)


def reset_packet_ids() -> None:
    """Restart the global packet-id sequence.

    Called once per scenario build so packet ids — which end up in
    traces and saved captures — are a pure function of (config, seed)
    rather than of whatever ran earlier in the process. Ids are only
    ever compared within one scenario, so the reset cannot confuse a
    concurrently-alive one.
    """
    global _packet_ids
    _packet_ids = itertools.count(1)


class TcpFlags(Flag):
    """TCP control flags used by the simplified stack."""

    NONE = 0
    SYN = auto()
    ACK = auto()
    FIN = auto()
    RST = auto()


class Packet:
    """A single IP packet (UDP datagram or TCP segment).

    A hand-rolled ``__slots__`` class (not a dataclass): packets are
    the most-allocated object in the simulator after events, and their
    sizes are read several times per hop, so ``transport_header`` /
    ``ip_size`` / ``wire_size`` / ``is_broadcast`` are precomputed
    attributes rather than property chains. Addresses and sizes are
    treated as immutable after construction (``spoofed`` copies);
    ``tos_marked`` and ``meta`` stay mutable.

    Attributes:
        proto: "udp" or "tcp".
        src/dst: transport endpoints. The proxy's spoof table rewrites
            these to keep the proxy invisible.
        payload_size: application bytes carried (0 for pure ACKs).
        seq: TCP: first payload byte's stream offset; UDP: datagram index.
        ack: TCP cumulative acknowledgement (next expected byte).
        flags: TCP control flags.
        tos_marked: IP TOS bit the proxy sets on the last packet of a
            client's burst.
        sack_blocks: up to 3 received-but-not-yet-cumulative TCP ranges.
        meta: free-form metadata (stream ids, schedule payloads, ...).
        created_at: simulated time the packet was created.
    """

    __slots__ = (
        "proto", "src", "dst", "payload_size", "seq", "ack", "flags",
        "tos_marked", "sack_blocks", "meta", "created_at", "packet_id",
        "transport_header", "ip_size", "wire_size", "is_broadcast",
    )

    def __init__(
        self,
        proto: str,
        src: Endpoint,
        dst: Endpoint,
        payload_size: int = 0,
        seq: int = 0,
        ack: int = 0,
        flags: TcpFlags = TcpFlags.NONE,
        tos_marked: bool = False,
        sack_blocks: tuple = (),
        meta: Optional[dict[str, Any]] = None,
        created_at: float = 0.0,
        packet_id: Optional[int] = None,
    ) -> None:
        if proto == "udp":
            transport = UDP_HEADER
        elif proto == "tcp":
            transport = TCP_HEADER
        else:
            raise NetworkError(f"unknown protocol: {proto!r}")
        if payload_size < 0:
            raise NetworkError(f"negative payload size: {payload_size!r}")
        self.proto = proto
        self.src = src
        self.dst = dst
        self.payload_size = payload_size
        self.seq = seq
        self.ack = ack
        self.flags = flags
        self.tos_marked = tos_marked
        self.sack_blocks = sack_blocks
        self.meta = meta if meta is not None else {}
        self.created_at = created_at
        self.packet_id = next(_packet_ids) if packet_id is None else packet_id
        #: Bytes of transport header / at the IP layer / on the wire.
        self.transport_header = transport
        ip_size = IP_HEADER + transport + payload_size
        self.ip_size = ip_size
        self.wire_size = LINK_HEADER + ip_size
        #: True for link-local broadcast packets (schedule messages).
        self.is_broadcast = dst.ip == BROADCAST_IP

    # -- helpers ---------------------------------------------------------------

    @property
    def flow(self) -> FlowKey:
        """Directional flow key of this packet."""
        return FlowKey(self.proto, self.src, self.dst)

    @property
    def end_seq(self) -> int:
        """TCP: stream offset one past the last payload byte."""
        return self.seq + self.payload_size

    def spoofed(
        self,
        src: Optional[Endpoint] = None,
        dst: Optional[Endpoint] = None,
    ) -> "Packet":
        """A copy with rewritten addresses (the IPQ header rewrite)."""
        return Packet(
            proto=self.proto,
            src=src or self.src,
            dst=dst or self.dst,
            payload_size=self.payload_size,
            seq=self.seq,
            ack=self.ack,
            flags=self.flags,
            tos_marked=self.tos_marked,
            meta=dict(self.meta),
            created_at=self.created_at,
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        mark = " [MARK]" if self.tos_marked else ""
        return (
            f"<{self.proto} #{self.packet_id} {self.src}->{self.dst} "
            f"seq={self.seq} ack={self.ack} len={self.payload_size}"
            f" {self.flags}{mark}>"
        )
