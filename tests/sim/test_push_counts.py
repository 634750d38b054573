"""Exact kernel push counts of the per-packet network paths.

Event counts are deterministic, so they are gated exactly: a change
that brings back a no-op hop (a delay-0 start push, a separate
serialization push) fails here even when every golden still matches.
``Simulator._seq`` is the kernel's push odometer (one increment per
heap push, see ``test_heap_properties``).
"""

import pytest

import repro.experiments.runner as runner
from repro.net.access_point import AccessPoint
from repro.net.addr import Endpoint
from repro.net.packet import Packet
from repro.net.udp import UdpSocket
from repro.sim import Simulator

from tests.net.helpers import wire_pair, wireless_cell
from tests.sim.test_kernel_equivalence import SCENARIOS

N = 7


def _ignore(packet):
    """A receive callback: a buffered socket would push a Store event."""


def _burst(sender, dst_ip, sizes=(1000, 40, 1472, 0, 300, 1000, 512)):
    for seq, size in enumerate(sizes):
        sender.sendto(size, Endpoint(dst_ip, 7000), seq=seq)


class TestLink:
    def test_one_push_per_packet(self):
        sim, a, b, link = wire_pair()
        UdpSocket(b, 7000, on_receive=_ignore)
        _burst(UdpSocket(a, 5000), b.ip)
        assert sim._seq == N  # pushed at enqueue: no start push
        sim.run()
        assert sim._seq == N
        assert link.packets_delivered == N

    def test_two_pushes_per_packet_with_a_jitter_hook(self):
        sim, a, b, link = wire_pair(jitter=lambda p: 1e-4)
        UdpSocket(b, 7000, on_receive=_ignore)
        _burst(UdpSocket(a, 5000), b.ip)
        sim.run()
        assert sim._seq == 2 * N

    def test_a_dropped_packet_costs_one_push(self):
        sim, a, b, link = wire_pair(drop=lambda p: p.seq % 2 == 1)
        UdpSocket(b, 7000, on_receive=_ignore)
        _burst(UdpSocket(a, 5000), b.ip)
        sim.run()
        assert link.packets_dropped == 3
        assert sim._seq == 2 * N - 3


class _Sink:
    """A channel that swallows what the AP forwards without pushing."""

    def __init__(self):
        self.sent = []

    def transmit(self, iface, packet):
        self.sent.append(packet)


class TestAccessPoint:
    @pytest.mark.parametrize("direction", ["downlink", "uplink"])
    def test_one_push_per_packet(self, direction):
        sim = Simulator()
        ap = AccessPoint(sim, "ap", "10.0.0.254")
        ap.wired.channel, ap.wireless.channel = _Sink(), _Sink()
        in_iface, out_iface = (
            (ap.wired, ap.wireless)
            if direction == "downlink"
            else (ap.wireless, ap.wired)
        )
        for seq in range(N):
            ap.forward(
                in_iface,
                Packet("udp", Endpoint("10.0.2.1", 5000),
                       Endpoint("10.0.1.1", 7000), seq=seq),
            )
        assert sim._seq == 1  # the head packet's send; the rest wait
        sim.run()
        assert sim._seq == N
        assert [p.seq for p in out_iface.channel.sent] == list(range(N))


class TestMedium:
    def test_one_push_per_frame_and_none_to_start(self):
        sim, medium, gateway, clients = wireless_cell()
        UdpSocket(clients[0], 7000, on_receive=_ignore)
        sender = UdpSocket(gateway, 5000)
        sender.sendto(100, Endpoint(clients[0].ip, 7000))
        assert sim._seq == 1  # the first frame's airtime timer
        _burst(sender, clients[0].ip)
        sim.run()
        assert medium.frames_sent == N + 1
        assert sim._seq == N + 1


def test_kernel_equivalence_dynamic_scenario_push_total(monkeypatch):
    """The whole ``dynamic`` kernel-equivalence scenario (256 frames):
    3,825 pushes before the link, AP and medium hops were removed."""
    built = []
    build = runner.build_scenario

    def spy(config):
        built.append(build(config))
        return built[-1]

    monkeypatch.setattr(runner, "build_scenario", spy)
    result = runner.run_experiment(SCENARIOS["dynamic"]())
    assert result.medium_frames == 256
    assert built[0].sim._seq == 2_334
