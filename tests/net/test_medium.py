"""Unit tests for the shared wireless medium."""

import pytest

from repro.errors import NetworkError
from repro.net.addr import Endpoint
from repro.net.medium import MissRecord, WirelessMedium
from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.sniffer import MonitoringStation
from repro.net.udp import UdpSocket
from repro.obs import SimRecorder
from repro.sim import RngStreams, Simulator, TraceRecorder
from repro.units import mbps

from tests.net.helpers import wireless_cell


def test_unicast_reaches_addressed_station_only():
    sim, medium, gateway, clients = wireless_cell(n_clients=3)
    hits = []
    for client in clients:
        UdpSocket(client, 7000, on_receive=lambda p, c=client: hits.append(c.name))
    gw_socket = UdpSocket(gateway, 5000)
    gw_socket.sendto(500, Endpoint(clients[1].ip, 7000))
    sim.run()
    assert hits == ["c1"]


def test_broadcast_reaches_every_station():
    sim, medium, gateway, clients = wireless_cell(n_clients=3)
    hits = []
    for client in clients:
        UdpSocket(client, 7000, on_receive=lambda p, c=client: hits.append(c.name))
    UdpSocket(gateway, 5000).broadcast(100, 7000)
    sim.run()
    assert sorted(hits) == ["c0", "c1", "c2"]


def test_half_duplex_serializes_transmissions():
    sim, medium, gateway, clients = wireless_cell(n_clients=2)
    times = []
    for client in clients:
        UdpSocket(client, 7000, on_receive=lambda p: times.append(sim.now))
    sender = UdpSocket(gateway, 5000)
    sender.sendto(1000, Endpoint(clients[0].ip, 7000))
    sender.sendto(1000, Endpoint(clients[1].ip, 7000))
    sim.run()
    airtime = medium.airtime(1000 + 62)
    assert times == pytest.approx([airtime, 2 * airtime])


def test_frames_not_for_stations_go_to_gateway():
    sim, medium, gateway, clients = wireless_cell(n_clients=1)
    heard = []
    gateway.taps.append(lambda p, i: (heard.append(p.dst.ip), True)[1])
    UdpSocket(clients[0], 5000).sendto(100, Endpoint("192.168.7.7", 80))
    sim.run()
    assert heard == ["192.168.7.7"]


def test_sender_does_not_hear_its_own_frame():
    sim, medium, gateway, clients = wireless_cell(n_clients=1)
    hits = []
    UdpSocket(gateway, 7000, on_receive=lambda p: hits.append("gw"))
    # gateway sends a broadcast; only the client may hear it
    UdpSocket(clients[0], 7000, on_receive=lambda p: hits.append("client"))
    UdpSocket(gateway, 5000).broadcast(100, 7000)
    sim.run()
    assert hits == ["client"]


def test_rx_gate_blocks_and_records_miss():
    trace = TraceRecorder()
    sim, medium, gateway, clients = wireless_cell(
        n_clients=1, obs=SimRecorder(trace=trace)
    )
    client = clients[0]
    client.interfaces["wl0"].rx_gate = lambda packet: False  # asleep
    received = []
    UdpSocket(client, 7000, on_receive=lambda p: received.append(p))
    UdpSocket(gateway, 5000).sendto(500, Endpoint(client.ip, 7000))
    sim.run()
    assert received == []
    assert medium.frames_missed == 1
    misses = list(trace.query("medium.miss"))
    assert len(misses) == 1
    assert misses[0].fields["dst"] == client.ip
    assert medium.misses == [MissRecord(sim.now, client.ip, 500, False, "sleep")]


def test_missed_unicast_does_not_leak_to_gateway():
    sim, medium, gateway, clients = wireless_cell(n_clients=1)
    clients[0].interfaces["wl0"].rx_gate = lambda packet: False
    leaked = []
    gateway.taps.append(lambda p, i: (leaked.append(p), True)[1])
    UdpSocket(gateway, 5000).sendto(100, Endpoint(clients[0].ip, 7000))
    sim.run()
    assert leaked == []


def test_effective_rate_below_nominal():
    medium = WirelessMedium(Simulator(), rate_bps=mbps(11))
    effective = medium.effective_rate_bps()
    assert mbps(3) < effective < mbps(8)


def test_backoff_uses_rng_and_stays_bounded():
    rng = RngStreams(seed=5).get("medium")
    sim, medium, gateway, clients = wireless_cell(n_clients=1, rng=rng)
    times = []
    UdpSocket(clients[0], 7000, on_receive=lambda p: times.append(sim.now))
    sender = UdpSocket(gateway, 5000)
    for seq in range(10):
        sender.sendto(1000, Endpoint(clients[0].ip, 7000), seq=seq)
    sim.run()
    base = medium.airtime(1000 + 62)
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert all(base <= gap <= base + medium.max_backoff_s for gap in gaps)


def test_channel_drop_hook():
    trace = TraceRecorder()
    sim, medium, gateway, clients = wireless_cell(
        n_clients=1, obs=SimRecorder(trace=trace), drop=lambda p: True
    )
    received = []
    UdpSocket(clients[0], 7000, on_receive=lambda p: received.append(p))
    UdpSocket(gateway, 5000).sendto(100, Endpoint(clients[0].ip, 7000))
    sim.run()
    assert received == []
    assert trace.count("medium.drop.channel") == 1
    assert medium.frames_sent == 0


def test_attach_two_gateways_rejected():
    sim, medium, gateway, clients = wireless_cell(n_clients=1)
    other = Node(sim, "gw2", "10.0.0.253")
    with pytest.raises(NetworkError):
        medium.attach(other.add_interface("wl0"), gateway=True)


def test_frame_trace_records_timing_and_sizes():
    trace = TraceRecorder()
    sim, medium, gateway, clients = wireless_cell(
        n_clients=1, obs=SimRecorder(trace=trace)
    )
    UdpSocket(clients[0], 7000)
    UdpSocket(gateway, 5000).sendto(400, Endpoint(clients[0].ip, 7000))
    sim.run()
    frames = list(trace.query("medium.frame"))
    assert len(frames) == 1
    fields = frames[0].fields
    assert fields["payload"] == 400
    assert fields["end"] - fields["start"] == pytest.approx(
        medium.airtime(400 + 62)
    )


def _record_arrivals(node, order):
    node.taps.insert(0, lambda p, i: (order.append(node.name), False)[1])


def test_unicast_delivery_follows_attach_order_across_roaming():
    # The receiver index visits only the monitor and the addressee, but
    # in attach order, as a scan of every station would: a station that
    # roams away and back now hears frames after the monitor.
    sim, medium, gateway, clients = wireless_cell(n_clients=2)
    monitor = MonitoringStation(sim)
    monitor.attach_to(medium)
    order = []
    _record_arrivals(clients[0], order)
    _record_arrivals(monitor, order)
    sender = UdpSocket(gateway, 5000)
    sender.sendto(100, Endpoint(clients[0].ip, 7000))
    sim.run()
    assert order == ["c0", "monitor"]

    iface = clients[0].interfaces["wl0"]
    medium.detach(iface)
    medium.attach(iface)
    order.clear()
    sender.sendto(100, Endpoint(clients[0].ip, 7000))
    sim.run()
    assert order == ["monitor", "c0"]
    assert len(monitor.frames) == 2


def test_detach_keeps_a_shared_address_reachable():
    sim, medium, gateway, clients = wireless_cell(n_clients=2)
    twin = Node(sim, "twin", clients[0].ip)
    twin_iface = twin.add_interface("wl0")
    medium.attach(twin_iface)
    medium.detach(clients[0].interfaces["wl0"])
    order = []
    _record_arrivals(twin, order)
    _record_arrivals(gateway, order)
    UdpSocket(clients[1], 5000).sendto(100, Endpoint(twin.ip, 7000))
    sim.run()
    # Still a station address: the frame is not bounced to the gateway.
    assert order == ["twin"]


def test_promiscuous_is_fixed_while_attached():
    sim, medium, gateway, clients = wireless_cell(n_clients=1)
    iface = clients[0].interfaces["wl0"]
    with pytest.raises(NetworkError):
        iface.promiscuous = True
    medium.detach(iface)
    iface.promiscuous = True
    medium.attach(iface)
    assert iface.promiscuous


def test_detached_interface_cannot_transmit():
    sim, medium, gateway, clients = wireless_cell(n_clients=1)
    iface = clients[0].interfaces["wl0"]
    medium.detach(iface)
    with pytest.raises(NetworkError):
        medium.transmit(iface, Packet(
            "udp", Endpoint(clients[0].ip, 5000), Endpoint(gateway.ip, 7000),
            payload_size=100,
        ))
