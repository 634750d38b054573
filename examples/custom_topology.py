#!/usr/bin/env python
"""Composing the library's pieces by hand (no experiment runner).

Builds a miniature cell from the public API — simulator, links, medium,
access point, proxy, scheduler, one power-aware client — and feeds it a
custom bursty workload. Useful as a template for topologies the runner
does not cover (multiple cells, different jitter models, ...).

Run:  python examples/custom_topology.py
"""

from repro.core.bandwidth_model import calibrate
from repro.core.client import PowerAwareClient
from repro.core.delay_comp import AdaptiveCompensator
from repro.core.proxy import TransparentProxy
from repro.core.scheduler import DynamicScheduler
from repro.energy.analyzer import EnergyAnalyzer
from repro.net.access_point import AccessPoint
from repro.net.addr import Endpoint
from repro.net.link import Link
from repro.net.medium import WirelessMedium
from repro.net.node import Node
from repro.net.sniffer import MonitoringStation
from repro.net.udp import UdpSocket
from repro.sim import RngStreams, Simulator
from repro.units import mbps, ms
from repro.wnic import WAVELAN_2_4GHZ, Wnic


def main() -> None:
    sim = Simulator()
    streams = RngStreams(seed=42)

    # -- wireless cell ----------------------------------------------------
    medium = WirelessMedium(sim, rng=streams.get("backoff"))
    ap = AccessPoint(sim, "ap", "10.0.0.254", rng=streams.get("ap"))
    medium.attach(ap.wireless, gateway=True)
    monitor = MonitoringStation(sim)
    monitor.attach_to(medium)

    # -- client -----------------------------------------------------------
    client = Node(sim, "tablet", "10.0.1.1")
    wl0 = client.add_interface("wl0")
    medium.attach(wl0)
    client.set_default_route(wl0)
    wnic = Wnic(sim, "tablet")

    # -- proxy + server ---------------------------------------------------
    proxy = TransparentProxy(sim, "proxy", "10.0.0.1", {"10.0.1.1"})
    Link(sim, mbps(100), ms(0.1)).attach(proxy.air, ap.wired)
    server = Node(sim, "server", "10.0.2.1")
    server_iface = server.add_interface("eth0")
    Link(sim, mbps(100), ms(0.1)).attach(proxy.lan, server_iface)
    server.set_default_route(server_iface)
    proxy.wire_routes({"10.0.2.1"})

    scheduler = DynamicScheduler(proxy, calibrate(medium), interval_s=0.2)
    proxy.attach_scheduler(scheduler)
    proxy.start()
    PowerAwareClient(client, wnic, AdaptiveCompensator(early_s=0.006))

    # -- a custom ON/OFF workload: 2 s bursts of sensor data, 3 s silence --
    UdpSocket(client, 9000)
    sender = UdpSocket(server, 9001)

    def workload():
        while sim.now < 30.0:
            until = sim.now + 2.0
            while sim.now < until:  # ON period: 20 packets/s
                sender.sendto(400, Endpoint("10.0.1.1", 9000))
                yield sim.timeout(0.05)
            yield sim.timeout(3.0)  # OFF period

    sim.process(workload())
    sim.run(until=31.0)

    # -- postmortem energy analysis ----------------------------------------
    analyzer = EnergyAnalyzer(
        monitor.frames, WAVELAN_2_4GHZ, duration_s=sim.now,
        misses=medium.misses,
    )
    report = analyzer.analyze("tablet", "10.0.1.1", wnic, kind="video")
    breakdown = report.breakdown
    print(
        f"awake {breakdown.high_power_s:.2f}s of {sim.now:.0f}s "
        f"({breakdown.receive_s:.2f}s receiving), "
        f"{breakdown.wake_count} wake-ups"
    )
    print(
        f"energy {report.energy_j:.1f} J vs naive {report.naive_energy_j:.1f} J"
        f" -> saved {report.energy_saved_pct:.1f}%"
    )
    print(f"packets missed: {report.packets_missed}/{report.packets_expected}")


if __name__ == "__main__":
    main()
