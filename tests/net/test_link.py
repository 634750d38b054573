"""Unit tests for point-to-point links."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetworkError
from repro.net.addr import Endpoint
from repro.net.link import Link
from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.udp import UdpSocket
from repro.sim import Simulator
from repro.units import mbps, ms, transmit_time

from tests.net.helpers import wire_pair


def test_rejects_nonpositive_rate():
    with pytest.raises(NetworkError):
        Link(Simulator(), rate_bps=0)


def test_rejects_negative_latency():
    with pytest.raises(NetworkError):
        Link(Simulator(), rate_bps=1e6, latency=-1.0)


def test_double_attach_rejected():
    sim, a, b, link = wire_pair()
    with pytest.raises(NetworkError):
        link.attach(a.interfaces["eth0"], b.interfaces["eth0"])


def test_transmit_from_foreign_interface_rejected():
    sim, a, b, link = wire_pair()
    stranger = Node(sim, "x", "10.9.9.9").add_interface("eth0")
    packet = Packet("udp", Endpoint("10.9.9.9", 1), Endpoint("10.0.0.1", 2))
    with pytest.raises(NetworkError):
        link.transmit(stranger, packet)


def test_delivery_time_is_serialization_plus_latency():
    sim, a, b, link = wire_pair(rate=mbps(10), latency=ms(1))
    received = []
    UdpSocket(b, 7000, on_receive=lambda p: received.append(sim.now))
    sender = UdpSocket(a, 5000)
    packet = sender.sendto(1000, Endpoint("10.0.0.2", 7000))
    sim.run()
    expected = transmit_time(packet.wire_size, mbps(10)) + ms(1)
    assert received == [pytest.approx(expected)]


def test_fifo_ordering_per_direction():
    sim, a, b, _link = wire_pair()
    order = []
    UdpSocket(b, 7000, on_receive=lambda p: order.append(p.seq))
    sender = UdpSocket(a, 5000)
    for seq in range(5):
        sender.sendto(1200, Endpoint("10.0.0.2", 7000), seq=seq)
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_serialization_delays_accumulate_under_load():
    sim, a, b, _link = wire_pair(rate=mbps(1), latency=0.0)
    times = []
    UdpSocket(b, 7000, on_receive=lambda p: times.append(sim.now))
    sender = UdpSocket(a, 5000)
    for seq in range(3):
        sender.sendto(1000, Endpoint("10.0.0.2", 7000), seq=seq)
    sim.run()
    per_packet = transmit_time(1000 + 62, mbps(1))
    assert times == pytest.approx([per_packet, 2 * per_packet, 3 * per_packet])


def test_full_duplex_directions_independent():
    sim, a, b, _link = wire_pair(rate=mbps(1), latency=0.0)
    arrivals = {}
    UdpSocket(b, 7000, on_receive=lambda p: arrivals.setdefault("b", sim.now))
    UdpSocket(a, 7000, on_receive=lambda p: arrivals.setdefault("a", sim.now))
    UdpSocket(a, 5000).sendto(1000, Endpoint("10.0.0.2", 7000))
    UdpSocket(b, 5001).sendto(1000, Endpoint("10.0.0.1", 7000))
    sim.run()
    # Both directions deliver at the single-packet serialization time.
    assert arrivals["a"] == pytest.approx(arrivals["b"])


def test_drop_hook_discards_packets():
    dropped_every_other = {"count": 0}

    def drop(packet):
        dropped_every_other["count"] += 1
        return dropped_every_other["count"] % 2 == 0

    sim, a, b, link = wire_pair(drop=drop)
    received = []
    UdpSocket(b, 7000, on_receive=lambda p: received.append(p.seq))
    sender = UdpSocket(a, 5000)
    for seq in range(6):
        sender.sendto(100, Endpoint("10.0.0.2", 7000), seq=seq)
    sim.run()
    assert received == [0, 2, 4]
    assert link.packets_dropped == 3
    assert link.packets_delivered == 3


def test_jitter_hook_adds_delay():
    sim, a, b, _link = wire_pair(rate=mbps(100), latency=0.0, jitter=lambda p: ms(5))
    times = []
    UdpSocket(b, 7000, on_receive=lambda p: times.append(sim.now))
    packet = UdpSocket(a, 5000).sendto(100, Endpoint("10.0.0.2", 7000))
    sim.run()
    expected = transmit_time(packet.wire_size, mbps(100)) + ms(5)
    assert times == [pytest.approx(expected)]


def test_packets_delivered_counts_arrivals_not_enqueues():
    """A packet still serializing when ``run(until=...)`` stops has not
    been delivered; it counts once it reaches the far end."""
    sim, a, b, link = wire_pair(rate=mbps(1), latency=ms(1))
    received = []
    UdpSocket(b, 7000, on_receive=lambda p: received.append(sim.now))
    packet = UdpSocket(a, 5000).sendto(1000, Endpoint("10.0.0.2", 7000))
    serialized = transmit_time(packet.wire_size, mbps(1))
    sim.run(until=serialized / 2)
    assert link.packets_delivered == 0
    sim.run(until=serialized + ms(0.5))  # on the wire, not yet arrived
    assert link.packets_delivered == 0
    sim.run()
    assert link.packets_delivered == 1
    assert received == [serialized + ms(1)]


def test_drop_hook_runs_at_serialization_end():
    seen = []  # the hook records the time and drops nothing
    sim, a, b, link = wire_pair(
        rate=mbps(1), latency=ms(1), drop=lambda p: seen.append(sim.now)
    )
    sender = UdpSocket(a, 5000)
    first = sender.sendto(1000, Endpoint("10.0.0.2", 7000))
    second = sender.sendto(400, Endpoint("10.0.0.2", 7000))
    sim.run()
    end_first = transmit_time(first.wire_size, mbps(1))
    assert seen == [end_first, end_first + transmit_time(second.wire_size, mbps(1))]


# -- differential test against the old event chain --------------------------


class _ChainDirection:
    """Test-only copy of the event chain links used before the closed
    form: a delay-0 start push per busy period, then per packet a
    serialization push (which runs the hooks) and a delivery push."""

    def __init__(self, link, dst_iface):
        self.link = link
        self.dst_iface = dst_iface
        self.queue = deque()
        self.busy = False
        self._in_flight = None

    def enqueue(self, packet):
        self.queue.append(packet)
        if not self.busy:
            self.busy = True
            self.link.sim.call_later(0.0, self._next)

    def _next(self):
        if not self.queue:
            self.busy = False
            return
        packet = self.queue.popleft()
        self._in_flight = packet
        self.link.sim.call_later(
            transmit_time(packet.wire_size, self.link.rate_bps),
            self._transmitted,
        )

    def _transmitted(self):
        link = self.link
        packet = self._in_flight
        self._in_flight = None
        if link.drop is not None and link.drop(packet):
            link.counters.incr(link.drop_key)
            self._next()
            return
        delay = link.latency
        if link.jitter is not None:
            delay += max(0.0, link.jitter(packet))
        link.packets_delivered += 1
        link.sim.call_later1(delay, self.dst_iface.deliver, packet)
        self._next()


#: Rates include dyadic ones (8·2**k bit/s), for which every
#: serialization time and every sum of them is exact, so a send timed
#: at the previous packet's serialization end lands exactly on it.
RATES = [8.0 * 2**17, 8.0 * 2**20, mbps(10), mbps(100), 3.7e6]
GAPS = st.one_of(
    st.just(0.0),  # same-instant burst
    st.just("free"),  # exactly when the link becomes free
    st.floats(min_value=1e-6, max_value=5e-3, allow_nan=False),
)


def _drive(sends, rate, latency, drops, jitters, reference):
    """Run ``sends`` over a fresh link; return what the far end saw."""
    hook_times = []

    def drop(packet):
        hook_times.append(sim.now)
        return packet.seq in drops

    def jitter(packet):
        hook_times.append(sim.now)
        return jitters[packet.seq]

    sim, a, b, link = wire_pair(
        rate=rate,
        latency=latency,
        drop=drop if drops is not None else None,
        jitter=jitter if jitters is not None else None,
    )
    if reference:
        ia, ib = a.interfaces["eth0"], b.interfaces["eth0"]
        link._directions[ia] = _ChainDirection(link, ib)
        link._directions[ib] = _ChainDirection(link, ia)
    arrivals = []
    UdpSocket(b, 7000, on_receive=lambda p: arrivals.append((sim.now, p.seq)))
    sender = UdpSocket(a, 5000)
    for seq, (at, size) in enumerate(sends):
        sim.call_at(
            at,
            lambda size=size, seq=seq: sender.sendto(
                size, Endpoint("10.0.0.2", 7000), seq=seq
            ),
        )
    sim.run()
    return arrivals, link.packets_dropped, link.packets_delivered, hook_times


def _timed_sends(rate, steps):
    """Absolute send times from (gap, payload) steps; a ``"free"`` gap
    sends at the serialization end of everything sent so far."""
    sends = []
    now = free_at = 0.0
    for gap, size in steps:
        if gap == "free":
            now = max(now, free_at)
        else:
            now += gap
        wire = Packet(
            "udp", Endpoint("10.0.0.1", 5000), Endpoint("10.0.0.2", 7000),
            payload_size=size,
        ).wire_size
        free_at = max(now, free_at) + transmit_time(wire, rate)
        sends.append((now, size))
    return sends


@given(
    rate=st.sampled_from(RATES),
    latency=st.sampled_from([0.0, ms(0.2), ms(1)]),
    steps=st.lists(
        st.tuples(GAPS, st.integers(min_value=0, max_value=1472)),
        min_size=1, max_size=25,
    ),
    hooks=st.sampled_from(["none", "drop", "jitter", "both"]),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_closed_form_matches_the_event_chain(
    rate, latency, steps, hooks, data
):
    sends = _timed_sends(rate, steps)
    n = len(sends)
    drops = jitters = None
    if hooks in ("drop", "both"):
        drops = data.draw(st.sets(st.integers(0, n - 1)))
    if hooks in ("jitter", "both"):
        jitters = data.draw(
            st.lists(
                st.sampled_from([0.0, -1e-3, 1e-4, ms(2)]), min_size=n, max_size=n
            )
        )
    fast = _drive(sends, rate, latency, drops, jitters, reference=False)
    chain = _drive(sends, rate, latency, drops, jitters, reference=True)
    # Bit-equal delivery times, same arrival order, same drop counts,
    # and the hooks ran at the same (serialization-end) instants.
    assert fast == chain
    assert fast[1] == (len(drops) if drops is not None else 0)
    assert fast[2] == n - fast[1]
