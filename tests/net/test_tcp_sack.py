"""Unit tests for TCP SACK (RFC 2018 subset)."""

import numpy as np

from repro.net.addr import Endpoint
from repro.net.packet import MSS
from repro.net.tcp import TcpConnection, TcpListener

from tests.net.helpers import wire_pair


def make_pair(drop=None):
    sim, a, b, _ = wire_pair(drop=drop)
    accepted = []
    TcpListener(b, 80, lambda conn: accepted.append(conn))
    client = TcpConnection.connect(a, Endpoint("10.0.0.2", 80))
    sim.run(until=1.0)
    client.cwnd = client.peer_rwnd
    return sim, a, b, client, accepted[0]


class TestSackAdvertisement:
    def test_gap_produces_sack_blocks(self):
        state = {"dropped": False}

        def drop_second(packet):
            if (
                packet.payload_size > 0 and packet.seq == MSS + 1
                and not state["dropped"]
            ):
                state["dropped"] = True
                return True
            return False

        sim, a, b, client, server = make_pair(drop=drop_second)
        sacks_seen = []
        a.taps.append(
            lambda p, i: (
                sacks_seen.append(p.sack_blocks) if p.sack_blocks else None,
                False,
            )[1]
        )
        client.send(MSS * 4)
        sim.run(until=5.0)
        assert state["dropped"]
        assert sacks_seen  # receiver advertised the out-of-order range
        start, end = sacks_seen[0][0]
        assert start == 2 * MSS + 1  # the segment after the hole

    def test_no_sack_blocks_in_order(self):
        sim, a, b, client, server = make_pair()
        sacks_seen = []
        a.taps.append(
            lambda p, i: (
                sacks_seen.append(p.sack_blocks) if p.sack_blocks else None,
                False,
            )[1]
        )
        client.send(MSS * 5)
        sim.run(until=5.0)
        assert sacks_seen == []


class TestSackScoreboard:
    def test_register_and_hole_detection(self):
        sim, a, b, client, server = make_pair()
        client.send(MSS * 6)
        sim.run(until=2.0)
        # Manufacture a scoreboard directly.
        client.snd_una = 1
        client.snd_nxt = 1 + 6 * MSS
        client._sacked = []
        client._register_sack(((1 + MSS, 1 + 3 * MSS),))
        hole = client._first_hole()
        assert hole == (1, 1 + MSS)
        client._register_sack(((1 + 4 * MSS, 1 + 6 * MSS),))
        # Holes: [1, 1+MSS) and [1+3MSS, 1+4MSS)
        client.snd_una = 1 + 3 * MSS
        client._prune_sacked()
        assert client._first_hole() == (1 + 3 * MSS, 1 + 4 * MSS)

    def test_overlapping_blocks_merge(self):
        sim, a, b, client, server = make_pair()
        client.snd_una = 1
        client.snd_nxt = 1 + 10 * MSS
        client._register_sack(((100, 300), (200, 500)))
        assert client._sacked == [(100, 500)]

    def test_retransmit_all_skips_sacked(self):
        sim, a, b, client, server = make_pair()
        sent = []
        client.on_segment_tx = lambda p: sent.append((p.seq, p.end_seq))
        client.send(MSS * 4)
        sim.run(until=2.0)
        sent.clear()
        # pretend segments 2-3 were SACKed but nothing cumulative
        client.snd_una = 1
        client._sacked = [(1 + MSS, 1 + 3 * MSS)]
        resent = client.retransmit_all()
        assert resent >= 2
        for seq, end_seq in sent:
            # nothing inside the SACKed range is retransmitted
            assert end_seq <= 1 + MSS or seq >= 1 + 3 * MSS


class TestSackRecovery:
    def test_multi_loss_window_recovers_without_waiting_rto(self):
        """Two losses in one flight: SACK recovery fills both holes
        quickly (well under the 200 ms RTO floor)."""
        drops = {"seqs": {1 + MSS, 1 + 3 * MSS}, "done": set()}

        def drop_two(packet):
            if (
                packet.payload_size > 0
                and packet.seq in drops["seqs"]
                and packet.seq not in drops["done"]
            ):
                drops["done"].add(packet.seq)
                return True
            return False

        sim, a, b, client, server = make_pair(drop=drop_two)
        start = sim.now
        client.send(MSS * 8)
        while server.bytes_delivered < MSS * 8 and sim.now < start + 10.0:
            sim.step()
        elapsed = sim.now - start
        assert server.bytes_delivered == MSS * 8
        assert elapsed < 0.15  # no RTO stall

    def test_heavy_random_loss_transfer_completes(self):
        rng = np.random.default_rng(13)

        def lossy(packet):
            return packet.payload_size > 0 and rng.random() < 0.1

        sim, a, b, client, server = make_pair(drop=lossy)
        client.send(300_000)
        sim.run(until=120.0)
        assert server.bytes_delivered == 300_000
