"""Tests for capture persistence."""

import json
import re

import pytest

from repro.core.schedule import BurstSlot, Schedule
from repro.errors import TraceError
from repro.net.capture_io import load_capture, save_capture
from repro.net.sniffer import FrameRecord

HEADER_LINE = '{"format": "repro-capture", "version": 1}\n'

#: Capture lines exactly as format v1 has always written them: a
#: schedule broadcast, then the marked data frame of its first slot.
V1_LINES = (
    '{"start": 0.2, "end": 0.2005, "src_ip": "10.0.0.254", "src_port": 9797, '
    '"dst_ip": "255.255.255.255", "dst_port": 9797, "proto": "udp", '
    '"wire_size": 92, "payload_size": 56, "tos_marked": false, '
    '"broadcast": true, "packet_id": 11, "sender": "", "schedule_meta": '
    '{"schedule": {"seq": 3, "srp": 0.2, "next_srp": 0.3, '
    '"repeats_next": true, "slots": [{"client_ip": "10.0.1.1", '
    '"rendezvous": 0.21, "duration": 0.012, "bytes_allotted": 1400}, '
    '{"client_ip": "10.0.1.2", "rendezvous": 0.235, "duration": 0.0065, '
    '"bytes_allotted": 700}]}}, "cell": ""}\n'
    '{"start": 0.2101, "end": 0.2112, "src_ip": "10.0.0.254", '
    '"src_port": 40000, "dst_ip": "10.0.1.1", "dst_port": 5004, '
    '"proto": "udp", "wire_size": 762, "payload_size": 700, '
    '"tos_marked": true, "broadcast": false, "packet_id": 12, "sender": "", '
    '"schedule_meta": null, "cell": ""}\n'
)
#: A v1 schedule line without the optional ``repeats_next``; it loads
#: as ``repeats_next=False``.
V1_LINE_WITHOUT_REPEATS_NEXT = (
    '{"start": 0.3, "end": 0.3005, "src_ip": "10.0.0.254", "src_port": 9797, '
    '"dst_ip": "255.255.255.255", "dst_port": 9797, "proto": "udp", '
    '"wire_size": 76, "payload_size": 40, "tos_marked": false, '
    '"broadcast": true, "packet_id": 13, "sender": "", "schedule_meta": '
    '{"schedule": {"seq": 4, "srp": 0.3, "next_srp": 0.4, "slots": '
    '[{"client_ip": "10.0.1.1", "rendezvous": 0.31, "duration": 0.012, '
    '"bytes_allotted": 1400}]}}, "cell": ""}\n'
)
V1_SCHEDULE = Schedule(
    seq=3, srp=0.2, next_srp=0.3, repeats_next=True,
    slots=(
        BurstSlot("10.0.1.1", rendezvous=0.21, duration=0.012,
                  bytes_allotted=1400),
        BurstSlot("10.0.1.2", rendezvous=0.235, duration=0.0065,
                  bytes_allotted=700),
    ),
)


def frame(start=0.0, schedule=None, marked=False):
    return FrameRecord(
        start=start, end=start + 0.002, src_ip="10.0.0.254", src_port=9797,
        dst_ip="10.0.1.1", dst_port=5004, proto="udp", wire_size=762,
        payload_size=700, tos_marked=marked, broadcast=schedule is not None,
        packet_id=7, sender="ap", schedule=schedule,
    )


def schedule_line(raw_schedule):
    """A v1 capture line for a schedule frame with ``raw_schedule``."""
    return json.dumps({
        "start": 0.2, "end": 0.2005, "src_ip": "10.0.0.254",
        "src_port": 9797, "dst_ip": "255.255.255.255", "dst_port": 9797,
        "proto": "udp", "wire_size": 24, "payload_size": 24,
        "tos_marked": False, "broadcast": True, "packet_id": 1, "sender": "",
        "schedule_meta": {"schedule": raw_schedule}, "cell": "",
    }) + "\n"


def slot_json(ip="10.0.1.1", rendezvous=0.21, duration=0.01, nbytes=700):
    return {"client_ip": ip, "rendezvous": rendezvous, "duration": duration,
            "bytes_allotted": nbytes}


class TestCaptureIO:
    def test_round_trip(self, tmp_path):
        frames = [
            frame(0.0),
            frame(0.1, marked=True),
            frame(0.2, schedule=Schedule(seq=1, srp=0.2, next_srp=0.3)),
        ]
        path = save_capture(frames, tmp_path / "capture.jsonl")
        loaded = load_capture(path)
        assert loaded == frames

    def test_schedule_frames_hash_and_survive_round_trip(self, tmp_path):
        frames = [frame(0.2, schedule=V1_SCHEDULE), frame(0.21, marked=True)]
        hashes = [hash(f) for f in frames]
        loaded = load_capture(save_capture(frames, tmp_path / "c.jsonl"))
        assert loaded == frames
        assert loaded[0].schedule == V1_SCHEDULE
        assert [hash(f) for f in loaded] == hashes
        assert len({*frames, *loaded}) == 2

    def test_empty_capture_round_trip(self, tmp_path):
        path = save_capture([], tmp_path / "empty.jsonl")
        assert load_capture(path) == []

    def test_rejects_non_capture_file(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text("not json\n")
        with pytest.raises(TraceError):
            load_capture(path)

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text('{"format": "pcap"}\n')
        with pytest.raises(TraceError):
            load_capture(path)

    def test_rejects_corrupt_record(self, tmp_path):
        path = save_capture([frame()], tmp_path / "c.jsonl")
        with path.open("a") as handle:
            handle.write('{"nonsense": true}\n')
        with pytest.raises(TraceError):
            load_capture(path)

    @pytest.mark.parametrize(
        "raw_schedule",
        [
            {"seq": 1},
            {"seq": "1", "srp": 0.2, "next_srp": 0.3, "slots": []},
            {"seq": 1, "srp": 0.2, "next_srp": "0.3", "slots": []},
            {"seq": 1, "srp": float("nan"), "next_srp": 0.3, "slots": []},
            {"seq": 1, "srp": 0.2, "next_srp": 0.3, "slots": [],
             "repeats_next": 1},
            {"seq": 1, "srp": 0.2, "next_srp": 0.3, "slots": {}},
            {"seq": 1, "srp": 0.2, "next_srp": 0.3, "slots": [{}]},
            {"seq": 1, "srp": 0.2, "next_srp": 0.3,
             "slots": [slot_json(nbytes=7.5)]},
            {"seq": 1, "srp": 0.3, "next_srp": 0.2, "slots": []},
            {"seq": 1, "srp": 0.2, "next_srp": 0.3,
             "slots": [slot_json(rendezvous=0.1)]},
            {"seq": 1, "srp": 0.2, "next_srp": 0.3,
             "slots": [slot_json(), slot_json("10.0.1.2", rendezvous=0.215)]},
            [],
        ],
        ids=[
            "missing-fields", "seq-str", "next-srp-str", "srp-nan",
            "repeats-next-int", "slots-object", "slot-empty",
            "slot-bytes-float", "next-srp-before-srp", "slot-before-srp",
            "slots-overlap", "schedule-array",
        ],
    )
    def test_rejects_malformed_schedule_at_load(self, tmp_path, raw_schedule):
        path = tmp_path / "bad.jsonl"
        path.write_text(HEADER_LINE + V1_LINES + schedule_line(raw_schedule))
        where = re.escape(f"{path}:4: bad frame record")
        with pytest.raises(TraceError, match=where):
            load_capture(path)

    def test_pinned_v1_capture_loads_and_saves_byte_identical(self, tmp_path):
        path = tmp_path / "v1.jsonl"
        path.write_text(HEADER_LINE + V1_LINES)
        loaded = load_capture(path)
        assert [f.schedule for f in loaded] == [V1_SCHEDULE, None]
        resaved = save_capture(loaded, tmp_path / "resaved.jsonl")
        assert resaved.read_text() == HEADER_LINE + V1_LINES

    def test_v1_schedule_without_repeats_next_loads(self, tmp_path):
        path = tmp_path / "old.jsonl"
        path.write_text(HEADER_LINE + V1_LINE_WITHOUT_REPEATS_NEXT)
        (loaded,) = load_capture(path)
        assert loaded.schedule == Schedule(
            seq=4, srp=0.3, next_srp=0.4,
            slots=(BurstSlot("10.0.1.1", rendezvous=0.31, duration=0.012,
                             bytes_allotted=1400),),
        )

    def test_loaded_capture_feeds_replay(self, tmp_path):
        """End-to-end: simulate, save, load, replay."""
        from repro.core.bandwidth_model import calibrate
        from repro.core.client import PowerAwareClient
        from repro.core.delay_comp import AdaptiveCompensator
        from repro.core.scheduler import DynamicScheduler
        from repro.energy.replay import replay_policy
        from repro.experiments.scenarios import (
            ScenarioConfig, build_scenario, client_ip,
        )
        from repro.net.addr import Endpoint
        from repro.net.udp import UdpSocket
        from repro.wnic.power import WAVELAN_2_4GHZ

        scenario = build_scenario(ScenarioConfig(n_clients=1, seed=41))
        scheduler = DynamicScheduler(
            scenario.proxy, calibrate(scenario.medium), interval_s=0.1
        )
        scenario.proxy.attach_scheduler(scheduler)
        scenario.proxy.start()
        handle = scenario.clients[0]
        handle.daemon = PowerAwareClient(handle.node, handle.wnic)
        UdpSocket(handle.node, 5004)
        sender = UdpSocket(scenario.video_server, 25000)

        def feed():
            while scenario.sim.now < 3.0:
                sender.sendto(700, Endpoint(client_ip(0), 5004))
                yield scenario.sim.timeout(0.05)

        scenario.sim.process(feed())
        scenario.sim.run(until=3.5)

        path = save_capture(scenario.monitor.frames, tmp_path / "run.jsonl")
        loaded = load_capture(path)
        result = replay_policy(
            loaded, client_ip(0), AdaptiveCompensator(), WAVELAN_2_4GHZ
        )
        assert result.schedules_heard > 20
        assert result.report.energy_saved_pct > 40.0
