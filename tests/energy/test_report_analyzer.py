"""Unit tests for client reports and the postmortem analyzer."""

import pytest

from repro.energy.analyzer import EnergyAnalyzer
from repro.energy.report import summarize
from repro.errors import TraceError
from repro.net.medium import MissRecord
from repro.net.sniffer import FrameRecord
from repro.sim import Simulator
from repro.wnic import WAVELAN_2_4GHZ, Wnic


def frame(start, end, dst="10.0.1.1", src="10.0.0.254", payload=1000, **kw):
    defaults = dict(
        start=start, end=end, src_ip=src, src_port=5000, dst_ip=dst,
        dst_port=7000, proto="udp", wire_size=payload + 62,
        payload_size=payload, tos_marked=False, broadcast=False,
        packet_id=0, sender="ap",
    )
    defaults.update(kw)
    return FrameRecord(**defaults)


class TestAnalyzer:
    def test_requires_positive_duration(self):
        with pytest.raises(TraceError):
            EnergyAnalyzer([], WAVELAN_2_4GHZ, duration_s=0.0)

    def test_rx_intervals_include_broadcasts(self):
        frames = [
            frame(0.0, 0.1),
            frame(1.0, 1.1, dst="255.255.255.255", broadcast=True),
            frame(2.0, 2.1, dst="10.0.1.2"),
        ]
        analyzer = EnergyAnalyzer(frames, WAVELAN_2_4GHZ, 10.0)
        assert analyzer.rx_intervals("10.0.1.1") == [(0.0, 0.1), (1.0, 1.1)]

    def test_tx_intervals(self):
        frames = [frame(0.0, 0.1, src="10.0.1.1", dst="10.0.0.254")]
        analyzer = EnergyAnalyzer(frames, WAVELAN_2_4GHZ, 10.0)
        assert analyzer.tx_intervals("10.0.1.1") == [(0.0, 0.1)]

    def test_analyze_produces_consistent_report(self):
        sim = Simulator()
        wnic = Wnic(sim, "c1", start_asleep=True)
        sim.call_at(0.5, wnic.wake)
        sim.call_at(2.5, wnic.sleep)
        sim.run()
        frames = [frame(1.0, 1.2), frame(5.0, 5.2)]  # second missed
        analyzer = EnergyAnalyzer(frames, WAVELAN_2_4GHZ, 10.0)
        report = analyzer.analyze("c1", "10.0.1.1", wnic)
        assert report.breakdown.receive_s == pytest.approx(0.2)
        assert report.breakdown.idle_s == pytest.approx(1.8)
        assert report.breakdown.sleep_s == pytest.approx(8.0)
        assert report.packets_expected == 2
        assert report.energy_saved_pct > 0
        assert report.naive.receive_s == pytest.approx(0.4)

    def test_misses_counted_from_medium_miss_list(self):
        sim = Simulator()
        misses = [
            MissRecord(5.0, "10.0.1.1", 1000, False, "sleep"),
            MissRecord(6.0, "10.0.1.2", 1000, False, "sleep"),
        ]
        wnic = Wnic(sim, "c1")
        frames = [frame(1.0, 1.2), frame(5.0, 5.2)]
        analyzer = EnergyAnalyzer(frames, WAVELAN_2_4GHZ, 10.0, misses=misses)
        report = analyzer.analyze("c1", "10.0.1.1", wnic)
        assert report.packets_missed == 1
        assert report.loss_pct == pytest.approx(50.0)
        assert report.bytes_received == 1000

    def test_broadcast_misses_not_counted_as_data_loss(self):
        sim = Simulator()
        misses = [MissRecord(5.0, "10.0.1.1", 50, True, "sleep")]
        wnic = Wnic(sim, "c1")
        analyzer = EnergyAnalyzer([frame(0.0, 0.1)], WAVELAN_2_4GHZ, 10.0,
                                  misses=misses)
        report = analyzer.analyze("c1", "10.0.1.1", wnic)
        assert report.packets_missed == 0


class TestReports:
    def _report(self, saved_target, loss=0.0):
        sim = Simulator()
        wnic = Wnic(sim, "c", start_asleep=True)
        analyzer = EnergyAnalyzer([frame(0.0, 0.1)], WAVELAN_2_4GHZ, 10.0)
        return analyzer.analyze("c", "10.0.1.1", wnic)

    def test_saved_pct_bounds(self):
        report = self._report(None)
        assert 0.0 <= report.energy_saved_pct <= 100.0

    def test_gap_to_optimal(self):
        sim = Simulator()
        wnic = Wnic(sim, "c", start_asleep=True)
        analyzer = EnergyAnalyzer([frame(0.0, 0.1)], WAVELAN_2_4GHZ, 10.0)
        report = analyzer.analyze(
            "c", "10.0.1.1", wnic, optimal_saved_pct=90.0
        )
        assert report.gap_to_optimal_pct == pytest.approx(
            90.0 - report.energy_saved_pct
        )

    def test_summarize(self):
        sim = Simulator()
        reports = []
        for _ in range(3):
            wnic = Wnic(sim, "c", start_asleep=True)
            analyzer = EnergyAnalyzer([frame(0.0, 0.1)], WAVELAN_2_4GHZ, 10.0)
            reports.append(analyzer.analyze("c", "10.0.1.1", wnic))
        summary = summarize(reports)
        assert summary.count == 3
        assert summary.min_saved_pct <= summary.avg_saved_pct <= summary.max_saved_pct

    def test_summarize_empty(self):
        summary = summarize([])
        assert summary.count == 0
