"""Unit tests for the web browsing and FTP workloads."""

import pytest

from repro.net.addr import Endpoint
from repro.sim import RngStreams
from repro.units import mib
from repro.workloads.ftp import FtpClientApp, FtpServerApp
from repro.workloads.web import (
    PageVisit,
    WebClientApp,
    WebScript,
    WebServerApp,
)

from tests.net.helpers import wire_pair


class TestWebScript:
    def test_generation_is_deterministic(self):
        a = WebScript.generate(RngStreams(4).get("web"))
        b = WebScript.generate(RngStreams(4).get("web"))
        assert a == b

    def test_different_seeds_differ(self):
        a = WebScript.generate(RngStreams(4).get("web"))
        b = WebScript.generate(RngStreams(5).get("web"))
        assert a != b

    def test_object_sizes_bounded(self):
        script = WebScript.generate(RngStreams(1).get("web"), n_pages=50)
        for visit in script.visits:
            assert len(visit.object_sizes) >= 1
            for size in visit.object_sizes:
                assert 1024 <= size <= 150 * 1024

    def test_zero_pages_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            WebScript.generate(RngStreams(1).get("web"), n_pages=0)

    def test_total_bytes(self):
        script = WebScript(
            visits=(
                PageVisit((1000, 2000), 1.0),
                PageVisit((500,), 2.0),
            )
        )
        assert script.total_bytes == 3500


class TestWebBrowsing:
    def test_direct_browse_loads_all_pages(self):
        sim, a, b, _ = wire_pair()
        WebServerApp(b)
        script = WebScript(
            visits=(
                PageVisit((5000, 3000, 8000), 0.5),
                PageVisit((10_000,), 0.5),
            )
        )
        app = WebClientApp(a, Endpoint(b.ip, 80), script)
        sim.run(until=30.0)
        assert app.pages_loaded == 2
        assert app.objects_loaded == 4
        assert app.bytes_received == script.total_bytes
        assert len(app.page_latencies) == 2
        assert app.mean_object_latency > 0

    def test_stop_at_cuts_session_short(self):
        sim, a, b, _ = wire_pair()
        WebServerApp(b)
        script = WebScript(
            visits=tuple(PageVisit((2000,), 1.0) for _ in range(50))
        )
        app = WebClientApp(a, Endpoint(b.ip, 80), script, stop_at=5.0)
        sim.run(until=60.0)
        assert 0 < app.pages_loaded < 50

    def test_server_counters(self):
        sim, a, b, _ = wire_pair()
        server = WebServerApp(b)
        script = WebScript(visits=(PageVisit((4000, 6000), 0.1),))
        WebClientApp(a, Endpoint(b.ip, 80), script)
        sim.run(until=20.0)
        assert server.requests_served == 2
        assert server.bytes_served == 10_000


class TestFtp:
    def test_download_completes_and_times(self):
        sim, a, b, _ = wire_pair()
        FtpServerApp(b)
        app = FtpClientApp(a, Endpoint(b.ip, 21), file_size=mib(1), start_at=1.0)
        sim.run(until=60.0)
        assert app.done
        assert app.bytes_received == mib(1)
        assert app.started_at == pytest.approx(1.0)
        assert app.transfer_time_s > 0

    def test_bad_file_size_rejected(self):
        from repro.errors import ConfigurationError

        sim, a, b, _ = wire_pair()
        with pytest.raises(ConfigurationError):
            FtpClientApp(a, Endpoint(b.ip, 21), file_size=0)

    def test_server_counts_bytes(self):
        sim, a, b, _ = wire_pair()
        server = FtpServerApp(b)
        FtpClientApp(a, Endpoint(b.ip, 21), file_size=50_000)
        sim.run(until=30.0)
        assert server.files_served == 1
        assert server.bytes_served == 50_000
