"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main, parse_clients, parse_interval
from repro.errors import ConfigurationError


class TestParsers:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("100ms", 0.1),
            ("500ms", 0.5),
            ("0.25", 0.25),
            ("2s", 2.0),
            ("variable", None),
            ("var", None),
        ],
    )
    def test_parse_interval(self, text, expected):
        assert parse_interval(text) == expected

    def test_parse_clients_mixed(self):
        specs = parse_clients("video:56,video:512,web,ftp:1000000")
        assert [s.kind for s in specs] == ["video", "video", "web", "ftp"]
        assert specs[0].video_kbps == 56
        assert specs[1].video_kbps == 512
        assert specs[3].ftp_bytes == 1_000_000

    def test_parse_clients_defaults(self):
        specs = parse_clients("video,web:10")
        assert specs[0].video_kbps == 56
        assert specs[1].web_pages == 10

    def test_parse_clients_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_clients("carrier-pigeon")

    def test_parse_clients_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_clients(" , ,")


class TestCommands:
    def test_run_json(self, capsys):
        code = main([
            "run", "--clients", "video:56,video:56",
            "--interval", "250ms", "--duration", "8", "--seed", "3",
            "--json",
        ])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 2
        assert all(30.0 < row["saved_pct"] < 95.0 for row in rows)

    def test_run_table_output(self, capsys):
        code = main([
            "run", "--clients", "video:56", "--interval", "250ms",
            "--duration", "5", "--seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "saved_pct" in out
        assert "avg saved" in out

    def test_table_command_quick(self, capsys):
        code = main(["table", "memory", "--quick", "--json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["experiment"] == "memory-footprint"

    def test_bad_client_spec_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--clients", "bogus:1", "--duration", "5"])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_parser_help_lists_commands(self):
        parser = build_parser()
        help_text = parser.format_help()
        for command in ("run", "figure", "table", "loadtest"):
            assert command in help_text
