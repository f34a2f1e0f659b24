"""Tests for the observability CLI surfacing (``metrics``,
``access --trace-out``) and the trace summarizer tool."""

import json
import os
import subprocess
import sys

import pytest

from repro import obs
from repro.cli import main
from repro.obs.trace import read_jsonl

ROOT = os.path.join(os.path.dirname(__file__), "..", "..")


class TestAccessTraceOut:
    def test_writes_parseable_trace(self, capsys, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        assert main(
            ["access", "-q", "2", "-n", "3", "--count", "32",
             "--trace-out", path]
        ) == 0
        captured = capsys.readouterr()
        assert "Phi (max)" in captured.out
        assert "trace:" in captured.err and path in captured.err
        events = read_jsonl(path)
        names = {e["name"] for e in events}
        assert {"protocol.access", "protocol.phase", "mpc.step"} <= names

    def test_trace_matches_reported_iterations(self, capsys, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        assert main(
            ["access", "-q", "2", "-n", "5", "--count", "200",
             "--trace-out", path]
        ) == 0
        out = capsys.readouterr().out
        events = read_jsonl(path)
        phases = sorted(
            (e for e in events if e["name"] == "protocol.phase"),
            key=lambda e: e["phase"],
        )
        reported = [e["iterations"] for e in phases]
        assert f"| iterations/phase | {reported} |" in out

    def test_tracer_uninstalled_after_run(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        main(["access", "-q", "2", "-n", "3", "--count", "16",
              "--trace-out", path])
        assert not obs.enabled()

    def test_no_trace_without_flag(self, capsys):
        assert main(["access", "-q", "2", "-n", "3", "--count", "16"]) == 0
        assert "trace:" not in capsys.readouterr().err


class TestMetricsCommand:
    def test_prints_valid_json(self, capsys):
        assert main(["metrics", "-q", "2", "-n", "3", "--count", "32"]) == 0
        snap = json.loads(capsys.readouterr().out)
        for key in ("scheme.builds", "protocol.iterations", "mpc.steps",
                    "protocol.accesses{op=count}",
                    "protocol.phase_iterations"):
            assert key in snap, key
        assert snap["scheme.builds"]["value"] == 1
        assert snap["mpc.steps"]["value"] >= 1

    def test_restores_disabled_state(self):
        main(["metrics", "-q", "2", "-n", "3", "--count", "16"])
        assert not obs.metrics_enabled() and not obs.enabled()

    def test_count_too_large(self, capsys):
        assert main(["metrics", "-q", "2", "-n", "3", "--count", "999"]) == 2
        assert "error" in capsys.readouterr().err


class TestTraceReportTool:
    def run_tool(self, *argv):
        return subprocess.run(
            [sys.executable, os.path.join(ROOT, "tools", "trace_report.py"),
             *argv],
            capture_output=True, text=True, timeout=120,
        )

    def test_renders_phase_table(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        assert main(["access", "-q", "2", "-n", "3", "--count", "32",
                     "--trace-out", path]) == 0
        proc = self.run_tool(path)
        assert proc.returncode == 0, proc.stderr
        assert "access #0" in proc.stdout
        assert "| phase | variables | iterations |" in proc.stdout
        assert "machine summary" in proc.stdout

    def test_missing_file_exits_2(self, tmp_path):
        proc = self.run_tool(str(tmp_path / "nope.jsonl"))
        assert proc.returncode == 2
        assert "error" in proc.stderr

    def test_traceless_file_exits_2(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text('{"type": "event", "name": "x", "seq": 1, "ts": 0}\n')
        proc = self.run_tool(str(path))
        assert proc.returncode == 2
        assert "no protocol.access" in proc.stderr
