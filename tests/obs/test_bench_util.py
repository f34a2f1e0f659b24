"""benchmarks/_util.py: the schema-versioned metrics snapshot round trip.

The benchmark helpers live outside the package (they are pytest-side
glue), so this test imports them by path and redirects RESULTS_DIR at a
tmp dir to exercise save_tables/load_metrics without touching the real
benchmarks/results/.
"""

import importlib.util
import json
import os
import sys

import pytest

from repro.analysis.report import Table
from repro.obs.metrics import MetricsRegistry

BENCH_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "benchmarks"
)


@pytest.fixture()
def util(tmp_path, monkeypatch):
    """A fresh benchmarks/_util module with RESULTS_DIR -> tmp_path."""
    monkeypatch.syspath_prepend(BENCH_DIR)
    spec = importlib.util.spec_from_file_location(
        "_bench_util_under_test", os.path.join(BENCH_DIR, "_util.py")
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    mod.RESULTS_DIR = str(tmp_path)
    return mod


def _table():
    t = Table(["a", "b"], title="t")
    t.add_row([1, 2])
    return t


class TestSaveTables:
    def test_writes_markdown(self, util, tmp_path, capsys):
        text = util.save_tables("exp", [_table()], notes="a note")
        assert "a note" in text
        assert (tmp_path / "exp.md").read_text() == text
        assert "a note" in capsys.readouterr().out

    def test_metrics_envelope_is_versioned(self, util, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        util.save_tables("exp", [_table()], metrics=reg)
        payload = json.loads((tmp_path / "exp.metrics.json").read_text())
        assert payload["schema"] == util.METRICS_SCHEMA
        assert payload["name"] == "exp"
        assert payload["metrics"]["c"]["value"] == 3

    def test_accepts_plain_snapshot_dict(self, util):
        util.save_tables("exp", [_table()],
                         metrics={"c": {"type": "counter", "value": 1}})
        assert util.load_metrics("exp")["c"]["value"] == 1


class TestLoadMetrics:
    def test_roundtrip(self, util):
        reg = MetricsRegistry()
        reg.histogram("h").observe(5)
        util.save_tables("exp", [_table()], metrics=reg)
        snap = util.load_metrics("exp")
        assert snap["h"]["sum"] == 5
        assert snap["h"]["min"] == 5

    def test_missing_file_raises(self, util):
        with pytest.raises(FileNotFoundError):
            util.load_metrics("never_saved")

    def test_unversioned_snapshot_rejected(self, util, tmp_path):
        (tmp_path / "old.metrics.json").write_text(
            json.dumps({"c": {"value": 1}})
        )
        with pytest.raises(ValueError, match="unversioned"):
            util.load_metrics("old")

    def test_schema_mismatch_rejected(self, util, tmp_path):
        (tmp_path / "future.metrics.json").write_text(
            json.dumps({"schema": 99, "name": "future", "metrics": {}})
        )
        with pytest.raises(ValueError, match="schema 99"):
            util.load_metrics("future")

    def test_missing_payload_rejected(self, util, tmp_path):
        (tmp_path / "hollow.metrics.json").write_text(
            json.dumps({"schema": util.METRICS_SCHEMA, "name": "hollow"})
        )
        with pytest.raises(ValueError, match="missing metrics"):
            util.load_metrics("hollow")


class TestRecorderGlue:
    def test_scalar_routes_to_session_recorder(self, util):
        util.scalar("x.y", 4)
        assert not util.recorder().empty
        assert util.recorder().record("20260805T000000Z")["scalars"]["x.y"] == 4.0
