"""repro.obs.perf: recorder, trajectory store, and the regression gate.

Covers the BENCH_*.json schema round trip, the RegressionDetector edge
cases (first run, improvement, single-sample baseline, missing metric,
NaN/zero-time guard), and the acceptance scenario: a synthetically
injected 2x slowdown must fail ``repro perf check`` while an unchanged
re-run passes.
"""

import json
import math
import os

import pytest

from repro.cli import main
from repro.obs.perf import (
    BENCH_PREFIX,
    SCHEMA_VERSION,
    BenchRecorder,
    RegressionDetector,
    Trajectory,
    env_fingerprint,
    load_record,
    median_mad,
    render_report,
    trend,
)


def make_record(tmp_path, stamp, sections, scalars=None):
    """Write a synthetic BENCH record; sections maps name -> samples."""
    rec = BenchRecorder(source="test")
    for name, samples in sections.items():
        for s in samples:
            rec.observe(name, s)
    for name, v in (scalars or {}).items():
        rec.scalar(name, v)
    return rec.write(str(tmp_path), stamp=stamp)


class TestBenchRecorder:
    def test_measure_warmup_and_repeats(self):
        calls = []
        rec = BenchRecorder()
        summary = rec.measure("s", lambda: calls.append(1), warmup=2,
                              repeats=3)
        assert len(calls) == 5  # warmup runs are not recorded
        assert summary["count"] == 3 and len(summary["samples"]) == 3
        assert summary["warmup"] == 2 and summary["repeats"] == 3
        assert summary["best"] == min(summary["samples"])

    def test_measure_rejects_zero_repeats(self):
        with pytest.raises(ValueError, match="repeats"):
            BenchRecorder().measure("s", lambda: None, repeats=0)

    def test_summary_median_mad(self):
        rec = BenchRecorder()
        for v in (1.0, 2.0, 10.0):
            rec.observe("s", v)
        s = rec.summary("s")
        assert s["median"] == 2.0 and s["mad"] == 1.0 and s["best"] == 1.0

    def test_empty_flag(self):
        rec = BenchRecorder()
        assert rec.empty
        rec.scalar("x", 1)
        assert not rec.empty

    def test_env_fingerprint(self):
        env = env_fingerprint("unit-test")
        assert env["source"] == "unit-test"
        assert env["python"] and env["cpus"] >= 1

    def test_write_and_load_roundtrip(self, tmp_path):
        rec = BenchRecorder(source="test")
        rec.observe("a.section", 0.5)
        rec.scalar("a.scalar", 1.25)
        rec.attach_metrics({"m": {"type": "counter", "value": 3}})
        path = rec.write(str(tmp_path), stamp="20260805T120000Z")
        assert os.path.basename(path) == f"{BENCH_PREFIX}20260805T120000Z.json"
        back = load_record(path)
        assert back["schema"] == SCHEMA_VERSION
        assert back["created_utc"] == "2026-08-05T12:00:00Z"
        assert back["sections"]["a.section"]["median"] == 0.5
        assert back["scalars"]["a.scalar"] == 1.25
        assert back["metrics"]["m"]["value"] == 3

    def test_write_collision_gets_fresh_name(self, tmp_path):
        rec = BenchRecorder()
        rec.observe("s", 1.0)
        p1 = rec.write(str(tmp_path), stamp="20260805T120000Z")
        p2 = rec.write(str(tmp_path), stamp="20260805T120000Z")
        assert p1 != p2 and os.path.exists(p1) and os.path.exists(p2)

    def test_load_rejects_wrong_schema(self, tmp_path):
        p = tmp_path / "BENCH_bad.json"
        p.write_text(json.dumps({"kind": "repro.bench", "schema": 99}))
        with pytest.raises(ValueError, match="schema"):
            load_record(str(p))
        p.write_text(json.dumps({"not": "a record"}))
        with pytest.raises(ValueError, match="record"):
            load_record(str(p))


class TestMedianMad:
    def test_values(self):
        assert median_mad([3.0]) == (3.0, 0.0)
        med, mad = median_mad([1, 1, 1, 9])
        assert med == 1.0 and mad == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            median_mad([])


class TestTrajectory:
    def test_load_sorts_and_aligns(self, tmp_path):
        make_record(tmp_path, "20260805T120001Z", {"a": [2.0]})
        make_record(tmp_path, "20260805T120000Z", {"a": [1.0], "b": [5.0]})
        traj = Trajectory.load(str(tmp_path))
        assert len(traj) == 2
        assert traj.series("a") == [1.0, 2.0]  # chronological, not glob order
        assert traj.series("b") == [5.0, None]
        assert traj.section_names() == ["a", "b"]

    def test_unreadable_record_is_skipped(self, tmp_path):
        make_record(tmp_path, "20260805T120000Z", {"a": [1.0]})
        (tmp_path / "BENCH_garbage.json").write_text("{nope")
        traj = Trajectory.load(str(tmp_path))
        assert len(traj) == 1 and len(traj.skipped) == 1

    def test_baseline_excludes_latest(self, tmp_path):
        for i, v in enumerate((1.0, 2.0, 30.0)):
            make_record(tmp_path, f"2026080{5}T12000{i}Z", {"a": [v]})
        traj = Trajectory.load(str(tmp_path))
        med, mad, n = traj.baseline("a")
        assert med == 1.5 and n == 2  # the 30.0 latest is excluded

    def test_metrics_snapshots_schema_checked(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "e01.metrics.json").write_text(json.dumps(
            {"schema": 1, "name": "e01", "metrics": {"c": {"value": 1}}}
        ))
        (results / "old.metrics.json").write_text(json.dumps({"c": 1}))
        traj = Trajectory.load(str(tmp_path), results_dir=str(results))
        assert "e01" in traj.metrics_snapshots
        assert any(p.endswith("old.metrics.json") for p in traj.skipped)


class TestRegressionDetector:
    def test_first_run_no_baseline(self, tmp_path):
        make_record(tmp_path, "20260805T120000Z", {"a": [1.0]})
        res = RegressionDetector(Trajectory.load(str(tmp_path))).check()
        assert res.ok and res.checked == 0

    def test_unchanged_rerun_passes(self, tmp_path):
        make_record(tmp_path, "20260805T120000Z", {"a": [1.0, 1.0, 1.0]})
        make_record(tmp_path, "20260805T120001Z", {"a": [1.0, 1.0, 1.0]})
        res = RegressionDetector(Trajectory.load(str(tmp_path))).check()
        assert res.ok and res.checked == 1

    def test_2x_slowdown_flags(self, tmp_path):
        make_record(tmp_path, "20260805T120000Z", {"a": [1.0, 1.0, 1.0]})
        make_record(tmp_path, "20260805T120001Z", {"a": [2.0, 2.0, 2.0]})
        res = RegressionDetector(Trajectory.load(str(tmp_path))).check()
        assert not res.ok
        assert res.regressions[0].name == "a"
        assert res.regressions[0].ratio == pytest.approx(2.0)

    def test_improvement_not_flagged(self, tmp_path):
        make_record(tmp_path, "20260805T120000Z", {"a": [2.0]})
        make_record(tmp_path, "20260805T120001Z", {"a": [0.5]})
        res = RegressionDetector(Trajectory.load(str(tmp_path))).check()
        assert res.ok and res.checked == 1

    def test_single_sample_baseline_uses_ratio(self, tmp_path):
        # one baseline run -> MAD is 0; only the ratio guard applies
        make_record(tmp_path, "20260805T120000Z", {"a": [1.0]})
        make_record(tmp_path, "20260805T120001Z", {"a": [1.2]})
        det = RegressionDetector(Trajectory.load(str(tmp_path)), ratio=0.25)
        assert det.check().ok  # +20% < 25% tolerance
        make_record(tmp_path, "20260805T120002Z", {"a": [1.6]})
        det = RegressionDetector(Trajectory.load(str(tmp_path)), ratio=0.25)
        assert not det.check().ok

    def test_mad_term_absorbs_noisy_baseline(self, tmp_path):
        # noisy history: the MAD term must widen the tolerance band
        for i, v in enumerate((1.0, 2.0, 1.0, 2.0)):
            make_record(tmp_path, f"20260805T12000{i}Z", {"a": [v]})
        make_record(tmp_path, "20260805T120009Z", {"a": [2.4]})
        det = RegressionDetector(Trajectory.load(str(tmp_path)),
                                 ratio=0.25, mad_k=4.0)
        # baseline median 1.5, mad 0.5 -> threshold 1.5 + 2.0 = 3.5
        assert det.check().ok

    def test_missing_metric_in_baseline_skipped(self, tmp_path):
        make_record(tmp_path, "20260805T120000Z", {"a": [1.0]})
        make_record(tmp_path, "20260805T120001Z",
                    {"a": [1.0], "brand_new": [9.0]})
        res = RegressionDetector(Trajectory.load(str(tmp_path))).check()
        assert res.ok and res.new_sections == ["brand_new"]

    def test_nan_and_zero_time_guard(self, tmp_path):
        make_record(tmp_path, "20260805T120000Z",
                    {"a": [float("nan")], "b": [0.0], "c": [1.0]})
        make_record(tmp_path, "20260805T120001Z",
                    {"a": [float("nan")], "b": [0.0], "c": [1.0]})
        res = RegressionDetector(Trajectory.load(str(tmp_path))).check()
        assert res.ok and res.checked == 1  # only 'c' is checkable

    def test_bad_params_rejected(self, tmp_path):
        traj = Trajectory.load(str(tmp_path))
        with pytest.raises(ValueError):
            RegressionDetector(traj, window=0)


class TestReport:
    def test_trend_handles_gaps(self):
        line = trend([1.0, None, 2.0, float("nan"), 3.0])
        assert len(line) == 3

    def test_render_empty(self, tmp_path):
        text = render_report(Trajectory.load(str(tmp_path)))
        assert "No `BENCH_*.json` records" in text

    def test_render_with_history(self, tmp_path):
        make_record(tmp_path, "20260805T120000Z", {"a": [1.0]},
                    scalars={"phi": 4})
        make_record(tmp_path, "20260805T120001Z", {"a": [1.1]},
                    scalars={"phi": 4})
        text = render_report(Trajectory.load(str(tmp_path)))
        assert "| a |" in text and "phi" in text
        assert "Timed sections" in text


class TestPerfCli:
    def test_check_empty_dir_says_no_baseline_and_passes(
        self, tmp_path, capsys
    ):
        # fresh clone: no BENCH_*.json at all -- explicit message, exit 0
        assert main(["perf", "check", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "no baseline yet" in out
        assert "BENCH_*.json" in out
        assert "perf record" in out

    def test_check_no_baseline_ok(self, tmp_path):
        make_record(tmp_path, "20260805T120000Z", {"a": [1.0]})
        assert main(["perf", "check", "--dir", str(tmp_path)]) == 0

    def test_check_acceptance_cycle(self, tmp_path, capsys):
        # unchanged re-run passes ...
        make_record(tmp_path, "20260805T120000Z", {"a": [1.0, 1.0]})
        make_record(tmp_path, "20260805T120001Z", {"a": [1.0, 1.0]})
        assert main(["perf", "check", "--dir", str(tmp_path)]) == 0
        # ... an injected 2x slowdown exits non-zero ...
        make_record(tmp_path, "20260805T120002Z", {"a": [2.0, 2.0]})
        assert main(["perf", "check", "--dir", str(tmp_path)]) == 1
        assert "REGRESSION" in capsys.readouterr().out
        # ... and --soft reports without failing
        assert main(["perf", "check", "--dir", str(tmp_path), "--soft"]) == 0

    def test_report_writes_dashboard(self, tmp_path):
        make_record(tmp_path, "20260805T120000Z", {"a": [1.0]})
        out = tmp_path / "dash.md"
        assert main(["perf", "report", "--dir", str(tmp_path),
                     "--md-out", str(out)]) == 0
        assert "Performance trajectory" in out.read_text()

    def test_record_quick_suite(self, tmp_path):
        assert main(["perf", "record", "--out", str(tmp_path),
                     "--repeats", "1"]) == 0
        paths = [p for p in os.listdir(tmp_path)
                 if p.startswith(BENCH_PREFIX)]
        assert len(paths) == 1
        rec = load_record(str(tmp_path / paths[0]))
        # only the GF kernels: every other path is timed by bench/
        assert set(rec["sections"]) == {
            "quick.gf_vmul_100k", "quick.gf_vinv_100k",
        }
        assert set(rec["scalars"]) == {"quick.gf_vmul_mops"}
        assert rec["env"]["source"] == "quick-suite"
        assert all(
            math.isfinite(s["median"]) and s["median"] > 0
            for s in rec["sections"].values()
        )
