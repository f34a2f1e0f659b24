"""CLI exit-code contract, output formats, and the committed-tree self-check.

The six seeded violation fixtures under ``fixtures/violations/repro/``
pin the acceptance criterion: ``repro lint`` must exit non-zero on each
of them.  They are named after the rule they were seeded for; the D2
and D6 checks now report as F2 and F3.
"""

import json
import os

import pytest

from repro.lint.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
VIOLATIONS = os.path.join(HERE, "fixtures", "violations", "repro")

#: fixture id -> (rule reported, fixture file)
SEEDED = {
    "D1": ("D1", os.path.join(VIOLATIONS, "core", "d1_set_iteration.py")),
    "D2": ("F2", os.path.join(VIOLATIONS, "core", "d2_unseeded_random.py")),
    "D3": ("D3", os.path.join(VIOLATIONS, "gf", "d3_float_division.py")),
    "D4": ("D4", os.path.join(VIOLATIONS, "kvstore", "d4_unguarded_obs.py")),
    "D5": ("D5", os.path.join(VIOLATIONS, "analysis", "d5_mutable_default.py")),
    "D6": ("F3", os.path.join(VIOLATIONS, "core", "d6_swallowed_quorum.py")),
}


class TestSeededViolations:
    @pytest.mark.parametrize("rule", sorted(SEEDED))
    def test_each_seeded_fixture_fails(self, rule, capsys):
        reported, path = SEEDED[rule]
        code = main(["--no-baseline", path])
        out = capsys.readouterr().out
        assert code == 1
        assert reported in out and "FAIL" in out

    def test_whole_fixture_tree_reports_every_rule(self, capsys):
        code = main(["--no-baseline", "--format", "json", VIOLATIONS])
        assert code == 1
        data = json.loads(capsys.readouterr().out)
        assert set(data["counts"]) >= {r for r, _ in SEEDED.values()}


class TestSelfCheck:
    def test_committed_tree_is_clean(self, capsys):
        """Acceptance criterion: the shipped source lints clean against
        the committed baseline (exit 0, no new findings, no stale)."""
        code = main([
            "--baseline", os.path.join(REPO, ".lint-baseline.json"),
            os.path.join(REPO, "src", "repro"),
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "0 new finding(s)" in out and "0 stale" in out

    def test_committed_baseline_entries_all_justified(self):
        with open(os.path.join(REPO, ".lint-baseline.json")) as fh:
            data = json.load(fh)
        assert data["entries"], "baseline unexpectedly empty"
        for entry in data["entries"]:
            assert len(entry["reason"].strip()) > 10, entry


class TestExitCodes:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        p = tmp_path / "clean.py"
        p.write_text("x = 1\n")
        assert main(["--no-baseline", str(p)]) == 0

    def test_unknown_rule_id_is_usage_error(self, capsys):
        assert main(["--select", "D99", SEEDED["D1"][1]]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert main(["--no-baseline", str(tmp_path / "nope")]) == 2

    def test_unjustified_baseline_is_usage_error(self, tmp_path, capsys):
        b = tmp_path / "b.json"
        b.write_text(json.dumps({
            "version": 1,
            "entries": [{
                "rule": "D1", "path": "repro/core/x.py",
                "snippet": "s", "reason": "TODO: justify this exception",
            }],
        }))
        code = main(["--baseline", str(b), SEEDED["D1"][1]])
        assert code == 2
        assert "justification" in capsys.readouterr().err

    def test_stale_baseline_entry_fails(self, tmp_path, capsys):
        p = tmp_path / "clean.py"
        p.write_text("x = 1\n")
        b = tmp_path / "b.json"
        b.write_text(json.dumps({
            "version": 1,
            "entries": [{
                "rule": "D1", "path": "clean.py",
                "snippet": "gone()", "reason": "covered a removed loop",
            }],
        }))
        code = main(["--baseline", str(b), str(p)])
        out = capsys.readouterr().out
        assert code == 1
        assert "stale" in out

    def test_select_and_ignore_filter_rules(self, capsys):
        assert main(["--no-baseline", "--select", "D3", SEEDED["D1"][1]]) == 0
        capsys.readouterr()
        assert main(["--no-baseline", "--ignore", "D1", SEEDED["D1"][1]]) == 0


class TestFormatsAndTools:
    def test_json_schema_shape(self, capsys):
        code = main(["--no-baseline", "--format", "json", SEEDED["D3"][1]])
        assert code == 1
        data = json.loads(capsys.readouterr().out)
        assert data["schema"] == 1 and data["ok"] is False
        assert data["counts"]["D3"]["new"] >= 1
        (finding,) = [f for f in data["new"] if f["rule"] == "D3"]
        assert finding["path"].startswith("repro/gf/")
        assert set(data["rules"]) == {"D1", "D3", "D4", "D5",
                                      "F1", "F2", "F3", "F4"}

    def test_markdown_format(self, capsys):
        code = main(["--no-baseline", "--format", "md", SEEDED["D3"][1]])
        assert code == 1
        out = capsys.readouterr().out
        assert out.startswith("# Determinism lint report")
        assert "| D3 |" in out

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("D1", "D3", "D4", "D5", "F1", "F2", "F3", "F4"):
            assert rule in out

    def test_write_baseline_then_justify_then_clean(self, tmp_path, capsys):
        src = tmp_path / "repro" / "gf"
        src.mkdir(parents=True)
        f = src / "mod.py"
        f.write_text("x = 0.5\n")
        b = tmp_path / "b.json"
        assert main(["--baseline", str(b), "--write-baseline", str(f)]) == 0
        capsys.readouterr()
        # placeholder reasons must block the very next run
        assert main(["--baseline", str(b), str(f)]) == 2
        capsys.readouterr()
        data = json.loads(b.read_text())
        for e in data["entries"]:
            e["reason"] = "intentional float for this test"
        b.write_text(json.dumps(data))
        assert main(["--baseline", str(b), str(f)]) == 0

    def test_lint_report_tool(self, tmp_path, capsys):
        import subprocess
        import sys

        json_path = tmp_path / "lint.json"
        code = main(["--no-baseline", "--format", "json", VIOLATIONS])
        assert code == 1
        json_path.write_text(capsys.readouterr().out)
        out_md = tmp_path / "report.md"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO, "src")
        proc = subprocess.run(
            [sys.executable, os.path.join(REPO, "tools", "lint_report.py"),
             str(json_path), "-o", str(out_md)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        text = out_md.read_text()
        assert "# Determinism lint report" in text
        assert "D1" in text
