"""Tests for the theory-vs-measured explain driver and its CLI."""

import pytest

from repro import obs
from repro.obs.explain import (
    _sweep_sizes,
    render_markdown,
    run_explain,
    write_report,
)


@pytest.fixture(scope="module")
def result():
    # module-scoped: one calibrate+check+attack pass feeds every test
    return run_explain(quick=True, scheme_keys=("single", "pp2"))


class TestSweepSizes:
    def test_fractions_of_m(self):
        assert _sweep_sizes(512, (0.125, 0.25, 0.5)) == [64, 128, 256]

    def test_floor_and_dedup(self):
        assert _sweep_sizes(16, (0.125, 0.25)) == [4]


class TestRunExplain:
    def test_checks_pass_within_envelopes(self, result):
        assert result.check_violations == []
        for rep in result.schemes:
            assert len(rep.checks) == 2  # two N' sizes per scheme
            assert len(rep.envelopes) == 4

    def test_attack_flagged_with_coordinates(self, result):
        assert result.attack_flagged
        v = next(
            v for v in result.attack.violations
            if v.quantity == "congestion_p95"
        )
        assert v.measured > v.bound
        assert v.coordinates() == (
            "(scheme=single, N=64, N'=16, quantity=congestion_p95)"
        )

    def test_pp_addressing_field_ops_measured(self, result):
        pp = next(r for r in result.schemes if r.key == "pp2")
        for row in pp.checks:
            assert row.measurement.quantities["addr_field_ops"] > 0

    def test_ledger_events_streamed(self, result):
        # 2 batches per measured run: (3 cal + 2 check) * 2 schemes + attack
        assert result.bus_events == 22
        assert result.watch_congestion_p95 is not None

    def test_switchboard_left_clean(self, result):
        assert not obs.enabled()
        assert obs.ledger() is None


class TestRender:
    def test_report_sections(self, result):
        md = render_markdown(result)
        assert "# Cost attribution: theory vs measured" in md
        assert "## single (N=64, M=512, r=1)" in md
        assert "## Congestion heat" in md
        assert "Flagged as expected" in md
        assert "**PASS** -- 0 check violation(s), attack flagged." in md

    def test_report_is_deterministic(self):
        # counts only: two runs render byte-identical markdown
        first = render_markdown(run_explain(quick=True))
        assert render_markdown(run_explain(quick=True)) == first
        assert "seconds" not in first and " ms" not in first

    def test_write_report(self, result, tmp_path):
        path = write_report(result, str(tmp_path / "sub" / "r.md"))
        with open(path) as fh:
            assert fh.read().startswith("# Cost attribution")


class TestCLI:
    def test_explain_check_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "explain_report.md"
        rc = main(["explain", "--quick", "--check", "--out", str(out)])
        assert rc == 0
        assert out.exists()
        assert "0 check violation(s), attack flagged" in capsys.readouterr().out

    def test_quick_run_leaves_committed_report_alone(
        self, result, tmp_path, monkeypatch, capsys
    ):
        # a --quick run without --out must not overwrite the committed
        # full report at the default path
        import repro.obs.explain as explain
        from repro.cli import main

        report = tmp_path / "benchmarks" / "results" / "explain_report.md"
        report.parent.mkdir(parents=True)
        report.write_text("sentinel full report\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(explain, "run_explain", lambda **kw: result)
        assert main(["explain", "--quick"]) == 0
        assert report.read_text() == "sentinel full report\n"
        assert "report ->" not in capsys.readouterr().err
