"""Tests for the documentation tooling and the docs themselves."""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..", "..")


class TestApiDocGenerator:
    def test_generator_runs_and_covers_packages(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "tools", "gen_api_docs.py")],
            capture_output=True,
            text=True,
            timeout=180,
        )
        assert proc.returncode == 0, proc.stderr
        text = open(os.path.join(ROOT, "docs", "API.md")).read()
        for pkg in (
            "repro.core.scheme",
            "repro.core.addressing",
            "repro.mpc.machine",
            "repro.schemes.upfal_wigderson",
            "repro.pram.machine",
            "repro.network.routing",
            "repro.kvstore.store",
            "repro.obs",
            "repro.obs.metrics",
            "repro.obs.trace",
        ):
            assert f"## `{pkg}`" in text, pkg
        assert "class `PPScheme" in text
        assert "*(undocumented)*" not in text  # everything public has docs

    def test_observability_reference_emitted_in_full(self):
        # repro.obs sets __apidoc__ = "full": its whole docstring (the
        # metric-name and trace-schema tables) must land in API.md.
        text = open(os.path.join(ROOT, "docs", "API.md")).read()
        assert "### Metric names" in text
        assert "### Trace event schema" in text
        assert "protocol.phase_iterations" in text
        assert "mpc_max_congestion" in text  # a protocol.access field


class TestDocsPresent:
    def test_top_level_docs_exist(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                     os.path.join("docs", "THEORY.md")):
            path = os.path.join(ROOT, name)
            assert os.path.exists(path), name
            assert len(open(path).read()) > 1000, name

    def test_experiments_covers_all_benches(self):
        bench_dir = os.path.join(ROOT, "benchmarks")
        experiments = open(os.path.join(ROOT, "EXPERIMENTS.md")).read()
        for fn in os.listdir(bench_dir):
            if fn.startswith("bench_e") and fn.endswith(".py"):
                tag = fn.split("_")[1]  # e01 ...
                assert tag.upper()[0] + tag[1:] in experiments or tag in experiments.lower(), fn
