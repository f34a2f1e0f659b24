"""Engine edge cases: noqa on multi-line statements, fingerprint
stability across line drift, parse errors inside real packages, and
two scanned files that share one module path.

These pin behaviours the rule tests take for granted: suppression is
*per physical line* (the line a finding anchors to), baseline identity
is line-number-free, and one broken file never hides its siblings.
"""

import pytest

from repro.lint import LintConfig, lint_source
from repro.lint.baseline import Baseline, BaselineEntry
from repro.lint.cli import main
from repro.lint.engine import LintEngine
from repro.lint.project import Project

CORE = "repro/core/_snippet.py"

F2_ONLY = LintConfig(select=frozenset({"F2"}))

#: an F2 violation (unseeded draw) whose call spans three physical lines
MULTILINE = (
    "import random\n"
    "x = random.random(\n"
    "    # spread across lines\n"
    ")\n"
)


class TestNoqaOnMultilineStatements:
    def test_multiline_statement_flagged_at_its_first_line(self):
        found = lint_source(MULTILINE, CORE, F2_ONLY)
        assert [f.rule for f in found] == ["F2"]
        assert found[0].line == 2

    def test_noqa_on_anchor_line_suppresses(self):
        src = MULTILINE.replace(
            "x = random.random(", "x = random.random(  # noqa: F2"
        )
        assert lint_source(src, CORE, F2_ONLY) == []

    def test_noqa_on_continuation_line_does_not_suppress(self):
        # suppression is per physical line: the comment must sit on the
        # line the finding anchors to, not somewhere inside the statement
        src = MULTILINE.replace(
            "    # spread across lines", "    # noqa: F2"
        )
        found = lint_source(src, CORE, F2_ONLY)
        assert [f.rule for f in found] == ["F2"]

    def test_noqa_inside_string_literal_is_inert(self):
        src = 'import random\nx = random.random()\ny = "# noqa: F2"\n'
        found = lint_source(src, CORE, F2_ONLY)
        assert [f.rule for f in found] == ["F2"]

    def test_bare_noqa_silences_every_rule_on_the_line(self):
        src = "import random\nx = random.random()  # noqa\n"
        assert lint_source(src, CORE, F2_ONLY) == []


class TestFingerprintStability:
    def test_fingerprint_survives_line_drift(self):
        before = "import random\nx = random.random()\n"
        after = (
            "import random\n"
            "\n"
            "PAD = 1  # unrelated edit above the finding\n"
            "\n"
            "x = random.random()\n"
        )
        (f1,) = lint_source(before, CORE, F2_ONLY)
        (f2,) = lint_source(after, CORE, F2_ONLY)
        assert f1.line != f2.line
        assert f1.fingerprint == f2.fingerprint

    def test_baseline_matches_across_drift(self):
        (f,) = lint_source(
            "import random\nx = random.random()\n", CORE, F2_ONLY
        )
        base = Baseline([BaselineEntry(
            rule=f.rule, path=f.path, snippet=f.snippet,
            reason="drift test entry",
        )])
        drifted = lint_source(
            "import random\n\n\nx = random.random()\n", CORE, F2_ONLY
        )
        res = base.apply(drifted)
        assert res.new == [] and res.stale == []
        assert len(res.baselined) == 1

    def test_changed_snippet_breaks_the_match(self):
        (f,) = lint_source(
            "import random\nx = random.random()\n", CORE, F2_ONLY
        )
        base = Baseline([BaselineEntry(
            rule=f.rule, path=f.path, snippet=f.snippet,
            reason="drift test entry",
        )])
        edited = lint_source(
            "import random\ny = random.random()\n", CORE, F2_ONLY
        )
        res = base.apply(edited)
        assert len(res.new) == 1  # the edited line is a new finding
        assert len(res.stale) == 1  # and the old entry went stale


class TestParseErrorsInPackages:
    def _pkg(self, tmp_path):
        pkg = tmp_path / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "__main__.py").write_text(
            "import random\nx = random.random()\n"
        )
        (pkg / "broken.py").write_text("def nope(:\n")
        return tmp_path / "repro"

    def test_e0_reported_once_siblings_still_scanned(self, tmp_path):
        root = self._pkg(tmp_path)
        found = LintEngine(F2_ONLY).run([str(root)])
        by_rule = {}
        for f in found:
            by_rule.setdefault(f.rule, []).append(f)
        # the broken file yields exactly one E0...
        assert [f.path for f in by_rule["E0"]] == ["repro/core/broken.py"]
        assert "does not parse" in by_rule["E0"][0].message
        # ...and __main__.py was still parsed and linted
        assert [f.path for f in by_rule["F2"]] == ["repro/core/__main__.py"]

    def test_e0_carries_the_syntax_error_location(self, tmp_path):
        root = self._pkg(tmp_path)
        (e0,) = [
            f for f in LintEngine(F2_ONLY).run([str(root)])
            if f.rule == "E0"
        ]
        assert e0.line == 1 and e0.col > 0


class TestDuplicateModulePaths:
    """Files are keyed by their ``repro/...`` path; a second file with the
    same key must not silently replace the first."""

    def _trees(self, tmp_path):
        roots = []
        for name in ("a", "b"):
            pkg = tmp_path / name / "repro" / "core"
            pkg.mkdir(parents=True)
            (pkg / "step.py").write_text("import random\nx = random.random()\n")
            roots.append(str(tmp_path / name / "repro"))
        return roots

    def test_two_files_with_one_module_path_refused(self, tmp_path):
        a, b = self._trees(tmp_path)
        with pytest.raises(ValueError, match="repro/core/step.py") as exc:
            Project.build([a, b])
        assert a in str(exc.value) and b in str(exc.value)

    def test_cli_turns_the_clash_into_a_usage_error(self, tmp_path, capsys):
        code = main(["--no-baseline", *self._trees(tmp_path)])
        assert code == 2
        assert "both lint as repro/core/step.py" in capsys.readouterr().err

    def test_one_file_reached_twice_is_linted_once(self, tmp_path):
        a, _ = self._trees(tmp_path)
        twice = [a, str(tmp_path / "a" / "." / "repro" / "core" / "step.py")]
        found = LintEngine(F2_ONLY).run(twice)
        assert [f.path for f in found] == ["repro/core/step.py"]
