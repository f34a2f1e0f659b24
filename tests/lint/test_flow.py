"""The interprocedural rules F1-F4: the project model, the seeded
fixtures, and the engine/CLI/baseline plumbing for partial runs.

The eight trees under ``fixtures/flow/`` pin the acceptance criterion:
one seeded violation per interprocedural rule (each must fire exactly
once) and one idiomatic negative per rule (each must stay silent).
"""

import ast
import json
import os
import textwrap

import pytest

from repro.lint import RULES, LintConfig, LintEngine, Project
from repro.lint.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
FLOW = os.path.join(HERE, "fixtures", "flow")


def tree(case: str) -> str:
    return os.path.join(FLOW, case)


#: ``--select`` spelling of the interprocedural rules
F_RULES = "F1,F2,F3,F4"
#: ``--select`` spelling of the per-file rules
D_RULES = "D1,D3,D4,D5"


def run_flow(case: str, **cfg):
    return LintEngine(LintConfig(**cfg)).run([tree(case)])


def write_tree(root, files: dict) -> str:
    for rel, src in files.items():
        p = root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(textwrap.dedent(src))
    return str(root)


# ---------------------------------------------------------------------------
# seeded fixtures: one positive + one negative per rule


class TestSeededFlowFixtures:
    @pytest.mark.parametrize("rule,case", [
        ("F1", "f1_pos"),
        ("F2", "f2_pos"),
        ("F3", "f3_pos"),
        ("F4", "f4_pos"),
    ])
    def test_positive_fixture_fires_exactly_once(self, rule, case):
        found = run_flow(case)
        assert [f.rule for f in found] == [rule], found

    @pytest.mark.parametrize("case", [
        "f1_neg", "f2_neg", "f3_neg", "f4_neg",
    ])
    def test_negative_fixture_is_clean(self, case):
        assert run_flow(case) == []

    def test_f1_message_names_guard_await_and_fix(self):
        (f,) = run_flow("f1_pos")
        assert f.path == "repro/service/driver.py"
        assert "'self._task'" in f.message
        assert "re-validate" in f.message

    def test_f2_witness_is_the_caller_chain(self):
        (f,) = run_flow("f2_pos")
        assert f.path == "repro/workloads/draws.py"
        assert "repro/core/step.py::advance" in f.message
        assert "->" in f.message

    def test_f3_message_carries_raise_site_and_entry_edge(self):
        (f,) = run_flow("f3_pos")
        assert f.path == "repro/service/api.py"
        assert "repro/kvstore/quorum.py:10" in f.message
        assert "read_quorum()" in f.message
        assert "Raises QuorumLostError" in f.message

    def test_f4_message_names_both_roots(self):
        (f,) = run_flow("f4_pos")
        assert f.path == "repro/core/common.py"
        assert "run_phase_scalar" in f.message
        assert "_run_phase" in f.message
        assert "division" in f.message

    def test_f4_audits_helpers_inside_an_executor_file(self, tmp_path):
        # the executor files are not exempt: a float in a protocol.py
        # helper that both roots reach is on the shared surface
        root = write_tree(tmp_path, {
            "repro/core/protocol.py": """\
                def halve(v):
                    return v * 0.5

                def _run_phase(vals):
                    return halve(vals)
                """,
            "repro/core/engine.py": """\
                from repro.core.protocol import halve

                def run_phase_scalar(vals):
                    return [halve(v) for v in vals]
                """,
        })
        found = LintEngine(LintConfig()).run([root])
        assert [f.rule for f in found] == ["F4"], found
        assert found[0].path == "repro/core/protocol.py"


# ---------------------------------------------------------------------------
# the project model


class TestProjectModel:
    def _project(self, tmp_path, files):
        root = write_tree(tmp_path, files)
        project = Project.build([root])
        assert project.errors == []
        return project

    def test_qualified_names_and_symbols(self, tmp_path):
        p = self._project(tmp_path, {
            "repro/core/a.py": """\
                def top():
                    return 1

                class Box:
                    def get(self):
                        return top()
                """,
        })
        assert "repro/core/a.py::top" in p.functions
        assert "repro/core/a.py::Box.get" in p.functions
        assert "repro/core/a.py::Box" in p.classes

    def test_self_call_resolves_to_own_method(self, tmp_path):
        p = self._project(tmp_path, {
            "repro/core/a.py": """\
                class Box:
                    def get(self):
                        return self.helper()

                    def helper(self):
                        return 1
                """,
        })
        (site,) = p.functions["repro/core/a.py::Box.get"].calls
        assert site.callee == "repro/core/a.py::Box.helper"

    def test_cross_module_from_import_resolves(self, tmp_path):
        p = self._project(tmp_path, {
            "repro/core/a.py": "def helper():\n    return 1\n",
            "repro/core/b.py": (
                "from repro.core.a import helper\n"
                "def use():\n    return helper()\n"
            ),
        })
        (site,) = p.functions["repro/core/b.py::use"].calls
        assert site.callee == "repro/core/a.py::helper"
        assert "repro/core/a.py" in p.module_deps["repro/core/b.py"]

    def test_typed_local_resolves_method(self, tmp_path):
        p = self._project(tmp_path, {
            "repro/core/a.py": """\
                class Store:
                    def get(self):
                        return 1

                def use():
                    s = Store()
                    return s.get()
                """,
        })
        calls = p.functions["repro/core/a.py::use"].calls
        callees = {c.callee for c in calls}
        assert "repro/core/a.py::Store.get" in callees

    def test_nested_function_calls_attributed_to_enclosing(self, tmp_path):
        # a closure's body runs "inside" the enclosing function for
        # reachability purposes (the F3 fix depended on this)
        p = self._project(tmp_path, {
            "repro/core/a.py": """\
                def helper():
                    return 1

                def outer():
                    def inner():
                        return helper()
                    return inner()
                """,
        })
        callees = {
            c.callee for c in p.functions["repro/core/a.py::outer"].calls
        }
        assert "repro/core/a.py::helper" in callees

    def test_reachability_and_caller_chain(self, tmp_path):
        p = self._project(tmp_path, {
            "repro/core/a.py": """\
                def leaf():
                    return 1

                def mid():
                    return leaf()

                def root():
                    return mid()
                """,
        })
        reach = p.reachable_from(["repro/core/a.py::root"])
        assert "repro/core/a.py::leaf" in reach
        chain = p.shortest_caller_chain(
            "repro/core/a.py::leaf",
            lambda q: q.endswith("::root"),
        )
        assert chain is not None
        assert chain[0].endswith("::root") and chain[-1].endswith("::leaf")

    def test_exception_ancestors_walk_project_classes(self, tmp_path):
        p = self._project(tmp_path, {
            "repro/core/a.py": """\
                class Base(RuntimeError):
                    pass

                class Leaf(Base):
                    pass
                """,
        })
        assert "Base" in p.exception_ancestors("Leaf")
        assert "RuntimeError" in p.exception_ancestors("Leaf")

    def test_graph_export_schema(self, tmp_path):
        p = self._project(tmp_path, {
            "repro/core/a.py": "def helper():\n    return 1\n",
            "repro/core/b.py": (
                "from repro.core.a import helper\n"
                "def use():\n    return helper()\n"
            ),
        })
        out = tmp_path / "graph.json"
        p.write_graph(str(out))
        data = json.loads(out.read_text())
        assert data["schema"] == 1
        by_q = {f["qname"]: f for f in data["functions"]}
        assert by_q["repro/core/b.py::use"]["calls"] == [
            "repro/core/a.py::helper"
        ]
        assert data["modules"]["repro/core/b.py"] == ["repro/core/a.py"]

    def test_syntax_error_surfaces_as_e0(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/core/bad.py": "def broken(:\n",
        })
        project = Project.build([root])
        assert [e.rule for e in project.errors] == ["E0"]
        assert project.functions == {}


# ---------------------------------------------------------------------------
# engine plumbing


class TestInterproceduralRules:
    def test_rule_list_has_all_four_flow_rules(self):
        flow = {r.id for r in RULES if r.id.startswith("F")}
        assert flow == {"F1", "F2", "F3", "F4"}

    def test_noqa_suppresses_flow_finding(self, tmp_path):
        src = (tree("f1_pos") + "/repro/service/driver.py")
        hazard = open(src).read().replace(
            "self._task = None  # F1",
            "self._task = None  # noqa: F1 -- F1",
        )
        root = write_tree(tmp_path, {"repro/service/driver.py": hazard})
        assert LintEngine(LintConfig()).run([root]) == []

    def test_select_and_ignore_scope_the_run(self):
        assert run_flow("f1_pos", select=frozenset({"F2"})) == []
        assert run_flow("f1_pos", ignore=frozenset({"F1"})) == []
        eng = LintEngine(LintConfig(select=frozenset({"F2"})))
        assert [r.id for r in eng.active_rules()] == ["F2"]

    def test_parity_roots_are_configurable(self, tmp_path):
        root = write_tree(tmp_path, {
            "repro/core/x.py": """\
                from repro.core.y import shared

                def alpha():
                    return shared()

                def beta():
                    return shared()
                """,
            "repro/core/y.py": (
                "def shared():\n    return 1 / 3\n"
            ),
        })
        # default roots absent in this tree: F4 has no surface
        assert LintEngine(LintConfig()).run([root]) == []
        cfg = LintConfig(parity_roots=(
            "repro/core/x.py::alpha", "repro/core/x.py::beta",
        ))
        found = LintEngine(cfg).run([root])
        assert [f.rule for f in found] == ["F4"]
        assert found[0].path == "repro/core/y.py"


# ---------------------------------------------------------------------------
# CLI integration


class TestFlowCLI:
    """The test names predate ``--select``: "tier flow" is the F rules,
    "tier file" the D rules, "tier all" the default run."""

    def test_tier_flow_fails_on_seeded_tree(self, capsys):
        assert main(["--no-baseline", "--select", F_RULES, tree("f1_pos")]) == 1
        assert "F1" in capsys.readouterr().out

    def test_tier_file_ignores_flow_violation(self, capsys):
        assert main(["--no-baseline", "--select", D_RULES, tree("f1_pos")]) == 0

    def test_tier_all_reports_both_tiers(self, tmp_path, capsys):
        root = write_tree(tmp_path, {
            # a D1 violation and the F1 fixture in one tree
            "repro/service/d.py": open(
                tree("f1_pos") + "/repro/service/driver.py"
            ).read(),
            "repro/core/s.py": "for x in {1, 2}:\n    print(x)\n",
        })
        assert main(["--no-baseline", "--format", "json", root]) == 1
        data = json.loads(capsys.readouterr().out)
        assert set(data["counts"]) == {"D1", "F1"}
        fams = data["families"]
        assert fams["D"]["new"] == 1 and fams["F"]["new"] == 1

    def test_parse_error_not_duplicated_across_tiers(self, tmp_path, capsys):
        root = write_tree(tmp_path, {"repro/core/bad.py": "def broken(:\n"})
        assert main(["--no-baseline", "--format", "json", root]) == 1
        data = json.loads(capsys.readouterr().out)
        assert [f["rule"] for f in data["new"]] == ["E0"]

    def test_one_parse_per_file(self, tmp_path, monkeypatch, capsys):
        root = write_tree(tmp_path, {
            "repro/core/a.py": "def helper():\n    return 1\n",
            "repro/core/b.py": (
                "from repro.core.a import helper\n"
                "def use():\n    return helper()\n"
            ),
            "repro/service/c.py": "async def run():\n    return 1\n",
        })
        calls = []
        real_parse = ast.parse

        def counting_parse(*args, **kwargs):
            calls.append(kwargs.get("filename"))
            return real_parse(*args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        assert main(["--no-baseline", root]) == 0
        assert len(calls) == 3, calls

    def test_graph_out_writes_call_graph(self, tmp_path, capsys):
        out = tmp_path / "graph.json"
        code = main([
            "--no-baseline", "--select", F_RULES,
            "--graph-out", str(out), tree("f3_neg"),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["schema"] == 1
        assert any(
            f["qname"].endswith("::serve_get") for f in data["functions"]
        )

    def test_flow_rule_ids_known_to_select(self, capsys):
        code = main([
            "--no-baseline", "--select", "F3", tree("f3_pos"),
        ])
        assert code == 1
        assert "F3" in capsys.readouterr().out

    def test_list_rules_spans_both_tiers(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "F1" in out and "D1" in out

    def test_partial_tier_leaves_other_tiers_baseline_alone(
        self, tmp_path, capsys
    ):
        """A D-rules-only run must not report F-rule entries stale."""
        baseline = tmp_path / "b.json"
        (f,) = run_flow("f1_pos")
        baseline.write_text(json.dumps({
            "version": 1,
            "entries": [{
                "rule": "F1", "path": f.path, "snippet": f.snippet,
                "reason": "seeded fixture, grandfathered for this test",
            }],
        }))
        # D rules only: F1 never ran; the entry must not go stale
        code = main([
            "--select", D_RULES, "--baseline", str(baseline), tree("f1_pos"),
        ])
        assert code == 0, capsys.readouterr().out
        # F rules: the entry matches and grandfather applies
        code = main([
            "--select", F_RULES, "--baseline", str(baseline), tree("f1_pos"),
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "1 baselined" in out
