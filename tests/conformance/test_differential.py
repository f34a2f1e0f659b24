"""Differential fuzzing harness: six schemes vs the serial dict oracle,
sensitivity to planted bugs, the stale-majority canary, and a Hypothesis
stateful machine driving scheme + recorder + checker together."""

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro import obs
from repro.conformance.checker import ConsistencyChecker
from repro.conformance.differential import (
    FuzzResult,
    conformance_schemes,
    fuzz_scheme,
    render_markdown,
    run_fuzz,
    stale_majority_canary,
    write_report,
)
from repro.conformance.recorder import TraceRecorder
from repro.schemes.pp_adapter import PPAdapter
from repro.schemes.single_copy import SingleCopyScheme
from repro.workloads.generators import op_batches


class TestSchemeSet:
    def test_six_implementations(self):
        schemes = conformance_schemes()
        assert len(schemes) == 6
        assert len({(s.name, s.N, s.M) for s in schemes}) == 6

    def test_covers_both_pp_instances(self):
        qs = {s.scheme.q for s in conformance_schemes()
              if isinstance(s, PPAdapter)}
        assert qs == {2, 4}


class TestRunFuzz:
    def test_all_schemes_conform(self):
        result = run_fuzz(seed=0, total_ops=250)
        assert result.ok
        assert len(result.rows) == 6
        for row in result.rows:
            assert row.ok
            assert row.ops >= 250
            assert row.report.reads_checked > 0
            assert row.report.writes_seen > 0

    def test_workload_uses_common_domain(self):
        result = run_fuzz(seed=0, total_ops=100)
        assert result.M == min(s.M for s in conformance_schemes())

    def test_traces_written(self, tmp_path):
        run_fuzz(
            seed=1, total_ops=60,
            schemes=[SingleCopyScheme(16, 64)],
            trace_dir=str(tmp_path),
        )
        files = list(tmp_path.glob("trace_*.jsonl"))
        assert len(files) == 1 and files[0].stat().st_size > 0

    def test_dict_round_trip(self, tmp_path):
        result = run_fuzz(seed=2, total_ops=80,
                          schemes=[SingleCopyScheme(16, 64)])
        back = FuzzResult.from_dict(result.to_dict())
        assert back.ok == result.ok
        assert [r.scheme for r in back.rows] == [r.scheme for r in result.rows]
        md_path, json_path = write_report(result, str(tmp_path))
        assert "PASS" in open(md_path).read()
        assert json_path.endswith(".json")

    def test_render_lists_every_scheme(self):
        result = run_fuzz(seed=0, total_ops=60)
        text = render_markdown(result)
        for row in result.rows:
            assert row.scheme in text
        assert "**Overall: PASS**" in text


class _AliasingScheme(SingleCopyScheme):
    """Planted bug: variables 2k and 2k+1 share one physical cell, so
    writes to one silently clobber the other."""

    name = "aliasing-bug"

    def placement(self, indices):
        return super().placement(np.asarray(indices, dtype=np.int64) // 2 * 2)

    def placement_and_slots(self, indices):
        return super().placement_and_slots(
            np.asarray(indices, dtype=np.int64) // 2 * 2
        )


class TestSensitivity:
    def test_planted_aliasing_bug_caught(self):
        plan = op_batches(64, 300, seed=3)
        row = fuzz_scheme(_AliasingScheme(16, 64), plan)
        assert not row.ok
        assert row.oracle_mismatches > 0
        assert not row.report.ok

    def test_failing_scheme_renders_violations(self):
        result = run_fuzz(seed=3, total_ops=300,
                          schemes=[_AliasingScheme(16, 64)])
        text = render_markdown(result)
        assert "FAIL" in text and "## Violations: aliasing-bug" in text


class TestStaleMajorityCanary:
    def test_checker_catches_silent_majority_corruption(self):
        canary = stale_majority_canary(seed=0)
        assert canary.silent_wrong_reads > 0
        assert canary.detected
        # every silently-wrong read is flagged at its exact identity
        flagged = {(v.proc, v.round, int(v.var))
                   for v in canary.report.violations}
        for where in canary.expected:
            assert where in flagged
        assert all(v.kind == "stale-read" for v in canary.report.violations)

    def test_canary_identifies_round_three_reads(self):
        canary = stale_majority_canary(seed=1)
        assert canary.expected
        assert all(r == 3 for (_, r, _) in canary.expected)


class ConformanceMachine(RuleBasedStateMachine):
    """Random interleaved batches on the q=2 scheme, mirrored in a dict;
    on teardown the recorded trace must satisfy the checker."""

    def __init__(self):
        super().__init__()
        self.sch = PPAdapter(2, 3)
        self.store = self.sch.make_store()
        self.model: dict[int, int] = {}
        self.t = 0
        self.rec = TraceRecorder()
        self.prev = obs.set_tracer(self.rec)

    @rule(seed=st.integers(0, 2**16), size=st.integers(1, 12),
          salt=st.integers(0, 2**16))
    def write_batch(self, seed, size, salt):
        self.t += 1
        idx = self.sch.random_request_set(size, seed=seed)
        vals = (idx * 31 + salt) % (1 << 20)
        self.sch.write(idx, values=vals, store=self.store, time=self.t)
        for v, x in zip(idx, vals):
            self.model[int(v)] = int(x)

    @rule(seed=st.integers(0, 2**16), size=st.integers(1, 12))
    def read_batch(self, seed, size):
        self.t += 1
        idx = self.sch.random_request_set(size, seed=seed)
        res = self.sch.read(idx, store=self.store, time=self.t)
        want = [self.model.get(int(v), -1) for v in idx]
        assert list(res.values) == want

    def teardown(self):
        obs.set_tracer(self.prev if self.prev.enabled else None)
        report = ConsistencyChecker().check_mem_ops(self.rec.mem_ops())
        assert report.ok, report.render()


ConformanceMachine.TestCase.settings = settings(
    max_examples=10, stateful_step_count=20
)

TestConformanceStateful = ConformanceMachine.TestCase
