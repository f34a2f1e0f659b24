"""Conformance and watchdog parity on the scalar engine.

The fuzz/canary machinery is engine-agnostic: the same seeded workload
must conform on both protocol engines, the q/2+1 stale-majority attack
must be pinned to the exact same (proc, round, var) set, and the
streaming watchdog must stay green.  This is what lets the scalar
oracle certify the vectorized production path end to end.
"""

import pytest

from repro.conformance.differential import (
    FuzzResult,
    run_fuzz,
    stale_majority_canary,
)
from repro.conformance.streaming import run_watchdog_canary, stream_fuzz
from repro.core.engine import ENGINES, use


def _on(engine, call, **kw):
    """``call(**kw)`` under protocol executor ``engine``."""
    with use(engine):
        return call(**kw)


class TestFuzzParity:
    def test_scalar_engine_conforms(self):
        result = _on("scalar", run_fuzz, seed=0, total_ops=250)
        assert result.ok
        assert result.engine == "scalar"
        assert len(result.rows) == 6
        for row in result.rows:
            assert row.ok and row.oracle_mismatches == 0

    def test_engines_agree_row_for_row(self):
        vec, sca = (
            _on(e, run_fuzz, seed=4, total_ops=200) for e in ENGINES
        )
        assert vec.engine == "vector" and sca.engine == "scalar"
        for rv, rs in zip(vec.rows, sca.rows):
            assert rv.scheme == rs.scheme
            assert rv.ops == rs.ops
            assert rv.ok == rs.ok
            assert rv.report.reads_checked == rs.report.reads_checked
            assert rv.report.writes_seen == rs.report.writes_seen

    def test_engine_round_trips_through_report(self):
        result = _on("scalar", run_fuzz, seed=1, total_ops=80)
        back = FuzzResult.from_dict(result.to_dict())
        assert back.engine == "scalar"
        # legacy records (no engine key) default to the vector engine
        d = result.to_dict()
        del d["engine"]
        assert FuzzResult.from_dict(d).engine == "vector"


class TestAttackParity:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_stale_majority_pinned_exactly(self, engine):
        canary = _on(engine, stale_majority_canary, seed=0)
        assert canary.silent_wrong_reads > 0
        assert canary.detected
        flagged = {
            (v.proc, v.round, int(v.var))
            for v in canary.report.violations
        }
        assert set(canary.expected) <= flagged

    def test_attack_identity_matches_across_engines(self):
        vec, sca = (
            _on(e, stale_majority_canary, seed=2) for e in ENGINES
        )
        assert vec.expected == sca.expected
        assert vec.silent_wrong_reads == sca.silent_wrong_reads
        flags = [
            {(v.proc, v.round, int(v.var)) for v in c.report.violations}
            for c in (vec, sca)
        ]
        assert flags[0] == flags[1]


class TestWatchdogParity:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_online_canary_green(self, engine):
        result = _on(engine, run_watchdog_canary, seed=0)
        assert result.detected_online
        assert result.control_clean
        assert result.ok

    def test_stream_fuzz_scalar_engine(self):
        result = _on(
            "scalar", stream_fuzz, scheme="pp2", total_ops=300, seed=0,
            window=8,
        )
        assert result.report.ok
        assert result.events > 0 and result.rounds > 0
