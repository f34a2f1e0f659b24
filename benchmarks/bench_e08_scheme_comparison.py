"""E8 -- the introduction's positioning: PP vs [MV84] vs [UW87] vs hashing.

Paper claims (Section 1): single-copy organizations have Theta(N)
worst cases; [MV84] reads cost O(c N^{1-1/c}) but writes cost O(cN);
[UW87] fixes the asymmetry via majorities on a random graph; this paper
achieves the same balanced worst case constructively.

Regenerated here: all four schemes under identical traffic on the same
MPC -- request-size sweeps of uniform/strided/hotspot workloads plus
each scheme's own adversary, reads and writes separately.
"""

import numpy as np

from _util import once, recorder, save_tables, scalar, timed
from repro.analysis.report import Table
from repro.schemes import (
    MehlhornVishkinScheme,
    PPAdapter,
    SingleCopyScheme,
    UpfalWigdersonScheme,
)
from repro.workloads.generators import hotspot_blocks, random_distinct, strided


def run_experiment():
    N, M = 1023, 5456
    schemes = [
        SingleCopyScheme(N, M, hashed=True, seed=5),
        MehlhornVishkinScheme(N, M, c=3),
        UpfalWigdersonScheme(N, M, c=2, seed=5),
        PPAdapter(q=2, n=5),
    ]
    t = Table(
        ["scheme", "workload", "N'", "read iters", "write iters"],
        title="E8 / scheme comparison -- identical traffic, identical MPC (N=1023)",
    )
    rows = {}
    for sch in schemes:
        for n_prime in (128, 512, 2048):
            if n_prime > M:
                continue
            idx = random_distinct(M, n_prime, seed=n_prime)
            rr = sch.access(idx, op="count", count_as="read").total_iterations
            ww = sch.access(idx, op="count", count_as="write").total_iterations
            t.add_row([sch.name, "uniform", n_prime, rr, ww])
            rows[(sch.name, "uniform", n_prime)] = (rr, ww)
        for name, idx in (
            ("strided(29)", strided(M, 512, stride=29)),
            ("hotspot", hotspot_blocks(M, 512, block=256, n_blocks=3, seed=2)),
        ):
            rr = sch.access(idx, op="count", count_as="read").total_iterations
            ww = sch.access(idx, op="count", count_as="write").total_iterations
            t.add_row([sch.name, name, 512, rr, ww])
        rows[sch.name] = True

    # targeted worst cases, the qualitative ordering the paper describes
    t2 = Table(
        ["scheme", "adversarial workload", "op", "iterations", "verdict"],
        title="E8b -- each scheme against its worst case (who wins and why)",
    )
    sc = schemes[0]
    adv = sc.adversarial_request_set(sc.max_module_load())
    it_sc = sc.access(adv, op="count").total_iterations
    t2.add_row(["single-copy", f"{len(adv)} same-module vars", "read", it_sc,
                "collapses: Theta(N') serialization"])
    mv = schemes[1]
    advw = mv.adversarial_write_set(16)
    it_mv_w = mv.access(advw, op="count", count_as="write").total_iterations
    it_mv_r = mv.access(advw, op="count", count_as="read").total_iterations
    t2.add_row(["mehlhorn-vishkin", "copy-0 collision burst", "write", it_mv_w,
                "collapses: all-copies rule"])
    t2.add_row(["mehlhorn-vishkin", "copy-0 collision burst", "read", it_mv_r,
                "fine: any-one-copy rule"])
    pp = schemes[3]
    same = advw[advw < pp.M]
    it_pp_w = pp.access(same, op="count", count_as="write").total_iterations
    t2.add_row(["pietracaprina-preparata", "same variables", "write", it_pp_w,
                "fine: majority disperses"])
    verdict = it_sc >= len(adv) and it_mv_w >= 16 and it_pp_w < it_mv_w

    save_tables(
        "e08_scheme_comparison",
        [t, t2],
        notes="The qualitative shape of the paper's Section 1 holds: the "
        "constant-redundancy majority schemes (UW, PP) are the only ones "
        "without a collapsing corner; PP gets there with an explicit "
        "construction.",
    )
    return verdict


def test_e08_comparison(benchmark):
    verdict = once(benchmark, run_experiment, name="e08.experiment")
    scalar("e08.ordering_holds", verdict)
    assert verdict


def test_e08_pp_access_speed(benchmark, scheme_2_5):
    idx = scheme_2_5.random_request_set(1024, seed=0)
    timed(benchmark, "kernels.pp_access_1024_n5",
          lambda: scheme_2_5.access(idx, op="count"))


def test_e08_engine_speedup(benchmark):
    """Vector vs scalar engine under E8-style traffic at scale: all
    four schemes on one N=16383 machine, one congested 65536-request
    batch each, protocol phase only (placement is precomputed -- the
    addressing cost is engine-independent and would dilute the ratio).
    Metrics collection is paused around the measurement; obs emission
    is engine-independent and budgeted by its own test.
    """
    from repro import obs
    from repro.core.engine import use
    from repro.core.protocol import run_access_protocol

    N, M = 16383, 87381
    schemes = [
        SingleCopyScheme(N, M, hashed=True, seed=5),
        MehlhornVishkinScheme(N, M, c=3),
        UpfalWigdersonScheme(N, M, c=2, seed=5),
        PPAdapter(q=2, n=7),
    ]
    idx = random_distinct(M, 65536, seed=7)
    jobs = []
    for sch in schemes:
        i = idx[idx < sch.M]
        jobs.append((sch.placement(i), sch.N, sch.quorum_for("read")))

    def sweep(engine):
        with use(engine):
            for mods, n_mod, quorum in jobs:
                run_access_protocol(mods, n_mod, quorum)

    obs.disable_metrics()
    try:
        vec = timed(
            benchmark, "e08.four_schemes_65536_vector",
            lambda: sweep("vector"),
        )
        # single-use benchmark fixture: scalar leg via the recorder
        sca = recorder().measure(
            "e08.four_schemes_65536_scalar",
            lambda: sweep("scalar"),
            repeats=3,
        )
    finally:
        obs.enable_metrics()
    speedup = sca["median"] / vec["median"]
    scalar("e08.engine_speedup", speedup)
    assert speedup >= 5.0
