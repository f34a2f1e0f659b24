"""Microbenchmarks of the computational kernels.

Not an experiment -- a performance suite over the hot paths that make
the repo's quarter-million-request simulations feasible: field
arithmetic, the coset-index kernel, unranking, slot computation, and
the protocol's arbitration step.  Every kernel routes through
``_util.timed`` so the session's ``BENCH_*.json`` run record carries a
median/MAD summary per kernel -- the series ``repro perf check`` gates.
"""

import numpy as np

from _util import scalar, timed
from repro.core.graph import MemoryGraph
from repro.core.scheme import PPScheme
from repro.gf.gf2m import GF2m
from repro.mpc.arbitration import LowestIdArbiter


def test_kernel_gf_vmul(benchmark):
    F = GF2m.get(18)
    rng = np.random.default_rng(0)
    a = rng.integers(0, F.order, 1_000_000)
    b = rng.integers(0, F.order, 1_000_000)
    summary = timed(benchmark, "kernels.gf_vmul_1m", lambda: F.vmul(a, b))
    scalar("kernels.gf_vmul_mops", 1.0 / summary["median"])


def test_kernel_gf_vinv(benchmark):
    F = GF2m.get(18)
    rng = np.random.default_rng(1)
    a = rng.integers(1, F.order, 1_000_000)
    timed(benchmark, "kernels.gf_vinv_1m", lambda: F.vinv(a))


def test_kernel_module_vindex(benchmark):
    # 500k seeded random nonsingular canonical matrices (a, b; c, 1);
    # all of PGL2(2^9) would be a 512^3-entry meshgrid per array
    g = MemoryGraph(2, 9)
    F = g.F
    rng = np.random.default_rng(2)
    a, b, c = rng.integers(0, F.order, size=(3, 600_000))
    ok = F.vadd(a, F.vmul(b, c)) != 0  # det of (a, b; c, 1)
    sub = tuple(x[ok][:500_000] for x in (a, b, c, np.ones_like(a)))
    assert sub[0].size == 500_000
    timed(benchmark, "kernels.module_vindex_500k_n9",
          lambda: g.modules.vindex(sub))


def test_kernel_vkeys(benchmark):
    g = MemoryGraph(2, 7)
    mats = g.group_element_arrays()
    sub = tuple(x[:100_000] for x in mats)
    timed(benchmark, "kernels.vkeys_100k_n7", lambda: g.vkeys(sub))


def test_kernel_vgamma(benchmark):
    s = PPScheme(2, 9)
    idx = s.random_request_set(200_000, seed=0)
    mats = s.addressing.vunrank(idx)
    timed(benchmark, "kernels.vgamma_200k_n9",
          lambda: s.graph.vgamma_variables(mats))


def test_kernel_vslots(benchmark):
    s = PPScheme(2, 7)
    idx = s.random_request_set(16_383, seed=1)
    mats = s.addressing.vunrank(idx)
    mods = s.graph.vgamma_variables(mats)
    timed(benchmark, "kernels.vslots_full_n7",
          lambda: s.addressing.vslots(mats, mods))


def test_kernel_arbitration(benchmark):
    rng = np.random.default_rng(2)
    mods = rng.integers(0, 262_143, 500_000)
    arb = LowestIdArbiter()
    timed(benchmark, "kernels.arbitration_500k", lambda: arb(mods))


def test_kernel_vrank(benchmark):
    s = PPScheme(2, 9)
    idx = s.random_request_set(100_000, seed=3)
    mats = s.addressing.vunrank(idx)
    timed(benchmark, "kernels.vrank_100k_n9",
          lambda: s.addressing.vrank(mats))
