"""Tests for the Section-4 addressing layer (Theorem 8 realization)."""

import numpy as np
import pytest

from repro.core.addressing import AddressLayer, OpCounter
from repro.core.graph import MemoryGraph
from repro.pgl.matrix import pgl2_mul


@pytest.fixture(scope="module")
def addr3():
    return AddressLayer(MemoryGraph(2, 3))


@pytest.fixture(scope="module")
def addr5():
    return AddressLayer(MemoryGraph(2, 5))


class TestConstruction:
    def test_rejects_q4(self):
        with pytest.raises(ValueError):
            AddressLayer(MemoryGraph(4, 3))

    def test_rejects_even_n(self):
        with pytest.raises(ValueError):
            AddressLayer(MemoryGraph(2, 6))

    def test_block_sizes_n3(self, addr3):
        assert (addr3.c1, addr3.c2, addr3.c3, addr3.c4) == (7, 21, 21, 35)
        assert addr3.M == 84

    def test_block_sizes_n5(self, addr5):
        assert addr5.c1 == 31
        assert addr5.c2 == addr5.c3 == 31 * 15
        assert addr5.c4 == 5 * 31 * 29
        assert addr5.M == 5456

    def test_constants(self, addr5):
        # sigma = 3 tau; rho = tau (2^n - 1); G = 3 rho
        assert addr5.sigma == 3 * addr5.tau
        assert addr5.rho == addr5.tau * (2**5 - 1)
        assert addr5.G == 3 * addr5.rho

    def test_w_generates_f4(self, addr5):
        L = addr5.L
        assert addr5.w != 1
        assert L.pow(addr5.w, 3) == 1


class TestTheorem8Completeness:
    """The S-sets form a complete, distinct system of coset reps."""

    @pytest.mark.parametrize("fixture", ["addr3", "addr5"])
    def test_all_distinct_cosets(self, fixture, request):
        addr = request.getfixturevalue(fixture)
        g = addr.graph
        keys = {g.variables.key(addr.unrank(i)) for i in range(addr.M)}
        assert len(keys) == g.M

    def test_unrank_out_of_range(self, addr3):
        with pytest.raises(ValueError):
            addr3.unrank(-1)
        with pytest.raises(ValueError):
            addr3.unrank(84)


class TestRankUnrank:
    def test_rank_inverts_unrank_exhaustive_n3(self, addr3):
        for i in range(addr3.M):
            assert addr3.rank(addr3.unrank(i)) == i

    def test_rank_inverts_unrank_sampled_n5(self, addr5):
        for i in range(0, addr5.M, 13):
            assert addr5.rank(addr5.unrank(i)) == i

    def test_rank_constant_on_cosets(self, addr3):
        g = addr3.graph
        rng = np.random.default_rng(5)
        for _ in range(60):
            i = int(rng.integers(0, addr3.M))
            A = addr3.unrank(i)
            h = g.H0.elements()[int(rng.integers(0, 6))]
            assert addr3.rank(pgl2_mul(g.F, A, h)) == i

    def test_rank_invariant_under_scalar(self, addr5):
        # rank must not depend on which projective representative is fed
        g = addr5.graph
        A = addr5.unrank(1234)
        assert addr5.rank(A) == 1234


class TestVectorizedUnrank:
    def test_matches_scalar_exhaustive_n3(self, addr3):
        idx = np.arange(addr3.M, dtype=np.int64)
        va, vb, vc, vd = addr3.vunrank(idx)
        for i in range(addr3.M):
            assert (int(va[i]), int(vb[i]), int(vc[i]), int(vd[i])) == addr3.unrank(i)

    def test_matches_scalar_sampled_n5(self, addr5):
        rng = np.random.default_rng(7)
        idx = rng.choice(addr5.M, 400, replace=False).astype(np.int64)
        mats = addr5.vunrank(idx)
        for k in range(400):
            assert tuple(int(x[k]) for x in mats) == addr5.unrank(int(idx[k]))

    def test_out_of_range_raises(self, addr3):
        with pytest.raises(ValueError):
            addr3.vunrank(np.array([0, 84]))

    def test_scale_n9(self):
        addr = AddressLayer(MemoryGraph(2, 9))
        rng = np.random.default_rng(0)
        idx = rng.choice(addr.M, 5000, replace=False).astype(np.int64)
        mats = addr.vunrank(idx)
        for k in range(0, 5000, 487):
            assert tuple(int(x[k]) for x in mats) == addr.unrank(int(idx[k]))


class TestVectorizedRank:
    def test_inverts_vunrank_exhaustive_n3(self, addr3):
        idx = np.arange(addr3.M, dtype=np.int64)
        assert np.array_equal(addr3.vrank(addr3.vunrank(idx)), idx)

    def test_inverts_vunrank_exhaustive_n5(self, addr5):
        idx = np.arange(addr5.M, dtype=np.int64)
        assert np.array_equal(addr5.vrank(addr5.vunrank(idx)), idx)

    def test_non_canonical_representatives(self, addr5):
        g = addr5.graph
        rng = np.random.default_rng(3)
        sub = rng.choice(addr5.M, 300, replace=False)
        reps = []
        for i in sub:
            h = g.H0.elements()[int(rng.integers(0, 6))]
            reps.append(pgl2_mul(g.F, addr5.unrank(int(i)), h))
        arr = np.array(reps, dtype=np.int64)
        got = addr5.vrank((arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]))
        assert np.array_equal(got, sub)

    def test_matches_scalar_rank(self, addr3):
        idx = np.arange(addr3.M, dtype=np.int64)
        mats = addr3.vunrank(idx)
        scalar = [addr3.rank(tuple(int(x[i]) for x in mats)) for i in range(addr3.M)]
        assert addr3.vrank(mats).tolist() == scalar


class TestS4Combinatorics:
    def test_residues_structure(self, addr5):
        # {s, s+tau, s+2tau} with exactly one below tau
        for s in range(1, addr5.smax + 1):
            res = addr5._s4_residues(s)
            assert sorted(res) == sorted([s, s + addr5.tau, s + 2 * addr5.tau])
            assert sum(1 for r in res if r < addr5.tau) == 1

    def test_count_matches_bruteforce(self, addr3):
        a = addr3
        L, G = a.L, a.G
        for s in range(1, a.smax + 1):
            brute = []
            for i in range(1, a.rho):
                if i % a.tau == 0:
                    continue
                for j in range(3):
                    # condition: lambda^s * (w^j lambda^i)^{-1} in K^*
                    val = L.exp((s - j * a.rho - i) % G)
                    excluded = a.embedding.contains(val) and val != 0
                    if not excluded:
                        brute.append((i, j))
            assert len(brute) == a.c4_per_s
            # unrank agreement
            for r, (i, j) in enumerate(brute):
                assert a._s4_unrank(s, r) == (i, j)
                assert a._s4_rank(s, i, j) == r

    def test_paper_exclusion_count(self, addr5):
        # "for each s there are exactly 2^n - 1 excluded pairs"
        a = addr5
        qn = 1 << a.n
        for s in range(1, a.smax + 1):
            total_tau_ok = 3 * ((a.rho - 1) - (a.rho // a.tau - 1))
            assert total_tau_ok - a.c4_per_s == qn - 1

    def test_unrank_out_of_range(self, addr3):
        with pytest.raises(ValueError):
            addr3._s4_unrank(1, addr3.c4_per_s)

    def test_every_rank_in_its_bracket_n5(self, addr5):
        # count(i - 1) <= r < count(i), and the pair order is the
        # brute-force (i, j) enumeration, for every (s, r)
        a = addr5
        r = np.arange(a.c4_per_s, dtype=np.int64)
        for s in range(1, a.smax + 1):
            brute = [
                (i, j) for i in range(1, a.rho) for j in range(3)
                if a._s4_pair_valid(s, i, j)
            ]
            i, j = a._s4_invert(np.full_like(r, s), r)
            assert list(zip(i.tolist(), j.tolist())) == brute
            assert np.all(a._s4_count(s, i - 1) <= r)
            assert np.all(r < a._s4_count(s, i))
            assert [a._s4_unrank(s, int(x)) for x in r[::37]] == brute[::37]

    @pytest.mark.parametrize("n", [7, 9])
    def test_sampled_ranks_in_their_bracket(self, n):
        a = AddressLayer(MemoryGraph(2, n))
        rng = np.random.default_rng(n)
        x = np.arange(a.rho, dtype=np.int64)
        for s in (1, a.smax, int(rng.integers(1, a.smax + 1))):
            r = np.concatenate([
                [0, a.c4_per_s - 1], rng.integers(0, a.c4_per_s, 300)
            ]).astype(np.int64)
            i, j = a._s4_invert(np.full_like(r, s), r)
            # smallest i whose count exceeds r, by exhaustive search
            want_i = np.searchsorted(a._s4_count(s, x), r, side="right")
            np.testing.assert_array_equal(i, want_i)
            assert np.all(a._s4_count(s, i - 1) <= r)
            for ii, jj, rr in zip(i.tolist(), j.tolist(), r.tolist()):
                assert a._s4_pair_valid(s, ii, jj)
                assert a._s4_rank(s, ii, jj) == rr


def _lemma2_slots(graph):
    """Brute force: ``(variable key, module) -> k`` for every slot ``k``
    of every module, enumerated as ``B_u (1, p_k; 0, 1)`` (Lemma 2)."""
    return {
        (graph.variables.key(mat), u): k
        for u in range(graph.N)
        for k, mat in enumerate(graph.gamma_module(u))
    }


@pytest.mark.parametrize("q, n", [(2, 3), (2, 5), (4, 3)])
def test_every_copy_slot_matches_lemma2_enumeration(q, n):
    # each copy's slot k satisfies B_u (1, p_k; 0, 1) H0 == A H0, for
    # every variable, against an enumeration that shares no code with
    # the closed form
    from repro.core.scheme import PPScheme

    scheme = PPScheme(q, n)
    g = scheme.graph
    want = _lemma2_slots(g)
    idx = np.arange(g.M, dtype=np.int64)
    modules, slots = scheme.addressing.vlocate(idx)
    keys = g.vkeys(scheme.addressing.vunrank(idx))
    got = {
        (int(key), int(u)): int(k)
        for key, row_u, row_k in zip(keys, modules, slots)
        for u, k in zip(row_u, row_k)
    }
    assert len(got) == g.M * (q + 1)
    assert got == want


class TestSlots:
    def test_locate_consistent_with_lemma2(self, addr3):
        g = addr3.graph
        for i in range(0, addr3.M, 7):
            A = addr3.unrank(i)
            for (u, k) in addr3.locate(i):
                stored = g.gamma_module(u)[k]
                assert g.variables.key(stored) == g.variables.key(A)

    def test_slot_unique_per_module(self, addr3):
        # the M*(q+1) copies occupy distinct (module, slot) cells
        cells = set()
        for i in range(addr3.M):
            for cell in addr3.locate(i):
                cells.add(cell)
        assert len(cells) == addr3.M * 3

    def test_slot_of_non_neighbor_raises(self, addr3):
        g = addr3.graph
        A = addr3.unrank(0)
        mods = set(g.gamma_variable(A))
        non_neighbor = next(u for u in range(g.N) if u not in mods)
        with pytest.raises(ValueError):
            addr3.slot_of(A, non_neighbor)


class TestOpCounter:
    def test_counts_accumulate(self, addr5):
        addr5.ops.reset()
        addr5.unrank(17)
        addr5.unrank(5000)
        assert addr5.ops.calls == 2
        assert addr5.ops.field_ops > 0
        assert addr5.ops.modeled_steps() > 0

    def test_modeled_steps_logarithmic(self):
        # per-call modeled steps grow ~ n, not ~ N
        per_call = {}
        for n in (3, 5, 7, 9):
            addr = AddressLayer(MemoryGraph(2, n))
            addr.ops.reset()
            rng = np.random.default_rng(1)
            k = 200
            for i in rng.integers(0, addr.M, k):
                addr.unrank(int(i))
            per_call[n] = addr.ops.modeled_steps() / k
        # roughly linear in n: ratio between n=9 and n=3 below 9/3 * slack
        assert per_call[9] < per_call[3] * 8
        assert per_call[9] > per_call[3]

    def test_reset(self):
        c = OpCounter(n=5)
        c.field_ops = 10
        c.reset()
        assert c.field_ops == 0 and c.n == 5
