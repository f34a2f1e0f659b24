"""Tests for the memory graph G(V, U; E): Fact 1, Lemmas 1-3,
Theorems 2-3, against exhaustive ground truth at (2,3) and sampled at
larger parameters."""

from collections import Counter

import numpy as np
import pytest

from repro.core.bounds import fact1_counts
from repro.core.graph import MemoryGraph


class TestConstruction:
    def test_rejects_odd_q(self):
        with pytest.raises(ValueError):
            MemoryGraph(3, 3)
        with pytest.raises(ValueError):
            MemoryGraph(6, 3)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            MemoryGraph(2, 2)

    def test_fact1_q2_n3(self, graph_2_3):
        c = fact1_counts(2, 3)
        assert graph_2_3.M == c["V"] == 84
        assert graph_2_3.N == c["U"] == 63
        assert graph_2_3.copies_per_variable == c["deg_V"] == 3
        assert graph_2_3.module_degree == c["deg_U"] == 4

    def test_fact1_q4_n3(self, graph_4_3):
        c = fact1_counts(4, 3)
        assert graph_4_3.M == c["V"] == 4368
        assert graph_4_3.N == c["U"] == 1365
        assert graph_4_3.copies_per_variable == 5
        assert graph_4_3.majority == 3

    @pytest.mark.parametrize("q,n", [(2, 5), (2, 7), (2, 9), (4, 3)])
    def test_fact1_formula_consistency(self, q, n):
        g = MemoryGraph(q, n)
        c = fact1_counts(q, n)
        assert g.M == c["V"] and g.N == c["U"]

    def test_describe_exponent(self, graph_2_5):
        d = graph_2_5.describe()
        # M = Theta(N^{3/2 - 3/(4n-2)}): measured exponent near prediction
        assert abs(d["M_exponent_vs_N"] - d["predicted_exponent"]) < 0.15


class TestPGamma:
    def test_size(self, graph_2_3):
        assert graph_2_3.p_gamma.shape[0] == 4  # q^{n-1}

    def test_distinct_and_inverse(self, graph_2_5):
        g = graph_2_5
        assert np.unique(g.p_gamma).size == g.p_gamma.size
        for k, p in enumerate(g.p_gamma):
            for c in g._fq_embedded:  # every element of p_k + F_q
                assert g.slot_table[int(p) ^ int(c)] == k

    def test_zero_constant_term_q2(self, graph_2_3):
        # for q=2 the basis (1, gamma, ...) is the bit basis: low bit 0
        assert all(int(p) % 2 == 0 for p in graph_2_3.p_gamma)

    def test_closed_under_addition(self, graph_2_5):
        # P_gamma is an F_q-subspace
        g = graph_2_5
        P = set(int(p) for p in g.p_gamma)
        some = sorted(P)[:8]
        for a in some:
            for b in some:
                assert (a ^ b) in P


class TestLemma1:
    def test_against_explicit_edges(self, graph_2_3):
        g = graph_2_3
        edges = g.explicit_edges()
        for A in g.all_variable_matrices():
            key = g.variables.key(A)
            mods = g.gamma_variable(A)
            assert len(set(mods)) == g.q + 1
            assert {(key, u) for u in mods} <= edges

    def test_copy_zero_is_A_itself(self, graph_2_3):
        g = graph_2_3
        A = g.all_variable_matrices()[10]
        assert g.gamma_variable(A)[0] == g.modules.index_of(A)

    def test_vectorized_agrees(self, graph_2_5, rng):
        g = graph_2_5
        mats = g.random_variable_matrices(200, rng)
        got = g.vgamma_variables(mats)
        for i in range(200):
            A = tuple(int(x[i]) for x in mats)
            assert got[i].tolist() == g.gamma_variable(A)

    def test_q4_five_distinct_copies(self, graph_4_3, rng):
        g = graph_4_3
        mats = g.random_variable_matrices(50, rng)
        got = g.vgamma_variables(mats)
        for row in got:
            assert len(set(row.tolist())) == 5


class TestLemma2:
    def test_against_explicit_edges(self, graph_2_3):
        g = graph_2_3
        edges = g.explicit_edges()
        for u in range(g.N):
            keys = g.gamma_module_keys(u)
            assert len(set(keys)) == g.module_degree
            assert {(v, u) for v in keys} <= edges

    def test_duality(self, graph_2_3):
        # v in Gamma(u) <=> u in Gamma(v)
        g = graph_2_3
        for u in range(0, g.N, 9):
            for mat in g.gamma_module(u):
                assert u in g.gamma_variable(g.variables.canon(mat))


class TestLemma3:
    def test_gamma2_size(self, graph_2_3):
        g = graph_2_3
        for u in range(0, g.N, 5):
            g2 = g.gamma2_module(u)
            # q^n cosets, one of which is u itself (delta making it wrap)
            assert len(g2) == g.F.order

    def test_gamma2_is_two_step_neighborhood(self, graph_2_3):
        g = graph_2_3
        for u in range(0, g.N, 13):
            two_step = set()
            for mat in g.gamma_module(u):
                two_step.update(g.gamma_variable(g.variables.canon(mat)))
            assert set(g.gamma2_module(u)) | {u} == two_step | {u}


class TestTheorem2:
    def test_pairwise_intersection_at_most_1_exhaustive(self, graph_2_3):
        g = graph_2_3
        gams = [set(g.gamma_variable(A)) for A in g.all_variable_matrices()]
        for i in range(len(gams)):
            for j in range(i):
                assert len(gams[i] & gams[j]) <= 1

    def test_sampled_n5(self, graph_2_5, rng):
        g = graph_2_5
        mats = g.random_variable_matrices(120, rng)
        rows = g.vgamma_variables(mats)
        for i in range(120):
            for j in range(i):
                inter = set(rows[i].tolist()) & set(rows[j].tolist())
                assert len(inter) <= 1

    def test_sampled_q4(self, graph_4_3, rng):
        g = graph_4_3
        mats = g.random_variable_matrices(60, rng)
        rows = g.vgamma_variables(mats)
        for i in range(60):
            for j in range(i):
                assert len(set(rows[i].tolist()) & set(rows[j].tolist())) <= 1


class TestTheorem3:
    def test_exhaustive_n3(self, graph_2_3):
        g = graph_2_3
        g2 = [set(g.gamma2_module(u)) - {u} for u in range(g.N)]
        worst = 0
        for i in range(g.N):
            for j in range(i):
                worst = max(worst, len(g2[i] & g2[j]))
        assert worst <= g.q - 1

    def test_case2_tightness_exists_q4(self, graph_4_3):
        # Theorem 3 CASE 2 achieves exactly q-1 for some module pairs.
        g = graph_4_3
        base = set(g.gamma2_module(0)) - {0}
        found = 0
        for u in range(1, 60):
            other = set(g.gamma2_module(u)) - {u}
            found = max(found, len(base & other))
        assert found == g.q - 1


class TestSamplingAndKeys:
    def test_random_distinct(self, graph_2_5, rng):
        g = graph_2_5
        mats = g.random_variable_matrices(500, rng)
        keys = g.vkeys(mats)
        assert np.unique(keys).size == 500

    def test_too_many_raises(self, graph_2_3, rng):
        with pytest.raises(ValueError):
            graph_2_3.random_variable_matrices(85, rng)

    def test_vkeys_matches_scalar(self, graph_2_3):
        g = graph_2_3
        mats = g.all_variable_matrices()
        arr = np.array(mats, dtype=np.int64)
        keys = g.vkeys((arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]))
        assert keys.tolist() == [g.variables.key(m) for m in mats]

    def test_explicit_edge_degrees(self, graph_2_3):
        g = graph_2_3
        edges = g.explicit_edges()
        vdeg = Counter(v for v, _ in edges)
        udeg = Counter(u for _, u in edges)
        assert set(vdeg.values()) == {g.q + 1}
        assert set(udeg.values()) == {g.module_degree}
