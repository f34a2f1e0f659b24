"""Section 4: explicit indexing of variables, modules, and copy slots.

The paper's implementation layer for ``q = 2`` and ``n`` odd.  Each
variable index ``i in [0, M)`` maps to a matrix ``A_i`` (a representative
of a distinct coset of ``PGL2(2^n)/H0``) computable in O(log N) field
operations with O(1) registers, so no processor ever stores a memory map.

Construction recap (all in the quadratic extension L = F_{2^{2n}} with
generator lambda):

* ``rho = (2^{2n} - 1)/3``, ``sigma = 2^n + 1``, ``tau = sigma / 3``
  (integral because n is odd), ``w = lambda^rho`` generates F_4^*;
* a matrix row ``(x, y)`` over ``K = F_{2^n}`` is the element
  ``x*w + y`` of L ((w,1) is a basis since n odd keeps w outside K);
* ``k(s, t) = (s + t*sigma) mod rho``;
* the representative matrices are the four families (paper Section 4)

    S1 = { <1, lambda^(i*sigma) w> },
    S2 = { <1, lambda^k(s,t) w^j> },
    S3 = { <lambda^k(s,t) w^j, 1> },
    S4 = { <lambda^s, lambda^i w^j> : 1 <= i < rho, tau !| i,
           lambda^s (w^j lambda^i)^{-1} not in K^* }.

The S4 side condition simplifies dramatically: K^* consists of the
lambda-powers with exponent divisible by sigma, so the condition excludes
exactly the ``i`` with ``i === s - j*rho (mod sigma)``; since
``rho === tau (mod sigma)``, the three excluded residues are
``{s, s + tau, s + 2*tau}`` -- one per j, each coprime-to-tau because
``1 <= s < tau``.  Counting valid pairs below a threshold is then pure
floor arithmetic, and since every chunk of tau consecutive ``i`` holds
exactly ``3 tau - 4`` valid pairs (one residue excluded per chunk) the
count inverts with a division and one comparison, which yields the
O(log N) unranking the paper's Theorem 8 asserts (its proof was omitted
there "due to space limitations"; the exhaustive tests for n = 3, 5
verify completeness and distinctness of this realization).

The module also provides the physical *slot* of a copy inside its module
(Lemma 4): module ``u`` stores the variables ``B_u (1, p_k; 0, 1) H0``
at slots ``k`` in P_gamma order, and :func:`batched_slots` reads ``k``
off ``B_u^{-1} A g_i`` in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gf.gf2m import GF2m
from repro.gf.subfield import BasisDecomposition, FieldEmbedding
from repro.core.graph import MemoryGraph
from repro.pgl.matrix import Mat, pgl2_canon, pgl2_mul, vcanon, vmul

__all__ = ["OpCounter", "Lemma4Slots", "AddressLayer", "batched_slots"]

#: an int, or an int64 array operated on elementwise
Ints = int | np.ndarray


def batched_slots(
    graph: MemoryGraph,
    mats: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    modules: np.ndarray,
) -> np.ndarray:
    """Closed-form Lemma-4 slots of a batch of variables' copies.

    ``modules`` is the ``(V, q+1)`` copy-order output of
    :meth:`~repro.core.graph.MemoryGraph.vgamma_variables`: column ``i``
    is the module ``u`` of ``A g_i`` with ``g_0 = I`` and
    ``g_{j+1} = (e_j, 1; 1, 0) in H0``.  Hence
    ``P = B_u^{-1} A g_i in H_{n-1}``, i.e. ``P = (a, alpha; 0, 1)`` up
    to a scalar, and ``B_u (1, p; 0, 1) H0 == A H0`` exactly when
    ``(1, p; 0, 1)^{-1} P = (a, alpha - p; 0, 1) in H0``, i.e. when
    ``p in P.b / P.d + F_q``.  ``P_gamma`` is a complement of ``F_q``, so
    that ``p`` is unique and ``graph.slot_table`` reads its slot: one
    matrix product, one division and one lookup per copy.  Raises if
    some ``P`` is not in ``H_{n-1}`` (a module outside the copy column).
    """
    F = graph.F
    s, t = np.divmod(np.asarray(modules, dtype=np.int64), F.order + 1)
    diag = t == 0
    t = np.where(diag, 0, t - 1)
    gs = F.vexp(s)
    Aa, Ab, Ac, Ad = (np.asarray(x, dtype=np.int64)[:, None] for x in mats)
    # B_u = (gs, 0; 0, 1) when diag else (t, gs; 1, 0).  Its projective
    # inverse is the adjugate (d, b; c, a) in characteristic 2, so
    # C = B_u^{-1} A is (Aa, Ab; gs Ac, gs Ad) when diag and
    # (gs Ac, gs Ad; Aa + t Ac, Ab + t Ad) otherwise (t = 0 when diag).
    gAc, gAd = F.vmul(gs, Ac), F.vmul(gs, Ad)
    Ca = np.where(diag, Aa, gAc)
    Cb = np.where(diag, Ab, gAd)
    Cc = np.where(diag, gAc, F.vadd(Aa, F.vmul(t, Ac)))
    Cd = np.where(diag, gAd, F.vadd(Ab, F.vmul(t, Ad)))
    # P = C g_i: column 0 is C; column j+1 is (Ca e_j + Cb, Ca; Cc e_j + Cd, Cc)
    e = graph._fq_embedded[None, :]
    Pb = np.concatenate([Cb[:, :1], Ca[:, 1:]], axis=1)
    Pc = np.concatenate(
        [Cc[:, :1], F.vadd(F.vmul(Cc[:, 1:], e), Cd[:, 1:])], axis=1
    )
    Pd = np.concatenate([Cd[:, :1], Cc[:, 1:]], axis=1)
    if (Pc != 0).any() or (Pd == 0).any():
        raise ValueError(
            "B_u^-1 A g_i is outside H_{n-1}: a module is not the copy "
            "column's Lemma-1 module"
        )
    return graph.slot_table[F.vdiv(Pb, Pd)]


class Lemma4Slots:
    """Physical copy placement (Lemma 4) for any addressing backend.

    Module ``u`` stores the variables ``B_u (1, p_k; 0, 1) H0`` at slots
    ``k`` in P_gamma order; :func:`batched_slots` finds ``k`` in closed
    form.  Subclasses supply ``graph``, ``unrank`` and ``vunrank``.
    """

    graph: MemoryGraph

    def unrank(self, index: int) -> Mat:
        """Canonical matrix of variable ``index`` (backend-specific)."""
        raise NotImplementedError

    def vunrank(
        self, indices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Batched :meth:`unrank` as four entry arrays."""
        raise NotImplementedError

    def vslots(
        self,
        mats: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        modules: np.ndarray,
    ) -> np.ndarray:
        """``(V, q+1)`` slots of canonical variable matrices in their
        copy modules (copy order, as from ``vgamma_variables``)."""
        return batched_slots(self.graph, mats, modules)

    def vlocate(
        self, indices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(modules, slots)``, both ``(V, q+1)``, for a batch of
        variable indices."""
        mats = self.vunrank(indices)
        modules = self.graph.vgamma_variables(mats)
        return modules, self.vslots(mats, modules)

    def _place(self, A: Mat) -> tuple[np.ndarray, np.ndarray]:
        mats = tuple(np.array([x], dtype=np.int64) for x in A)
        modules = self.graph.vgamma_variables(mats)
        return modules[0], self.vslots(mats, modules)[0]

    def locate(self, index: int) -> list[tuple[int, int]]:
        """Physical addresses of all ``q + 1`` copies of variable
        ``index``: a list of ``(module, slot)`` pairs in copy order."""
        modules, slots = self._place(self.unrank(index))
        return list(zip(modules.tolist(), slots.tolist()))

    def slot_of(self, A: Mat, module_index: int) -> int:
        """Slot ``k`` of variable ``A H0``'s copy inside module
        ``module_index``: the unique k with
        ``B_u (1, p_k; 0, 1) H0 == A H0``."""
        modules, slots = self._place(A)
        hit = np.flatnonzero(modules == module_index)
        if hit.size == 0:
            raise ValueError(
                f"variable {A} has no copy in module {module_index}"
            )
        return int(slots[hit[0]])


@dataclass
class OpCounter:
    """Tally of elementary operations spent in address computations.

    The paper counts "arithmetic operations and operations in F_{q^n}".
    Our simulator performs discrete logs by table lookup; in the paper's
    O(1)-register model a dlog over the on-the-fly representation costs
    O(n) = O(log N) elementary steps, so :meth:`modeled_steps` charges
    each dlog ``n`` steps while field ops and integer ops cost 1.
    """

    field_ops: int = 0
    int_ops: int = 0
    dlogs: int = 0
    #: S4 pair inversions (one step each, beyond their int ops)
    fixups: int = 0
    calls: int = 0
    n: int = field(default=0)

    def modeled_steps(self) -> int:
        """Total steps in the paper's cost model (dlog == n steps)."""
        return (
            self.field_ops + self.int_ops + self.fixups + self.dlogs * self.n
        )

    def reset(self) -> None:
        """Zero every counter (keeps ``n``)."""
        self.field_ops = self.int_ops = self.dlogs = 0
        self.fixups = self.calls = 0


class AddressLayer(Lemma4Slots):
    """Index <-> coset bijections of Section 4 (q = 2, n odd).

    Parameters
    ----------
    graph:
        The :class:`~repro.core.graph.MemoryGraph`; must have ``q == 2``
        and odd ``n``.
    """

    def __init__(self, graph: MemoryGraph):
        if graph.q != 2:
            raise ValueError(
                "the paper's explicit addressing is specified for q = 2 "
                "(general q is deferred to its extended version); use the "
                "enumerated fallback in PPScheme for other q"
            )
        if graph.n % 2 == 0:
            raise ValueError("Section 4 requires n odd (so that 3 | 2^n + 1)")
        self.graph = graph
        n = graph.n
        self.n = n
        self.K = graph.F
        self.L = GF2m.get(2 * n)
        self.G = self.L.group_order  # 2^{2n} - 1
        self.rho = self.G // 3
        self.sigma = (1 << n) + 1
        self.tau = self.sigma // 3
        self.smax = ((1 << (n - 1)) - 1) // 3
        self.w = self.L.exp(self.rho)
        self.embedding = FieldEmbedding(self.K, self.L)
        self.basis = BasisDecomposition(self.embedding, self.w)
        # Block layout: [S1 | S2 | S3 | S4]
        qn = 1 << n
        self.c1 = qn - 1
        self.c2 = (qn - 1) * ((qn >> 1) - 1)
        self.c3 = self.c2
        self.c4_per_s = (qn - 1) * (qn - 3)
        self.c4 = self.smax * self.c4_per_s
        self.M = self.c1 + self.c2 + self.c3 + self.c4
        self._family_starts = np.cumsum([0, self.c1, self.c2, self.c3])
        if self.M != graph.M:
            raise AssertionError(
                f"S-set sizes sum to {self.M}, but M = {graph.M}"
            )
        self.ops = OpCounter(n=n)
        self._h0_elements = graph.H0.elements()

    # ------------------------------------------------------------------
    # S4 combinatorics
    # ------------------------------------------------------------------

    def _s4_residues(self, s: Ints) -> tuple[Ints, Ints, Ints]:
        """The three excluded residues mod sigma for parameter ``s``:
        ``r_j = (s - j*rho) mod sigma`` -> ``(s, s + 2*tau, s + tau)``.

        This and the other S4 helpers are plain integer arithmetic, so
        they work elementwise on int64 arrays as well as on ints.
        """
        return (s, (s + 2 * self.tau) % self.sigma, (s + self.tau) % self.sigma)

    def _s4_count(self, s: Ints, x: Ints) -> Ints:
        """Number of valid S4 pairs ``(i, j)`` with ``1 <= i <= x``
        (``x >= 0``).

        Valid means ``tau !| i`` and ``i mod sigma != r_j`` for the pair's
        own ``j``; as ``1 <= s < tau`` the residues are ``s + k*tau`` for
        ``k = 0, 1, 2``, all below sigma.  Each kills exactly one ``j`` at
        its ``i`` values, and those ``i`` are never multiples of tau, so

            count(x) = 3 * (x - floor(x / tau)) - sum_k (floor((x - s - k*tau) / sigma) + 1)

        and since ``sigma = 3 tau`` Hermite's identity folds the sum over
        ``k = 0, 1, 2`` into ``floor((x - s) / tau) + 1``.
        """
        return 3 * (x - x // self.tau) - (x - s) // self.tau - 1

    def _s4_excluded_j(self, s: Ints, i: Ints) -> Ints:
        """The ``j`` excluded at ``i`` (``i mod sigma == r_j``), or 3 when
        all three are valid.  ``(i - s) mod sigma`` is ``0, 2*tau, tau``
        exactly at ``r_0, r_1, r_2``, and any other value excludes none."""
        k, rem = divmod((i - s) % self.sigma, self.tau)
        return 3 - (rem == 0) * (3 - (-k) % 3)

    def _s4_invert(self, s: Ints, r: Ints) -> tuple[Ints, Ints]:
        """The ``r``-th (0-based) valid pair ``(i, j)`` for parameter
        ``s``, ordered by ``i`` then ``j``, in O(1) operations.

        Cut the ``i`` axis into chunks of tau: chunk ``C`` holds
        ``i = C*tau + o`` for ``o = 1 .. tau - 1`` (the multiple of tau
        that ends it has no pairs), a grid of ``3 (tau - 1)`` pairs at
        positions ``3 (o - 1) + j``.  As ``1 <= s < tau``, exactly one
        excluded residue ``s + k*tau`` falls in each chunk, at ``o = s``
        with ``k = C mod 3``, and it excludes ``j = -k mod 3``.  So every
        chunk holds ``3 tau - 4`` valid pairs, and the ``w``-th valid pair
        of chunk ``C`` sits at grid position ``w``, or ``w + 1`` once ``w``
        reaches the excluded position.
        """
        chunk, w = divmod(r, 3 * self.tau - 4)
        pos = w + (w >= 3 * (s - 1) + (-chunk) % 3)
        o, j = divmod(pos, 3)
        return chunk * self.tau + o + 1, j

    def _s4_unrank(self, s: int, r: int) -> tuple[int, int]:
        """Scalar :meth:`_s4_invert` with a range check."""
        if not 0 <= r < self.c4_per_s:
            raise ValueError(f"S4 residual rank {r} out of range")
        self.ops.fixups += 1
        i, j = self._s4_invert(s, r)
        return int(i), int(j)

    def _s4_rank(self, s: int, i: int, j: int) -> int:
        """Inverse of :meth:`_s4_unrank` (for a valid pair)."""
        return int(
            self._s4_count(s, i - 1) + j - (j > self._s4_excluded_j(s, i))
        )

    def _s4_pair_valid(self, s: int, i: int, j: int) -> bool:
        """Validity of an S4 pair (range, tau, and subfield conditions)."""
        if not (1 <= i < self.rho) or i % self.tau == 0:
            return False
        return i % self.sigma != self._s4_residues(s)[j]

    # ------------------------------------------------------------------
    # k(s, t) helpers for S2 / S3
    # ------------------------------------------------------------------

    def _k(self, s: int, t: int) -> int:
        """``k(s, t) = (s + t*sigma) mod rho``."""
        return (s + t * self.sigma) % self.rho

    def _k_invert(self, kappa: int) -> tuple[int, int] | None:
        """Invert ``k``: find the unique in-range ``(s, t)`` with
        ``k(s, t) == kappa``, or None.

        ``s + t*sigma`` lies in ``[1, 1 + (2^n - 2) sigma] < 3 rho``, so the
        wrap count ``m`` is 0, 1, or 2: test ``kappa + m*rho``.
        """
        for m in range(3):
            cand = kappa + m * self.rho
            self.ops.int_ops += 2
            t, s = divmod(cand, self.sigma)
            if 1 <= s <= self.smax and 0 <= t < (1 << self.n) - 1:
                return s, t
        return None

    # ------------------------------------------------------------------
    # unrank: index -> matrix
    # ------------------------------------------------------------------

    def _pair_to_matrix(self, alpha: int, beta: int) -> Mat:
        """Convert ``<alpha, beta>`` (two L elements) to the canonical
        PGL2 matrix over K via the (w, 1) basis split."""
        x, y = self.basis.split(alpha)
        z, v = self.basis.split(beta)
        self.ops.field_ops += 8  # two splits: frobenius + mul + add each
        return pgl2_canon(self.K, (x, y, z, v))

    def unrank(self, index: int) -> Mat:
        """The matrix ``A_index`` -- canonical representative of the
        ``index``-th variable coset.  O(log N) operations, O(1) storage.
        """
        if not 0 <= index < self.M:
            raise ValueError(f"variable index {index} out of [0, {self.M})")
        self.ops.calls += 1
        L = self.L
        if index < self.c1:
            i = index
            alpha = 1
            beta = L.exp(i * self.sigma + self.rho)
            self.ops.dlogs += 1
            self.ops.int_ops += 2
            return self._pair_to_matrix(alpha, beta)
        index -= self.c1
        if index < self.c2:
            s, t, j = self._s2_params(index)
            alpha = 1
            beta = L.exp(self._k(s, t) + j * self.rho)
            self.ops.dlogs += 1
            self.ops.int_ops += 4
            return self._pair_to_matrix(alpha, beta)
        index -= self.c2
        if index < self.c3:
            s, t, j = self._s2_params(index)
            alpha = L.exp(self._k(s, t) + j * self.rho)
            beta = 1
            self.ops.dlogs += 1
            self.ops.int_ops += 4
            return self._pair_to_matrix(alpha, beta)
        index -= self.c3
        s = index // self.c4_per_s + 1
        r = index % self.c4_per_s
        i, j = self._s4_unrank(s, r)
        alpha = L.exp(s)
        beta = L.exp(i + j * self.rho)
        self.ops.dlogs += 2
        self.ops.int_ops += 4
        return self._pair_to_matrix(alpha, beta)

    def _s2_params(self, r: int) -> tuple[int, int, int]:
        """Decode an S2/S3 block offset into (s, t, j): j minor, then t,
        then s (1-based)."""
        j = r % 3
        r //= 3
        qn1 = (1 << self.n) - 1
        t = r % qn1
        s = r // qn1 + 1
        return s, t, j

    def _s2_offset(self, s: int, t: int, j: int) -> int:
        """Inverse of :meth:`_s2_params`."""
        qn1 = (1 << self.n) - 1
        return ((s - 1) * qn1 + t) * 3 + j

    # ------------------------------------------------------------------
    # rank: matrix -> index
    # ------------------------------------------------------------------

    def rank(self, m: Mat) -> int:
        """Index of the variable coset containing matrix ``m``.

        Scans the |H0| = 6 right translates; for each, matches the
        translate (up to a K^* scalar) against the four S-set patterns.
        Theorem 8 guarantees exactly one hit; we assert uniqueness.
        """
        hits = {self._rank_one(pgl2_mul(self.K, m, h)) for h in self._h0_elements}
        hits.discard(None)
        if len(hits) != 1:
            raise AssertionError(
                f"matrix {m} matched {len(hits)} S-set entries; Theorem 8 "
                "guarantees exactly one"
            )
        return hits.pop()

    def _rank_one(self, T: Mat) -> int | None:
        """Match a single (canonical) matrix against the S-set patterns,
        allowing an arbitrary K^* scalar.  Returns a global index or None.
        """
        L = self.L
        x, y, z, v = T
        alpha = self.basis.combine(x, y)
        beta = self.basis.combine(z, v)
        # -- patterns with alpha scaled to 1 (S1, S2): alpha must be in K^*.
        if x == 0:  # alpha = y in K
            ratio = L.div(beta, alpha)
            e = L.log(ratio)
            # S1: e == i*sigma + rho
            diff = (e - self.rho) % self.G
            if diff % self.sigma == 0:
                i = diff // self.sigma
                if 0 <= i < (1 << self.n) - 1:
                    return i
            # S2: e == k(s, t) + j*rho
            for j in range(3):
                kappa = (e - j * self.rho) % self.G
                if kappa < self.rho:
                    st = self._k_invert(kappa)
                    if st is not None:
                        s, t = st
                        return self.c1 + self._s2_offset(s, t, j)
        # -- pattern with beta scaled to 1 (S3): beta in K^*.
        if z == 0:  # beta = v in K^* (v != 0 by nonsingularity)
            ratio = L.div(alpha, beta)
            e = L.log(ratio)
            for j in range(3):
                kappa = (e - j * self.rho) % self.G
                if kappa < self.rho:
                    st = self._k_invert(kappa)
                    if st is not None:
                        s, t = st
                        return self.c1 + self.c2 + self._s2_offset(s, t, j)
        # -- S4: alpha scaled to lambda^s with 1 <= s <= smax.
        ea = L.log(alpha)
        s = ea % self.sigma
        if 1 <= s <= self.smax:
            # mu = lambda^(s - ea) in K^*; beta' = mu * beta
            eb = (L.log(beta) + s - ea) % self.G
            for j in range(3):
                i = (eb - j * self.rho) % self.G
                if self._s4_pair_valid(s, i, j):
                    return (
                        self.c1
                        + self.c2
                        + self.c3
                        + (s - 1) * self.c4_per_s
                        + self._s4_rank(s, i, j)
                    )
        return None

    # ------------------------------------------------------------------
    # vectorized unrank
    # ------------------------------------------------------------------

    def vunrank(
        self, indices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`unrank`: map an int64 index array to the four
        entry arrays of canonical variable matrices.

        Same O(log N) structure as a fixed number of numpy passes (the
        S4 inversion is a division and one comparison); this is what
        makes protocol experiments at N = 262k feasible.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if ((idx < 0) | (idx >= self.M)).any():
            raise ValueError("variable index out of range in vunrank")
        L = self.L
        rho, sigma = self.rho, self.sigma
        qn1 = (1 << self.n) - 1
        # Every family is decoded for every index and the family picks its
        # own; alpha or beta == 1 is exponent 0, and vexp reduces mod G.
        fam = np.searchsorted(self._family_starts, idx, side="right") - 1
        off = idx - self._family_starts[fam]
        # S1: beta = lambda^(i sigma + rho)
        e1 = off * sigma + rho
        # S2 / S3: lambda^(k(s, t) + j rho), j minor, then t, then s
        r, j = np.divmod(off, 3)
        s, t = np.divmod(r, qn1)
        e23 = (s + 1 + t * sigma) % rho + j * rho
        # S4: closed-form inversion of the pair count
        s4, r4 = np.divmod(off, self.c4_per_s)
        s4 += 1
        i4, j4 = self._s4_invert(s4, r4)
        in3, in4 = fam == 2, fam == 3
        e_alpha = np.where(in4, s4, np.where(in3, e23, 0))
        e_beta = np.where(in4, i4 + j4 * rho, np.where(in3, 0, e23))
        e_beta = np.where(fam == 0, e1, e_beta)
        # alpha and beta as the two rows of one array: one pass per kernel
        (x, z), (y, v) = self.basis.vsplit(L.vexp(np.array([e_alpha, e_beta])))
        return vcanon(self.K, (x, y, z, v))

    # ------------------------------------------------------------------
    # vectorized rank
    # ------------------------------------------------------------------

    def vrank(
        self, mats: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    ) -> np.ndarray:
        """Vectorized :meth:`rank`: indices of a batch of variable
        matrices (any coset representatives).

        Mirrors the scalar pattern matching across the |H0| right
        translates, expressed as numpy masks; exactly one (translate,
        pattern) hits per item by Theorem 8.
        """
        a, b, c, d = (np.asarray(x, dtype=np.int64) for x in mats)
        out = np.full(a.shape[0], -1, dtype=np.int64)
        for h in self._h0_elements:
            prod = vmul(self.K, (a, b, c, d), tuple(np.int64(x) for x in h))
            Ta, Tb, Tc, Td = vcanon(self.K, prod)
            cand = self._vrank_one(Ta, Tb, Tc, Td)
            take = (out < 0) & (cand >= 0)
            out[take] = cand[take]
        if (out < 0).any():
            raise AssertionError("vrank failed to match some matrices")
        return out

    def _vrank_one(
        self, x: np.ndarray, y: np.ndarray, z: np.ndarray, v: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`_rank_one` for a batch of canonical matrices;
        -1 where no S-set pattern matches."""
        L = self.L
        G, rho, sigma, tau = self.G, self.rho, self.sigma, self.tau
        qn1 = (1 << self.n) - 1
        B = x.shape[0]
        out = np.full(B, -1, dtype=np.int64)

        alpha = self.basis.vcombine(x, y)
        beta = self.basis.vcombine(z, v)
        e_ab = L.vlog(L.vdiv(beta, alpha))  # log(beta/alpha), always defined

        def invert_k(
            kappa: np.ndarray, valid: np.ndarray
        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            """Vector version of _k_invert: returns (s, t, ok)."""
            s_out = np.zeros_like(kappa)
            t_out = np.zeros_like(kappa)
            ok = np.zeros(kappa.shape, dtype=bool)
            for m in range(3):
                candv = kappa + m * rho
                t_c, s_c = np.divmod(candv, sigma)
                good = (
                    valid
                    & ~ok
                    & (s_c >= 1)
                    & (s_c <= self.smax)
                    & (t_c >= 0)
                    & (t_c < qn1)
                )
                s_out = np.where(good, s_c, s_out)
                t_out = np.where(good, t_c, t_out)
                ok |= good
            return s_out, t_out, ok

        # ---- S1 / S2: alpha in K^*  (canonical form has x == 0)
        m_a = x == 0
        diff = (e_ab - rho) % G
        s1_ok = m_a & (diff % sigma == 0) & (diff // sigma < qn1)
        out = np.where(s1_ok & (out < 0), diff // sigma, out)
        for j in range(3):
            kappa = (e_ab - j * rho) % G
            s_v, t_v, ok = invert_k(kappa, m_a & (kappa < rho) & (out < 0))
            offset = ((s_v - 1) * qn1 + t_v) * 3 + j
            out = np.where(ok, self.c1 + offset, out)

        # ---- S3: beta in K^* (canonical form has z == 0 => beta == v)
        m_b = z == 0
        e_ba = (-e_ab) % G
        for j in range(3):
            kappa = (e_ba - j * rho) % G
            s_v, t_v, ok = invert_k(kappa, m_b & (kappa < rho) & (out < 0))
            offset = ((s_v - 1) * qn1 + t_v) * 3 + j
            out = np.where(ok, self.c1 + self.c2 + offset, out)

        # ---- S4: alpha ~ lambda^s with 1 <= s <= smax
        ea = L.vlog(alpha)
        s4 = ea % sigma
        m_s4 = (s4 >= 1) & (s4 <= self.smax)
        eb = (L.vlog(beta) + s4 - ea) % G
        for j in range(3):
            i_v = (eb - j * rho) % G
            j_excl = self._s4_excluded_j(s4, i_v)
            ok = (
                m_s4
                & (out < 0)
                & (i_v >= 1)
                & (i_v < rho)
                & (i_v % tau != 0)
                & (j_excl != j)
            )
            # rank within s: valid pairs with i' < i, plus the position
            # of j among the valid js at i
            within_s = self._s4_count(s4, i_v - 1) + j - (j > j_excl)
            idx = (
                self.c1 + self.c2 + self.c3 + (s4 - 1) * self.c4_per_s + within_s
            )
            out = np.where(ok, idx, out)
        return out

    # bench/layers.py times the slots layer by wrapping this entry point
    # in the class's own namespace
    vslots = Lemma4Slots.vslots

    def __repr__(self) -> str:
        return (
            f"AddressLayer(n={self.n}, M={self.M}, blocks="
            f"[{self.c1}, {self.c2}, {self.c3}, {self.c4}])"
        )
