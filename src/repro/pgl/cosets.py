"""Coset canonicalization for the two quotient spaces of PGL2(q^n).

Modules (cosets of ``H_{n-1}``) admit a *closed-form* canonicalization --
this is the performance-critical operation of the whole simulator, since
every copy access must map a matrix to its module index.  Following the
paper's representative system (eq. (1)) and index map ``f(s, t) =
s*(q^n + 1) + t + 1``:

* ``t = -1``: representative ``(gamma^s, 0; 0, 1)``;
* ``t >= 0``: representative ``(alpha_t, gamma^s; 1, 0)`` where
  ``alpha_t`` is the field element with integer code ``t``.

Given any nonsingular ``B = (x, y; z, v)``:

* if ``z == 0``: ``B H_{n-1}`` contains ``(x/v, 0; 0, 1)`` (choose alpha
  to cancel the top-right entry), so ``s = log(x/v) mod rho`` with
  ``rho = (q^n - 1)/(q - 1)`` and ``t = -1``;
* if ``z != 0``: choosing ``alpha = v/z`` inside ``H_{n-1}`` and scaling,
  the coset contains exactly ``(x/z, det/(z^2 a); 1, 0)`` for every
  ``a in F_q^*`` (characteristic 2 absorbs the paper's minus signs), so
  ``s = log(det / z^2) mod rho`` pins ``a = gamma^(L - s) in F_q^*`` and
  ``t = code(x / z)`` -- the top-left entry does not depend on ``a``.

Variables (cosets of ``H0``) use orbit-minimum canonicalization: |H0| =
q^3 - q is a small constant (6 for q = 2), so taking the lexicographic
minimum of ``A h`` over ``h in H0`` is O(1) field work.
"""

from __future__ import annotations

import numpy as np

from repro.gf.gf2m import GF2m
from repro.gf.subfield import FieldEmbedding
from repro.pgl.matrix import Mat, pgl2_det, pgl2_mul, vmul
from repro.pgl.subgroups import SubgroupH0

__all__ = ["ModuleCosets", "VariableCosets"]


class ModuleCosets:
    """Closed-form index map between matrices and module cosets.

    Parameters
    ----------
    F:
        The big field :math:`F_{q^n}` (a :class:`GF2m`).
    embedding:
        Embedding of F_q into F.

    Attributes
    ----------
    rho:
        ``(q^n - 1)/(q - 1)``, the number of ``s`` values.
    N:
        Number of modules, ``(q^n + 1) * rho``.
    """

    def __init__(self, F: GF2m, embedding: FieldEmbedding):
        if embedding.L is not F and embedding.L != F:
            raise ValueError("embedding target must be the big field")
        self.F = F
        self.embedding = embedding
        self.q = embedding.K.order
        qn = F.order
        self.rho = (qn - 1) // (self.q - 1)
        self.N = (qn + 1) * self.rho

    # -- scalar path ----------------------------------------------------

    def index_of(self, m: Mat) -> int:
        """Module index in ``[0, N)`` of the coset ``m H_{n-1}``."""
        s, t = self.st_of(m)
        return s * (self.F.order + 1) + t + 1

    def st_of(self, m: Mat) -> tuple[int, int]:
        """The pair ``(s, t)`` of the paper's representative system; t = -1
        selects the diagonal representative family."""
        F = self.F
        x, y, z, v = m
        if z == 0:
            if v == 0 or x == 0:
                raise ValueError(f"singular matrix {m}")
            s = F.log(F.div(x, v)) % self.rho
            return s, -1
        det = pgl2_det(F, m)
        if det == 0:
            raise ValueError(f"singular matrix {m}")
        L = F.log(F.div(det, F.mul(z, z)))
        s = L % self.rho
        beta = F.div(x, z)
        _ = y  # y only enters through det
        return s, beta

    def rep_of(self, index: int) -> Mat:
        """Canonical representative matrix of module ``index`` (paper eq. (1))."""
        if not 0 <= index < self.N:
            raise ValueError(f"module index {index} out of [0, {self.N})")
        qn1 = self.F.order + 1
        s, rem = divmod(index, qn1)
        t = rem - 1
        gs = self.F.exp(s)
        if t == -1:
            return (gs, 0, 0, 1)
        return (t, gs, 1, 0)

    def canon(self, m: Mat) -> Mat:
        """Canonical representative of the coset ``m H_{n-1}``."""
        return self.rep_of(self.index_of(m))

    # -- vectorized path --------------------------------------------------

    def vindex(
        self, m: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    ) -> np.ndarray:
        """Vectorized :meth:`index_of` over batches of matrices.

        The hot kernel of the protocol simulator: maps every requested
        copy to its module id with pure table lookups.
        """
        F = self.F
        x, y, z, v = (np.asarray(w, dtype=np.int64) for w in m)
        _ = y
        z_zero = z == 0
        # Branch z == 0: s = log(x / v) mod rho, t = -1.
        safe_v = np.where(z_zero, v, np.int64(1))
        safe_x = np.where(z_zero, x, np.int64(1))
        if ((safe_v == 0) | (safe_x == 0)).any():
            raise ValueError("singular matrix in vindex (z == 0 branch)")
        s0 = np.mod(F.vlog(F.vdiv(safe_x, safe_v)), self.rho)
        # Branch z != 0.
        det = F.vadd(F.vmul(x, v), F.vmul(y, z))
        safe_z = np.where(z_zero, np.int64(1), z)
        safe_det = np.where(z_zero, np.int64(1), det)
        if (safe_det == 0).any():
            raise ValueError("singular matrix in vindex (z != 0 branch)")
        L = F.vlog(F.vdiv(safe_det, F.vmul(safe_z, safe_z)))
        s1 = np.mod(L, self.rho)
        beta = F.vdiv(x, safe_z)
        qn1 = self.F.order + 1
        idx0 = s0 * qn1  # t = -1 contributes +0
        idx1 = s1 * qn1 + beta + 1
        return np.where(z_zero, idx0, idx1)

    def __repr__(self) -> str:
        return f"ModuleCosets(q={self.q}, q^n={self.F.order}, N={self.N})"


class VariableCosets:
    """Orbit-minimum canonicalization for variable cosets ``A H0``."""

    def __init__(self, F: GF2m, H0: SubgroupH0):
        self.F = F
        self.H0 = H0
        qn, q = F.order, H0.q
        # M = |PGL2(q^n)| / |PGL2(q)|
        self.M = ((qn + 1) * qn * (qn - 1)) // ((q + 1) * q * (q - 1))

    def canon(self, m: Mat) -> Mat:
        """Lexicographically minimal canonical matrix of the coset ``m H0``."""
        F = self.F
        best: Mat | None = None
        for h in self.H0.elements():
            cand = pgl2_mul(F, m, h)
            if best is None or cand < best:
                best = cand
        assert best is not None
        return best

    def key(self, m: Mat) -> int:
        """Pack the coset-canonical matrix into a single int (hashable id)."""
        a, b, c, d = self.canon(m)
        k = self.F.order
        return ((a * k + b) * k + c) * k + d

    def unkey(self, key: int) -> Mat:
        """Inverse of :meth:`key` (returns the canonical matrix)."""
        k = self.F.order
        key, d = divmod(key, k)
        key, c = divmod(key, k)
        a, b = divmod(key, k)
        return (a, b, c, d)

    def same_coset(self, m1: Mat, m2: Mat) -> bool:
        """True iff the two matrices generate the same variable coset."""
        return self.canon(m1) == self.canon(m2)

    def vkey_batch(self, mats: list[Mat]) -> np.ndarray:
        """Keys for a batch of matrices (loops scalar canon; batch sizes in
        the enumeration/validation paths are modest)."""
        return np.fromiter((self.key(m) for m in mats), dtype=np.int64, count=len(mats))

    def __repr__(self) -> str:
        return f"VariableCosets(q={self.H0.q}, q^n={self.F.order}, M={self.M})"
