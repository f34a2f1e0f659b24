"""Subfield structure of GF(2^m): embeddings, Frobenius, basis decomposition.

The paper's Section 4 identifies each row ``(x, y)`` of a PGL2 matrix
over :math:`\\mathbb{F}_{2^n}` with the element ``x*w + y`` of the
quadratic extension :math:`\\mathbb{F}_{2^{2n}}`, where ``(w, 1)`` is a
basis of the extension over the base field and ``w`` generates
:math:`\\mathbb{F}_4^*`.  This module supplies the machinery:

* :class:`FieldEmbedding` -- an explicit field homomorphism
  GF(2^d) -> GF(2^m) for d | m, with full forward/backward lookup tables
  (the fields in play are small) and vectorized variants;
* :class:`BasisDecomposition` -- solve ``u = z*w + v`` with z, v in the
  subfield, via the Frobenius identity
  ``z = (u + u^{2^d}) / (w + w^{2^d})``;
* helpers :func:`frobenius_power` and :func:`in_subfield`.
"""

from __future__ import annotations

import numpy as np

from repro.gf.gf2m import GF2m

__all__ = [
    "frobenius_power",
    "in_subfield",
    "FieldEmbedding",
    "BasisDecomposition",
]


def frobenius_power(field: GF2m, a: int, d: int) -> int:
    """Compute ``a^(2^d)`` in ``field``."""
    return field.pow(a, 1 << d)


def in_subfield(field: GF2m, a: int, d: int) -> bool:
    """True iff ``a`` lies in the subfield GF(2^d) of ``field`` (d | m).

    Uses the characterization ``a^(2^d) == a``.
    """
    if field.m % d != 0:
        raise ValueError(f"GF(2^{d}) is not a subfield of GF(2^{field.m})")
    return frobenius_power(field, a, d) == a


class FieldEmbedding:
    """An explicit field homomorphism ``phi: K -> L`` for K = GF(2^d),
    L = GF(2^m), d | m.

    The image of K's generator is found as a root in L of K's modulus
    polynomial, searched among the subfield elements
    ``{0} ∪ {g^(i * (2^m - 1)/(2^d - 1))}``.  Because both fields are
    small (the repo's envelope is d <= 10, m <= 20), the embedding and its
    inverse are materialized as flat numpy lookup tables, giving O(1)
    scalar and fully vectorized bulk mapping.

    Attributes
    ----------
    K, L:
        The small and large field.
    table:
        int64 array of length ``K.order``; ``table[a]`` = phi(a).
    inverse_table:
        int64 array of length ``L.order``; ``inverse_table[b]`` is the
        preimage of ``b`` or -1 when b is outside the subfield.
    """

    def __init__(self, K: GF2m, L: GF2m):
        if L.m % K.m != 0:
            raise ValueError(
                f"GF(2^{K.m}) does not embed in GF(2^{L.m}) (degree must divide)"
            )
        self.K = K
        self.L = L
        root = self._find_root()
        self.gamma_image = root
        self._build_tables(root)

    def _find_root(self) -> int:
        """Find phi(gamma_K): a root in L of gamma_K's minimal polynomial."""
        K, L = self.K, self.L
        if K.m == L.m:
            # Possibly different moduli; still need an isomorphism.
            candidates = L.nonzero_elements()
        else:
            step = L.group_order // K.group_order
            candidates = L._exp[: L.group_order : 1][
                np.arange(0, L.group_order, step)
            ]
        minpoly = K.minimal_polynomial(K.generator)
        coeffs = minpoly.coeffs  # over GF(2)
        for cand in candidates:
            cand = int(cand)
            acc = 0
            power = 1
            for c in coeffs:
                if c:
                    acc ^= power
                power = L.mul(power, cand)
            if acc == 0:
                return cand
        raise ArithmeticError(
            "no root of the subfield modulus found (should be impossible)"
        )  # pragma: no cover

    def _build_tables(self, root: int) -> None:
        K, L = self.K, self.L
        # Images of the K-basis 1, gamma, gamma^2, ..., gamma^(d-1).
        basis_images = []
        acc = 1
        for _ in range(K.m):
            basis_images.append(acc)
            acc = L.mul(acc, root)
        table = np.zeros(K.order, dtype=np.int64)
        for a in range(K.order):
            img = 0
            bits = a
            i = 0
            while bits:
                if bits & 1:
                    img ^= basis_images[i]
                bits >>= 1
                i += 1
            table[a] = img
        inverse = np.full(L.order, -1, dtype=np.int64)
        inverse[table] = np.arange(K.order, dtype=np.int64)
        self.table = table
        self.inverse_table = inverse

    # -- scalar API ------------------------------------------------------

    def embed(self, a: int) -> int:
        """Map a K element into L."""
        return int(self.table[a])

    def project(self, b: int) -> int:
        """Map an L element lying in the subfield back to K.

        Raises :class:`ValueError` if ``b`` is not in the image of K.
        """
        val = int(self.inverse_table[b])
        if val < 0:
            raise ValueError(f"{b} is not in the embedded subfield")
        return val

    def contains(self, b: int) -> bool:
        """True iff the L element ``b`` lies in the embedded copy of K."""
        return bool(self.inverse_table[b] >= 0)

    # -- vectorized API ----------------------------------------------------

    def vembed(self, a: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`embed`."""
        return self.table[np.asarray(a, dtype=np.int64)]

    def vproject(self, b: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`project`; raises if any element is outside K."""
        out = self.inverse_table[np.asarray(b, dtype=np.int64)]
        if (out < 0).any():
            raise ValueError("some elements are not in the embedded subfield")
        return out

    def vcontains(self, b: np.ndarray) -> np.ndarray:
        """Vectorized subfield membership mask."""
        return self.inverse_table[np.asarray(b, dtype=np.int64)] >= 0

    def __repr__(self) -> str:
        return f"FieldEmbedding(GF(2^{self.K.m}) -> GF(2^{self.L.m}))"


class BasisDecomposition:
    """Decompose elements of L over the basis ``(w, 1)`` of L over K.

    Requires ``[L : K] = 2`` and ``w`` outside the subfield, exactly the
    situation of the paper's Section 4 (L = F_{2^{2n}}, K = F_{2^n},
    ``w = lambda^rho`` a generator of F_4^*).  For ``u = z*w + v`` the
    coefficients are recovered with one Frobenius application:

        ``z = (u + u^{2^d}) / (w + w^{2^d})``,  ``v = u + z*w``

    and mapped back to K codes through the embedding's inverse table.
    """

    def __init__(self, embedding: FieldEmbedding, w: int):
        if embedding.L.m != 2 * embedding.K.m:
            raise ValueError("BasisDecomposition requires a quadratic extension")
        if embedding.contains(w):
            raise ValueError("w must lie outside the subfield to form a basis")
        self.embedding = embedding
        self.w = w
        L = embedding.L
        self._d = embedding.K.m
        self._denom_inv = L.inv(L.add(w, frobenius_power(L, w, self._d)))

    def split(self, u: int) -> tuple[int, int]:
        """Return ``(z, v)`` as K codes with ``u == embed(z)*w + embed(v)``."""
        L = self.embedding.L
        z_L = L.mul(L.add(u, frobenius_power(L, u, self._d)), self._denom_inv)
        v_L = L.add(u, L.mul(z_L, self.w))
        return self.embedding.project(z_L), self.embedding.project(v_L)

    def combine(self, z: int, v: int) -> int:
        """Inverse of :meth:`split`: build ``embed(z)*w + embed(v)`` in L."""
        L = self.embedding.L
        return L.add(L.mul(self.embedding.embed(z), self.w), self.embedding.embed(v))

    def vsplit(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`split`."""
        L = self.embedding.L
        u = np.asarray(u, dtype=np.int64)
        fro = L.vpow(u, 1 << self._d)
        z_L = L.vmul(L.vadd(u, fro), self._denom_inv)
        v_L = L.vadd(u, L.vmul(z_L, self.w))
        return self.embedding.vproject(z_L), self.embedding.vproject(v_L)

    def vcombine(self, z: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`combine`."""
        L = self.embedding.L
        zi = self.embedding.vembed(z)
        vi = self.embedding.vembed(v)
        return L.vadd(L.vmul(zi, self.w), vi)

    def __repr__(self) -> str:
        return (
            f"BasisDecomposition(L=GF(2^{self.embedding.L.m}), "
            f"K=GF(2^{self.embedding.K.m}), w={self.w})"
        )
