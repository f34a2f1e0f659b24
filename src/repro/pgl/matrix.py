"""Canonical matrices of PGL2 over GF(2^m).

A PGL2 element is a nonsingular 2x2 matrix modulo scalars.  Following the
paper's convention, every element has a unique canonical representative
of one of two shapes:

* ``(a, b; c, 1)``  -- bottom-right entry 1 (when d != 0), or
* ``(a, b; 1, 0)``  -- bottom row (1, 0) (when d == 0; nonsingularity
  then forces b != 0 and, in this shape, c is scaled to 1).

Matrices are plain 4-tuples ``(a, b, c, d)`` of field codes for scalar
code, and 4 parallel numpy arrays for the vectorized hot path.  All
functions take the field as the first argument; nothing is cached on the
tuples, which keeps them hashable and cheap.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.gf.gf2m import GF2m

__all__ = [
    "Mat",
    "pgl2_identity",
    "pgl2_det",
    "pgl2_canon",
    "pgl2_mul",
    "pgl2_inv",
    "pgl2_order",
    "enumerate_pgl2",
    "vmul",
    "vcanon",
]

Mat = tuple[int, int, int, int]
"""A 2x2 matrix ``(a, b, c, d)`` over a GF2m field, row-major."""


def pgl2_identity() -> Mat:
    """The identity element of PGL2 (already canonical)."""
    return (1, 0, 0, 1)


def pgl2_det(F: GF2m, m: Mat) -> int:
    """Determinant ``a*d - b*c`` (== ``a*d + b*c`` in characteristic 2)."""
    a, b, c, d = m
    return F.add(F.mul(a, d), F.mul(b, c))


def pgl2_canon(F: GF2m, m: Mat) -> Mat:
    """Scale a nonsingular matrix to its canonical projective representative.

    Raises :class:`ValueError` on singular input.
    """
    a, b, c, d = m
    if pgl2_det(F, m) == 0:
        raise ValueError(f"singular matrix {m}")
    if d != 0:
        inv = F.inv(d)
        return (F.mul(a, inv), F.mul(b, inv), F.mul(c, inv), 1)
    # d == 0 forces b, c != 0; normalize bottom row to (1, 0).
    inv = F.inv(c)
    return (F.mul(a, inv), F.mul(b, inv), 1, 0)


def pgl2_mul(F: GF2m, m1: Mat, m2: Mat) -> Mat:
    """Product of two PGL2 elements, returned in canonical form."""
    a1, b1, c1, d1 = m1
    a2, b2, c2, d2 = m2
    prod = (
        F.add(F.mul(a1, a2), F.mul(b1, c2)),
        F.add(F.mul(a1, b2), F.mul(b1, d2)),
        F.add(F.mul(c1, a2), F.mul(d1, c2)),
        F.add(F.mul(c1, b2), F.mul(d1, d2)),
    )
    return pgl2_canon(F, prod)


def pgl2_inv(F: GF2m, m: Mat) -> Mat:
    """Inverse of a PGL2 element (adjugate works projectively), canonical."""
    a, b, c, d = m
    # adjugate = (d, -b; -c, a); char 2 drops the signs
    return pgl2_canon(F, (d, b, c, a))


def pgl2_order(k: int) -> int:
    """|PGL2(k)| = (k+1) * k * (k-1) = k^3 - k."""
    return k**3 - k


def enumerate_pgl2(F: GF2m) -> Iterator[Mat]:
    """Yield every element of PGL2 over ``F`` in canonical form.

    ``(a, b, c, 1)`` with ``a + b*c != 0`` (k^3 - k^2 matrices... more
    precisely all nonsingular ones), then ``(a, b, 1, 0)`` with ``b != 0``.
    Total count is ``k^3 - k``.
    """
    k = F.order
    for a in range(k):
        for b in range(k):
            bc_nonsingular_a = a  # det of (a,b;c,1) = a + b*c
            for c in range(k):
                if F.add(bc_nonsingular_a, F.mul(b, c)) != 0:
                    yield (a, b, c, 1)
    for a in range(k):
        for b in range(1, k):  # det of (a,b;1,0) = b
            yield (a, b, 1, 0)


# -- vectorized kernels -----------------------------------------------------


def vmul(
    F: GF2m,
    m1: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | Mat,
    m2: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | Mat,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized 2x2 matrix product over the field.

    Each operand is a 4-tuple of broadcastable int64 arrays (or plain
    ints); the result is NOT canonicalized -- compose :func:`vcanon` when
    projective representatives are needed.
    """
    a1, b1, c1, d1 = (np.asarray(x, dtype=np.int64) for x in m1)
    a2, b2, c2, d2 = (np.asarray(x, dtype=np.int64) for x in m2)
    return (
        F.vadd(F.vmul(a1, a2), F.vmul(b1, c2)),
        F.vadd(F.vmul(a1, b2), F.vmul(b1, d2)),
        F.vadd(F.vmul(c1, a2), F.vmul(d1, c2)),
        F.vadd(F.vmul(c1, b2), F.vmul(d1, d2)),
    )


def vcanon(
    F: GF2m, m: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized projective canonicalization of nonsingular matrices.

    Raises :class:`ValueError` if any matrix in the batch is singular.
    """
    a, b, c, d = (np.asarray(x, dtype=np.int64) for x in m)
    det = F.vadd(F.vmul(a, d), F.vmul(b, c))
    if (det == 0).any():
        raise ValueError("singular matrix in vectorized canonicalization")
    d_zero = d == 0
    # scale factor: 1/d where d != 0, else 1/c (c != 0 is guaranteed there)
    denom = np.where(d_zero, c, d)
    inv = F.vinv(denom)
    return (
        F.vmul(a, inv),
        F.vmul(b, inv),
        np.where(d_zero, np.int64(1), F.vmul(c, inv)),
        np.where(d_zero, np.int64(0), np.int64(1)),
    )
