"""Fast arithmetic in GF(2^m) -- the hot path of the whole reproduction.

Field elements are plain Python ints / numpy integers in ``[0, 2^m)``,
bit-packing the coefficients of the polynomial representation over GF(2)
(bit i = coefficient of x^i).  Addition is XOR.  Multiplication,
inversion, and discrete logs go through precomputed exponential /
logarithm tables with respect to the primitive element ``x`` (guaranteed
primitive because the modulus comes from a primitive-polynomial table).

Both scalar operations (``mul``, ``inv``, ...) and numpy-vectorized bulk
operations (``vmul``, ``vinv``, ...) are provided; the MPC protocol
simulator computes module indices for hundreds of thousands of requests
per round through the vectorized path.

The tables make the vector kernels branch-free.  With ``G = 2^m - 1``,
``log`` maps 0 to the sentinel ``2G`` and ``exp`` has ``4G + 1`` entries:
``exp[i] = x^(i mod G)`` for ``i < 2G`` and 0 from ``2G`` on.  A sum of
two logs then lands in the zero tail exactly when an operand is 0, so
``vmul`` is ``exp[log a + log b]`` and ``vdiv`` is
``exp[log a - log b + G]`` (the divisor is checked nonzero first), with
no per-element select.  Zero divisors, logs of 0 and singular matrices
are still refused, each by one ``.any()`` reduction.
"""

from __future__ import annotations

import numpy as np

from repro.gf.opcount import GFOpSink
from repro.gf.poly import Poly

__all__ = ["GF2m", "set_op_sink"]

_FIELD_CACHE: dict[tuple[int, int], "GF2m"] = {}

#: Optional ledger hook: when a sink is installed every field op tallies
#: itself (one per element for vector calls).  None means no accounting
#: and each op pays a single ``is not None`` test.
_OP_SINK: GFOpSink | None = None


def set_op_sink(sink: GFOpSink | None) -> GFOpSink | None:
    """Install (``GFOpSink``) or clear (``None``) the global field-op sink.

    Returns the previously installed sink so callers can restore it;
    the bound-accounting ledger is the intended (sole) installer.
    """
    global _OP_SINK
    prev = _OP_SINK
    _OP_SINK = sink
    return prev


class GF2m:
    """The finite field GF(2^m) with table-based arithmetic.

    Parameters
    ----------
    m:
        Extension degree over GF(2); tables take ``O(2^m)`` memory, so the
        practical envelope is ``m <= 24`` (the experiments use ``m <= 20``).
    modulus:
        Optional bit mask of a degree-``m`` irreducible polynomial.  By
        default a *primitive* polynomial from :mod:`repro.gf.tables` is
        used, making ``x`` (the integer 2) a generator of the
        multiplicative group.

    Notes
    -----
    Instances are cached by ``(m, modulus)`` via :meth:`get`, so repeated
    construction of the same field shares tables.
    """

    __slots__ = (
        "m",
        "order",
        "group_order",
        "modulus",
        "generator",
        "_exp",
        "_log",
    )

    def __init__(self, m: int, modulus: int | None = None):
        if m < 1:
            raise ValueError("extension degree m must be >= 1")
        if m > 26:
            raise ValueError(
                f"m={m} would need {2**m}-entry tables; out of supported range"
            )
        if modulus is None:
            from repro.gf.irreducible import find_primitive

            modulus = find_primitive(2, m).to_int()
        if modulus >> m != 1:
            raise ValueError(
                f"modulus 0x{modulus:x} is not a degree-{m} monic polynomial"
            )
        self.m = m
        self.order = 1 << m
        self.group_order = self.order - 1
        self.modulus = modulus
        self.generator = 1 if m == 1 else 2  # residue of x (1 generates GF(2)^*)
        self._build_tables()

    @classmethod
    def get(cls, m: int, modulus: int | None = None) -> "GF2m":
        """Cached field constructor: one table set per (m, modulus)."""
        if modulus is None:
            from repro.gf.irreducible import find_primitive

            modulus = find_primitive(2, m).to_int()
        key = (m, modulus)
        field = _FIELD_CACHE.get(key)
        if field is None:
            field = cls(m, modulus)
            _FIELD_CACHE[key] = field
        return field

    # -- table construction -------------------------------------------

    def _build_tables(self) -> None:
        # walk the powers of x in plain ints, then store each table once
        size = self.group_order
        powers = [0] * size
        acc = 1
        for i in range(size):
            powers[i] = acc
            acc <<= 1
            if acc >> self.m:
                acc ^= self.modulus
        exp = np.zeros(4 * size + 1, dtype=np.int64)
        exp[:size] = powers
        exp[size : 2 * size] = powers
        log = np.full(self.order, -1, dtype=np.int64)
        log[exp[:size]] = np.arange(size)
        # GF(2)^* = {1} under any modulus; otherwise x must generate
        if self.m > 1 and (acc != 1 or (log[1:] < 0).any()):
            raise ValueError(
                f"modulus 0x{self.modulus:x} is not primitive for m={self.m}"
            )
        log[0] = 2 * size  # sentinel: any sum with it lands in the zero tail
        self._exp = exp
        self._log = log

    # -- scalar ops ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        """Field addition (XOR in characteristic 2)."""
        if _OP_SINK is not None:
            _OP_SINK.add += 1
        return a ^ b

    sub = add  # characteristic 2: subtraction == addition

    def mul(self, a: int, b: int) -> int:
        """Field multiplication via log/exp tables."""
        if _OP_SINK is not None:
            _OP_SINK.mul += 1
        if a == 0 or b == 0:
            return 0
        return int(self._exp[self._log[a] + self._log[b]])

    def inv(self, a: int) -> int:
        """Multiplicative inverse; raises ZeroDivisionError on 0."""
        if _OP_SINK is not None:
            _OP_SINK.mul += 1
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(2^m)")
        return int(self._exp[self.group_order - self._log[a]])

    def div(self, a: int, b: int) -> int:
        """Field division a / b."""
        if _OP_SINK is not None:
            _OP_SINK.mul += 1
        if b == 0:
            raise ZeroDivisionError("division by 0 in GF(2^m)")
        if a == 0:
            return 0
        return int(
            self._exp[self._log[a] - self._log[b] + self.group_order]
        )

    def pow(self, a: int, e: int) -> int:
        """``a**e`` with integer exponent (negative allowed for nonzero a)."""
        if _OP_SINK is not None:
            _OP_SINK.mul += 1
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("0 to a negative power")
            return 0
        la = int(self._log[a])
        return int(self._exp[(la * e) % self.group_order])

    def exp(self, e: int) -> int:
        """``generator**e`` (e taken mod the group order)."""
        if _OP_SINK is not None:
            _OP_SINK.exp += 1
        return int(self._exp[e % self.group_order])

    def log(self, a: int) -> int:
        """Discrete log base the generator; raises on 0."""
        if _OP_SINK is not None:
            _OP_SINK.dlog += 1
        if a == 0:
            raise ValueError("log of 0 is undefined")
        return int(self._log[a])

    def sqrt(self, a: int) -> int:
        """Square root (unique in characteristic 2): a^(2^(m-1))."""
        return self.pow(a, 1 << (self.m - 1))

    def frobenius(self, a: int, k: int = 1) -> int:
        """The Frobenius power ``a^(2^k)``."""
        return self.pow(a, 1 << k)

    def element_order(self, a: int) -> int:
        """Multiplicative order of a nonzero element."""
        if a == 0:
            raise ValueError("0 has no multiplicative order")
        from math import gcd

        return self.group_order // gcd(int(self._log[a]), self.group_order)

    def is_primitive_element(self, a: int) -> bool:
        """True iff ``a`` generates the multiplicative group."""
        return a != 0 and self.element_order(a) == self.group_order

    def minimal_polynomial(self, a: int) -> Poly:
        """Minimal polynomial of ``a`` over GF(2), as a :class:`Poly`.

        Computed as ``prod (x - a^(2^i))`` over the Frobenius orbit.
        """
        orbit = []
        x = a
        while x not in orbit:
            orbit.append(x)
            x = self.mul(x, x)
        # multiply out (x + r) for r in orbit, coefficients in GF(2^m)
        coeffs = [1]
        for r in orbit:
            new = [0] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                new[i + 1] ^= c
                new[i] ^= self.mul(c, r)
            coeffs = new
        if any(c not in (0, 1) for c in coeffs):
            raise ArithmeticError("minimal polynomial not over GF(2)")
        return Poly(coeffs, 2)

    # -- vectorized ops (numpy int64 arrays) ---------------------------

    def vadd(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise field addition of int arrays."""
        out = np.bitwise_xor(a, b)
        if _OP_SINK is not None:
            _OP_SINK.add += int(np.size(out))
        return out

    vsub = vadd

    def vmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise field multiplication of broadcastable int arrays.

        Branch-free: a zero operand's log is the sentinel, which sends the
        sum into the zero tail of the exp table.
        """
        out = self._exp[
            self._log[np.asarray(a, dtype=np.int64)]
            + self._log[np.asarray(b, dtype=np.int64)]
        ]
        if _OP_SINK is not None:
            _OP_SINK.mul += out.size
        return out

    def vinv(self, a: np.ndarray) -> np.ndarray:
        """Elementwise inverse; raises if any element is 0."""
        a = np.asarray(a, dtype=np.int64)
        if _OP_SINK is not None:
            _OP_SINK.mul += a.size
        if (a == 0).any():
            raise ZeroDivisionError("inverse of 0 in vectorized inv")
        return self._exp[self.group_order - self._log[a]]

    def vdiv(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise division a / b; raises if any b is 0."""
        b = np.asarray(b, dtype=np.int64)
        if (b == 0).any():
            raise ZeroDivisionError("division by 0 in vectorized div")
        out = self._exp[
            self._log[np.asarray(a, dtype=np.int64)]
            - self._log[b]
            + self.group_order
        ]
        if _OP_SINK is not None:
            _OP_SINK.mul += out.size
        return out

    def vpow(self, a: np.ndarray, e: int) -> np.ndarray:
        """Elementwise ``a**e`` for a fixed integer exponent e >= 0."""
        a = np.asarray(a, dtype=np.int64)
        if _OP_SINK is not None:
            _OP_SINK.mul += a.size
        if e == 0:
            return np.ones_like(a)
        out = self._exp[(self._log[a] * e) % self.group_order]
        return np.where(a == 0, 0, out)

    def vpowv(self, a: np.ndarray, e: np.ndarray) -> np.ndarray:
        """Elementwise ``a**e`` with *per-element* integer exponents.

        Broadcasts ``a`` against ``e``; negative exponents are allowed
        for nonzero bases (raises ZeroDivisionError on ``0**negative``,
        matching scalar :meth:`pow`).
        """
        a, e = np.broadcast_arrays(
            np.asarray(a, dtype=np.int64), np.asarray(e, dtype=np.int64)
        )
        if _OP_SINK is not None:
            _OP_SINK.mul += a.size
        zero = a == 0
        if (zero & (e < 0)).any():
            raise ZeroDivisionError("0 to a negative power in vectorized pow")
        out = self._exp[(self._log[a] * e) % self.group_order]
        return np.where(zero, e == 0, out)  # 0**0 == 1, else 0**e == 0

    def vsqrt(self, a: np.ndarray) -> np.ndarray:
        """Elementwise square root (unique in char 2): ``a^(2^(m-1))``."""
        return self.vpow(a, 1 << (self.m - 1))

    def vfrobenius(self, a: np.ndarray, k: int = 1) -> np.ndarray:
        """Elementwise Frobenius power ``a^(2^k)``."""
        return self.vpow(a, 1 << k)

    def vlog(self, a: np.ndarray) -> np.ndarray:
        """Elementwise discrete log; raises if any element is 0."""
        a = np.asarray(a, dtype=np.int64)
        if _OP_SINK is not None:
            _OP_SINK.dlog += a.size
        if (a == 0).any():
            raise ValueError("log of 0 in vectorized log")
        return self._log[a]

    def vexp(self, e: np.ndarray) -> np.ndarray:
        """Elementwise ``generator**e`` for an int array of exponents."""
        e = np.asarray(e, dtype=np.int64)
        if _OP_SINK is not None:
            _OP_SINK.exp += e.size
        return self._exp[np.mod(e, self.group_order)]

    # -- iteration / misc ----------------------------------------------

    def elements(self) -> np.ndarray:
        """All field elements as an int64 array ``[0, 1, ..., 2^m - 1]``."""
        return np.arange(self.order, dtype=np.int64)

    def nonzero_elements(self) -> np.ndarray:
        """All nonzero elements in generator-power order: ``g^0, g^1, ...``."""
        return self._exp[: self.group_order].copy()

    def random_elements(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform random field elements (including 0)."""
        return rng.integers(0, self.order, size=size, dtype=np.int64)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GF2m)
            and self.m == other.m
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash(("GF2m", self.m, self.modulus))

    def __repr__(self) -> str:
        return f"GF2m(m={self.m}, modulus=0x{self.modulus:x})"
