"""Deterministic integer mixers for seeded pseudo-random placements.

A splitmix64-style avalanche over numpy uint64 arrays: stateless,
vectorized, and reproducible across runs -- exactly what the baseline
schemes need to define a "random" copy placement as a pure function of
(seed, variable, copy).
"""

from __future__ import annotations

import numpy as np

__all__ = ["mix64", "hash_to_range", "distinct_hash_modules"]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer: a bijective avalanche on uint64."""
    x = np.asarray(x, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = x + _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _M1
        z = (z ^ (z >> np.uint64(27))) * _M2
        z = z ^ (z >> np.uint64(31))
    return z


def hash_to_range(keys: np.ndarray, n: int, seed: int = 0, salt: int = 0) -> np.ndarray:
    """Map integer keys pseudo-randomly into ``[0, n)`` (vectorized)."""
    keys = np.asarray(keys, dtype=np.uint64)
    with np.errstate(over="ignore"):
        mixed = mix64(keys ^ mix64(np.uint64(seed) + (np.uint64(salt) << np.uint64(32))))
    return (mixed % np.uint64(n)).astype(np.int64)


def distinct_hash_modules(
    indices: np.ndarray, r: int, n_modules: int, seed: int = 0
) -> np.ndarray:
    """``(V, r)`` pseudo-random module ids, distinct within each row.

    A colliding copy is re-drawn with salts ``r, r + 1, ...`` counted
    within its own row, so a variable's row depends on the variable
    alone, never on the batch it is placed in; with r << sqrt(N)
    collisions are rare.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if r > n_modules:
        raise ValueError(f"cannot place {r} distinct copies in {n_modules} modules")
    V = indices.shape[0]
    out = np.empty((V, r), dtype=np.int64)
    for j in range(r):
        out[:, j] = hash_to_range(indices, n_modules, seed=seed, salt=j)
    sorted_rows = np.sort(out, axis=1)
    bad = (sorted_rows[:, 1:] == sorted_rows[:, :-1]).any(axis=1)
    for i in np.flatnonzero(bad):
        row, key, salt = out[i], indices[i:i + 1], r
        seen: set[int] = set()
        for j in range(r):
            while int(row[j]) in seen:
                row[j] = hash_to_range(key, n_modules, seed=seed, salt=salt)[0]
                salt += 1
            seen.add(int(row[j]))
    return out
