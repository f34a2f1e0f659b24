"""Tests for the deterministic integer mixers."""

import numpy as np
import pytest

from repro.schemes.hashing import distinct_hash_modules, hash_to_range, mix64


class TestMix64:
    def test_deterministic(self):
        x = np.arange(100, dtype=np.uint64)
        assert np.array_equal(mix64(x), mix64(x))

    def test_bijective_on_sample(self):
        x = np.arange(100000, dtype=np.uint64)
        assert np.unique(mix64(x)).size == 100000

    def test_avalanche(self):
        # flipping one input bit flips ~half the output bits
        a = mix64(np.array([12345], dtype=np.uint64))[0]
        b = mix64(np.array([12344], dtype=np.uint64))[0]
        diff = bin(int(a) ^ int(b)).count("1")
        assert 16 <= diff <= 48


class TestHashToRange:
    def test_range(self):
        keys = np.arange(10000)
        vals = hash_to_range(keys, 97, seed=1)
        assert vals.min() >= 0 and vals.max() < 97

    def test_seed_changes_mapping(self):
        keys = np.arange(1000)
        a = hash_to_range(keys, 256, seed=0)
        b = hash_to_range(keys, 256, seed=1)
        assert (a != b).mean() > 0.9

    def test_roughly_uniform(self):
        vals = hash_to_range(np.arange(100000), 10, seed=2)
        counts = np.bincount(vals, minlength=10)
        assert counts.min() > 8000 and counts.max() < 12000


class TestDistinctHashModules:
    def test_shape_and_distinct(self):
        out = distinct_hash_modules(np.arange(5000), 3, 1023, seed=0)
        assert out.shape == (5000, 3)
        srt = np.sort(out, axis=1)
        assert not (srt[:, 1:] == srt[:, :-1]).any()

    def test_distinct_under_pressure(self):
        # small module count forces collisions that must be repaired
        out = distinct_hash_modules(np.arange(2000), 4, 8, seed=1)
        for row in out:
            assert len(set(row.tolist())) == 4

    def test_too_many_copies(self):
        with pytest.raises(ValueError):
            distinct_hash_modules(np.arange(4), 5, 3)

    def test_deterministic(self):
        a = distinct_hash_modules(np.arange(100), 3, 64, seed=9)
        b = distinct_hash_modules(np.arange(100), 3, 64, seed=9)
        assert np.array_equal(a, b)

    def test_row_independent_of_batch(self):
        # a variable's copies must not move with the other variables of
        # its batch, or a read misses the copies its write placed
        idx = np.arange(2000)
        full = distinct_hash_modules(idx, 4, 8, seed=1)
        for v in (0, 7, 311, 1999):
            alone = distinct_hash_modules(idx[v:v + 1], 4, 8, seed=1)
            assert np.array_equal(alone[0], full[v])
        assert np.array_equal(
            distinct_hash_modules(idx[::-1], 4, 8, seed=1), full[::-1]
        )
