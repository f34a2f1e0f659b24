"""Tests for the Upfal-Wigderson random-graph baseline."""

import numpy as np
import pytest

from repro.schemes.upfal_wigderson import UpfalWigdersonScheme


@pytest.fixture(scope="module")
def uw():
    return UpfalWigdersonScheme(1023, 5456, c=2, seed=0)


class TestConstruction:
    def test_copies_and_quorums(self, uw):
        assert uw.copies_per_variable == 3
        assert uw.read_quorum == uw.write_quorum == 2

    def test_c1_rejected(self):
        with pytest.raises(ValueError):
            UpfalWigdersonScheme(100, 1000, c=1)

    def test_log_copies_config(self):
        s = UpfalWigdersonScheme.log_copies(1024, 10**6)
        assert s.copies_per_variable == 2 * s.c - 1
        assert s.c >= 5  # ~ log2(1024)/2


class TestPlacement:
    def test_distinct_rows(self, uw):
        pl = uw.placement(np.arange(2000))
        for row in pl[::37]:
            assert len(set(row.tolist())) == 3

    def test_seeded_reproducible(self):
        a = UpfalWigdersonScheme(256, 10**4, c=2, seed=5)
        b = UpfalWigdersonScheme(256, 10**4, c=2, seed=5)
        idx = np.arange(500)
        assert np.array_equal(a.placement(idx), b.placement(idx))

    def test_different_seeds_differ(self):
        a = UpfalWigdersonScheme(256, 10**4, c=2, seed=5)
        b = UpfalWigdersonScheme(256, 10**4, c=2, seed=6)
        idx = np.arange(500)
        assert not np.array_equal(a.placement(idx), b.placement(idx))

    def test_placement_alone_equals_full_batch_row(self):
        # the conformance instance: 19 of its 512 variables used to
        # place differently alone than in one full batch, so a write
        # and a later read in different batches missed each other
        s = UpfalWigdersonScheme(64, 512, c=2)
        full = s.placement(np.arange(s.M))
        alone = np.vstack([s.placement(np.array([v])) for v in range(s.M)])
        assert np.array_equal(alone, full)

    def test_balanced_loads(self, uw):
        pl = uw.placement(np.arange(5456))
        loads = np.bincount(pl.ravel(), minlength=uw.N)
        # random placement: no module wildly overloaded
        assert loads.max() < 12 * loads.mean()


class TestSemantics:
    def test_read_write(self, uw):
        idx = uw.random_request_set(300, seed=1)
        st = uw.make_store()
        uw.write(idx, values=idx, store=st, time=1)
        res = uw.read(idx, store=st, time=2)
        assert (res.values == idx).all()

    def test_majority_freshness(self, uw):
        # two writes; majority intersection must expose the newer value
        idx = uw.random_request_set(100, seed=2)
        st = uw.make_store()
        uw.write(idx, values=np.full(100, 1), store=st, time=1)
        uw.write(idx, values=np.full(100, 2), store=st, time=2)
        res = uw.read(idx, store=st, time=3)
        assert (res.values == 2).all()
