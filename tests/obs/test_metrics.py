"""Tests for the metrics primitives and the registry."""

import json

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_inc(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="only go up"):
            Counter().inc(-1)

    def test_merge_and_reset(self):
        a, b = Counter(), Counter()
        a.inc(2)
        b.inc(3)
        a.merge(b)
        assert a.value == 5
        a.reset()
        assert a.value == 0


class TestGauge:
    def test_set_overwrites(self):
        g = Gauge()
        g.set(7)
        g.set(3)
        assert g.value == 3

    def test_update_max_is_watermark(self):
        g = Gauge()
        g.update_max(5)
        g.update_max(2)
        assert g.value == 5

    def test_merge_keeps_max(self):
        a, b = Gauge(), Gauge()
        a.set(4)
        b.set(9)
        a.merge(b)
        assert a.value == 9


class TestHistogram:
    def test_bucket_assignment(self):
        h = Histogram(buckets=(1, 2, 5))
        for v in (1, 2, 2, 3, 99):
            h.observe(v)
        snap = h.snapshot()
        assert snap["buckets"] == {"<=1": 1, "<=2": 2, "<=5": 1, "+Inf": 1}
        assert snap["count"] == 5
        assert snap["sum"] == 107
        assert snap["min"] == 1 and snap["max"] == 99

    def test_default_buckets(self):
        h = Histogram()
        assert h.buckets == DEFAULT_BUCKETS

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError, match="sorted"):
            Histogram(buckets=(5, 1))

    def test_merge(self):
        a, b = Histogram(buckets=(1, 10)), Histogram(buckets=(1, 10))
        a.observe(1)
        b.observe(8)
        b.observe(100)
        a.merge(b)
        snap = a.snapshot()
        assert snap["count"] == 3
        assert snap["buckets"] == {"<=1": 1, "<=10": 1, "+Inf": 1}
        assert snap["min"] == 1 and snap["max"] == 100

    def test_merge_rejects_mismatched_buckets(self):
        with pytest.raises(ValueError, match="buckets"):
            Histogram(buckets=(1,)).merge(Histogram(buckets=(2,)))


class TestRegistry:
    def test_get_or_create_identity(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")
        assert r.counter("a", op="x") is not r.counter("a", op="y")

    def test_label_key_is_sorted(self):
        r = MetricsRegistry()
        r.counter("a", b=1, a=2).inc()
        assert "a{a=2,b=1}" in r.snapshot()

    def test_kind_conflict_raises(self):
        r = MetricsRegistry()
        r.counter("a")
        with pytest.raises(ValueError, match="counter"):
            r.gauge("a")

    def test_snapshot_sorted_and_json(self):
        r = MetricsRegistry()
        r.counter("z").inc()
        r.gauge("a").set(1)
        r.histogram("h").observe(3)
        snap = r.snapshot()
        assert list(snap) == sorted(snap)
        parsed = json.loads(r.to_json())
        assert parsed == json.loads(json.dumps(snap))

    def test_merge_accumulates_and_adopts(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(1)
        b.counter("c").inc(2)
        b.gauge("g").set(5)
        b.histogram("h", buckets=(1, 2)).observe(2)
        a.merge(b)
        snap = a.snapshot()
        assert snap["c"]["value"] == 3
        assert snap["g"]["value"] == 5  # adopted from b
        assert snap["h"]["count"] == 1
        # b is untouched
        assert b.snapshot()["c"]["value"] == 2

    def test_merge_kind_conflict_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("m")
        b.gauge("m")
        with pytest.raises(ValueError, match="m"):
            a.merge(b)

    def test_reset_keeps_registrations(self):
        r = MetricsRegistry()
        r.counter("c").inc(9)
        r.reset()
        assert len(r) == 1
        assert r.counter("c").value == 0

    def test_numpy_values_serialize(self):
        np = pytest.importorskip("numpy")
        r = MetricsRegistry()
        r.counter("c").inc(np.int64(3))
        r.gauge("g").set(np.int32(7))
        parsed = json.loads(r.to_json())
        assert parsed["c"]["value"] == 3
        assert parsed["g"]["value"] == 7


class TestQuantileSketch:
    def test_exact_below_cap(self):
        from repro.obs.metrics import _QuantileSketch

        s = _QuantileSketch(cap=512)
        for v in range(100):
            s.observe(v)
        assert s.quantile(0.0) == 0
        assert s.quantile(0.5) == 50
        assert s.quantile(0.99) == 99
        assert s.quantile(1.0) == 99

    def test_empty_returns_none(self):
        from repro.obs.metrics import _QuantileSketch

        assert _QuantileSketch().quantile(0.5) is None

    def test_p_validated(self):
        from repro.obs.metrics import _QuantileSketch

        with pytest.raises(ValueError, match="quantile"):
            _QuantileSketch().quantile(1.5)

    def test_cap_validated(self):
        from repro.obs.metrics import _QuantileSketch

        with pytest.raises(ValueError, match="cap"):
            _QuantileSketch(cap=1)

    def test_thinning_bounds_memory_and_stays_deterministic(self):
        from repro.obs.metrics import _QuantileSketch

        a = _QuantileSketch(cap=64)
        b = _QuantileSketch(cap=64)
        for v in range(10_000):
            a.observe(v)
            b.observe(v)
        assert len(a.samples) < 64
        assert a.samples == b.samples  # no RNG anywhere (rule D2)
        assert a.n == 10_000
        # stride-uniform subsample keeps quantiles near truth
        assert abs(a.quantile(0.5) - 5_000) < 600

    def test_merge_pools_and_rethins(self):
        from repro.obs.metrics import _QuantileSketch

        a, b = _QuantileSketch(cap=16), _QuantileSketch(cap=16)
        for v in range(10):
            a.observe(v)
        for v in range(100, 140):
            b.observe(v)
        a.merge(b)
        assert a.n == 50
        assert len(a.samples) < 16
        assert a.quantile(0.99) >= 100


class TestQuantileSummaries:
    def test_histogram_snapshot_has_quantile_keys(self):
        h = Histogram()
        for v in range(1, 101):
            h.observe(v)
        snap = h.snapshot()
        assert snap["p50"] == h.quantile(0.5)
        assert snap["p50"] <= snap["p95"] <= snap["p99"] <= snap["max"]

    def test_histogram_merge_pools_quantiles(self):
        a, b = Histogram(), Histogram()
        for v in range(10):
            a.observe(v)
        for v in range(1000, 1010):
            b.observe(v)
        a.merge(b)
        assert a.quantile(0.99) >= 1000
        assert a.snapshot()["count"] == 20

    def test_histogram_reset_clears_quantiles(self):
        h = Histogram()
        h.observe(5)
        h.reset()
        assert h.quantile(0.5) is None
        assert h.snapshot()["p50"] is None

    def test_registry_roundtrip_serializes_quantiles(self):
        r = MetricsRegistry()
        h = r.histogram("h")
        for v in range(20):
            h.observe(v)
        parsed = json.loads(r.to_json())
        assert parsed["h"]["p95"] == h.quantile(0.95)
