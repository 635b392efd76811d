"""MetricsRegistry: counters, gauges, histograms, labels, absorb_meter."""

import pytest

from repro.errors import ObservabilityError
from repro.obs import MetricsRegistry, SIZE_BUCKETS
from repro.storage.costs import COUNTER_FIELDS, CostMeter


class TestCounter:
    def test_get_or_create_returns_same_series(self):
        reg = MetricsRegistry()
        c = reg.counter("hits", pool="r")
        c.inc()
        c.inc(4)
        assert reg.counter("hits", pool="r") is c
        assert c.value == 5

    def test_labels_split_series(self):
        reg = MetricsRegistry()
        reg.counter("evals", level=0).inc(7)
        reg.counter("evals", level=1).inc(3)
        assert [c.value for c in reg.series("evals")] == [7, 3]
        assert len(reg) == 2

    def test_negative_increment_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ObservabilityError, match="cannot decrease"):
            reg.counter("hits").inc(-1)


class TestGauge:
    def test_set_moves_both_ways(self):
        reg = MetricsRegistry()
        g = reg.gauge("hit_ratio")
        g.set(0.8)
        g.set(0.25)
        assert g.value == 0.25


class TestHistogram:
    def test_bucket_placement(self):
        reg = MetricsRegistry()
        h = reg.histogram("batch", buckets=(1, 10, 100))
        for value in (0.5, 1, 2, 10, 11, 1000):
            h.observe(value)
        # intervals: <=1, (1,10], (10,100], overflow
        assert h.bucket_counts == [2, 2, 1, 1]
        assert h.count == 6
        assert h.min == 0.5 and h.max == 1000
        assert h.mean == pytest.approx(sum((0.5, 1, 2, 10, 11, 1000)) / 6)

    def test_default_buckets_are_size_buckets(self):
        reg = MetricsRegistry()
        assert reg.histogram("lengths").buckets == tuple(
            float(b) for b in SIZE_BUCKETS
        )

    def test_unsorted_buckets_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ObservabilityError, match="sorted"):
            reg.histogram("bad", buckets=(5, 1))

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        h = reg.histogram("t", buckets=(1.0, 2.0))
        h.observe(1.5)
        snap = h.snapshot()
        assert set(snap) == {
            "type", "labels", "count", "sum", "mean", "min", "max", "buckets",
        }
        assert snap["type"] == "histogram"
        assert snap["buckets"] == {"le_1": 0, "le_2": 1, "overflow": 0}


class TestQuantile:
    def _hist(self):
        reg = MetricsRegistry()
        return reg.histogram("lat", buckets=(1.0, 2.0, 4.0))

    def test_empty_returns_none(self):
        assert self._hist().quantile(0.5) is None

    def test_out_of_range_rejected(self):
        with pytest.raises(ObservabilityError, match="quantile"):
            self._hist().quantile(1.5)

    def test_interpolates_within_bucket(self):
        h = self._hist()
        for _ in range(10):
            h.observe(1.5)  # all in (1, 2]
        # Rank 5 of 10, all in one bucket spanning (1, 2].
        est = h.quantile(0.5)
        assert 1.0 <= est <= 2.0

    def test_monotone_in_q(self):
        h = self._hist()
        for v in (0.5, 0.7, 1.5, 1.8, 3.0, 3.5, 9.0, 11.0):
            h.observe(v)
        qs = [h.quantile(q) for q in (0.1, 0.5, 0.9, 1.0)]
        assert qs == sorted(qs)

    def test_overflow_rank_estimates_max(self):
        h = self._hist()
        h.observe(100.0)
        assert h.quantile(0.99) == 100.0

    def test_clamped_to_observed_range(self):
        h = self._hist()
        h.observe(1.2)
        h.observe(1.4)
        assert h.quantile(0.0) >= 1.2
        assert h.quantile(1.0) <= 1.4


class TestCardinalityCap:
    def test_cap_raises_loudly(self):
        reg = MetricsRegistry(max_series_per_name=3)
        for i in range(3):
            reg.counter("ops", session=i)
        with pytest.raises(ObservabilityError, match="label-cardinality"):
            reg.counter("ops", session=99)
        # Existing series are still reachable (get, not create).
        reg.counter("ops", session=0).inc()

    def test_cap_is_per_name(self):
        reg = MetricsRegistry(max_series_per_name=2)
        reg.counter("a", k=1)
        reg.counter("a", k=2)
        reg.counter("b", k=1)  # different name, fresh budget
        with pytest.raises(ObservabilityError):
            reg.counter("a", k=3)

    def test_bad_cap_rejected(self):
        with pytest.raises(ObservabilityError, match="max_series_per_name"):
            MetricsRegistry(max_series_per_name=0)


class TestRegistry:
    def test_type_collision_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ObservabilityError, match="already registered"):
            reg.gauge("x")

    def test_absorb_meter_publishes_all_counters(self):
        reg = MetricsRegistry()
        meter = CostMeter()
        meter.record_read(3)
        meter.record_filter_eval(9)
        reg.absorb_meter(meter, strategy="tree")
        assert reg.counter("cost.page_reads", strategy="tree").value == 3
        assert reg.counter("cost.theta_filter_evals", strategy="tree").value == 9
        assert reg.gauge("cost.total", strategy="tree").value == meter.total()
        # Exhaustive: one series per declared meter counter.
        for name in COUNTER_FIELDS:
            assert reg.series(f"cost.{name}"), name

    def test_snapshot_and_render(self):
        reg = MetricsRegistry()
        reg.counter("hits", pool="r").inc(2)
        reg.gauge("ratio").set(0.5)
        reg.histogram("sizes", buckets=(1, 2)).observe(1)
        snap = reg.snapshot()
        assert set(snap) == {"hits", "ratio", "sizes"}
        assert snap["hits"][0]["value"] == 2
        text = reg.render()
        assert "hits{pool=r} = 2" in text
        assert "ratio = 0.5" in text
        assert "sizes count=1" in text
