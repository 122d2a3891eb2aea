"""Tests for the metric primitives and the registry."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    P2Quantile,
    Welford,
    metric_key,
)


class TestCounter:
    def test_inc_accumulates(self):
        c = Counter("x")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_decrease_rejected(self):
        c = Counter("x")
        with pytest.raises(InvalidParameterError):
            c.inc(-1.0)


class TestGauge:
    def test_tracks_extremes(self):
        g = Gauge("depth")
        g.set(3.0)
        g.set(10.0)
        g.set(1.0)
        assert g.value == 1.0
        assert g.min == 1.0
        assert g.max == 10.0

    def test_nan_extremes_before_first_write(self):
        g = Gauge("depth")
        assert math.isnan(g.min)
        assert math.isnan(g.max)

    def test_inc_dec(self):
        g = Gauge("n")
        g.inc(4.0)
        g.inc(-1.0)
        assert g.value == 3.0


class TestWelford:
    def test_matches_numpy_moments(self):
        rng = np.random.default_rng(5)
        xs = rng.exponential(2.0, size=1000)
        w = Welford()
        for x in xs:
            w.push(float(x))
        assert w.n == xs.size
        assert w.mean == pytest.approx(float(xs.mean()), rel=1e-12)
        # Population variance (ddof=0), matching numpy's default — the
        # convention the E(T_FG) identity uses.
        assert w.variance == pytest.approx(float(xs.var()), rel=1e-10)
        assert w.min == float(xs.min())
        assert w.max == float(xs.max())

    def test_merge_equals_single_stream(self):
        rng = np.random.default_rng(6)
        xs = rng.normal(0.0, 1.0, size=500)
        whole = Welford()
        for x in xs:
            whole.push(float(x))
        left, right = Welford(), Welford()
        for x in xs[:123]:
            left.push(float(x))
        for x in xs[123:]:
            right.push(float(x))
        left.merge(right)
        assert left.n == whole.n
        assert left.mean == pytest.approx(whole.mean, rel=1e-12)
        assert left.variance == pytest.approx(whole.variance, rel=1e-10)

    def test_merge_into_empty(self):
        a, b = Welford(), Welford()
        b.push(2.0)
        b.push(4.0)
        a.merge(b)
        assert a.n == 2
        assert a.mean == 3.0


class TestP2Quantile:
    def test_exact_until_five_samples(self):
        q = P2Quantile(0.5)
        for x in (5.0, 1.0, 3.0):
            q.add(x)
        assert q.value == 3.0

    def test_nan_before_first(self):
        assert math.isnan(P2Quantile(0.9).value)

    def test_invalid_p_rejected(self):
        with pytest.raises(InvalidParameterError):
            P2Quantile(1.0)

    @pytest.mark.parametrize("p", [0.5, 0.9, 0.99])
    def test_tracks_numpy_percentile(self, p):
        rng = np.random.default_rng(42)
        xs = rng.exponential(1.0, size=20_000)
        sketch = P2Quantile(p)
        for x in xs:
            sketch.add(float(x))
        exact = float(np.quantile(xs, p))
        # P² is an approximation; the error bound is loose but the
        # estimate must land in the right neighbourhood.
        assert sketch.value == pytest.approx(exact, rel=0.08)


class TestHistogram:
    def test_snapshot_fields(self):
        h = Histogram("lat")
        for x in (1.0, 2.0, 3.0, 4.0):
            h.observe(x)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == 10.0
        assert snap["mean"] == 2.5
        assert snap["min"] == 1.0
        assert snap["max"] == 4.0
        assert set(snap) >= {"p50", "p90", "p99", "var"}

    def test_quantile_accessor(self):
        h = Histogram("lat", quantiles=(0.5,))
        for x in range(1, 6):
            h.observe(float(x))
        assert h.quantile(0.5) == 3.0


class TestRegistry:
    def test_idempotent_creation(self):
        reg = MetricsRegistry()
        a = reg.counter("events_total")
        b = reg.counter("events_total")
        assert a is b
        assert len(reg) == 1

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(InvalidParameterError):
            reg.gauge("x")

    def test_labels_key_is_order_insensitive(self):
        assert metric_key("m", {"b": "2", "a": "1"}) == 'm{a="1",b="2"}'
        reg = MetricsRegistry()
        a = reg.counter("m", labels={"b": "2", "a": "1"})
        b = reg.counter("m", labels={"a": "1", "b": "2"})
        assert a is b

    def test_snapshot_groups_by_kind(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(2.0)
        reg.histogram("h").observe(1.0)
        snap = reg.snapshot()
        assert snap["counters"]["c"]["value"] == 1.0
        assert snap["gauges"]["g"]["value"] == 2.0
        assert snap["histograms"]["h"]["count"] == 1

    def test_get_returns_none_for_unknown(self):
        assert MetricsRegistry().get("nope") is None
