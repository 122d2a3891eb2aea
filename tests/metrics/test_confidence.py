"""Tests for confidence-interval helpers."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.metrics.confidence import mean_ci


class TestMeanCI:
    def test_point_is_sample_mean(self, rng):
        s = rng.normal(10.0, 2.0, 500)
        ci = mean_ci(s)
        assert ci.point == pytest.approx(s.mean())
        assert ci.low < ci.point < ci.high

    def test_single_sample_infinite_interval(self):
        ci = mean_ci(np.array([3.0]))
        assert ci.point == 3.0
        assert math.isinf(ci.low) and math.isinf(ci.high)

    def test_constant_samples_zero_width(self):
        ci = mean_ci(np.full(10, 7.0))
        assert ci.low == ci.high == 7.0
        assert ci.half_width == 0.0

    def test_coverage_approximately_nominal(self, rng):
        """~95% of 95% CIs should contain the true mean."""
        hits = 0
        trials = 400
        for _ in range(trials):
            s = rng.exponential(5.0, 40)
            if mean_ci(s, 0.95).contains(5.0):
                hits += 1
        assert hits / trials == pytest.approx(0.95, abs=0.05)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            mean_ci(np.array([]), 0.95)
        with pytest.raises(InvalidParameterError):
            mean_ci(np.array([1.0]), 1.5)

    def test_wider_level_wider_interval(self, rng):
        s = rng.normal(0.0, 1.0, 100)
        narrow = mean_ci(s, 0.80)
        wide = mean_ci(s, 0.99)
        assert wide.half_width > narrow.half_width

    def test_contains(self):
        ci = mean_ci(np.array([1.0, 2.0, 3.0]))
        assert ci.contains(2.0)
        assert not ci.contains(100.0)

