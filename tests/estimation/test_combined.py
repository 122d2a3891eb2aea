"""Tests for the short/long-term combined estimator (Section 8.1.2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.base import Heartbeat
from repro.errors import EstimationError, InvalidParameterError
from repro.estimation.combined import ShortLongCombiner
from repro.estimation.delay_stats import WindowedDelayStats


def hb(seq, delay, eta=1.0):
    return Heartbeat(
        seq=seq, send_local_time=seq * eta, receive_local_time=seq * eta + delay
    )


class TestShortLongCombiner:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            ShortLongCombiner(short_window=100, long_window=100)

    def test_not_ready_early(self):
        c = ShortLongCombiner(short_window=5, long_window=50)
        c.observe(hb(1, 0.1))
        assert not c.ready
        with pytest.raises(EstimationError):
            c.snapshot()

    def test_steady_state_components_agree(self, rng):
        c = ShortLongCombiner(short_window=10, long_window=200)
        for s in range(1, 1001):
            c.observe(hb(s, float(rng.exponential(0.05))))
        snap = c.snapshot()
        assert snap.mean_delay == pytest.approx(0.05, rel=0.8)

    def test_burst_detected_by_short_component(self, rng):
        """A sudden burst dominates the combined (conservative) estimate
        long before the long window would notice."""
        c = ShortLongCombiner(short_window=10, long_window=1000)
        for s in range(1, 1001):
            c.observe(hb(s, float(rng.exponential(0.02))))
        calm = c.snapshot()
        for s in range(1001, 1016):  # 15 bursty heartbeats
            c.observe(hb(s, float(rng.exponential(1.0))))
        burst = c.snapshot()
        assert burst.mean_delay > calm.mean_delay * 5
        assert burst.short_dominates

    def test_conservative_is_max(self, rng):
        c = ShortLongCombiner(short_window=5, long_window=50)
        short, long = WindowedDelayStats(window=5), WindowedDelayStats(window=50)
        for s in range(1, 101):
            delay = float(rng.exponential(0.1))
            c.observe(hb(s, delay))
            short.observe(delay)
            long.observe(delay)
        snap = c.snapshot()
        assert snap.mean_delay == pytest.approx(max(short.mean(), long.mean()))
        assert snap.var_delay == pytest.approx(
            max(short.variance(), long.variance())
        )
