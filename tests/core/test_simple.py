"""Tests for the common algorithm (SFD) and its cutoff variant."""

from __future__ import annotations

import math

import pytest

from repro.core.simple import SimpleFD
from repro.errors import InvalidParameterError
from repro.metrics.transitions import SUSPECT, TRUST
from repro.net.delays import ConstantDelay, ExponentialDelay
from repro.sim.runner import SimulationConfig, run_crash_runs


class TestParameters:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            SimpleFD(timeout=0.0)
        with pytest.raises(InvalidParameterError):
            SimpleFD(timeout=1.0, cutoff=0.0)

    def test_detection_bound(self):
        assert SimpleFD(timeout=2.0).detection_time_bound == math.inf
        assert SimpleFD(timeout=2.0, cutoff=0.5).detection_time_bound == 2.5


class TestTimerSemantics:
    def test_trust_then_timeout(self, scripted):
        run = scripted(SimpleFD(timeout=1.5))
        trace = run.run([(1, 1.1)], until=5.0)
        assert trace.output_at(1.1) == TRUST
        assert trace.output_at(2.59) == TRUST
        assert trace.output_at(2.6) == SUSPECT

    def test_timer_restarts_on_each_heartbeat(self, scripted):
        run = scripted(SimpleFD(timeout=1.5))
        trace = run.run([(1, 1.0), (2, 2.0), (3, 3.0)], until=6.0)
        assert trace.output_at(4.4) == TRUST  # last restart at 3.0
        assert trace.output_at(4.5) == SUSPECT

    def test_premature_timeout_depends_on_previous_heartbeat(self, scripted):
        """The Section 1.2.1 drawback, demonstrated: identical delay for
        m_2, but a *fast* m_1 causes a premature timeout on m_2 where a
        slow m_1 would not."""
        timeout = 1.0
        # Fast m_1 (delay 0.0 at t=1.0); m_2 delayed to 2.3.
        fast = scripted(SimpleFD(timeout=timeout)).run(
            [(1, 1.0), (2, 2.3)], until=3.0
        )
        # Slow m_1 (delay 0.35 at t=1.35); same m_2 arrival.
        slow = scripted(SimpleFD(timeout=timeout)).run(
            [(1, 1.35), (2, 2.3)], until=3.0
        )
        assert fast.output_at(2.1) == SUSPECT  # timer from 1.0 expired
        assert slow.output_at(2.1) == TRUST  # timer from 1.35 still live

    def test_cutoff_discards_slow_heartbeats(self, scripted):
        run = scripted(SimpleFD(timeout=1.0, cutoff=0.2))
        # m_1 delay 0.1 (accepted), m_2 delay 0.5 (discarded).
        trace = run.run([(1, 1.1, 1.0), (2, 2.5, 2.0)], until=4.0)
        assert trace.output_at(2.0) == TRUST
        assert trace.output_at(2.2) == SUSPECT  # timer from 1.1 expired
        assert trace.output_at(2.6) == SUSPECT  # m_2 was discarded


class TestDetectionTime:
    def test_cutoff_bounds_detection(self):
        config = SimulationConfig(
            eta=1.0,
            delay=ExponentialDelay(0.02),
            loss_probability=0.01,
            horizon=60.0,
            seed=17,
        )
        result = run_crash_runs(
            lambda: SimpleFD(timeout=1.84, cutoff=0.16),
            config,
            n_runs=300,
            settle_time=30.0,
        )
        assert result.max_detection_time <= 2.0 + 1e-9

    def test_no_cutoff_can_exceed_nfd_style_bound(self):
        """Without a cutoff the worst case is max-delay + TO: with a
        deterministic big delay, detection takes delay + TO."""
        config = SimulationConfig(
            eta=1.0,
            delay=ConstantDelay(0.8),
            loss_probability=0.0,
            horizon=60.0,
            seed=5,
        )
        result = run_crash_runs(
            lambda: SimpleFD(timeout=1.5),
            config,
            n_runs=50,
            settle_time=30.0,
        )
        # worst case approaches 0.8 + 1.5 = 2.3 > eta + TO = 2.0... wait
        # crash right after a send: last heartbeat sent ~1 eta earlier
        # arrives delay later; suspicion at arrival + TO.
        assert result.max_detection_time > 2.0
        assert result.max_detection_time <= 0.8 + 1.5 + 1e-9 + 1.0
