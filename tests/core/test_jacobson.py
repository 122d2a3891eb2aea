"""Tests for the Jacobson/RTO-style baseline detector."""

from __future__ import annotations

import pytest

from repro.core.jacobson import JacobsonFD
from repro.errors import InvalidParameterError
from repro.metrics.transitions import SUSPECT, TRUST
from repro.net.delays import ConstantDelay, ExponentialDelay
from repro.sim.runner import SimulationConfig, run_crash_runs, run_failure_free


class TestParameters:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            JacobsonFD(k=0.0)
        with pytest.raises(InvalidParameterError):
            JacobsonFD(alpha=0.0)
        with pytest.raises(InvalidParameterError):
            JacobsonFD(beta=1.5)
        with pytest.raises(InvalidParameterError):
            JacobsonFD(min_margin=0.0)


class TestEstimation:
    def test_ewma_tracking(self, scripted):
        det = JacobsonFD(bootstrap_interval=1.0)
        run = scripted(det)
        run.host.start()
        for i in range(1, 50):
            run.deliver_at(i, float(i))
        run.sim.run_until(49.0)
        # regular stream: timeout collapses to srtt + k·min_margin
        assert det.current_timeout() == pytest.approx(1.0 + 4e-4, rel=1e-3)

    def test_deviation_grows_with_jitter(self, scripted):
        det = JacobsonFD(bootstrap_interval=1.0)
        run = scripted(det)
        run.host.start()
        times = [1.0, 2.4, 2.9, 4.5, 5.0, 6.6]
        for i, t in enumerate(times, start=1):
            run.deliver_at(i, t)
        run.sim.run_until(7.0)
        # srtt ≈ 1.27, rttvar ≈ 0.61: far above a regular stream's 1.0004
        assert det.current_timeout() > 3.0

    def test_karns_rule_skips_reordered(self, scripted):
        det = JacobsonFD(bootstrap_interval=1.0)
        run = scripted(det)
        run.host.start()
        run.deliver_at(2, 2.0)
        run.deliver_at(1, 2.5)  # reordered: must not poison the EWMA
        run.sim.run_until(3.0)
        # only one effective arrival: still the bootstrap timeout
        assert det.current_timeout() == pytest.approx(1.0 + 4 * 0.5)


class TestOutput:
    def test_trust_then_adaptive_timeout(self, scripted):
        det = JacobsonFD(k=2.0, bootstrap_interval=1.0)
        run = scripted(det)
        msgs = [(i, float(i)) for i in range(1, 6)]
        trace = run.run(msgs, until=20.0)
        assert trace.output_at(5.0) == TRUST
        assert trace.output_at(19.0) == SUSPECT

    def test_no_mistakes_on_steady_stream(self):
        config = SimulationConfig(
            eta=1.0,
            delay=ConstantDelay(0.05),
            loss_probability=0.0,
            horizon=500.0,
            warmup=10.0,
            seed=4,
        )
        res = run_failure_free(
            lambda: JacobsonFD(bootstrap_interval=1.0), config
        )
        assert res.accuracy.n_mistakes == 0

    def test_adapts_timeout_to_jittery_network(self):
        """On a jittery link the adaptive timeout widens, keeping the
        mistake rate far below a fixed timeout of the same base value."""
        config = SimulationConfig(
            eta=1.0,
            delay=ExponentialDelay(0.3),
            loss_probability=0.0,
            horizon=5_000.0,
            warmup=50.0,
            seed=5,
        )
        from repro.core.simple import SimpleFD

        adaptive = run_failure_free(
            lambda: JacobsonFD(bootstrap_interval=1.0), config
        )
        fixed = run_failure_free(lambda: SimpleFD(timeout=1.05), config)
        assert adaptive.accuracy.n_mistakes < fixed.accuracy.n_mistakes / 3

    def test_detects_crash(self):
        config = SimulationConfig(
            eta=1.0,
            delay=ConstantDelay(0.05),
            loss_probability=0.0,
            horizon=60.0,
            seed=6,
        )
        res = run_crash_runs(
            lambda: JacobsonFD(bootstrap_interval=1.0),
            config,
            n_runs=30,
            settle_time=30.0,
        )
        assert res.max_detection_time < 5.0  # detected, if unbounded in theory
