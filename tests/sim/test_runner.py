"""Tests for the end-to-end DES runner."""

from __future__ import annotations

import math

import pytest

from repro.core.nfd_s import NFDS
from repro.errors import InvalidParameterError
from repro.net.delays import ConstantDelay, ExponentialDelay
from repro.sim.runner import SimulationConfig, run_crash_runs, run_failure_free


class TestSimulationConfig:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            SimulationConfig(eta=0.0, delay=ConstantDelay(0.1))
        with pytest.raises(InvalidParameterError):
            SimulationConfig(eta=1.0, delay=ConstantDelay(0.1), horizon=0.0)
        with pytest.raises(InvalidParameterError):
            SimulationConfig(
                eta=1.0, delay=ConstantDelay(0.1), horizon=10.0, warmup=10.0
            )


class TestFailureFree:
    def test_deterministic_run_has_no_mistakes(self):
        config = SimulationConfig(
            eta=1.0,
            delay=ConstantDelay(0.1),
            horizon=100.0,
            warmup=5.0,
            seed=0,
        )
        res = run_failure_free(lambda: NFDS(eta=1.0, delta=0.5), config)
        assert res.accuracy.n_mistakes == 0
        # At most one heartbeat may still be in flight at the horizon.
        assert res.heartbeats_sent - res.heartbeats_delivered <= 1
        assert res.empirical_loss_rate <= 1.5 / res.heartbeats_sent

    def test_seed_reproducibility(self):
        config = SimulationConfig(
            eta=1.0,
            delay=ExponentialDelay(0.3),
            loss_probability=0.1,
            horizon=500.0,
            warmup=5.0,
            seed=42,
        )
        a = run_failure_free(lambda: NFDS(eta=1.0, delta=0.5), config)
        b = run_failure_free(lambda: NFDS(eta=1.0, delta=0.5), config)
        assert a.accuracy.n_mistakes == b.accuracy.n_mistakes
        assert a.accuracy.query_accuracy == b.accuracy.query_accuracy

    def test_run_index_changes_stream(self):
        config = SimulationConfig(
            eta=1.0,
            delay=ExponentialDelay(0.3),
            loss_probability=0.1,
            horizon=500.0,
            seed=42,
        )
        a = run_failure_free(lambda: NFDS(eta=1.0, delta=0.5), config, 0)
        b = run_failure_free(lambda: NFDS(eta=1.0, delta=0.5), config, 1)
        assert len(a.trace.transitions) != len(b.trace.transitions) or (
            a.accuracy.query_accuracy != b.accuracy.query_accuracy
        )

    def test_loss_rate_observed(self):
        config = SimulationConfig(
            eta=1.0,
            delay=ConstantDelay(0.05),
            loss_probability=0.2,
            horizon=5000.0,
            seed=7,
        )
        res = run_failure_free(lambda: NFDS(eta=1.0, delta=0.5), config)
        assert res.empirical_loss_rate == pytest.approx(0.2, abs=0.02)


class TestCrashRuns:
    def test_detection_times_bounded_for_nfds(self):
        config = SimulationConfig(
            eta=1.0,
            delay=ExponentialDelay(0.05),
            loss_probability=0.05,
            horizon=50.0,
            seed=3,
        )
        res = run_crash_runs(
            lambda: NFDS(eta=1.0, delta=1.0),
            config,
            n_runs=100,
            settle_time=20.0,
        )
        assert res.detection_times.shape == (100,)
        assert res.max_detection_time <= 2.0 + 1e-9
        assert res.mean_detection_time > 0.0

    def test_keep_traces(self):
        config = SimulationConfig(
            eta=1.0, delay=ConstantDelay(0.05), horizon=20.0, seed=3
        )
        res = run_crash_runs(
            lambda: NFDS(eta=1.0, delta=0.5),
            config,
            n_runs=5,
            settle_time=10.0,
            keep_traces=True,
        )
        assert len(res.traces) == 5
        for trace in res.traces:
            assert trace.closed

    def test_crash_window_validation(self):
        config = SimulationConfig(
            eta=1.0, delay=ConstantDelay(0.05), horizon=20.0
        )
        with pytest.raises(InvalidParameterError):
            run_crash_runs(
                lambda: NFDS(eta=1.0, delta=0.5),
                config,
                n_runs=1,
                crash_window=(-1.0, 2.0),
            )
        with pytest.raises(InvalidParameterError):
            run_crash_runs(
                lambda: NFDS(eta=1.0, delta=0.5), config, n_runs=0
            )
