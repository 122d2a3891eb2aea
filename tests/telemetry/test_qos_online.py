"""Online QoS estimators must agree with the trace-based estimators.

The acceptance bar for the telemetry layer: on any closed trace the
O(1)-memory online estimator reproduces every number
:func:`repro.metrics.qos.estimate_accuracy` computes, to 1e-9 relative
tolerance, including the warmup filtering semantics.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.nfd_e import NFDE
from repro.core.nfd_s import NFDS
from repro.core.nfd_u import NFDU
from repro.errors import InvalidParameterError, TraceError
from repro.metrics.qos import estimate_accuracy
from repro.net.delays import ExponentialDelay
from repro.net.link import LossyLink
from repro.sim.engine import Simulator
from repro.sim.heartbeat import HeartbeatSender
from repro.sim.monitor import DetectorHost
from repro.sim.runner import SimulationConfig, run_failure_free
from repro.telemetry.qos_online import OnlineQoSEstimator

RTOL = 1e-9

METRIC_NAMES = (
    "e_tmr",
    "e_tm",
    "e_tg",
    "query_accuracy",
    "mistake_rate",
    "e_tfg",
)


def assert_close(online_value, trace_value, name):
    if isinstance(trace_value, float) and math.isnan(trace_value):
        assert math.isnan(online_value), f"{name}: expected NaN"
        return
    assert online_value == pytest.approx(trace_value, rel=RTOL, abs=1e-12), (
        name
    )


DELAY = ExponentialDelay(0.3)

DETECTORS = {
    "nfds": lambda: NFDS(eta=1.0, delta=0.5),
    "nfdu": lambda: NFDU(
        eta=1.0, alpha=0.5, expected_arrival=lambda seq: seq * 1.0 + 0.3
    ),
    "nfde": lambda: NFDE(eta=1.0, alpha=0.3, window=16),
}


def replay(trace, warmup=0.0):
    """A closed trace's transitions, observed event by event by a fresh
    estimator."""
    est = OnlineQoSEstimator(
        start_time=trace.start_time,
        initial_output=trace.initial_output,
        warmup=warmup,
    )
    for tr in trace.transitions:
        est.observe(tr.time, tr.kind.new_output)
    return est.close(trace.end_time)


def traces_for(kind: str, seeds=(0, 1, 2), horizon=400.0):
    config = SimulationConfig(
        eta=1.0,
        delay=DELAY,
        loss_probability=0.2,
        horizon=horizon,
        seed=17,
    )
    return [
        run_failure_free(DETECTORS[kind], config, run_index=seed).trace
        for seed in seeds
    ]


class TestTraceEquivalence:
    @pytest.mark.parametrize("kind", sorted(DETECTORS))
    @pytest.mark.parametrize("warmup", [0.0, 7.3])
    def test_matches_estimate_accuracy(self, kind, warmup):
        for trace in traces_for(kind):
            expected = estimate_accuracy(trace, warmup=warmup)
            online = replay(trace, warmup=warmup)
            for name in METRIC_NAMES:
                assert_close(
                    getattr(online, name), getattr(expected, name), name
                )
            assert online.n_mistakes == expected.n_mistakes
            assert online.observation_time == pytest.approx(
                expected.observation_time, rel=RTOL
            )

    def test_incremental_equals_replay(self):
        """The estimator a host feeds live, transition by transition
        during the run, ends in the same state as a replay of the
        finished trace."""
        sim = Simulator()
        host = DetectorHost(sim, NFDS(1.0, 0.5), warmup=5.0)
        link = LossyLink(DELAY, 0.2, np.random.default_rng(3))
        HeartbeatSender(sim, link, eta=1.0, deliver=host.deliver).start()
        host.start()
        sim.run_until(400.0)
        trace = host.finish()
        assert trace.s_transition_times.size > 10
        assert host.estimator.metrics() == replay(trace, warmup=5.0).metrics()

    def test_warmup_drops_early_samples(self):
        est = OnlineQoSEstimator(start_time=0.0, warmup=10.0)
        est.observe(1.0, "T")
        est.observe(2.0, "S")  # pre-horizon mistake: excluded
        est.observe(3.0, "T")
        est.observe(12.0, "S")  # post-horizon
        est.observe(13.0, "T")
        est.close(20.0)
        assert est.n_mistakes == 1
        assert math.isnan(est.e_tmr)  # needs two retained S-transitions
        assert est.e_tm == pytest.approx(1.0)
        # Trusted time clipped to [10, 20]: [10,12] and [13,20].
        assert est.query_accuracy == pytest.approx(9.0 / 10.0)


class TestStreamDiscipline:
    def test_duplicate_output_is_not_a_transition(self):
        est = OnlineQoSEstimator()
        assert est.observe(1.0, "T") is True
        assert est.observe(2.0, "T") is False
        assert est.n_mistakes == 0

    def test_non_monotone_time_rejected(self):
        est = OnlineQoSEstimator()
        est.observe(5.0, "T")
        with pytest.raises(TraceError):
            est.observe(4.0, "S")

    def test_observe_after_close_rejected(self):
        est = OnlineQoSEstimator()
        est.close(1.0)
        with pytest.raises(TraceError):
            est.observe(2.0, "T")

    def test_bad_output_rejected(self):
        with pytest.raises(TraceError):
            OnlineQoSEstimator().observe(1.0, "X")

    def test_bad_initial_output_rejected(self):
        with pytest.raises(InvalidParameterError):
            OnlineQoSEstimator(initial_output="?")

