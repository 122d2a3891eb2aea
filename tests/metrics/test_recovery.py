"""Unit tests for the crash-recovery QoS accounting (tier-1)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.nfd_s import NFDS
from repro.errors import InvalidParameterError, TraceError
from repro.metrics.qos import detection_times, estimate_accuracy
from repro.metrics.recovery import (
    IncarnationSpan,
    RecoveryTrace,
    estimate_recovery_accuracy,
    recovery_detection_times,
    span_accuracy,
    stitch_recovery_traces,
)
from repro.metrics.transitions import SUSPECT, TRUST, OutputTrace
from repro.net.delays import ConstantDelay
from repro.service.monitor_service import MonitorService
from repro.sim.engine import Simulator


def make_trace(start, steps, end, initial=SUSPECT):
    trace = OutputTrace(start_time=start, initial_output=initial)
    for t, out in steps:
        trace.record(t, out)
    return trace.close(end)


class TestIncarnationSpan:
    def test_requires_closed_trace(self):
        open_trace = OutputTrace(start_time=0.0)
        with pytest.raises(TraceError):
            IncarnationSpan(0, open_trace)

    def test_rejects_nan_crash(self):
        trace = make_trace(0.0, [(1.0, TRUST)], 5.0)
        with pytest.raises(InvalidParameterError):
            IncarnationSpan(0, trace, math.nan)

    def test_up_window(self):
        trace = make_trace(0.0, [(1.0, TRUST)], 10.0)
        span = IncarnationSpan(0, trace, crash_time=7.0)
        assert span.up_start == 0.0
        assert span.up_end == 7.0
        assert span.up_time == 7.0
        assert span.crashed

    def test_never_crashed(self):
        trace = make_trace(0.0, [(1.0, TRUST)], 10.0)
        span = IncarnationSpan(0, trace)
        assert span.up_end == 10.0
        assert not span.crashed


class TestRecoveryTrace:
    def _span(self, incarnation, start, end, crash=math.inf):
        return IncarnationSpan(
            incarnation, make_trace(start, [(start + 1.0, TRUST)], end), crash
        )

    def test_needs_spans(self):
        with pytest.raises(InvalidParameterError):
            RecoveryTrace("p", [])

    def test_incarnations_strictly_increase(self):
        with pytest.raises(InvalidParameterError):
            RecoveryTrace(
                "p", [self._span(1, 0.0, 5.0), self._span(1, 6.0, 9.0)]
            )

    def test_windows_must_not_overlap(self):
        with pytest.raises(InvalidParameterError):
            RecoveryTrace(
                "p", [self._span(0, 0.0, 5.0), self._span(1, 4.0, 9.0)]
            )

    def test_up_down_accounting(self):
        rec = RecoveryTrace(
            "p",
            [
                self._span(0, 0.0, 10.0, crash=8.0),
                self._span(1, 12.0, 20.0),
            ],
        )
        assert rec.n_restarts == 1
        assert rec.up_time == 8.0 + 8.0
        # Down: the post-crash tail [8, 10] plus the inter-span gap
        # [10, 12].
        down = (rec.end_time - rec.start_time) - rec.up_time
        assert down == pytest.approx(4.0)


    def test_split_at_incarnation(self):
        """Two identities cut at an incarnation boundary: each is a
        recovery trace of its own spans; an empty side is rejected."""
        spans = [
            self._span(0, 0.0, 5.0, crash=4.0),
            self._span(1, 6.0, 9.0, crash=8.5),
            self._span(2, 10.0, 15.0),
        ]
        head = RecoveryTrace("p", spans[:1])
        tail = RecoveryTrace("p", spans[1:])
        assert [s.incarnation for s in head.spans] == [0]
        assert [s.incarnation for s in tail.spans] == [1, 2]
        assert head.up_time + tail.up_time == RecoveryTrace("p", spans).up_time
        with pytest.raises(InvalidParameterError):
            RecoveryTrace("p", [])


class TestSpanAccuracy:
    def trace(self):
        # S --1--> T --5--> S --6--> T --9--> S, closed at 12.
        return make_trace(
            0.0,
            [(1.0, TRUST), (5.0, SUSPECT), (6.0, TRUST), (9.0, SUSPECT)],
            12.0,
        )

    def test_no_crash_delegates_bit_identically(self):
        trace = self.trace()
        baseline = estimate_accuracy(trace)
        for crash in (math.inf, 12.0, 50.0):
            est = span_accuracy(trace, crash)
            assert est.query_accuracy == baseline.query_accuracy
            assert est.e_tmr == baseline.e_tmr
            assert np.array_equal(est.tm_samples, baseline.tm_samples)
            assert np.array_equal(est.tg_samples, baseline.tg_samples)

    def test_truncation_at_crash(self):
        est = span_accuracy(self.trace(), crash_time=10.5)
        # Both S-transitions fire strictly before the crash: mistakes.
        assert est.n_mistakes == 2
        assert np.array_equal(est.tmr_samples, [4.0])
        # First mistake closed by T@6 (1.0); second still open at the
        # crash, charged only up to it (10.5 - 9 = 1.5).
        assert np.array_equal(est.tm_samples, [1.0, 1.5])
        # Good periods [1, 5] and [6, 9]; nothing open at the crash.
        assert np.array_equal(est.tg_samples, [4.0, 3.0])
        assert est.observation_time == 10.5
        assert est.query_accuracy == pytest.approx(7.0 / 10.5)

    def test_suspicion_at_crash_is_detection_not_mistake(self):
        est = span_accuracy(self.trace(), crash_time=9.0)
        # S@9 fires *at* the crash: a correct detection.
        assert est.n_mistakes == 1
        assert np.array_equal(est.tm_samples, [1.0])
        # The good period open at the crash ([6, 9)) is censored.
        assert np.array_equal(est.tg_samples, [4.0])

    def test_crash_before_warmup_yields_empty_estimate(self):
        est = span_accuracy(self.trace(), crash_time=2.0, warmup=3.0)
        assert est.observation_time == 0.0
        assert est.n_mistakes == 0
        assert math.isnan(est.query_accuracy)

    def test_warmup_applies_before_crash(self):
        est = span_accuracy(self.trace(), crash_time=10.5, warmup=5.5)
        # Only S@9 is inside [5.5, 10.5).
        assert est.n_mistakes == 1
        assert est.observation_time == 5.0


class TestDetectionTimes:
    def test_detection_after_crash(self):
        trace = make_trace(0.0, [(1.0, TRUST), (8.0, SUSPECT)], 12.0)
        rec = RecoveryTrace("p", [IncarnationSpan(0, trace, crash_time=6.5)])
        assert np.array_equal(recovery_detection_times(rec), [1.5])

    def test_already_suspecting_is_zero(self):
        trace = make_trace(0.0, [(1.0, TRUST), (5.0, SUSPECT)], 12.0)
        rec = RecoveryTrace("p", [IncarnationSpan(0, trace, crash_time=6.0)])
        assert np.array_equal(recovery_detection_times(rec), [0.0])

    def test_late_heartbeat_after_the_crash_defers_detection(self):
        """``T_D`` ends at the *final* S-transition (Section 2.2): a late
        heartbeat's T at 10.7 makes the first suspicion a transient."""
        trace = make_trace(
            0.0,
            [(1.0, TRUST), (10.5, SUSPECT), (10.7, TRUST), (11.5, SUSPECT)],
            20.0,
        )
        rec = RecoveryTrace("p", [IncarnationSpan(0, trace, crash_time=10.0)])
        assert np.array_equal(recovery_detection_times(rec), [1.5])
        assert np.array_equal(
            recovery_detection_times(rec), detection_times([10.0], [trace])
        )

    def test_undetected_crash_is_censored(self):
        trace = make_trace(0.0, [(1.0, TRUST)], 12.0)
        rec = RecoveryTrace("p", [IncarnationSpan(0, trace, crash_time=6.0)])
        assert np.array_equal(recovery_detection_times(rec), [math.inf])

    def test_uncrashed_spans_contribute_nothing(self):
        trace = make_trace(0.0, [(1.0, TRUST)], 12.0)
        rec = RecoveryTrace("p", [IncarnationSpan(0, trace)])
        assert recovery_detection_times(rec).size == 0


class TestPoolingAndStitching:
    def test_multi_span_pools_by_uptime(self):
        t0 = make_trace(
            0.0, [(1.0, TRUST), (4.0, SUSPECT), (5.0, TRUST)], 10.0
        )
        t1 = make_trace(12.0, [(13.0, TRUST), (18.0, SUSPECT)], 20.0)
        rec = RecoveryTrace(
            "p",
            [
                IncarnationSpan(0, t0, crash_time=8.0),
                IncarnationSpan(1, t1),
            ],
        )
        est = estimate_recovery_accuracy(rec)
        per_span = [
            span_accuracy(t0, 8.0),
            span_accuracy(t1),
        ]
        assert est.n_mistakes == sum(e.n_mistakes for e in per_span)
        assert est.observation_time == pytest.approx(
            sum(e.observation_time for e in per_span)
        )
        assert np.array_equal(
            est.tm_samples,
            np.concatenate([e.tm_samples for e in per_span]),
        )

    def test_stitch_groups_and_sorts(self):
        traces = {
            ("a", 1): make_trace(10.0, [(11.0, TRUST)], 20.0),
            ("a", 0): make_trace(0.0, [(1.0, TRUST)], 9.0),
            ("b", 0): make_trace(0.0, [(2.0, TRUST)], 20.0),
        }
        recs = stitch_recovery_traces(traces, {("a", 0): 8.0})
        assert set(recs) == {"a", "b"}
        assert [s.incarnation for s in recs["a"].spans] == [0, 1]
        assert recs["a"].spans[0].crash_time == 8.0
        assert recs["a"].spans[1].crash_time == math.inf
        assert recs["b"].n_restarts == 0


class TestServiceIntegration:
    def test_monitor_service_recovery_traces(self):
        sim = Simulator()
        service = MonitorService(sim, seed=5)
        service.add_process(
            "x", NFDS(1.0, 0.5), eta=1.0, delay=ConstantDelay(0.05)
        )
        service.start()
        sim.run_until(10.0)
        service.crash("x")
        sim.run_until(14.0)
        service.restart_process(
            "x", NFDS(1.0, 0.5), eta=1.0, delay=ConstantDelay(0.05)
        )
        sim.run_until(30.0)

        times = service.crash_times()
        assert times[("x", 0)] == 10.0
        assert times[("x", 1)] == math.inf

        recs = service.recovery_traces()
        rec = recs["x"]
        assert rec.n_restarts == 1
        assert [s.incarnation for s in rec.spans] == [0, 1]
        assert rec.spans[0].crash_time == 10.0
        # The real crash was detected: exactly one T_D sample, within
        # the NFD-S worst-case bound eta + delta.
        t_d = recovery_detection_times(rec)
        assert t_d.size == 1
        assert 0.0 <= t_d[0] <= 1.5 + 1e-9
        # The post-crash suspicion is a detection, not a mistake.
        est = estimate_recovery_accuracy(rec, warmup=2.0)
        assert est.n_mistakes == 0
