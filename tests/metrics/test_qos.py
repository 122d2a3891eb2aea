"""Tests for QoS requirements and trace-based metric estimation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import InvalidParameterError, TraceError
from repro.metrics.qos import (
    QoSRequirements,
    detection_times,
    estimate_accuracy,
)
from repro.metrics.transitions import SUSPECT, TRUST, OutputTrace


def periodic_trace(n_cycles=10, good=12.0, bad=4.0, start=0.0):
    """T for `good`, S for `bad`, repeated; starts trusting."""
    t = OutputTrace(start_time=start, initial_output=TRUST)
    now = start
    for _ in range(n_cycles):
        now += good
        t.record(now, SUSPECT)
        now += bad
        t.record(now, TRUST)
    return t.close(now)


class TestQoSRequirements:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            QoSRequirements(0.0, 100.0, 1.0)
        with pytest.raises(InvalidParameterError):
            QoSRequirements(1.0, -5.0, 1.0)
        with pytest.raises(InvalidParameterError):
            QoSRequirements(1.0, 100.0, math.inf)

    def test_derived_bounds_footnote_11(self):
        req = QoSRequirements(30.0, 2_592_000.0, 60.0)
        assert req.mistake_rate_upper == pytest.approx(1 / 2_592_000.0)
        assert req.query_accuracy_lower == pytest.approx(
            (2_592_000.0 - 60.0) / 2_592_000.0
        )
        assert req.good_period_lower == pytest.approx(2_591_940.0)
        assert req.forward_good_period_lower == pytest.approx(
            2_591_940.0 / 2.0
        )


class TestEstimateAccuracy:
    def test_periodic_trace_metrics(self):
        est = estimate_accuracy(periodic_trace(n_cycles=20))
        assert est.e_tmr == pytest.approx(16.0)
        assert est.e_tm == pytest.approx(4.0)
        assert est.e_tg == pytest.approx(12.0)
        assert est.query_accuracy == pytest.approx(0.75)
        assert est.mistake_rate == pytest.approx(20 / 320.0)
        # Deterministic cycle: V(T_G)=0, so E(T_FG)=E(T_G)/2.
        assert est.e_tfg == pytest.approx(6.0)
        assert est.n_mistakes == 20

    def test_requires_closed_trace(self):
        t = OutputTrace()
        with pytest.raises(TraceError):
            estimate_accuracy(t)

    def test_warmup_excludes_early_mistakes(self):
        est = estimate_accuracy(periodic_trace(n_cycles=20), warmup=160.0)
        assert est.n_mistakes == 10
        assert est.e_tmr == pytest.approx(16.0)
        assert est.observation_time == pytest.approx(160.0)

    def test_warmup_validation(self):
        tr = periodic_trace(n_cycles=2)
        with pytest.raises(InvalidParameterError):
            estimate_accuracy(tr, warmup=-1.0)
        with pytest.raises(InvalidParameterError):
            estimate_accuracy(tr, warmup=1e9)

    def test_no_mistakes_yields_nan(self):
        t = OutputTrace(initial_output=TRUST).close(100.0)
        est = estimate_accuracy(t)
        assert math.isnan(est.e_tmr)
        assert math.isnan(est.e_tm)
        assert est.query_accuracy == 1.0
        assert est.mistake_rate == 0.0

    def test_satisfies(self):
        est = estimate_accuracy(periodic_trace(n_cycles=20))
        good = QoSRequirements(1.0, 10.0, 5.0)
        strict = QoSRequirements(1.0, 100.0, 5.0)
        # The accuracy half of the eq. 4.1 contract.
        def satisfies(req):
            return (
                est.e_tmr >= req.mistake_recurrence_lower
                and est.e_tm <= req.mistake_duration_upper
            )

        assert satisfies(good)
        assert not satisfies(strict)

    def test_query_accuracy_with_warmup(self):
        # 0-10 suspect, 10-20 trust; warmup 10 -> P_A = 1.
        t = OutputTrace(initial_output=SUSPECT)
        t.record(10.0, TRUST)
        t.close(20.0)
        est = estimate_accuracy(t, warmup=10.0)
        assert est.query_accuracy == pytest.approx(1.0)
        est0 = estimate_accuracy(t)
        assert est0.query_accuracy == pytest.approx(0.5)


class TestDetectionTimes:
    def test_simple_detection(self):
        # Crash at 50, last S-transition at 53 and no change after.
        t = OutputTrace(initial_output=SUSPECT)
        t.record(1.0, TRUST)
        t.record(53.0, SUSPECT)
        t.close(100.0)
        td = detection_times([50.0], [t])
        assert td[0] == pytest.approx(3.0)

    def test_never_detected_is_inf(self):
        t = OutputTrace(initial_output=SUSPECT)
        t.record(1.0, TRUST)
        t.close(100.0)
        assert math.isinf(detection_times([50.0], [t])[0])

    def test_suspected_before_crash_is_zero(self):
        """The paper: if the final S-transition precedes the crash,
        T_D = 0."""
        t = OutputTrace(initial_output=SUSPECT)
        t.record(1.0, TRUST)
        t.record(40.0, SUSPECT)
        t.close(100.0)
        assert detection_times([50.0], [t])[0] == 0.0

    def test_never_trusted_at_all(self):
        t = OutputTrace(initial_output=SUSPECT).close(100.0)
        assert detection_times([50.0], [t])[0] == 0.0

    def test_length_mismatch(self):
        t = OutputTrace(initial_output=SUSPECT).close(1.0)
        with pytest.raises(InvalidParameterError):
            detection_times([1.0, 2.0], [t])

    def test_open_trace_rejected(self):
        t = OutputTrace(initial_output=SUSPECT)
        with pytest.raises(TraceError):
            detection_times([1.0], [t])
