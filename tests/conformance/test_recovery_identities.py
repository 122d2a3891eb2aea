"""Conformance of crash-recovery metrics with the crash-stop metrics.

Two identities tie :mod:`repro.metrics.recovery` to the paper's
crash-stop estimators:

1. **Zero-restart bit-identity** — on any churn-free schedule (one
   incarnation, no real crash) every recovery-aware metric equals
   :func:`repro.metrics.qos.estimate_accuracy` *bit for bit*, sample
   arrays included.  Property-tested over random transition schedules.
2. **Split invariance** — pooled accuracy is invariant to splitting a
   recovery trace at an incarnation boundary: no mistake-recurrence
   interval ever spans real downtime, so the split loses no samples
   (sample arrays concatenate exactly; the time-weighted scalars agree
   to float-associativity precision).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.qos import estimate_accuracy, pool_accuracy
from repro.metrics.recovery import (
    IncarnationSpan,
    RecoveryTrace,
    estimate_recovery_accuracy,
    span_accuracy,
)
from repro.metrics.transitions import SUSPECT, TRUST, OutputTrace

# Random alternating-ish schedules: (delta_t, output) steps.  Zero
# deltas exercise same-instant records, repeated outputs the no-op path.
steps = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=50.0),
        st.sampled_from([TRUST, SUSPECT]),
    ),
    min_size=0,
    max_size=40,
)


def build_trace(start, initial, step_list, tail):
    trace = OutputTrace(start_time=start, initial_output=initial)
    now = start
    for dt, out in step_list:
        now += dt
        trace.record(now, out)
    return trace.close(now + tail)


def identical(a: float, b: float) -> bool:
    """Bit-level equality with NaN == NaN."""
    return a == b or (math.isnan(a) and math.isnan(b))


def assert_bit_identical(est, baseline):
    for field in (
        "e_tmr",
        "e_tm",
        "e_tg",
        "query_accuracy",
        "mistake_rate",
        "e_tfg",
        "observation_time",
    ):
        assert identical(getattr(est, field), getattr(baseline, field)), field
    assert est.n_mistakes == baseline.n_mistakes
    for field in ("tmr_samples", "tm_samples", "tg_samples"):
        assert np.array_equal(getattr(est, field), getattr(baseline, field)), (
            field
        )


class TestZeroRestartBitIdentity:
    @given(
        initial=st.sampled_from([TRUST, SUSPECT]),
        step_list=steps,
        tail=st.floats(min_value=0.0, max_value=10.0),
        warmup=st.floats(min_value=0.0, max_value=20.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_span_accuracy_equals_crash_stop(
        self, initial, step_list, tail, warmup
    ):
        trace = build_trace(0.0, initial, step_list, tail)
        warmup = min(warmup, trace.duration)  # estimator rejects overshoot
        baseline = estimate_accuracy(trace, warmup=warmup)
        for crash in (math.inf, trace.end_time, trace.end_time + 5.0):
            assert_bit_identical(
                span_accuracy(trace, crash, warmup=warmup), baseline
            )

    @given(
        initial=st.sampled_from([TRUST, SUSPECT]),
        step_list=steps,
        tail=st.floats(min_value=0.0, max_value=10.0),
        warmup=st.floats(min_value=0.0, max_value=20.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_single_span_recovery_equals_crash_stop(
        self, initial, step_list, tail, warmup
    ):
        trace = build_trace(0.0, initial, step_list, tail)
        warmup = min(warmup, trace.duration)  # estimator rejects overshoot
        rec = RecoveryTrace("p", [IncarnationSpan(0, trace)])
        assert_bit_identical(
            estimate_recovery_accuracy(rec, warmup=warmup),
            estimate_accuracy(trace, warmup=warmup),
        )


# Multi-incarnation schedules: per span a schedule plus a gap to the
# next incarnation and whether/when this incarnation really crashed.
span_specs = st.lists(
    st.tuples(
        st.sampled_from([TRUST, SUSPECT]),  # initial output
        steps,  # transitions
        st.floats(min_value=0.1, max_value=10.0),  # tail after last record
        st.floats(min_value=0.0, max_value=1.0),  # crash position in [0,1]
        st.booleans(),  # whether the span crashes inside its window
        st.floats(min_value=0.0, max_value=20.0),  # gap to next span
    ),
    min_size=2,
    max_size=5,
)


def build_recovery(span_list):
    spans = []
    now = 0.0
    for k, (initial, step_list, tail, pos, crashes, gap) in enumerate(
        span_list
    ):
        trace = build_trace(now, initial, step_list, tail)
        crash = math.inf
        if crashes:
            crash = trace.start_time + pos * trace.duration
        spans.append(IncarnationSpan(k, trace, crash))
        now = trace.end_time + gap
    return RecoveryTrace("p", spans)


class TestSplitInvariance:
    @given(span_list=span_specs, split=st.integers(min_value=1, max_value=4))
    @settings(max_examples=150, deadline=None)
    def test_pooled_accuracy_invariant_to_incarnation_split(
        self, span_list, split
    ):
        rec = build_recovery(span_list)
        if split >= len(rec.spans):
            split = len(rec.spans) - 1
        whole = estimate_recovery_accuracy(rec)
        # Two identities split at an incarnation boundary.
        head = RecoveryTrace("p", rec.spans[:split])
        tail = RecoveryTrace("p", rec.spans[split:])
        parts = pool_accuracy(
            [estimate_recovery_accuracy(head), estimate_recovery_accuracy(tail)]
        )
        # Counted quantities and sample arrays are exact: the split at a
        # real incarnation boundary never cuts an interval.
        assert whole.n_mistakes == parts.n_mistakes
        for field in ("tmr_samples", "tm_samples", "tg_samples"):
            assert np.array_equal(
                getattr(whole, field), getattr(parts, field)
            ), field
        # Time-weighted scalars agree to float-associativity precision.
        assert whole.observation_time == pytest.approx(
            parts.observation_time, rel=1e-12, abs=1e-12
        )
        if not math.isnan(whole.query_accuracy):
            assert whole.query_accuracy == pytest.approx(
                parts.query_accuracy, rel=1e-9, abs=1e-12
            )
        if not math.isnan(whole.mistake_rate):
            assert whole.mistake_rate == pytest.approx(
                parts.mistake_rate, rel=1e-9, abs=1e-12
            )

    @given(span_list=span_specs)
    @settings(max_examples=100, deadline=None)
    def test_uptime_partition(self, span_list):
        rec = build_recovery(span_list)
        # Up time is the crash-free part of the spans: never negative,
        # never more than the window (gaps and post-crash tails are down).
        assert rec.up_time >= 0.0
        assert rec.up_time <= rec.end_time - rec.start_time + 1e-9
