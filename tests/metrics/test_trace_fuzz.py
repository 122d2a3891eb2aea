"""Hypothesis fuzzing of the OutputTrace invariants.

Random transition histories must always satisfy the structural
invariants the metric estimators rely on — whatever the timing pattern.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.qos import estimate_accuracy, window_samples
from repro.metrics.transitions import (
    SUSPECT,
    TRUST,
    OutputTrace,
    TransitionKind,
)

# Random alternating-ish histories: (delta_t, output) steps; same-output
# records exercise the no-op path, zero deltas the same-instant path.
steps = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0),
        st.sampled_from([TRUST, SUSPECT]),
    ),
    min_size=0,
    max_size=60,
)


def completed_intervals(trace, opening):
    """Lengths from each ``opening``-kind transition to the next one: the
    ``T_M`` (opening S) or ``T_G`` (opening T) samples of the whole
    window, by the Fig. 4 definitions."""
    out, start = [], None
    for tr in trace.transitions:
        if tr.kind is opening:
            start = tr.time
        elif start is not None:
            out.append(tr.time - start)
            start = None
    return np.asarray(out, dtype=float)


def build(initial, step_list, tail):
    trace = OutputTrace(start_time=0.0, initial_output=initial)
    now = 0.0
    for dt, out in step_list:
        now += dt
        trace.record(now, out)
    return trace.close(now + tail)


@given(
    initial=st.sampled_from([TRUST, SUSPECT]),
    step_list=steps,
    tail=st.floats(min_value=0.0, max_value=10.0),
)
@settings(max_examples=200, deadline=None)
def test_occupancy_partitions_duration(initial, step_list, tail):
    trace = build(initial, step_list, tail)
    total = trace.time_in_output(TRUST) + trace.time_in_output(SUSPECT)
    assert total == pytest.approx(trace.duration, abs=1e-6)
    pa = trace.empirical_query_accuracy()
    assert -1e-9 <= pa <= 1 + 1e-9


@given(
    initial=st.sampled_from([TRUST, SUSPECT]),
    step_list=steps,
    tail=st.floats(min_value=0.0, max_value=10.0),
)
@settings(max_examples=200, deadline=None)
def test_transitions_strictly_alternate(initial, step_list, tail):
    trace = build(initial, step_list, tail)
    outputs = [initial] + [t.kind.new_output for t in trace.transitions]
    for a, b in zip(outputs, outputs[1:]):
        assert a != b


@given(
    initial=st.sampled_from([TRUST, SUSPECT]),
    step_list=steps,
    tail=st.floats(min_value=0.0, max_value=10.0),
)
@settings(max_examples=200, deadline=None)
def test_interval_decompositions_consistent(initial, step_list, tail):
    trace = build(initial, step_list, tail)
    s_count = trace.s_transition_times.size
    t_count = trace.transition_times(TransitionKind.T_TRANSITION).size
    # Alternation bounds the counts.
    assert abs(s_count - t_count) <= 1
    tmr, tm, tg, _ = window_samples(trace, trace.start_time)
    assert tmr.size == max(0, s_count - 1)
    assert np.all(tmr >= 0)
    assert np.all(tm >= 0)
    assert np.all(tg >= 0)
    # The recurrence intervals tile the span between the first and the
    # last S-transition exactly.
    if tmr.size:
        s_times = trace.s_transition_times
        assert tmr.sum() == pytest.approx(
            s_times[-1] - s_times[0], abs=1e-6
        )


@given(
    initial=st.sampled_from([TRUST, SUSPECT]),
    step_list=steps,
    tail=st.floats(min_value=0.0, max_value=10.0),
)
@settings(max_examples=150, deadline=None)
def test_estimator_never_crashes_and_respects_ranges(
    initial, step_list, tail
):
    trace = build(initial, step_list, tail)
    est = estimate_accuracy(trace)
    import math

    for value in (est.e_tmr, est.e_tm, est.e_tg, est.e_tfg):
        assert math.isnan(value) or value >= 0
    assert math.isnan(est.query_accuracy) or (
        -1e-9 <= est.query_accuracy <= 1 + 1e-9
    )
    assert est.n_mistakes >= 0


# Duplication/reordering-shaped histories: bursts of same-instant flaps
# (a duplicate arriving at the exact time of a suspicion, a reordered
# heartbeat immediately retracting it) interleaved with quiet stretches.
# These are the transition patterns the fault layer's duplication and
# reordering windows generate.
flap_bursts = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=50.0),  # quiet gap
        st.integers(min_value=1, max_value=6),  # flap count at one instant
        st.floats(min_value=0.0, max_value=0.2),  # burst spread
    ),
    min_size=1,
    max_size=20,
)


def build_flappy(initial, bursts, tail):
    trace = OutputTrace(start_time=0.0, initial_output=initial)
    now = 0.0
    out = initial
    for gap, flaps, spread in bursts:
        now += gap
        for i in range(flaps):
            out = SUSPECT if out == TRUST else TRUST
            # All flaps of a burst land within `spread` of each other;
            # spread 0 puts them at the same instant.
            trace.record(now + spread * i / flaps, out)
        now += spread
    return trace.close(now + tail)


@given(
    initial=st.sampled_from([TRUST, SUSPECT]),
    bursts=flap_bursts,
    tail=st.floats(min_value=0.0, max_value=10.0),
)
@settings(max_examples=200, deadline=None)
def test_flap_bursts_never_poison_the_estimator(initial, bursts, tail):
    """Same-instant suspect/trust flap bursts must yield finite,
    non-negative duration samples and a NaN-free pooled estimate."""
    import math

    from repro.metrics.qos import pool_accuracy

    trace = build_flappy(initial, bursts, tail)
    for samples in window_samples(trace, trace.start_time)[:3]:
        assert np.all(samples >= 0)
        assert np.all(np.isfinite(samples))
    est = estimate_accuracy(trace)
    # Pooling across fuzzed estimates must not launder NaNs into the
    # aggregate: every defined field of the pool is finite and in range.
    clean = build(TRUST, [(1.0, SUSPECT), (1.0, TRUST)] * 3, 5.0)
    pooled = pool_accuracy([est, estimate_accuracy(clean)])
    assert pooled.observation_time > 0
    assert np.all(pooled.tmr_samples >= 0)
    assert np.all(pooled.tm_samples >= 0)
    if pooled.tmr_samples.size:
        assert math.isfinite(pooled.e_tmr)
    if pooled.tm_samples.size:
        assert math.isfinite(pooled.e_tm)
    assert math.isnan(pooled.query_accuracy) or (
        -1e-9 <= pooled.query_accuracy <= 1 + 1e-9
    )


@given(
    initial=st.sampled_from([TRUST, SUSPECT]),
    bursts=flap_bursts,
)
@settings(max_examples=100, deadline=None)
def test_flap_bursts_preserve_alternation_and_occupancy(initial, bursts):
    trace = build_flappy(initial, bursts, 2.0)
    outputs = [initial] + [t.kind.new_output for t in trace.transitions]
    for a, b in zip(outputs, outputs[1:]):
        assert a != b
    total = trace.time_in_output(TRUST) + trace.time_in_output(SUSPECT)
    assert total == pytest.approx(trace.duration, abs=1e-6)


@given(
    initial=st.sampled_from([TRUST, SUSPECT]),
    step_list=steps,
    tail=st.floats(min_value=0.0, max_value=10.0),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_occupancy_over_an_interval_and_whole_window_samples(
    initial, step_list, tail, data
):
    trace = build(initial, step_list, tail)
    # Bounds drawn from the tie instants: transitions and trace ends.
    instants = sorted(
        {trace.start_time, trace.end_time}
        | {t.time for t in trace.transitions}
    )
    lo, hi = sorted(
        data.draw(st.lists(st.sampled_from(instants), min_size=2, max_size=2))
    )
    cuts = [lo] + [t for t in instants if lo < t < hi] + [hi]
    for output in (TRUST, SUSPECT):
        expected = 0.0
        for a, b in zip(cuts, cuts[1:]):
            if b > a and trace.output_at(a) == output:
                expected += b - a
        assert trace.time_in_output(output, lo, hi) == expected

    tmr, tm, tg, _ = window_samples(trace, trace.start_time)
    assert np.array_equal(tmr, np.diff(trace.s_transition_times))
    assert np.array_equal(
        tm, completed_intervals(trace, TransitionKind.S_TRANSITION)
    )
    assert np.array_equal(
        tg, completed_intervals(trace, TransitionKind.T_TRANSITION)
    )
    est = estimate_accuracy(trace)
    assert np.array_equal(est.tmr_samples, tmr)
    assert np.array_equal(est.tm_samples, tm)
    assert np.array_equal(est.tg_samples, tg)
