"""Tests for output traces — including the paper's Fig. 2/Fig. 3 examples
and the Fig. 4 interval decompositions :func:`window_samples` takes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TraceError
from repro.metrics.qos import window_samples
from repro.metrics.transitions import (
    SUSPECT,
    TRUST,
    OutputTrace,
    TransitionKind,
)


def make_trace(pairs, end, initial=SUSPECT, start=0.0):
    """A closed trace from ``(time, output)`` pairs."""
    trace = OutputTrace(start_time=start, initial_output=initial)
    for time, output in pairs:
        trace.record(time, output)
    return trace.close(end)


def samples(trace):
    """``(T_MR, T_M, T_G)`` samples of the whole trace window."""
    tmr, tm, tg, _ = window_samples(trace, trace.start_time)
    return tmr, tm, tg


class TestConstruction:
    def test_initial_output_validated(self):
        with pytest.raises(TraceError):
            OutputTrace(initial_output="X")

    def test_record_rejects_bad_output(self):
        t = OutputTrace()
        with pytest.raises(TraceError):
            t.record(1.0, "maybe")

    def test_record_rejects_time_travel(self):
        t = OutputTrace()
        t.record(5.0, TRUST)
        with pytest.raises(TraceError):
            t.record(4.0, SUSPECT)

    def test_record_before_start_rejected(self):
        t = OutputTrace(start_time=10.0)
        with pytest.raises(TraceError):
            t.record(5.0, TRUST)

    def test_same_output_is_not_a_transition(self):
        t = OutputTrace(initial_output=SUSPECT)
        assert t.record(1.0, SUSPECT) is False
        assert t.record(2.0, TRUST) is True
        assert t.record(3.0, TRUST) is False
        assert len(t.transitions) == 1

    def test_close_before_last_transition_rejected(self):
        t = OutputTrace()
        t.record(5.0, TRUST)
        with pytest.raises(TraceError):
            t.close(4.0)

    def test_record_after_close_rejected(self):
        t = OutputTrace()
        t.close(10.0)
        with pytest.raises(TraceError):
            t.record(11.0, TRUST)

    def test_end_time_requires_close(self):
        t = OutputTrace()
        with pytest.raises(TraceError):
            _ = t.end_time
        assert not t.closed


class TestQueries:
    def test_output_at_right_continuous(self):
        t = make_trace([(2.0, TRUST), (5.0, SUSPECT)], end=10.0)
        assert t.output_at(0.0) == SUSPECT
        assert t.output_at(1.999) == SUSPECT
        assert t.output_at(2.0) == TRUST  # new value AT the transition
        assert t.output_at(4.999) == TRUST
        assert t.output_at(5.0) == SUSPECT
        assert t.output_at(10.0) == SUSPECT

    def test_output_at_outside_window_rejected(self):
        t = make_trace([(2.0, TRUST)], end=10.0)
        with pytest.raises(TraceError):
            t.output_at(-1.0)
        with pytest.raises(TraceError):
            t.output_at(10.5)

    def test_transition_times_by_kind(self):
        t = make_trace(
            [(1.0, TRUST), (3.0, SUSPECT), (4.0, TRUST), (9.0, SUSPECT)],
            end=10.0,
        )
        np.testing.assert_allclose(t.s_transition_times, [3.0, 9.0])
        np.testing.assert_allclose(
            t.transition_times(TransitionKind.T_TRANSITION), [1.0, 4.0]
        )


class TestIntervalDecompositions:
    """The Fig. 4 interval definitions."""

    def test_mistake_recurrence_samples(self):
        t = make_trace(
            [(1.0, TRUST), (3.0, SUSPECT), (4.0, TRUST), (9.0, SUSPECT),
             (9.5, TRUST), (20.0, SUSPECT)],
            end=25.0,
        )
        np.testing.assert_allclose(samples(t)[0], [6.0, 11.0])

    def test_mistake_durations_only_completed(self):
        t = make_trace(
            [(1.0, TRUST), (3.0, SUSPECT), (4.0, TRUST), (9.0, SUSPECT)],
            end=25.0,
        )
        # The suspicion open at the window end (9 -> 25) is dropped.
        np.testing.assert_allclose(samples(t)[1], [1.0])

    def test_good_periods(self):
        t = make_trace(
            [(1.0, TRUST), (3.0, SUSPECT), (4.0, TRUST), (9.0, SUSPECT)],
            end=25.0,
        )
        np.testing.assert_allclose(samples(t)[2], [2.0, 5.0])

    def test_tg_equals_tmr_minus_tm(self):
        """Theorem 1.1 on a concrete trace: T_G = T_MR − T_M pairwise."""
        t = make_trace(
            [(1.0, TRUST), (2.0, SUSPECT), (2.5, TRUST), (7.0, SUSPECT),
             (8.0, TRUST), (10.0, SUSPECT)],
            end=12.0,
        )
        tmr, tm, tg = samples(t)
        # Pair mistake i's duration with the following good period.
        np.testing.assert_allclose(tmr, tm[: len(tmr)] + tg[1:][: len(tmr)])


class TestOccupancyAndAccuracy:
    def test_time_in_output(self):
        t = make_trace([(2.0, TRUST), (6.0, SUSPECT)], end=10.0)
        assert t.time_in_output(TRUST) == pytest.approx(4.0)
        assert t.time_in_output(SUSPECT) == pytest.approx(6.0)

    def test_fig2_query_accuracy(self):
        """Fig. 2: FD_1 trusts 12 units then suspects 4, repeating:
        query accuracy probability 12/16 = 0.75."""
        pairs = []
        for k in range(5):
            base = 16.0 * k
            pairs.append((base, TRUST))
            pairs.append((base + 12.0, SUSPECT))
        fd1 = make_trace(pairs, end=80.0, initial=TRUST)
        assert fd1.empirical_query_accuracy() == pytest.approx(0.75)

    def test_fig2_mistake_rates_differ(self):
        """Fig. 2: FD_2 makes mistakes four times as often as FD_1 at the
        same query accuracy probability."""
        fd1_pairs, fd2_pairs = [], []
        for k in range(4):
            base = 16.0 * k
            fd1_pairs += [(base + 12.0, SUSPECT), (base + 16.0, TRUST)]
        for k in range(16):
            base = 4.0 * k
            fd2_pairs += [(base + 3.0, SUSPECT), (base + 4.0, TRUST)]
        fd1 = make_trace(fd1_pairs, end=64.0, initial=TRUST)
        fd2 = make_trace(fd2_pairs, end=64.0, initial=TRUST)
        assert fd1.empirical_query_accuracy() == pytest.approx(0.75)
        assert fd2.empirical_query_accuracy() == pytest.approx(0.75)
        assert len(fd2.s_transition_times) == 4 * len(fd1.s_transition_times)

    def test_fig3_same_rate_different_accuracy(self):
        """Fig. 3: equal mistake rate 1/16, P_A 0.75 vs 0.50."""
        fd1_pairs, fd2_pairs = [], []
        for k in range(4):
            base = 16.0 * k
            fd1_pairs += [(base + 12.0, SUSPECT), (base + 16.0, TRUST)]
            fd2_pairs += [(base + 8.0, SUSPECT), (base + 16.0, TRUST)]
        fd1 = make_trace(fd1_pairs, end=64.0, initial=TRUST)
        fd2 = make_trace(fd2_pairs, end=64.0, initial=TRUST)
        rate1 = len(fd1.s_transition_times) / fd1.duration
        rate2 = len(fd2.s_transition_times) / fd2.duration
        assert rate1 == pytest.approx(rate2) == pytest.approx(1 / 16)
        assert fd1.empirical_query_accuracy() == pytest.approx(0.75)
        assert fd2.empirical_query_accuracy() == pytest.approx(0.50)

    def test_empty_trace_accuracy(self):
        t = OutputTrace(initial_output=TRUST).close(0.0)
        assert t.empirical_query_accuracy() == 1.0
        s = OutputTrace(initial_output=SUSPECT).close(0.0)
        assert s.empirical_query_accuracy() == 0.0



class TestZeroLengthNormalization:
    """A same-instant S→T pair is kept as a zero-length interval; the
    trace with the cancelling pair removed by hand has the same
    time-weighted metrics."""

    def test_cancelling_pair_removed(self):
        t = make_trace(
            [(1.0, SUSPECT), (1.0, TRUST), (5.0, SUSPECT)],  # same-instant pair
            end=6.0,
            initial=TRUST,
        )
        clean = make_trace([(5.0, SUSPECT)], end=6.0, initial=TRUST)
        assert len(t.transitions) == 3
        assert [(tr.time, tr.kind) for tr in clean.transitions] == [
            (5.0, TransitionKind.S_TRANSITION)
        ]
        assert t.empirical_query_accuracy() == clean.empirical_query_accuracy()
        # The pair is one mistake of length zero.
        np.testing.assert_array_equal(samples(t)[1], [0.0])
        assert samples(clean)[1].size == 0

    def test_occupancy_unchanged_by_normalization(self):
        t = make_trace(
            [(1.0, SUSPECT), (1.0, TRUST), (2.0, SUSPECT), (4.0, TRUST)],
            end=6.0,
            initial=TRUST,
        )
        clean = make_trace([(2.0, SUSPECT), (4.0, TRUST)], end=6.0, initial=TRUST)
        assert clean.time_in_output(TRUST) == pytest.approx(
            t.time_in_output(TRUST)
        )
