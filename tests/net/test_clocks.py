"""Tests for the clock models."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidParameterError
from repro.net.clocks import (
    DriftingClock,
    FaultableClock,
    PerfectClock,
    SkewedClock,
)


class TestPerfectClock:
    def test_identity(self):
        c = PerfectClock()
        assert c.local_time(5.0) == 5.0
        assert c.real_time(5.0) == 5.0


class TestSkewedClock:
    def test_constant_offset(self):
        c = SkewedClock(3.5)
        assert c.local_time(10.0) == 13.5
        assert c.real_time(13.5) == 10.0
        assert c.skew == 3.5

    def test_intervals_preserved(self):
        """Drift-free clocks measure intervals exactly (Section 6's need)."""
        c = SkewedClock(-100.0)
        assert c.local_time(7.0) - c.local_time(2.0) == pytest.approx(5.0)

    def test_skew_invariance_of_delay_variance(self, rng):
        """The Section 6.2.2 observation: Var(A − S) is skew-invariant."""
        delays = rng.exponential(0.02, 5000)
        send_real = np.cumsum(rng.uniform(0.5, 1.5, 5000))
        receive_real = send_real + delays
        q_clock = SkewedClock(12345.678)
        samples = np.array(
            [q_clock.local_time(r) for r in receive_real]
        ) - send_real  # sender timestamps in real (= p-local) time
        assert samples.var(ddof=1) == pytest.approx(
            delays.var(ddof=1), rel=1e-9
        )
        # ... while the mean shifts by exactly the skew.
        assert samples.mean() == pytest.approx(
            delays.mean() + 12345.678, rel=1e-9
        )


class TestDriftingClock:
    def test_rate_and_skew(self):
        c = DriftingClock(skew=1.0, drift=1e-3)
        assert c.local_time(1000.0) == pytest.approx(1.0 + 1001.0)
        assert c.real_time(c.local_time(123.0)) == pytest.approx(123.0)

    def test_rejects_stopped_clock(self):
        with pytest.raises(InvalidParameterError):
            DriftingClock(drift=-1.0)

    def test_zero_drift_is_skewed_clock(self):
        d = DriftingClock(skew=2.0, drift=0.0)
        s = SkewedClock(2.0)
        for t in (0.0, 1.0, 100.0):
            assert d.local_time(t) == s.local_time(t)


@given(
    skew=st.floats(min_value=-1e6, max_value=1e6),
    drift=st.floats(min_value=-0.5, max_value=0.5),
    t=st.floats(min_value=0.0, max_value=1e6),
)
@settings(max_examples=80, deadline=None)
def test_round_trip_property(skew, drift, t):
    c = DriftingClock(skew=skew, drift=drift)
    assert c.real_time(c.local_time(t)) == pytest.approx(t, abs=1e-6, rel=1e-9)


class TestFaultableClock:
    def test_matches_drifting_clock_before_any_fault(self):
        f = FaultableClock(skew=2.0, drift=1e-3)
        d = DriftingClock(skew=2.0, drift=1e-3)
        for t in (0.0, 1.0, 500.0):
            assert f.local_time(t) == d.local_time(t)
            assert f.real_time(d.local_time(t)) == pytest.approx(t)

    def test_forward_jump(self):
        c = FaultableClock()
        c.jump(10.0, 5.0)
        assert c.local_time(9.0) == pytest.approx(9.0)
        assert c.local_time(10.0) == pytest.approx(15.0)
        assert c.local_time(12.0) == pytest.approx(17.0)
        # Readings inside the skipped gap map to the jump instant.
        assert c.real_time(12.0) == pytest.approx(10.0)
        assert c.real_time(17.0) == pytest.approx(12.0)

    def test_backward_jump_returns_earliest_real_time(self):
        c = FaultableClock()
        c.jump(10.0, -4.0)
        assert c.local_time(10.0) == pytest.approx(6.0)
        # Reading 8 occurs twice (real 8 and real 12); earliest wins.
        assert c.real_time(8.0) == pytest.approx(8.0)
        assert c.real_time(6.5) == pytest.approx(6.5)

    def test_drift_onset(self):
        c = FaultableClock()
        c.set_drift(100.0, 0.01)
        assert c.local_time(100.0) == pytest.approx(100.0)
        assert c.local_time(200.0) == pytest.approx(201.0)
        assert c.real_time(201.0) == pytest.approx(200.0)

    def test_faults_compose(self):
        c = FaultableClock()
        c.set_drift(50.0, 0.1)
        c.jump(100.0, -2.0)
        # 50 + 1.1*50 - 2 = 103 at real 100; rate stays 1.1 after.
        assert c.local_time(100.0) == pytest.approx(103.0)
        assert c.local_time(110.0) == pytest.approx(114.0)

    def test_rejects_out_of_order_and_bad_drift(self):
        c = FaultableClock()
        c.jump(10.0, 1.0)
        with pytest.raises(InvalidParameterError):
            c.jump(5.0, 1.0)
        with pytest.raises(InvalidParameterError):
            c.set_drift(20.0, -1.5)
        with pytest.raises(InvalidParameterError):
            FaultableClock(drift=-1.0)

    @given(
        offset=st.floats(min_value=-5.0, max_value=5.0),
        drift=st.floats(min_value=-0.1, max_value=0.1),
        t=st.floats(min_value=20.0, max_value=1e4),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_after_faults(self, offset, drift, t):
        """real_time(local_time(t)) == t for t after the last fault,
        except inside the overlap a backward jump creates (where the
        earliest pre-image is returned instead)."""
        c = FaultableClock()
        c.jump(10.0, offset)
        c.set_drift(15.0, drift)
        local = c.local_time(t)
        back = c.real_time(local)
        assert back <= t + 1e-9
        assert c.local_time(back) == pytest.approx(local, abs=1e-6)
