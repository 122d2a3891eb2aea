"""The soak's gates, judged without a clock (tier-1): the detection gate
cannot pass vacuously, and the accuracy gates sample at the horizon."""

from __future__ import annotations

import numpy as np
import pytest

from repro.live.soak import KillReport, SoakConfig
from repro.metrics.qos import window_samples
from repro.metrics.transitions import SUSPECT, TRUST, OutputTrace

#: δ + η = 0.08 s, allowance 0.25 s, kill no earlier than 5.34 s
CONFIG = SoakConfig(peers=2, duration=6.0, kill=1)


def _trace(*transitions):
    trace = OutputTrace(start_time=0.0)  # starts suspected
    for time, output in transitions:
        trace.record(time, output)
    return trace.close(CONFIG.duration)


class TestKillReport:
    def test_kill_inside_a_mistake_fails_as_uninformative(self):
        """The victim has been suspected since 5.30 s and never trusted
        again: ``T_D`` reads 0, which measures nothing."""
        report = KillReport.of(
            "p0", 5.34, _trace((0.1, TRUST), (5.30, SUSPECT)), CONFIG
        )
        assert report.detection_time == 0.0
        assert report.suspected_at_kill
        assert not report.passed
        assert "killed at 5.340s while suspected (uninformative)" in (
            report.describe()
        )
        assert report.describe().endswith("-> FAIL")

    def test_kill_while_trusted_is_judged_by_detection_time(self):
        trusted = _trace((0.1, TRUST), (5.40, SUSPECT))
        report = KillReport.of("p0", 5.34, trusted, CONFIG)
        assert report.detection_time == pytest.approx(0.06)
        assert not report.suspected_at_kill
        assert report.passed
        assert report.describe().endswith("-> PASS")
        late = KillReport.of(
            "p0", 5.34, _trace((0.1, TRUST), (5.80, SUSPECT)), CONFIG
        )
        assert late.detection_time == pytest.approx(0.46)
        assert not late.suspected_at_kill and not late.passed


class TestGateSamples:
    """The accuracy gates pool ``window_samples(trace, horizon)`` with
    the soak's absolute horizon (``effective_warmup`` on the monitor's
    clock, not an offset from the trace start)."""

    H = CONFIG.effective_warmup  # 0.16 s

    def samples(self, *transitions, start=0.05, end=CONFIG.duration):
        trace = OutputTrace(start_time=start)
        for time, output in transitions:
            trace.record(time, output)
        tmr, tm, _, _ = window_samples(trace.close(end), self.H)
        return tmr, tm

    def test_mistake_straddling_the_horizon_is_dropped(self):
        tmr, tm = self.samples(
            (0.06, TRUST), (0.10, SUSPECT), (0.30, TRUST)
        )
        assert tmr.size == 0 and tm.size == 0

    def test_suspicion_exactly_at_the_horizon_is_kept(self):
        tmr, tm = self.samples(
            (0.06, TRUST), (self.H, SUSPECT), (0.25, TRUST),
            (1.25, SUSPECT), (1.5, TRUST),
        )
        assert np.array_equal(tmr, [1.25 - self.H])
        assert np.array_equal(tm, [0.25 - self.H, 0.25])

    def test_trailing_open_mistake_is_dropped(self):
        tmr, tm = self.samples(
            (0.06, TRUST), (1.0, SUSPECT), (1.5, TRUST), (4.0, SUSPECT)
        )
        assert np.array_equal(tmr, [3.0])  # the open S still recurs
        assert np.array_equal(tm, [0.5])

    def test_trace_closed_before_the_horizon_adds_nothing(self):
        tmr, tm = self.samples((0.06, TRUST), (0.08, SUSPECT), end=0.1)
        assert tmr.size == 0 and tm.size == 0
