"""The soak's detection gate cannot pass vacuously (tier-1: no clock)."""

from __future__ import annotations

import pytest

from repro.live.soak import KillReport, SoakConfig
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
