"""Lifecycle and misuse tests for the detector base class and host."""

from __future__ import annotations

import pytest

from repro.core.base import Heartbeat, HeartbeatFailureDetector
from repro.core.nfd_s import NFDS
from repro.errors import SimulationError
from repro.metrics.transitions import SUSPECT, TRUST
from repro.net.clocks import SkewedClock
from repro.net.delays import ConstantDelay
from repro.sim.engine import Simulator
from repro.sim.monitor import DetectorHost


class Recorder(HeartbeatFailureDetector):
    """Minimal concrete detector for base-class testing."""

    name = "recorder"

    def __init__(self):
        super().__init__()
        self.started = False
        self.beats = []

    def _on_start(self):
        self.started = True

    def on_heartbeat(self, heartbeat):
        self.beats.append(heartbeat.seq)
        self._set_output(TRUST)


class TestLifecycle:
    def test_start_requires_bind(self):
        d = Recorder()
        with pytest.raises(SimulationError):
            d.start()

    def test_double_bind_rejected(self):
        sim = Simulator()
        d = Recorder()
        DetectorHost(sim, d)
        with pytest.raises(SimulationError):
            d.bind(None)

    def test_double_start_rejected(self):
        sim = Simulator()
        d = Recorder()
        DetectorHost(sim, d)
        d.start()
        with pytest.raises(SimulationError):
            d.start()

    def test_runtime_access_before_bind_fails(self):
        d = Recorder()
        with pytest.raises(SimulationError):
            _ = d.runtime

    def test_initial_output_is_suspect(self):
        d = Recorder()
        assert d.output == SUSPECT
        assert d.suspects

    def test_invalid_output_rejected(self):
        sim = Simulator()
        d = Recorder()
        DetectorHost(sim, d)
        with pytest.raises(SimulationError):
            d._set_output("X")

    def test_listener_only_called_on_transitions(self):
        sim = Simulator()
        d = Recorder()
        host = DetectorHost(sim, d)
        host.start()
        host.deliver(1, 1.0)
        host.deliver(2, 2.0)  # already trusting: no new transition
        trace = host.finish()
        assert len(trace.transitions) == 1

    def test_describe_default(self):
        assert Recorder().describe() == "Recorder"


class TestDetectorHost:
    def test_local_now_uses_monitor_clock(self):
        sim = Simulator()
        d = Recorder()
        host = DetectorHost(sim, d, clock=SkewedClock(100.0))
        sim.schedule_at(5.0, lambda: None)
        sim.run_until(5.0)
        assert host.local_now() == pytest.approx(105.0)

    def test_call_at_translates_local_to_real(self):
        sim = Simulator()
        d = Recorder()
        host = DetectorHost(sim, d, clock=SkewedClock(100.0))
        fired = []
        host.call_at(107.5, lambda: fired.append(sim.now))
        sim.run_until(10.0)
        assert fired == [7.5]

    def test_overdue_timer_fires_immediately(self):
        sim = Simulator()
        d = Recorder()
        host = DetectorHost(sim, d)
        sim.run_until(5.0)
        fired = []
        host.call_at(1.0, lambda: fired.append(sim.now))  # in the past
        sim.run_until(5.0)
        assert fired == [5.0]

    def test_delivered_count(self):
        sim = Simulator()
        d = Recorder()
        host = DetectorHost(sim, d)
        host.start()
        host.deliver(1, 1.0)
        host.deliver(2, 2.0)
        assert host.delivered_count == 2
        assert d.beats == [1, 2]

    def test_heartbeat_carries_local_receive_time(self):
        sim = Simulator()
        received = []

        class Capture(Recorder):
            def on_heartbeat(self, heartbeat):
                received.append(heartbeat)

        host = DetectorHost(sim, Capture(), clock=SkewedClock(50.0))
        host.start()
        sim.schedule_at(3.0, lambda: host.deliver(1, 2.9))
        sim.run_until(4.0)
        hb = received[0]
        assert hb.receive_local_time == pytest.approx(53.0)
        assert hb.send_local_time == pytest.approx(2.9)


class TestEngineEdge:
    def test_reentrant_run_until_rejected(self):
        sim = Simulator()

        def nested():
            with pytest.raises(SimulationError):
                sim.run_until(10.0)

        sim.schedule_at(1.0, nested)
        sim.run_until(2.0)
