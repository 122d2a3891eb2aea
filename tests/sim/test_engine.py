"""Tests for the discrete-event simulator."""

from __future__ import annotations

import math

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(3.0, lambda: fired.append(3))
        sim.schedule_at(1.0, lambda: fired.append(1))
        sim.schedule_at(2.0, lambda: fired.append(2))
        sim.run_until(10.0)
        assert fired == [1, 2, 3]
        assert sim.now == 10.0

    def test_ties_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule_at(1.0, lambda i=i: fired.append(i))
        sim.run_until(1.0)
        assert fired == [0, 1, 2, 3, 4]

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule_at(5.0, lambda: None)
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(4.0, lambda: None)

    def test_schedule_nan_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_at(math.nan, lambda: None)

    def test_schedule_at_infinity_never_fires(self):
        sim = Simulator()
        fired = []
        h = sim.schedule_at(math.inf, lambda: fired.append(1))
        assert h.cancelled
        sim.run_until(1e12)
        assert fired == []


    def test_schedule_after(self):
        """A callback schedules ``delay`` after its own time; the past
        is refused."""
        sim = Simulator()
        fired = []
        sim.schedule_at(
            2.0,
            lambda: sim.schedule_at(sim.now + 3.0, lambda: fired.append(sim.now)),
        )
        sim.run_until(10.0)
        assert fired == [5.0]
        with pytest.raises(SimulationError):
            sim.schedule_at(sim.now - 1.0, lambda: None)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        h = sim.schedule_at(1.0, lambda: fired.append(1))
        h.cancel()
        sim.run_until(2.0)
        assert fired == []

    def test_double_cancel_is_safe(self):
        sim = Simulator()
        h = sim.schedule_at(1.0, lambda: None)
        h.cancel()
        h.cancel()
        assert h.cancelled

    def test_pending_counts_exclude_cancelled(self):
        sim = Simulator()
        h1 = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        h1.cancel()
        assert sim.pending == 1

    def test_pending_tracks_schedule_cancel_fire_mix(self):
        # `pending` is a live counter, not a heap scan: it must stay
        # exact through any interleaving of the three operations.
        sim = Simulator()
        handles = [sim.schedule_at(float(i + 1), lambda: None) for i in range(6)]
        assert sim.pending == 6
        handles[0].cancel()
        handles[3].cancel()
        assert sim.pending == 4
        sim.run_until(2.0)  # fires the (uncancelled) event at t=2
        assert sim.pending == 3
        handles[3].cancel()  # double cancel: no double decrement
        assert sim.pending == 3
        sim.run_until(10.0)
        assert sim.pending == 0

    def test_cancel_after_fire_does_not_underflow(self):
        sim = Simulator()
        h = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        sim.run_until(1.5)
        assert sim.pending == 1
        h.cancel()  # already fired: counter must not move
        assert sim.pending == 1

    def test_infinite_event_never_counts_as_pending(self):
        sim = Simulator()
        h = sim.schedule_at(math.inf, lambda: None)
        assert sim.pending == 0
        h.cancel()
        assert sim.pending == 0


class TestExecution:
    def test_events_can_schedule_events(self):
        """A chain of self-scheduling events (like heartbeats)."""
        sim = Simulator()
        fired = []

        def tick():
            fired.append(sim.now)
            if sim.now < 5.0:
                sim.schedule_at(sim.now + 1.0, tick)

        sim.schedule_at(1.0, tick)
        sim.run_until(100.0)
        assert fired == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_run_until_stops_at_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(5.0, lambda: fired.append(5))
        sim.schedule_at(15.0, lambda: fired.append(15))
        sim.run_until(10.0)
        assert fired == [5]
        assert sim.now == 10.0
        sim.run_until(20.0)  # resume
        assert fired == [5, 15]

    def test_run_until_backwards_rejected(self):
        sim = Simulator()
        sim.run_until(10.0)
        with pytest.raises(SimulationError):
            sim.run_until(5.0)

    def test_step(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(1))
        assert sim.step() is True
        assert fired == [1]
        assert sim.step() is False

    def test_run_drains_queue(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule_at(float(i), lambda: None)
        assert sim.run() == 10

    def test_run_max_events(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule_at(float(i), lambda: None)
        assert sim.run(max_events=3) == 3
        assert sim.pending == 7
