"""A small deterministic discrete-event simulator.

Design notes (why not asyncio/simpy): the experiments in this repository
need *bit-for-bit reproducible* runs keyed by a seed, virtual time that can
advance by millions of units instantly, and zero scheduling jitter — a
classic heap-driven event loop delivers all three in ~150 lines and has no
third-party dependency.

Events scheduled for the same time fire in scheduling order (a monotonic
sequence number breaks ties), which makes the semantics of simultaneous
freshness points and message receipts well-defined and stable.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError

__all__ = ["EventHandle", "Simulator", "SimWheelScheduler"]


@dataclass(order=True)
class _Event:
    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    fired: bool = field(default=False, compare=False)
    owner: Optional["Simulator"] = field(default=None, compare=False, repr=False)


class EventHandle:
    """Opaque handle to a scheduled event; supports cancellation."""

    __slots__ = ("_event",)

    def __init__(self, event: _Event) -> None:
        self._event = event

    @property
    def time(self) -> float:
        return self._event.time

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    @property
    def fired(self) -> bool:
        return self._event.fired

    def cancel(self) -> None:
        """Cancel the event; safe to call more than once."""
        ev = self._event
        if ev.cancelled:
            return
        ev.cancelled = True
        if not ev.fired and ev.owner is not None:
            ev.owner._live -= 1


class Simulator:
    """Heap-driven virtual-time event loop.

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> _ = sim.schedule_at(3.0, lambda: fired.append(sim.now))
        >>> sim.run_until(10.0)
        >>> fired
        [3.0]
    """

    def __init__(self) -> None:
        self._heap: List[_Event] = []
        self._counter = itertools.count()
        self._now = 0.0
        self._running = False
        # Live (scheduled, non-cancelled, non-fired) event count, updated
        # on schedule/cancel/pop so `pending` is O(1) — the heartbeat
        # sender queries it on every send, which made the old
        # scan-the-heap implementation O(heap) per event.
        self._live = 0

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of scheduled (non-cancelled) events."""
        return self._live

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #

    def schedule_at(
        self, time: float, callback: Callable[[], None]
    ) -> EventHandle:
        """Schedule ``callback`` to fire at virtual time ``time``."""
        if math.isnan(time):
            raise SimulationError("cannot schedule at NaN time")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule in the past: {time} < now={self._now}"
            )
        if math.isinf(time):
            # An event at +inf never fires; return an already-cancelled
            # handle so callers can treat lost messages uniformly.
            ev = _Event(time=time, seq=next(self._counter), callback=callback)
            ev.cancelled = True
            return EventHandle(ev)
        ev = _Event(
            time=float(time),
            seq=next(self._counter),
            callback=callback,
            owner=self,
        )
        heapq.heappush(self._heap, ev)
        self._live += 1
        return EventHandle(ev)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def step(self) -> bool:
        """Fire the next event.  Returns False when nothing is pending."""
        while self._heap:
            ev = heapq.heappop(self._heap)
            if ev.cancelled:
                continue
            if ev.time < self._now:  # pragma: no cover - defensive
                raise SimulationError("event heap delivered a past event")
            ev.fired = True
            self._live -= 1
            self._now = ev.time
            ev.callback()
            return True
        return False

    def run_until(self, horizon: float) -> None:
        """Run all events with time ≤ ``horizon``; set ``now`` to horizon.

        Events scheduled beyond the horizon stay pending so the simulation
        can be resumed with a later horizon.
        """
        if horizon < self._now:
            raise SimulationError(
                f"horizon {horizon} is before now={self._now}"
            )
        if self._running:
            raise SimulationError("run_until called re-entrantly")
        self._running = True
        try:
            while self._heap:
                ev = self._heap[0]
                if ev.cancelled:
                    heapq.heappop(self._heap)
                    continue
                if ev.time > horizon:
                    break
                heapq.heappop(self._heap)
                ev.fired = True
                self._live -= 1
                self._now = ev.time
                ev.callback()
            self._now = float(horizon)
        finally:
            self._running = False

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the event queue drains (or ``max_events`` fired)."""
        fired = 0
        while self.step():
            fired += 1
            if max_events is not None and fired >= max_events:
                break
        return fired


class SimWheelScheduler:
    """The simulator as a *driver* — ``now()`` plus ``call_at`` — for
    the detector hosts (:mod:`repro.sim.monitor`) and the shared engine's
    timer wheel; its live counterpart is
    :class:`repro.live.soa.LoopWheelScheduler`.  ``wake_at`` is the
    wheel's single wakeup: re-arming cancels the previous event, so the
    wheel contributes O(1) live events to the heap regardless of sender
    count.
    """

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._handle: Optional[EventHandle] = None

    def now(self) -> float:
        return self._sim.now

    def call_at(
        self, time: float, callback: Callable[[], None]
    ) -> EventHandle:
        """Arm a one-shot timer; returns a handle with ``cancel()``.

        The one rule every driver follows: a time already in the past
        is not an error — the timer fires as soon as possible, which is
        what any real event loop does.  A detector started mid-stream
        (late join, stale ``first_seq``) relies on it to catch up
        through its overdue freshness points.
        """
        return self._sim.schedule_at(max(time, self._sim.now), callback)

    def wake_at(self, time: float, callback: Callable[[], None]) -> None:
        if self._handle is not None:
            self._handle.cancel()
        self._handle = self.call_at(time, callback)
