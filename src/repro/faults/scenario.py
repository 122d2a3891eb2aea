"""Deterministic, scripted fault scenarios for a running simulation.

A :class:`FaultScenario` is a declarative list of timed fault events —
loss/delay regime shifts, partitions, duplication/reordering windows,
clock jumps, drift onset, and process stalls.  The
:class:`ScenarioEngine` compiles the script onto a
:class:`~repro.sim.engine.Simulator`: window events toggle the
:class:`~repro.faults.links.FaultyLink`, clock events re-program a
:class:`~repro.net.clocks.FaultableClock`, and every activation is
recorded in a :class:`FaultTimeline` (and, when telemetry is enabled,
emitted as registry series) so QoS estimates can later be segmented by
fault window.

Determinism contract: the scenario is *data* — events are canonically
ordered by :class:`FaultScenario` regardless of the order they were
written in, all scheduling happens up front at install time, and the
only randomness faults consume comes from the dedicated
``STREAM_FAULTS`` stream inside :class:`~repro.faults.links.FaultyLink`.
Same seed + same event set ⇒ bit-identical run, for any event
interleaving and any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.errors import InvalidParameterError
from repro.net.clocks import Clock, FaultableClock
from repro.net.delays import DelayDistribution
from repro.sim.engine import Simulator
from repro.telemetry.runtime import active as _telemetry_active

__all__ = [
    "LossRegime",
    "DelayRegime",
    "Partition",
    "Duplication",
    "Reordering",
    "ClockJump",
    "DriftOnset",
    "Stall",
    "FaultEvent",
    "FaultWindow",
    "FaultTimeline",
    "FaultScenario",
    "ScenarioEngine",
]

_CLOCK_TARGETS = ("sender", "monitor")


def _check_time(label: str, value: float) -> None:
    if not value >= 0.0 or math.isinf(value):
        raise InvalidParameterError(
            f"{label} must be a finite time >= 0, got {value}"
        )


def _check_probability(label: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise InvalidParameterError(
            f"{label} must be in [0, 1], got {value}"
        )


@dataclass(frozen=True)
class LossRegime:
    """At ``time``, the base link's loss probability becomes ``loss_probability``."""

    time: float
    loss_probability: float

    def __post_init__(self) -> None:
        _check_time("time", self.time)
        _check_probability("loss_probability", self.loss_probability)


@dataclass(frozen=True)
class DelayRegime:
    """At ``time``, the base link's delay distribution becomes ``delay``."""

    time: float
    delay: DelayDistribution

    def __post_init__(self) -> None:
        _check_time("time", self.time)


@dataclass(frozen=True)
class Partition:
    """The link is cut (loss → 1) during ``[start, start + duration)``."""

    start: float
    duration: float

    def __post_init__(self) -> None:
        _check_time("start", self.start)
        if self.duration <= 0:
            raise InvalidParameterError(
                f"duration must be positive, got {self.duration}"
            )


@dataclass(frozen=True)
class Duplication:
    """Each delivered message is duplicated with ``probability`` during
    the window; the copy arrives ``lag`` (+ uniform ``jitter``) later —
    a deliberate violation of the §3.1 no-duplication assumption."""

    start: float
    duration: float
    probability: float
    lag: float = 0.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        _check_time("start", self.start)
        if self.duration <= 0:
            raise InvalidParameterError(
                f"duration must be positive, got {self.duration}"
            )
        _check_probability("probability", self.probability)
        if self.lag < 0 or self.jitter < 0:
            raise InvalidParameterError("lag/jitter must be >= 0")


@dataclass(frozen=True)
class Reordering:
    """Each delivered message is held back by ``extra_delay`` with
    ``probability`` during the window, so it can arrive after later
    heartbeats (out-of-order delivery)."""

    start: float
    duration: float
    probability: float
    extra_delay: float

    def __post_init__(self) -> None:
        _check_time("start", self.start)
        if self.duration <= 0:
            raise InvalidParameterError(
                f"duration must be positive, got {self.duration}"
            )
        _check_probability("probability", self.probability)
        if self.extra_delay <= 0:
            raise InvalidParameterError(
                f"extra_delay must be positive, got {self.extra_delay}"
            )


@dataclass(frozen=True)
class ClockJump:
    """At ``time``, the targeted clock steps by ``offset`` (NTP step,
    VM migration)."""

    time: float
    offset: float
    target: str = "sender"

    def __post_init__(self) -> None:
        _check_time("time", self.time)
        if self.target not in _CLOCK_TARGETS:
            raise InvalidParameterError(
                f"target must be one of {_CLOCK_TARGETS}, got {self.target!r}"
            )


@dataclass(frozen=True)
class DriftOnset:
    """At ``time``, the targeted clock's rate becomes ``1 + drift``."""

    time: float
    drift: float
    target: str = "sender"

    def __post_init__(self) -> None:
        _check_time("time", self.time)
        if self.drift <= -1.0:
            raise InvalidParameterError(
                f"drift must be > -1, got {self.drift}"
            )
        if self.target not in _CLOCK_TARGETS:
            raise InvalidParameterError(
                f"target must be one of {_CLOCK_TARGETS}, got {self.target!r}"
            )


@dataclass(frozen=True)
class Stall:
    """The sender freezes (GC pause) during ``[start, start + duration)``:
    slots in the window are deferred to its end (the armed send fires
    late, carrying its nominal ``σ_i``); slots overtaken by the pause
    are skipped."""

    start: float
    duration: float

    def __post_init__(self) -> None:
        _check_time("start", self.start)
        if self.duration <= 0:
            raise InvalidParameterError(
                f"duration must be positive, got {self.duration}"
            )


FaultEvent = Union[
    LossRegime,
    DelayRegime,
    Partition,
    Duplication,
    Reordering,
    ClockJump,
    DriftOnset,
    Stall,
]

_WINDOW_KINDS = (Partition, Duplication, Reordering, Stall)


def _event_start(event: FaultEvent) -> float:
    return event.start if isinstance(event, _WINDOW_KINDS) else event.time


def _event_key(event: FaultEvent) -> Tuple[float, str, str]:
    # Canonical total order: start time, then kind name, then repr.
    # Sorting makes the scenario a *set* of events — the replay is
    # identical however the script happened to list them.
    return (_event_start(event), type(event).__name__, repr(event))


@dataclass(frozen=True)
class FaultWindow:
    """One activation span on the timeline (instant events have
    ``end == start``)."""

    start: float
    end: float
    kind: str
    detail: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start

    def contains(self, time: float) -> bool:
        if self.end == self.start:
            return time == self.start
        return self.start <= time < self.end


class FaultTimeline:
    """The windows a scenario activated, for post-hoc QoS segmentation."""

    def __init__(self) -> None:
        self._windows: List[FaultWindow] = []

    def add(self, window: FaultWindow) -> None:
        self._windows.append(window)

    @property
    def windows(self) -> Tuple[FaultWindow, ...]:
        return tuple(sorted(self._windows, key=lambda w: (w.start, w.kind)))

    def __len__(self) -> int:
        return len(self._windows)


class FaultScenario:
    """An immutable, canonically ordered script of fault events.

    Args:
        events: the fault events, in any order.
        name: label used in tables and telemetry.
    """

    def __init__(
        self, events: Sequence[FaultEvent] = (), name: str = "scenario"
    ) -> None:
        for event in events:
            if not isinstance(event, FaultEvent.__args__):
                raise InvalidParameterError(
                    f"not a fault event: {event!r}"
                )
        self._events: Tuple[FaultEvent, ...] = tuple(
            sorted(events, key=_event_key)
        )
        self.name = str(name)

    @property
    def events(self) -> Tuple[FaultEvent, ...]:
        return self._events

    def __len__(self) -> int:
        return len(self._events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultScenario):
            return NotImplemented
        return self._events == other._events

    def __hash__(self) -> int:
        return hash(self._events)

    @property
    def end_time(self) -> float:
        """Time after which the scenario changes nothing further."""
        end = 0.0
        for event in self._events:
            if isinstance(event, _WINDOW_KINDS):
                end = max(end, event.start + event.duration)
            else:
                end = max(end, event.time)
        return end

    def needs_faultable_clock(self, target: str) -> bool:
        """Whether the scenario re-programs the given clock."""
        return any(
            isinstance(e, (ClockJump, DriftOnset)) and e.target == target
            for e in self._events
        )

    @property
    def stall_windows(self) -> Tuple[Tuple[float, float], ...]:
        """``(start, end)`` spans of every stall, sorted."""
        return tuple(
            sorted(
                (e.start, e.start + e.duration)
                for e in self._events
                if isinstance(e, Stall)
            )
        )

    def send_gate(self) -> Optional[Callable[[float], float]]:
        """The :class:`~repro.sim.heartbeat.HeartbeatSender` gate
        implementing this scenario's stalls, or ``None`` if there are
        none (so a stall-free scenario leaves the sender untouched)."""
        windows = self.stall_windows
        if not windows:
            return None

        def gate(real_send: float) -> float:
            # Cascade: deferring out of one window may land inside the
            # next (overlapping/adjacent stalls merge naturally).
            for start, end in windows:
                if start <= real_send < end:
                    real_send = end
            return real_send

        return gate


class ScenarioEngine:
    """Compiles one scenario onto a simulator and a fault pipeline.

    Args:
        sim: the discrete-event simulator the run executes on.
        scenario: the script to install.
        link: the run's :class:`~repro.faults.links.FaultyLink`.
        sender_clock / monitor_clock: the clocks clock faults target;
            required (and required to be :class:`FaultableClock`) only
            when the scenario contains a fault for that target.
        label: telemetry label for this pipeline (defaults to the
            scenario name).

    Events whose time is already in the past at install time raise —
    a scenario is a *plan*, and silently skipping part of it would make
    the run's faults depend on when the engine was attached.  Window
    events already in progress are clamped to start now.
    """

    def __init__(
        self,
        sim: Simulator,
        scenario: FaultScenario,
        link,
        sender_clock: Optional[Clock] = None,
        monitor_clock: Optional[Clock] = None,
        label: Optional[str] = None,
    ) -> None:
        self._sim = sim
        self._scenario = scenario
        self._link = link
        self._clocks = {"sender": sender_clock, "monitor": monitor_clock}
        self._label = label if label is not None else scenario.name
        self._installed = False
        self._active = 0
        self.timeline = FaultTimeline()
        for target in _CLOCK_TARGETS:
            if scenario.needs_faultable_clock(target):
                clock = self._clocks[target]
                if not isinstance(clock, FaultableClock):
                    raise InvalidParameterError(
                        f"scenario {scenario.name!r} contains {target} "
                        f"clock faults but the {target} clock is "
                        f"{type(clock).__name__}; pass a FaultableClock"
                    )

    @property
    def scenario(self) -> FaultScenario:
        return self._scenario

    def _emit(self, kind: str, delta: int) -> None:
        registry = _telemetry_active()
        self._active += delta
        if registry is None:
            return
        registry.counter(
            "fault_events_total",
            "fault-scenario activations/deactivations",
            labels={"kind": kind, "scenario": self._label},
        ).inc()
        registry.gauge(
            "fault_active",
            "currently active fault windows",
            labels={"scenario": self._label},
        ).set(self._active)

    def install(self) -> None:
        """Schedule every event of the scenario; call once, before the
        horizon that should see the faults."""
        if self._installed:
            raise InvalidParameterError("scenario already installed")
        self._installed = True
        now = self._sim.now
        for event in self._scenario.events:
            start = _event_start(event)
            if isinstance(event, _WINDOW_KINDS):
                end = event.start + event.duration
                if end <= now:
                    raise InvalidParameterError(
                        f"fault window {event!r} ends at {end}, before "
                        f"install time {now}"
                    )
                start = max(start, now)
            elif start < now:
                raise InvalidParameterError(
                    f"fault event {event!r} is scheduled before install "
                    f"time {now}"
                )
            self._schedule(event, start)

    def _schedule(self, event: FaultEvent, start: float) -> None:
        sim = self._sim
        if isinstance(event, LossRegime):
            sim.schedule_at(start, lambda e=event: self._apply_loss(e))
        elif isinstance(event, DelayRegime):
            sim.schedule_at(start, lambda e=event: self._apply_delay(e))
        elif isinstance(event, Partition):
            end = event.start + event.duration
            sim.schedule_at(start, lambda: self._begin_partition(start, end))
            sim.schedule_at(end, self._end_partition)
        elif isinstance(event, Duplication):
            end = event.start + event.duration
            sim.schedule_at(
                start, lambda e=event: self._begin_duplication(e, start, end)
            )
            sim.schedule_at(end, self._end_duplication)
        elif isinstance(event, Reordering):
            end = event.start + event.duration
            sim.schedule_at(
                start, lambda e=event: self._begin_reordering(e, start, end)
            )
            sim.schedule_at(end, self._end_reordering)
        elif isinstance(event, ClockJump):
            sim.schedule_at(start, lambda e=event: self._apply_jump(e))
        elif isinstance(event, DriftOnset):
            sim.schedule_at(start, lambda e=event: self._apply_drift(e))
        elif isinstance(event, Stall):
            # Stalls act through the sender's send gate (installed at
            # construction from the scenario); the engine only records
            # and reports them.
            end = event.start + event.duration
            sim.schedule_at(start, lambda: self._begin_stall(start, end))
            sim.schedule_at(end, self._end_stall)
        else:  # pragma: no cover - FaultScenario validated the types
            raise InvalidParameterError(f"unknown fault event {event!r}")

    # ------------------------------------------------------------------ #
    # Event appliers
    # ------------------------------------------------------------------ #

    def _apply_loss(self, event: LossRegime) -> None:
        self._link.set_conditions(loss_probability=event.loss_probability)
        now = self._sim.now
        self.timeline.add(
            FaultWindow(
                now, now, "loss_regime", f"p_L={event.loss_probability:g}"
            )
        )
        self._emit("loss_regime", 0)

    def _apply_delay(self, event: DelayRegime) -> None:
        self._link.set_conditions(delay=event.delay)
        now = self._sim.now
        self.timeline.add(
            FaultWindow(now, now, "delay_regime", repr(event.delay))
        )
        self._emit("delay_regime", 0)

    def _begin_partition(self, start: float, end: float) -> None:
        self._link.begin_partition()
        self.timeline.add(FaultWindow(start, end, "partition"))
        self._emit("partition", +1)

    def _end_partition(self) -> None:
        self._link.end_partition()
        self._emit("partition", -1)

    def _begin_duplication(
        self, event: Duplication, start: float, end: float
    ) -> None:
        self._link.set_duplication(event.probability, event.lag, event.jitter)
        self.timeline.add(
            FaultWindow(
                start, end, "duplication", f"p={event.probability:g}"
            )
        )
        self._emit("duplication", +1)

    def _end_duplication(self) -> None:
        self._link.clear_duplication()
        self._emit("duplication", -1)

    def _begin_reordering(
        self, event: Reordering, start: float, end: float
    ) -> None:
        self._link.set_reordering(event.probability, event.extra_delay)
        self.timeline.add(
            FaultWindow(
                start, end, "reordering", f"p={event.probability:g}"
            )
        )
        self._emit("reordering", +1)

    def _end_reordering(self) -> None:
        self._link.clear_reordering()
        self._emit("reordering", -1)

    def _apply_jump(self, event: ClockJump) -> None:
        clock = self._clocks[event.target]
        clock.jump(self._sim.now, event.offset)
        now = self._sim.now
        self.timeline.add(
            FaultWindow(
                now, now, "clock_jump", f"{event.target}{event.offset:+g}"
            )
        )
        self._emit("clock_jump", 0)

    def _apply_drift(self, event: DriftOnset) -> None:
        clock = self._clocks[event.target]
        clock.set_drift(self._sim.now, event.drift)
        now = self._sim.now
        self.timeline.add(
            FaultWindow(
                now, now, "drift_onset", f"{event.target} {event.drift:+g}"
            )
        )
        self._emit("drift_onset", 0)

    def _begin_stall(self, start: float, end: float) -> None:
        self.timeline.add(FaultWindow(start, end, "stall"))
        self._emit("stall", +1)

    def _end_stall(self) -> None:
        self._emit("stall", -1)
