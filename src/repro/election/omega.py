"""The Omega elector: elect the smallest trusted process.

The classic reduction (Chandra–Hasan–Toueg) from an eventually-accurate
failure detector to the Omega leader oracle: each process elects the
smallest process it currently trusts.  Whenever the underlying
detectors are eventually accurate, all correct processes eventually
trust the same set and therefore agree on one leader — and by
construction, **at any instant**, two mutually-trusted processes that
both consider themselves leader must be the same process (each would
have to be ≤ the other in the candidate order).

:class:`OmegaCore` is the pure, transport-agnostic state machine; it
consumes ``(time, process, output)`` transitions from *any* detector
backend — per-detector hosts, the SoA engine, sim or live — and maintains
the trusted set, the current leader, and a leader timeline.
:class:`ServiceElector` adapts a simulated
:class:`~repro.service.monitor_service.MonitorService`;
:class:`LiveElector` adapts a wall-clock
:class:`~repro.live.monitor.LiveMonitorService` via its subscription
hook.  Both rely on the services' incarnation dispatch: a stale
incarnation's transitions are muted at the source, so the elector can
never act on a superseded trust bit (pinned by
``tests/election/test_incarnation_races.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.errors import InvalidParameterError
from repro.metrics.transitions import SUSPECT, TRUST

__all__ = ["LeaderEvent", "OmegaCore", "ServiceElector", "LiveElector"]


@dataclass(frozen=True)
class LeaderEvent:
    """One change of the elected leader.

    Attributes:
        time: when the leader changed.
        leader: the new leader (``None`` = no trusted candidate).
        previous: the leader before the change.
        reset: True when the change was caused by the elector itself
            restarting (crash-recovery of the *electing* process), not
            by a detector transition — consumer-QoS scoring must not
            charge these as demotions of the previous leader.
    """

    time: float
    leader: Optional[str]
    previous: Optional[str]
    reset: bool = False

    @property
    def is_demotion(self) -> bool:
        """The previous leader lost the leadership because it lost
        trust.  Under the min rule the two causes of a leader change
        are ordinally distinguishable: losing trust hands leadership to
        a *larger* candidate (or nobody), while a smaller candidate
        earning trust merely *preempts* — the previous leader is still
        trusted, and nothing was suspected."""
        if self.previous is None or self.reset:
            return False
        return self.leader is None or self.leader > self.previous


class OmegaCore:
    """Elects the smallest trusted candidate; keeps a leader timeline.

    Args:
        self_name: when the elector runs *on* one of the candidate
            processes, its own name — a process always trusts itself,
            so ``self_name`` is permanently in the trusted set.
        candidates: initial candidate names (all start untrusted, like
            the paper's detectors, which suspect until the first fresh
            heartbeat).
        registry: optional metrics registry; wires the
            ``election_leader_changes_total`` /
            ``election_demotions_total`` counters and the
            ``election_trusted_candidates`` / ``election_has_leader``
            gauges.

    Every observed transition records a ``(time, trusted-set, leader)``
    snapshot in :attr:`history` (the property suites sample these).
    """

    def __init__(
        self,
        self_name: Optional[str] = None,
        candidates: Tuple[str, ...] = (),
        *,
        registry=None,
        label: str = "",
    ) -> None:
        self._self = self_name
        self._candidates = set(candidates)
        if self_name is not None:
            self._candidates.add(self_name)
        self._trusted = {self_name} if self_name is not None else set()
        self._leader: Optional[str] = min(self._trusted) if self._trusted else None
        self._events: List[LeaderEvent] = []
        self._listeners: List[Callable[[LeaderEvent], None]] = []
        self._c_changes = self._c_demotions = None
        self._g_trusted = self._g_has_leader = None
        if registry is not None:
            labels = {"elector": label} if label else None
            self._c_changes = registry.counter(
                "election_leader_changes_total",
                "changes of the elected leader",
                labels=labels,
            )
            self._c_demotions = registry.counter(
                "election_demotions_total",
                "leader changes that demoted a previously elected leader",
                labels=labels,
            )
            self._g_trusted = registry.gauge(
                "election_trusted_candidates",
                "candidates currently trusted by the elector",
                labels=labels,
            )
            self._g_has_leader = registry.gauge(
                "election_has_leader",
                "1 while some candidate is trusted (a leader is elected)",
                labels=labels,
            )
            self._g_trusted.set(len(self._trusted))
            self._g_has_leader.set(0 if self._leader is None else 1)

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #

    @property
    def self_name(self) -> Optional[str]:
        return self._self

    @property
    def leader(self) -> Optional[str]:
        """The currently elected leader (smallest trusted candidate)."""
        return self._leader

    @property
    def trusted(self) -> frozenset:
        return frozenset(self._trusted)

    @property
    def candidates(self) -> frozenset:
        return frozenset(self._candidates)

    @property
    def events(self) -> Tuple[LeaderEvent, ...]:
        """The leader timeline, oldest first."""
        return tuple(self._events)

    def subscribe(self, listener: Callable[[LeaderEvent], None]) -> None:
        """Register a callback for every leader change."""
        self._listeners.append(listener)

    # ------------------------------------------------------------------ #
    # Inputs
    # ------------------------------------------------------------------ #

    def watch(self, name: str) -> None:
        """Add a candidate (it starts untrusted, like a fresh detector)."""
        self._candidates.add(name)

    def on_transition(self, time: float, name: str, output: str) -> None:
        """Feed one detector transition (``"S"`` or ``"T"``)."""
        if output not in (TRUST, SUSPECT):
            raise InvalidParameterError(
                f"output must be 'T' or 'S', got {output!r}"
            )
        self._candidates.add(name)
        if name == self._self:
            # A process always trusts itself; its own detector entry (if
            # any) cannot demote it locally.
            return
        if output == TRUST:
            self._trusted.add(name)
        else:
            self._trusted.discard(name)
        self._recompute(time)

    def reset(self, time: float) -> None:
        """Crash-recovery of the electing process itself: the restarted
        elector has no memory and trusts nobody (but itself) until its
        detectors re-deliver transitions.  Emits a ``reset`` leader
        event so consumer-QoS scoring does not charge a demotion."""
        self._trusted = {self._self} if self._self is not None else set()
        self._recompute(time, reset=True)

    def _recompute(self, time: float, reset: bool = False) -> None:
        new_leader = min(self._trusted) if self._trusted else None
        if self._g_trusted is not None:
            self._g_trusted.set(len(self._trusted))
        if new_leader == self._leader:
            return
        event = LeaderEvent(
            time=time, leader=new_leader, previous=self._leader, reset=reset
        )
        self._leader = new_leader
        self._events.append(event)
        if self._c_changes is not None:
            self._c_changes.inc()
            if event.is_demotion:
                self._c_demotions.inc()
            self._g_has_leader.set(0 if new_leader is None else 1)
        for listener in self._listeners:
            listener(event)


class ServiceElector:
    """An Omega elector fed by a simulated
    :class:`~repro.service.monitor_service.MonitorService`.

    Subscribes to the service's transition stream; every monitored
    process is a candidate.  Administrative S events (remove/restart)
    untrust the process like any suspicion — a departed process simply
    stays untrusted until a new incarnation earns trust again.  The
    service publishes only current-incarnation transitions, so the
    elector cannot act on a stale incarnation's trust bit.
    """

    def __init__(
        self,
        service,
        self_name: Optional[str] = None,
    ) -> None:
        self._service = service
        self.core = OmegaCore(self_name, tuple(service.process_names))
        service.subscribe(self._on_event)

    def _on_event(self, event) -> None:
        self.core.on_transition(event.time, event.process, event.output)

    @property
    def leader(self) -> Optional[str]:
        return self.core.leader

    @property
    def events(self) -> Tuple[LeaderEvent, ...]:
        return self.core.events


class LiveElector:
    """An Omega elector fed by a wall-clock
    :class:`~repro.live.monitor.LiveMonitorService`.

    Uses the service's subscription hook, which publishes detector
    transitions plus administrative S events at incarnation starts and
    removals — so a restarted peer is immediately untrusted until its
    new incarnation's first fresh heartbeat, and the elector never
    holds a trust bit that belongs to a finalized incarnation.
    """

    def __init__(
        self,
        service,
        self_name: Optional[str] = None,
        *,
        label: str = "",
    ) -> None:
        self._service = service
        self.core = OmegaCore(
            self_name,
            tuple(service.peer_names),
            registry=service.registry,
            label=label,
        )
        service.subscribe(self._on_event)

    def _on_event(self, event) -> None:
        self.core.on_transition(event.time, event.process, event.output)

    @property
    def leader(self) -> Optional[str]:
        return self.core.leader

    @property
    def events(self) -> Tuple[LeaderEvent, ...]:
        return self.core.events
