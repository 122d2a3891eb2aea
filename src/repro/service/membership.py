"""A simple group-membership view driven by the failure detectors.

Group membership is the paper's canonical motivating application (its
introduction cites Isis, Transis, Totem, Horus, Relacs, Ensemble): every
failure-detector mistake costs an expensive view change, which is exactly
why ``E(T_MR)`` (time between mistakes) and ``E(T_M)`` (time to retract
one) are the right accuracy metrics.

:class:`GroupMembership` maintains the *view* — the set of trusted
processes — over a :class:`~repro.service.monitor_service.MonitorService`.
Every transition may produce a new view with an incremented identifier;
listeners receive :class:`~repro.service.events.MembershipEvent`.  The
class also counts *spurious* view changes (those caused by detector
mistakes on live processes), the service-level analogue of the mistake
rate ``λ_M``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet, List

from repro.service.events import MembershipEvent, MonitorEvent
from repro.service.monitor_service import MonitorService

__all__ = ["MembershipView", "GroupMembership"]


@dataclass(frozen=True)
class MembershipView:
    """An immutable membership view."""

    view_id: int
    members: FrozenSet[str]
    installed_at: float

    def __contains__(self, name: str) -> bool:
        return name in self.members

    def __len__(self) -> int:
        return len(self.members)


class GroupMembership:
    """Tracks the trusted set of a :class:`MonitorService` as views.

    Args:
        service: the monitor service to follow.

    The initial view (id 0) is empty: every process joins when it is
    first trusted, mirroring the paper's detectors which suspect until
    the first fresh heartbeat.
    """

    def __init__(self, service: MonitorService) -> None:
        self._service = service
        self._view = MembershipView(
            view_id=0, members=frozenset(), installed_at=service.sim.now
        )
        self._listeners: List[Callable[[MembershipEvent], None]] = []
        self._spurious_changes = 0
        service.subscribe(self._on_transition)

    @property
    def view(self) -> MembershipView:
        """The currently installed view."""
        return self._view

    @property
    def view_change_count(self) -> int:
        """Number of view changes since the initial (empty) view."""
        return self._view.view_id

    @property
    def spurious_change_count(self) -> int:
        """View changes that removed a process that had *not* crashed.

        This is the membership-level cost of failure-detector mistakes —
        the quantity that ``T_MR^L`` in a QoS contract is meant to keep
        rare.
        """
        return self._spurious_changes

    def subscribe(self, listener: Callable[[MembershipEvent], None]) -> None:
        self._listeners.append(listener)

    def _on_transition(self, event: MonitorEvent) -> None:
        members = set(self._view.members)
        if event.output == "T":
            if event.process in members:
                return
            members.add(event.process)
            joined = frozenset({event.process})
            left: FrozenSet[str] = frozenset()
        else:
            if event.process not in members:
                return
            members.discard(event.process)
            joined = frozenset()
            left = frozenset({event.process})
            if not event.administrative:
                proc = self._service.process(event.process)
                # Spurious iff the process was still live *when the
                # suspicion fired*: a crash scheduled for the future
                # (crash_time > event.time) does not excuse a mistake
                # made before it takes effect.
                if event.time < proc.crash_time:
                    self._spurious_changes += 1
        self._install(frozenset(members), joined, left, event.time)

    def _install(
        self,
        members: FrozenSet[str],
        joined: FrozenSet[str],
        left: FrozenSet[str],
        time: float,
    ) -> None:
        self._view = MembershipView(
            view_id=self._view.view_id + 1,
            members=members,
            installed_at=time,
        )
        event = MembershipEvent(
            time=time,
            view_id=self._view.view_id,
            members=members,
            joined=joined,
            left=left,
        )
        for listener in self._listeners:
            listener(event)
