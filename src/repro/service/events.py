"""Event records emitted by the monitoring service and membership layer."""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, NamedTuple

__all__ = ["MonitorEvent", "MembershipEvent"]


class MonitorEvent(NamedTuple):
    """A failure-detector transition for one monitored process.

    A named tuple: a verdict storm builds one per transition for every
    subscribed service, and a tuple is the cheapest immutable record.

    Attributes:
        time: real (simulation) time of the transition.
        process: name of the monitored process.
        output: the new output, ``"S"`` or ``"T"``.
        administrative: True for synthetic events published by service
            operations (remove/restart) rather than by the detector —
            consumers must not count these as detector mistakes.
        incarnation: incarnation of the pipeline that produced the
            event.  The service only ever publishes events of the
            *current* incarnation (stale detectors are muted at the
            source), so consumers like the election layer can rely on
            this being monotone per process.
    """

    time: float
    process: str
    output: str
    administrative: bool = False
    incarnation: int = 0

    @property
    def is_suspicion(self) -> bool:
        return self.output == "S"


@dataclass(frozen=True)
class MembershipEvent:
    """A membership view change.

    Attributes:
        time: real time of the change.
        view_id: the new (monotonically increasing) view identifier.
        members: the trusted set after the change.
        joined: processes that entered the view.
        left: processes that left the view (suspected or removed).
    """

    time: float
    view_id: int
    members: FrozenSet[str]
    joined: FrozenSet[str]
    left: FrozenSet[str]
