"""Event-driven failure-detector interface.

All detectors in this library are *heartbeat* detectors at the monitoring
process *q*: they consume heartbeat receipts and timer expirations, and
maintain a binary output — ``T`` ("trust p") or ``S`` ("suspect p").

Detectors are written against two small abstractions so the same code runs
under the discrete-event simulator and (in principle) on a real event loop:

* :class:`DetectorRuntime` — q's local clock plus one-shot timers in local
  time;
* :class:`Heartbeat` — a received heartbeat with its sequence number, the
  sender-side timestamp (p's local clock) and the receive time (q's local
  clock).

Detectors never see *real* time: everything is in q's local time, which is
what makes the synchronized/unsynchronized clock distinction of the paper
meaningful in this codebase.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Optional, Protocol

from repro.errors import SimulationError
from repro.metrics.transitions import SUSPECT, TRUST

__all__ = [
    "Heartbeat",
    "DetectorRuntime",
    "TimerHandle",
    "HeartbeatFailureDetector",
]


@dataclass(frozen=True)
class Heartbeat:
    """A heartbeat message as seen by the monitoring process q.

    Attributes:
        seq: the sequence number ``i`` of message ``m_i`` (1-based).
        send_local_time: p's clock reading when the message was sent
            (carried in the message, used by delay estimators and the SFD
            cutoff rule).
        receive_local_time: q's clock reading at receipt.
    """

    seq: int
    send_local_time: float
    receive_local_time: float


class TimerHandle(Protocol):
    """Cancellable handle for a one-shot timer."""

    def cancel(self) -> None: ...


class DetectorRuntime(Protocol):
    """What a detector may ask of its host: local time and timers."""

    def local_now(self) -> float:
        """q's local clock reading."""
        ...

    def call_at(
        self, local_time: float, callback: Callable[[], None]
    ) -> TimerHandle:
        """Schedule ``callback`` at the given *local* time.

        A time already past is not an error: the timer fires as soon as
        possible (the drivers' rule, stated on
        :meth:`repro.sim.engine.SimWheelScheduler.call_at`).
        """
        ...


class HeartbeatFailureDetector(ABC):
    """Base class for event-driven heartbeat failure detectors.

    Lifecycle: construct → :meth:`bind` (host provides runtime and a
    transition listener) → :meth:`start` (detector arms its initial timers)
    → a stream of :meth:`on_heartbeat` calls and internal timer firings.

    Subclasses change the output exclusively through :meth:`_set_output`,
    which notifies the listener only on actual transitions.  All paper
    algorithms initialize to ``S`` (suspect until proven alive).
    """

    #: short machine name, e.g. "nfd-s"; used by the registry and reports
    name: str = "abstract"

    def __init__(self) -> None:
        self._runtime: Optional[DetectorRuntime] = None
        self._listener: Optional[Callable[[float, str], None]] = None
        self._output: str = SUSPECT
        self._started = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def bind(
        self,
        runtime: DetectorRuntime,
        listener: Optional[Callable[[float, str], None]] = None,
    ) -> None:
        """Attach the detector to a host runtime.

        Args:
            runtime: clock + timer provider.
            listener: called as ``listener(local_time, new_output)`` on
                every output transition.
        """
        if self._runtime is not None:
            raise SimulationError("detector already bound")
        self._runtime = runtime
        self._listener = listener

    def start(self) -> None:
        """Begin operation (arm initial timers).  Requires :meth:`bind`."""
        if self._runtime is None:
            raise SimulationError("bind() must be called before start()")
        if self._started:
            raise SimulationError("detector already started")
        self._started = True
        self._on_start()

    @abstractmethod
    def _on_start(self) -> None:
        """Subclass hook: arm the initial timers."""

    @abstractmethod
    def on_heartbeat(self, heartbeat: Heartbeat) -> None:
        """Process the receipt of a heartbeat message."""

    # ------------------------------------------------------------------ #
    # Output management
    # ------------------------------------------------------------------ #

    @property
    def output(self) -> str:
        """Current output: ``"T"`` (trust) or ``"S"`` (suspect)."""
        return self._output

    @property
    def suspects(self) -> bool:
        return self._output == SUSPECT

    @property
    def runtime(self) -> DetectorRuntime:
        if self._runtime is None:
            raise SimulationError("detector not bound")
        return self._runtime

    def _set_output(self, output: str) -> None:
        """Set the output, notifying the listener on transitions."""
        if output not in (TRUST, SUSPECT):
            raise SimulationError(f"invalid output {output!r}")
        if output == self._output:
            return
        self._output = output
        if self._listener is not None:
            self._listener(self.runtime.local_now(), output)

    # ------------------------------------------------------------------ #
    # Introspection / reporting
    # ------------------------------------------------------------------ #

    def describe(self) -> str:
        """One-line human description (overridden by subclasses)."""
        return type(self).__name__
