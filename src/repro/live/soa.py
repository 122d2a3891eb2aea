"""The asyncio loop as a host driver.

:class:`LoopWheelScheduler` is the live counterpart of
:class:`~repro.sim.engine.SimWheelScheduler`: it gives both hosts
(:mod:`repro.sim.monitor`) their clock and timers on a real event loop.
Through ``wake_at`` the shared
:class:`~repro.service.soa.VectorMonitorEngine` keeps **one** armed
``loop.call_at`` — the earliest freshness deadline across *all*
monitored peers — instead of one timer chain per peer, which is what
lets a single live monitor track 10^5+ senders without drowning the
loop's timer heap.

Driver time is the loop's monotonic clock shifted by an *origin*:
``now() = loop.time() − origin``.  Picking the origin is how deployments
express their clock regime:

* loopback / one process: every host and sender shares one origin on
  one loop clock — exactly synchronized clocks, the Section 5 regime
  NFD-S assumes;
* two machines: each side anchors its origin so that local time equals
  Unix time (a shared epoch); clocks are then synchronized only as well
  as NTP keeps them, which is the regime NFD-E and NFD-U tolerate.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Optional

# The row host under the name it had when it lived here.
from repro.service.soa import SoAMonitorHost as SoALiveHost

__all__ = ["LoopWheelScheduler", "SoALiveHost"]


class LoopWheelScheduler:
    """An asyncio loop as a driver: ``now()``, ``call_at`` and the
    wheel's single re-armable ``wake_at``, all in loop time minus
    ``origin`` — a deadline lands on the loop at ``origin + time``."""

    def __init__(
        self, loop: asyncio.AbstractEventLoop, origin: float
    ) -> None:
        self._loop = loop
        self._origin = float(origin)
        self._handle: Optional[asyncio.TimerHandle] = None

    @property
    def origin(self) -> float:
        return self._origin

    def now(self) -> float:
        return self._loop.time() - self._origin

    def call_at(
        self, time: float, callback: Callable[[], None]
    ) -> asyncio.TimerHandle:
        # asyncio fires a past deadline as soon as possible: the
        # drivers' one rule (SimWheelScheduler.call_at).
        return self._loop.call_at(self._origin + time, callback)

    def wake_at(self, time: float, callback: Callable[[], None]) -> None:
        if self._handle is not None:
            self._handle.cancel()
        self._handle = self.call_at(time, callback)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
