"""Local-clock models.

The paper distinguishes three clock regimes:

* **synchronized clocks** (Sections 3-5) — NFD-S shifts the *sending* times
  of heartbeats, which requires p's and q's clocks to agree;
* **unsynchronized, drift-free clocks** (Section 6) — NFD-U/NFD-E only need
  clocks that measure *intervals* accurately; an unknown constant skew
  between p and q is allowed;
* clock **drift** is assumed negligible (Section 3.1), but a drifting model
  is provided so tests and ablations can quantify how much drift the
  detectors actually tolerate.

A :class:`Clock` maps real (simulation) time to local time.  Detectors only
ever see local time.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Tuple

from repro.errors import InvalidParameterError

__all__ = [
    "Clock",
    "PerfectClock",
    "SkewedClock",
    "DriftingClock",
    "FaultableClock",
]


class Clock(ABC):
    """Maps real time to this process's local time."""

    @abstractmethod
    def local_time(self, real_time: float) -> float:
        """Local clock reading at the given real time."""

    @abstractmethod
    def real_time(self, local_time: float) -> float:
        """Inverse mapping: real time at which the clock reads ``local_time``."""


class PerfectClock(Clock):
    """A clock perfectly synchronized with real time (NFD-S's assumption)."""

    def local_time(self, real_time: float) -> float:
        return real_time

    def real_time(self, local_time: float) -> float:
        return local_time


class SkewedClock(Clock):
    """A drift-free clock offset from real time by a constant ``skew``.

    This is the Section 6 regime: intervals are exact, absolute readings
    are off by an unknown constant.  The paper's key observation — that the
    variance of (arrival local time − send local time) is skew-invariant —
    is tested against this model.
    """

    def __init__(self, skew: float) -> None:
        self._skew = float(skew)

    @property
    def skew(self) -> float:
        return self._skew

    def local_time(self, real_time: float) -> float:
        return real_time + self._skew

    def real_time(self, local_time: float) -> float:
        return local_time - self._skew


class DriftingClock(Clock):
    """A clock with constant rate error: ``local = skew + (1+drift) * real``.

    The paper argues (Section 3.1) that drift rates around 1e-6 are
    negligible for failure detection; this model lets tests and ablations
    verify that claim empirically instead of taking it on faith.
    """

    def __init__(self, skew: float = 0.0, drift: float = 0.0) -> None:
        if drift <= -1.0:
            raise InvalidParameterError(
                f"drift must be > -1 (clock must move forward), got {drift}"
            )
        self._skew = float(skew)
        self._rate = 1.0 + float(drift)

    @property
    def skew(self) -> float:
        return self._skew

    @property
    def drift(self) -> float:
        return self._rate - 1.0

    def local_time(self, real_time: float) -> float:
        return self._skew + self._rate * real_time

    def real_time(self, local_time: float) -> float:
        return (local_time - self._skew) / self._rate


class FaultableClock(Clock):
    """A clock whose mapping can be re-programmed mid-run by fault events.

    The mapping is piecewise linear in real time: each fault event
    (:meth:`jump`, :meth:`set_drift`) appends a new segment
    ``(real_start, local_at_start, rate)``.  This is the clock the
    fault-injection layer (:mod:`repro.faults`) drives to model NTP
    steps, VM-migration clock jumps, and drift onset — the failure modes
    Section 3.1 assumes away.

    The inverse :meth:`real_time` needs a convention for the readings a
    *forward* jump skips over (the clock never shows them): the first
    real instant whose reading is at least the requested value is
    returned, i.e. the jump instant itself.  A *backward* jump makes
    some readings ambiguous; the earliest matching real time is
    returned.  Both conventions keep the heartbeat sender's send-slot
    arithmetic well-defined across a fault.
    """

    def __init__(self, skew: float = 0.0, drift: float = 0.0) -> None:
        if drift <= -1.0:
            raise InvalidParameterError(
                f"drift must be > -1 (clock must move forward), got {drift}"
            )
        # (real_start, local reading at real_start, rate) — appended in
        # real-time order, rates always positive.
        self._segments: List[Tuple[float, float, float]] = [
            (0.0, float(skew), 1.0 + float(drift))
        ]

    def _local_at(self, real_time: float) -> float:
        start, local, rate = self._segments[-1]
        return local + rate * (real_time - start)

    def _append(self, real_time: float, local: float, rate: float) -> None:
        last_start = self._segments[-1][0]
        if real_time < last_start:
            raise InvalidParameterError(
                f"clock faults must be applied in real-time order: "
                f"{real_time} < {last_start}"
            )
        self._segments.append((float(real_time), float(local), float(rate)))

    def jump(self, at_real_time: float, offset: float) -> None:
        """Step the clock by ``offset`` at ``at_real_time`` (rate unchanged)."""
        rate = self._segments[-1][2]
        local = self._local_at(at_real_time) + float(offset)
        self._append(at_real_time, local, rate)

    def set_drift(self, at_real_time: float, drift: float) -> None:
        """Change the clock's rate to ``1 + drift`` from ``at_real_time`` on."""
        if drift <= -1.0:
            raise InvalidParameterError(
                f"drift must be > -1 (clock must move forward), got {drift}"
            )
        local = self._local_at(at_real_time)
        self._append(at_real_time, local, 1.0 + float(drift))

    def local_time(self, real_time: float) -> float:
        segs = self._segments
        # Few segments per run (one per scripted fault): linear scan.
        for i in range(len(segs) - 1, -1, -1):
            start, local, rate = segs[i]
            if real_time >= start or i == 0:
                return local + rate * (real_time - start)
        raise AssertionError("unreachable")  # pragma: no cover

    def real_time(self, local_time: float) -> float:
        segs = self._segments
        start0, local0, rate0 = segs[0]
        if local_time < local0:
            return start0 + (local_time - local0) / rate0
        for i, (start, local, rate) in enumerate(segs):
            if local_time < local:
                # Reading inside the gap a forward jump opened: the
                # clock first shows >= local_time at the jump instant.
                return start
            if i + 1 < len(segs):
                end_local = local + rate * (segs[i + 1][0] - start)
                if local_time < end_local:
                    return start + (local_time - local) / rate
            else:
                return start + (local_time - local) / rate
        raise AssertionError("unreachable")  # pragma: no cover
