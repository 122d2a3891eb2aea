"""Consumer-level QoS metrics for the election layer.

Reis & Vieira score a leader-election service by how it *consumes* the
failure detector's QoS: how long an elected correct leader survives
before a detector mistake demotes it, how quickly a real leader crash
is repaired, and how often leadership churns for no reason.  This
module computes those metrics from a leader timeline
(:class:`~repro.election.omega.LeaderEvent` sequences) against a
crash/recovery **ground truth**:

* **leader stability** — mean time between demotions of a *correct*
  (up) leader, the election-layer analogue of ``E(T_MR)``;
* **election latency** — for each crash of the elected leader, the time
  until a correct leader is installed again, the analogue of ``T_D``
  (plus dissemination, zero for an in-process elector);
* **spurious-demotion rate** — demotions of up leaders per unit time,
  the analogue of ``λ_M``.

Observation can be restricted to the instants an *observer* process was
itself up: a crashed monitor's opinions are meaningless while it is
down, exactly as a crashed process's detector output is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import InvalidParameterError
from repro.election.omega import LeaderEvent

__all__ = [
    "GroundTruth",
    "ElectionQoS",
    "score_election",
]


class GroundTruth:
    """Real crash/recovery instants of a set of identities.

    All names are up from time 0.  A crash at ``c`` makes the
    process down on ``[c, r)`` where ``r`` is the matching recovery
    (down forever if none) — the same right-continuous convention as
    a monitored process's ``crash_time`` (down iff ``time >= crash_time``).
    """

    def __init__(self, names: Iterable[str]) -> None:
        self._start = 0.0
        self._crashes: Dict[str, List[float]] = {n: [] for n in names}
        self._recoveries: Dict[str, List[float]] = {n: [] for n in names}
        self._events: List[Tuple[float, str, str]] = []

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._crashes))

    @property
    def start(self) -> float:
        return self._start

    @property
    def events(self) -> Tuple[Tuple[float, str, str], ...]:
        """All ``(time, name, "crash"|"recover")`` events, time order."""
        return tuple(sorted(self._events))

    @property
    def crash_events(self) -> Tuple[Tuple[float, str], ...]:
        return tuple(
            (t, n) for t, n, kind in self.events if kind == "crash"
        )

    def _series(self, name: str) -> Tuple[List[float], List[float]]:
        try:
            return self._crashes[name], self._recoveries[name]
        except KeyError:
            raise InvalidParameterError(f"unknown process {name!r}") from None

    def crash(self, name: str, time: float) -> None:
        crashes, recoveries = self._series(name)
        if len(crashes) > len(recoveries):
            raise InvalidParameterError(f"{name!r} is already down")
        if crashes and time < recoveries[-1]:
            raise InvalidParameterError(
                f"crash at {time} before recovery at {recoveries[-1]}"
            )
        crashes.append(float(time))
        self._events.append((float(time), name, "crash"))

    def recover(self, name: str, time: float) -> None:
        crashes, recoveries = self._series(name)
        if len(crashes) == len(recoveries):
            raise InvalidParameterError(f"{name!r} is not down")
        if time < crashes[-1]:
            raise InvalidParameterError(
                f"recovery at {time} before crash at {crashes[-1]}"
            )
        recoveries.append(float(time))
        self._events.append((float(time), name, "recover"))

    def up(self, name: str, time: float) -> bool:
        """Whether ``name`` is up at ``time`` (down at the crash
        instant, up again at the recovery instant)."""
        crashes, recoveries = self._series(name)
        if time < self._start:
            return False
        i = np.searchsorted(np.asarray(crashes), time, side="right")
        j = np.searchsorted(np.asarray(recoveries), time, side="right")
        # Up iff every crash at/before `time` has a recovery at/before it.
        return int(i) == int(j)

    def up_intervals(
        self, name: str, lo: float, hi: float
    ) -> List[Tuple[float, float]]:
        """Maximal intervals within ``[lo, hi]`` during which ``name``
        is up."""
        crashes, recoveries = self._series(name)
        out: List[Tuple[float, float]] = []
        cur = self._start
        for k, c in enumerate(crashes):
            if c > cur:
                out.append((cur, c))
            cur = recoveries[k] if k < len(recoveries) else math.inf
        if cur < math.inf:
            out.append((cur, math.inf))
        clipped = [
            (max(a, lo), min(b, hi)) for a, b in out if b > lo and a < hi
        ]
        return [(a, b) for a, b in clipped if b > a]

    def first_up(self, name: str, lo: float, hi: float) -> Optional[float]:
        """Earliest instant in ``[lo, hi)`` at which ``name`` is up."""
        for a, b in self.up_intervals(name, lo, hi):
            return a
        return None

    def up_time(self, name: str, lo: float, hi: float) -> float:
        return sum(b - a for a, b in self.up_intervals(name, lo, hi))


@dataclass
class ElectionQoS:
    """Consumer-level QoS of one elector over an observation window."""

    observation_time: float
    n_demotions: int
    n_spurious_demotions: int
    #: mean time between spurious demotions (NaN when none happened).
    leader_stability: float
    #: spurious demotions per unit of observed time.
    spurious_demotion_rate: float
    #: per-leader-crash repair times (``inf`` = never repaired in window).
    latencies: np.ndarray = field(repr=False)
    #: fraction of observed time a correct (up) leader was installed.
    correct_leader_fraction: float

    @property
    def mean_latency(self) -> float:
        finite = self.latencies[np.isfinite(self.latencies)]
        return float(finite.mean()) if finite.size else math.nan

    @property
    def max_latency(self) -> float:
        return float(self.latencies.max()) if self.latencies.size else math.nan


def _segments(
    events: Sequence[LeaderEvent],
    start: float,
    end: float,
    initial: Optional[str],
) -> List[Tuple[float, float, Optional[str]]]:
    """Piecewise-constant leader over ``[start, end]`` as
    ``(seg_start, seg_end, leader)`` pieces."""
    leader = initial
    t = start
    out: List[Tuple[float, float, Optional[str]]] = []
    for ev in events:
        if ev.time <= start:
            leader = ev.leader
            continue
        if ev.time > end:
            break
        if ev.time > t:
            out.append((t, ev.time, leader))
        leader = ev.leader
        t = ev.time
    if end > t:
        out.append((t, end, leader))
    return out


def score_election(
    events: Sequence[LeaderEvent],
    truth: GroundTruth,
    *,
    start: float,
    end: float,
    initial: Optional[str] = None,
    observer: Optional[str] = None,
) -> ElectionQoS:
    """Score one elector's leader timeline over ``[start, end]``.

    Args:
        events: the elector's leader timeline.
        truth: real crash/recovery instants.
        initial: the leader before the first event (an elector running
            *on* a candidate elects itself at birth).
        observer: when the elector runs on one of the candidate
            processes, its name: observation (and every per-event
            classification) is masked to the instants the observer was
            itself up — a crashed monitor's opinions don't count.
    """
    if end <= start:
        raise InvalidParameterError(f"need end > start, got [{start}, {end}]")
    observation = (
        end - start
        if observer is None
        else truth.up_time(observer, start, end)
    )

    n_demotions = n_spurious = 0
    for ev in events:
        if not (start < ev.time <= end) or not ev.is_demotion:
            continue
        if observer is not None and not truth.up(observer, ev.time):
            continue
        n_demotions += 1
        if truth.up(ev.previous, ev.time):
            n_spurious += 1

    # Election latency per crash of the then-elected leader.
    latencies: List[float] = []
    segments = _segments(events, start, end, initial)
    for c, name in truth.crash_events:
        if not (start <= c < end):
            continue
        if observer is not None and not truth.up(observer, c):
            continue
        # Was `name` the elected leader just before its crash?
        before = initial
        for ev in events:
            if ev.time >= c:
                break
            before = ev.leader
        if before != name:
            continue
        # First instant >= c at which an up leader is installed.
        repaired = math.inf
        for lo, hi, leader in segments:
            if hi <= c:
                continue
            if leader is None:
                continue
            t = truth.first_up(leader, max(lo, c), hi)
            if t is not None:
                repaired = t - c
                break
        latencies.append(repaired)

    # Fraction of (masked) observation with a correct leader installed.
    correct = 0.0
    for lo, hi, leader in segments:
        if leader is None:
            continue
        for a, b in truth.up_intervals(leader, lo, hi):
            if observer is None:
                correct += b - a
            else:
                correct += truth.up_time(observer, a, b)

    return ElectionQoS(
        observation_time=observation,
        n_demotions=n_demotions,
        n_spurious_demotions=n_spurious,
        leader_stability=(
            observation / n_spurious if n_spurious else math.nan
        ),
        spurious_demotion_rate=(
            n_spurious / observation if observation > 0 else math.nan
        ),
        latencies=np.asarray(latencies, dtype=float),
        correct_leader_fraction=(
            correct / observation if observation > 0 else math.nan
        ),
    )
