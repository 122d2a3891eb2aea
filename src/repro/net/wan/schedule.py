"""Scripted partition/heal schedules over a WAN topology.

A :class:`WanSchedule` maps inter-site links to
:class:`~repro.faults.scenario.FaultScenario` scripts and compiles them
into time-indexed queries: *is this link down at time t*, *what loss
rate / delay distribution governs it at t*, *which links are down at t*.
It deliberately reuses the :mod:`repro.faults` event dataclasses —
:class:`~repro.faults.scenario.Partition`,
:class:`~repro.faults.scenario.LossRegime` and
:class:`~repro.faults.scenario.DelayRegime` — so a script written for a
single link reads identically when layered onto a WAN link.  The other
event kinds (duplication, reordering, clock faults, stalls) act on a
*process*, not a link, and are rejected here; attach those through the
usual per-process :class:`~repro.faults.scenario.ScenarioEngine`.

Unlike the engine, which installs callbacks onto a simulator, the
schedule is compiled to pure data and queried by time.  That is what the
relay model needs: a heartbeat crossing three hops asks about link state
at three *different* times (its per-hop arrival times), which no
callback installed at a single simulator clock could answer.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import InvalidParameterError
from repro.faults.scenario import (
    DelayRegime,
    FaultScenario,
    LossRegime,
    Partition,
)
from repro.net.delays import DelayDistribution
from repro.net.wan.topology import WanTopology, pair_key

__all__ = ["WanSchedule", "periodic_partitions"]

_LINK_EVENTS = (Partition, LossRegime, DelayRegime)


def _merge_intervals(
    spans: List[Tuple[float, float]]
) -> List[Tuple[float, float]]:
    """Union of half-open ``[start, end)`` spans, sorted and disjoint."""
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(spans):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


class _LinkTrack:
    """One link's compiled schedule: partition spans + regime steps."""

    def __init__(self, scenario: FaultScenario) -> None:
        spans: List[Tuple[float, float]] = []
        loss_steps: List[Tuple[float, float]] = []
        delay_steps: List[Tuple[float, DelayDistribution]] = []
        for event in scenario.events:
            if isinstance(event, Partition):
                spans.append((event.start, event.start + event.duration))
            elif isinstance(event, LossRegime):
                if not event.loss_probability < 1.0:
                    raise InvalidParameterError(
                        "a WAN loss regime must keep loss < 1; script a "
                        "Partition to cut the link outright"
                    )
                loss_steps.append((event.time, event.loss_probability))
            elif isinstance(event, DelayRegime):
                delay_steps.append((event.time, event.delay))
            else:
                raise InvalidParameterError(
                    f"{type(event).__name__} is a per-process fault, not "
                    f"a link fault; WAN schedules accept only Partition/"
                    f"LossRegime/DelayRegime"
                )
        self._spans = _merge_intervals(spans)
        self._span_starts = [s for s, _ in self._spans]
        # FaultScenario orders events canonically, so same-time steps
        # resolve identically however the script listed them.
        self._loss_times = [t for t, _ in loss_steps]
        self._loss_values = [p for _, p in loss_steps]
        self._delay_times = [t for t, _ in delay_steps]
        self._delay_values = [d for _, d in delay_steps]

    def down(self, t: float) -> bool:
        i = bisect.bisect_right(self._span_starts, t)
        return i > 0 and t < self._spans[i - 1][1]

    def loss_at(self, t: float) -> Optional[float]:
        i = bisect.bisect_right(self._loss_times, t)
        return self._loss_values[i - 1] if i > 0 else None

    def delay_at(self, t: float) -> Optional[DelayDistribution]:
        i = bisect.bisect_right(self._delay_times, t)
        return self._delay_values[i - 1] if i > 0 else None


class WanSchedule:
    """Per-link fault scripts over one topology, compiled for queries.

    Args:
        topology: every scripted site pair must be a declared link.
        scenarios: mapping ``(site_a, site_b) -> FaultScenario`` (pairs
            are canonicalized; order does not matter).
        name: label used in tables and telemetry.
    """

    def __init__(
        self,
        topology: WanTopology,
        scenarios: Mapping[Tuple[str, str], FaultScenario],
        name: str = "wan-schedule",
    ) -> None:
        self.name = str(name)
        self._tracks: Dict[Tuple[str, str], _LinkTrack] = {}
        self._scenarios: Dict[Tuple[str, str], FaultScenario] = {}
        for pair, scenario in scenarios.items():
            key = pair_key(*pair)
            topology.links_for(key)  # raises on an undeclared link
            if key in self._tracks:
                raise InvalidParameterError(
                    f"link {key} scripted twice (keys canonicalize to "
                    f"the same pair)"
                )
            self._tracks[key] = _LinkTrack(scenario)
            self._scenarios[key] = scenario

    @property
    def scenarios(self) -> Dict[Tuple[str, str], FaultScenario]:
        return dict(self._scenarios)

    @property
    def end_time(self) -> float:
        """Time after which the schedule changes nothing further."""
        return max(
            (s.end_time for s in self._scenarios.values()), default=0.0
        )

    def down(self, key: Tuple[str, str], t: float) -> bool:
        track = self._tracks.get(pair_key(*key))
        return track.down(t) if track is not None else False

    def loss_at(self, key: Tuple[str, str], t: float) -> Optional[float]:
        """The loss regime governing the link at ``t``, or ``None`` for
        the link's declared loss."""
        track = self._tracks.get(pair_key(*key))
        return track.loss_at(t) if track is not None else None

    def delay_at(
        self, key: Tuple[str, str], t: float
    ) -> Optional[DelayDistribution]:
        """The delay regime governing the link at ``t``, or ``None`` for
        the link's declared delay."""
        track = self._tracks.get(pair_key(*key))
        return track.delay_at(t) if track is not None else None

    def down_set(self, t: float) -> frozenset:
        """Canonical keys of every link partitioned at time ``t``."""
        return frozenset(
            key for key, track in self._tracks.items() if track.down(t)
        )


def periodic_partitions(
    first: float,
    period: float,
    duration: float,
    count: int,
) -> FaultScenario:
    """``count`` partition windows of ``duration`` every ``period``.

    The classic WAN maintenance pattern: the link at ``first`` goes dark
    for ``duration``, heals, and repeats.  Returns a plain
    :class:`FaultScenario` so it can be layered per link in a
    :class:`WanSchedule` or driven through a
    :class:`~repro.faults.scenario.ScenarioEngine` unchanged.
    """
    if count < 1:
        raise InvalidParameterError(f"count must be >= 1, got {count}")
    if duration >= period:
        raise InvalidParameterError(
            f"duration {duration} must be shorter than the period "
            f"{period} (the link must heal between windows)"
        )
    return FaultScenario(
        [
            Partition(start=first + i * period, duration=duration)
            for i in range(count)
        ],
        name="periodic-partitions",
    )
