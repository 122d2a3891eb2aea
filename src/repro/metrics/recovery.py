"""Crash-recovery QoS accounting.

The paper's model is crash-stop (footnote 2: "a process that recovers
from a crash assumes a new identity"), and the runtime follows it: every
recovery produces a fresh ``(name, incarnation)`` pipeline with its own
:class:`~repro.metrics.transitions.OutputTrace`.  Per Reis & Vieira
("Quality of Service of an Asynchronous Crash-Recovery Leader Election
Algorithm", PAPERS.md), the QoS of a *consumer* of the detector — a
leader-election layer, a membership service — is defined over the
long-lived **identity**, not over one incarnation: a suspicion raised
while the process is genuinely down is *not* a mistake, and a mistake in
progress when the process really crashes stops costing anything at the
crash instant.

This module stitches per-incarnation traces back into a per-identity
*recovery trace* and scores it with recovery-aware mistake accounting:

* an **S-transition is a mistake** only if it fires strictly before the
  incarnation's real crash instant (at or after the crash it is a
  correct detection);
* **mistake durations truncate at the crash**: a mistake still open
  when the process dies is charged only for the span the process was up
  (the crash-stop estimator would either drop it or charge the full
  S→T interval);
* **good periods ended by a genuine crash detection are censored** (they
  were cut short by a real failure, not by a detector mistake), exactly
  as the crash-stop estimator censors the trailing good period at the
  end of the observation window;
* **observation time is up-time**: ``P_A`` and ``λ_M`` are normalized
  by the time the process was actually up, so a long outage cannot
  launder a flaky detector's accuracy.

Two identities tie this to the paper's crash-stop metrics and are pinned
by ``tests/conformance/test_recovery_identities.py``:

1. on a trace with **zero restarts and no crash**, every recovery-aware
   metric is *bit-identical* to :func:`repro.metrics.qos.estimate_accuracy`;
2. pooled accuracy is invariant to splitting a recovery trace at
   incarnation boundaries (no interval ever spans real downtime, so the
   split loses no samples).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import InvalidParameterError, TraceError
from repro.metrics.qos import (
    AccuracyEstimate,
    _from_samples,
    _window_accuracy,
    detection_time,
    estimate_accuracy,
    pool_accuracy,
)
from repro.metrics.transitions import OutputTrace

__all__ = [
    "IncarnationSpan",
    "RecoveryTrace",
    "span_accuracy",
    "estimate_recovery_accuracy",
    "recovery_detection_times",
    "stitch_recovery_traces",
]


@dataclass(frozen=True)
class IncarnationSpan:
    """One incarnation's observation window plus its real crash instant.

    Attributes:
        incarnation: the incarnation counter of this pipeline.
        trace: the incarnation's closed output trace.
        crash_time: real time at which this incarnation crashed
            (``inf`` = it never crashed inside the observation window;
            a value at/after ``trace.end_time`` is equivalent).  The
            incarnation is *up* on ``[trace.start_time, crash_time)``
            and *down* from ``crash_time`` on (``time >= crash_time``).
    """

    incarnation: int
    trace: OutputTrace
    crash_time: float = math.inf

    def __post_init__(self) -> None:
        if not self.trace.closed:
            raise TraceError("incarnation trace must be closed")
        if math.isnan(self.crash_time):
            raise InvalidParameterError("crash_time must not be NaN")

    @property
    def up_start(self) -> float:
        return self.trace.start_time

    @property
    def up_end(self) -> float:
        """End of the up window: the crash, or the trace end."""
        return min(self.crash_time, self.trace.end_time)

    @property
    def up_time(self) -> float:
        return max(0.0, self.up_end - self.up_start)

    @property
    def crashed(self) -> bool:
        """Whether the crash instant falls inside the trace window."""
        return self.crash_time < self.trace.end_time


class RecoveryTrace:
    """A per-identity sequence of incarnation spans.

    Spans must be ordered by strictly increasing incarnation with
    nondecreasing start times; up windows must not overlap (incarnation
    ``k+1`` starts at or after incarnation ``k``'s trace closed).
    """

    def __init__(self, name: str, spans: Sequence[IncarnationSpan]) -> None:
        if not spans:
            raise InvalidParameterError(
                f"recovery trace for {name!r} needs at least one span"
            )
        spans = tuple(spans)
        for prev, cur in zip(spans, spans[1:]):
            if cur.incarnation <= prev.incarnation:
                raise InvalidParameterError(
                    f"incarnations must strictly increase, got "
                    f"{prev.incarnation} then {cur.incarnation}"
                )
            if cur.trace.start_time < prev.trace.end_time:
                raise InvalidParameterError(
                    f"span windows overlap: incarnation {cur.incarnation} "
                    f"starts at {cur.trace.start_time} before incarnation "
                    f"{prev.incarnation} closed at {prev.trace.end_time}"
                )
        self._name = name
        self._spans = spans

    @property
    def name(self) -> str:
        return self._name

    @property
    def spans(self) -> Tuple[IncarnationSpan, ...]:
        return self._spans

    @property
    def n_restarts(self) -> int:
        return len(self._spans) - 1

    @property
    def start_time(self) -> float:
        return self._spans[0].trace.start_time

    @property
    def end_time(self) -> float:
        return self._spans[-1].trace.end_time

    @property
    def up_time(self) -> float:
        """Total time the identity was actually up."""
        return sum(s.up_time for s in self._spans)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RecoveryTrace({self._name!r}, {len(self._spans)} spans, "
            f"{self.n_restarts} restarts)"
        )


def span_accuracy(
    trace: OutputTrace,
    crash_time: float = math.inf,
    *,
    warmup: float = 0.0,
) -> AccuracyEstimate:
    """Recovery-aware accuracy estimate for one incarnation.

    With ``crash_time`` at/after the trace end this is — bit for bit —
    :func:`repro.metrics.qos.estimate_accuracy` (the crash-stop
    estimator observed the same window): both score the trace with
    :func:`repro.metrics.qos.window_samples`, and a crash inside the
    window only ends that walk early, so accounting truncates at the
    crash instant:

    * S-transitions at/after the crash are correct detections, not
      mistakes;
    * the mistake open at the crash (if any) is charged ``crash - s``;
    * the good period open at the crash is censored (dropped);
    * ``P_A``/``λ_M`` normalize by up-time ``crash - start - warmup``.
    """
    if not trace.closed:
        raise TraceError("trace must be closed before estimation")
    if math.isnan(crash_time):
        raise InvalidParameterError("crash_time must not be NaN")
    if crash_time >= trace.end_time:
        return estimate_accuracy(trace, warmup=warmup)
    if warmup < 0:
        raise InvalidParameterError(f"warmup must be >= 0, got {warmup}")

    horizon = trace.start_time + warmup
    if crash_time <= horizon:
        # The incarnation crashed before (or the instant) steady state
        # was reached: nothing observable while up.
        empty = np.empty(0, dtype=float)
        return _from_samples(empty, empty, empty, math.nan, math.nan, 0, 0.0)
    return _window_accuracy(trace, horizon, crash_time)


def estimate_recovery_accuracy(
    recovery: RecoveryTrace,
    *,
    warmup: float = 0.0,
) -> AccuracyEstimate:
    """Recovery-aware accuracy over a whole identity.

    Per-incarnation estimates are pooled with
    :func:`repro.metrics.qos.pool_accuracy`: mistake-recurrence
    intervals never span real downtime (a mistake in incarnation ``k``
    and one in ``k+1`` are separated by a genuine failure, not by a
    good period), so per-span samples simply concatenate, and the
    time-weighted metrics combine by up-time.  ``warmup`` applies per
    incarnation — every restart brings a fresh detector with its own
    transient.

    With a single never-crashing span this returns that span's estimate
    unwrapped, preserving the bit-identity with the crash-stop
    estimator.
    """
    estimates = [
        span_accuracy(s.trace, s.crash_time, warmup=warmup)
        for s in recovery.spans
    ]
    if len(estimates) == 1:
        return estimates[0]
    return pool_accuracy(estimates)


def recovery_detection_times(recovery: RecoveryTrace) -> np.ndarray:
    """``T_D`` samples for every crash inside a recovery trace.

    Each span whose crash instant lies inside its trace window is scored
    by :func:`repro.metrics.qos.detection_time` (Section 2.2): the delay
    to the final S-transition, ``0`` if the permanent suspicion predates
    the crash, ``inf`` if the incarnation's window closed trusting
    (censored).
    """
    return np.asarray(
        [
            detection_time(span.trace, span.crash_time)
            for span in recovery.spans
            if span.crashed
        ],
        dtype=float,
    )


def stitch_recovery_traces(
    traces: Dict[Tuple[str, int], OutputTrace],
    crash_times: Dict[Tuple[str, int], float],
) -> Dict[str, RecoveryTrace]:
    """Group per-incarnation traces into per-identity recovery traces.

    Args:
        traces: closed traces keyed by ``(name, incarnation)`` — the
            shape of :meth:`MonitorService.finish`.
        crash_times: real crash instants for the same keys; missing keys
            mean the incarnation never crashed (``inf``).
    """
    by_name: Dict[str, List[IncarnationSpan]] = {}
    for (name, incarnation), trace in traces.items():
        crash = crash_times.get((name, incarnation), math.inf)
        by_name.setdefault(name, []).append(
            IncarnationSpan(incarnation, trace, crash)
        )
    return {
        name: RecoveryTrace(name, sorted(spans, key=lambda s: s.incarnation))
        for name, spans in by_name.items()
    }
