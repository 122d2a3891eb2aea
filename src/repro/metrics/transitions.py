"""Failure-detector output traces.

The output of the failure detector at *q* at any time is either ``S``
("suspect p") or ``T`` ("trust p").  A *transition* is a change of output:
an **S-transition** flips T→S (the detector *makes a mistake* when p is
up), a **T-transition** flips S→T (the detector *corrects* a mistake).
The paper adopts the convention that the output is right-continuous: at the
instant of a transition the output already has its new value (Appendix C).

:class:`OutputTrace` records an output history over a finite observation
window and exposes the interval decompositions the QoS metrics are defined
on (Fig. 4 of the paper):

* *mistake durations* ``T_M`` — S-transition → next T-transition;
* *good periods* ``T_G`` — T-transition → next S-transition;
* *mistake recurrence times* ``T_MR`` — S-transition → next S-transition.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TraceError

__all__ = ["TRUST", "SUSPECT", "TransitionKind", "Transition", "OutputTrace"]


TRUST = "T"
SUSPECT = "S"


class TransitionKind(enum.Enum):
    """The two kinds of output transitions."""

    S_TRANSITION = "S"  # output changed from T to S (a new suspicion)
    T_TRANSITION = "T"  # output changed from S to T (suspicion retracted)

    @property
    def new_output(self) -> str:
        return TRUST if self is TransitionKind.T_TRANSITION else SUSPECT


@dataclass(frozen=True)
class Transition:
    """One output transition at a point in time."""

    time: float
    kind: TransitionKind

    @property
    def is_suspicion(self) -> bool:
        return self.kind is TransitionKind.S_TRANSITION


class OutputTrace:
    """An S/T output history over ``[start_time, end_time]``.

    The trace starts with ``initial_output`` at ``start_time`` (the paper's
    algorithms initialize to ``S``: *q* suspects *p* until the first fresh
    heartbeat arrives).  Transitions must be appended in nondecreasing time
    order; a transition to the current output is ignored (the detectors may
    re-assert their output, which is not a transition).

    The class is deliberately tolerant of *same-time* flips S→T→S, which
    NFD can produce when a freshness point and a message receipt coincide;
    such zero-length intervals are kept (they have measure zero and do not
    affect ``P_A``) but callers can drop them via ``drop_zero_length``.
    """

    def __init__(self, start_time: float = 0.0, initial_output: str = SUSPECT):
        if initial_output not in (TRUST, SUSPECT):
            raise TraceError(f"initial_output must be 'T' or 'S', got {initial_output!r}")
        self._start = float(start_time)
        self._initial = initial_output
        # Empty tuples until the first transition: a trace that never
        # moves (most of a large fleet's, most of the time) holds no list.
        self._times: Sequence[float] = ()
        self._kinds: Sequence[TransitionKind] = ()
        self._end: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def record(self, time: float, output: str) -> bool:
        """Record that the output is ``output`` from ``time`` on.

        Returns True if this was an actual transition, False if the output
        was already ``output`` (no-op).
        """
        if self._end is not None:
            raise TraceError("trace already closed")
        if output not in (TRUST, SUSPECT):
            raise TraceError(f"output must be 'T' or 'S', got {output!r}")
        t = float(time)
        if t < self._start:
            raise TraceError(f"time {t} before trace start {self._start}")
        if self._times and t < self._times[-1]:
            raise TraceError(
                f"non-monotone transition time {t} < {self._times[-1]}"
            )
        if output == self.current_output:
            return False
        kind = (
            TransitionKind.T_TRANSITION
            if output == TRUST
            else TransitionKind.S_TRANSITION
        )
        if self._times:
            self._times.append(t)
            self._kinds.append(kind)
        else:
            self._times = [t]
            self._kinds = [kind]
        return True

    def close(self, end_time: float) -> "OutputTrace":
        """Close the observation window at ``end_time`` and return self."""
        t = float(end_time)
        last = self._times[-1] if self._times else self._start
        if t < last:
            raise TraceError(f"end_time {t} before last transition {last}")
        self._end = t
        return self

    @classmethod
    def from_transitions(
        cls,
        transitions: Iterable[Tuple[float, str]],
        start_time: float = 0.0,
        initial_output: str = SUSPECT,
        end_time: Optional[float] = None,
    ) -> "OutputTrace":
        """Build a closed trace from ``(time, output)`` pairs."""
        trace = cls(start_time=start_time, initial_output=initial_output)
        last = start_time
        for time, output in transitions:
            trace.record(time, output)
            last = max(last, time)
        trace.close(end_time if end_time is not None else last)
        return trace

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #

    @property
    def start_time(self) -> float:
        return self._start

    @property
    def end_time(self) -> float:
        if self._end is None:
            raise TraceError("trace not closed yet")
        return self._end

    @property
    def closed(self) -> bool:
        return self._end is not None

    @property
    def duration(self) -> float:
        return self.end_time - self._start

    @property
    def initial_output(self) -> str:
        return self._initial

    @property
    def current_output(self) -> str:
        if not self._kinds:
            return self._initial
        return self._kinds[-1].new_output

    @property
    def transitions(self) -> Tuple[Transition, ...]:
        return tuple(
            Transition(t, k) for t, k in zip(self._times, self._kinds)
        )

    @property
    def n_transitions(self) -> int:
        return len(self._times)

    def output_at(self, time: float) -> str:
        """Output at ``time`` (right-continuous, per the paper's convention)."""
        if time < self._start:
            raise TraceError(f"time {time} before trace start {self._start}")
        if self._end is not None and time > self._end:
            raise TraceError(f"time {time} after trace end {self._end}")
        idx = int(np.searchsorted(np.asarray(self._times), time, side="right"))
        if idx == 0:
            return self._initial
        return self._kinds[idx - 1].new_output

    def transition_times(self, kind: TransitionKind) -> np.ndarray:
        """Times of all transitions of the given kind, as an array."""
        return np.asarray(
            [t for t, k in zip(self._times, self._kinds) if k is kind],
            dtype=float,
        )

    @property
    def s_transition_times(self) -> np.ndarray:
        return self.transition_times(TransitionKind.S_TRANSITION)

    @property
    def t_transition_times(self) -> np.ndarray:
        return self.transition_times(TransitionKind.T_TRANSITION)

    # ------------------------------------------------------------------ #
    # Interval decompositions (Fig. 4)
    # ------------------------------------------------------------------ #

    def mistake_recurrence_samples(self) -> np.ndarray:
        """Times between consecutive S-transitions (``T_MR`` samples)."""
        s_times = self.s_transition_times
        return np.diff(s_times)

    def mistake_duration_samples(self) -> np.ndarray:
        """S-transition → next T-transition intervals (``T_M`` samples).

        Only *completed* mistakes are counted: a final suspicion period cut
        off by the end of the observation window is dropped (counting it
        would bias ``E(T_M)`` downward).
        """
        durations: List[float] = []
        open_s: Optional[float] = None
        for t, k in zip(self._times, self._kinds):
            if k is TransitionKind.S_TRANSITION:
                open_s = t
            elif open_s is not None:
                durations.append(t - open_s)
                open_s = None
        return np.asarray(durations, dtype=float)

    def good_period_samples(self) -> np.ndarray:
        """T-transition → next S-transition intervals (``T_G`` samples)."""
        periods: List[float] = []
        open_t: Optional[float] = None
        for t, k in zip(self._times, self._kinds):
            if k is TransitionKind.T_TRANSITION:
                open_t = t
            elif open_t is not None:
                periods.append(t - open_t)
                open_t = None
        return np.asarray(periods, dtype=float)

    def drop_zero_length(self) -> "OutputTrace":
        """Return a copy with zero-length intervals removed.

        A pair of same-time transitions (e.g. S at t immediately followed
        by T at t) cancels out; this normalization makes traces produced by
        different but equivalent implementations comparable.
        """
        pairs: List[Tuple[float, TransitionKind]] = list(
            zip(self._times, self._kinds)
        )
        # Repeatedly cancel adjacent same-time opposite transitions.
        changed = True
        while changed:
            changed = False
            out: List[Tuple[float, TransitionKind]] = []
            i = 0
            while i < len(pairs):
                if (
                    i + 1 < len(pairs)
                    and pairs[i][0] == pairs[i + 1][0]
                    and pairs[i][1] is not pairs[i + 1][1]
                ):
                    i += 2
                    changed = True
                else:
                    out.append(pairs[i])
                    i += 1
            pairs = out
        # After cancellation, consecutive same-kind records may appear; the
        # later one is redundant (output unchanged) and must be dropped.
        trace = OutputTrace(self._start, self._initial)
        for t, k in pairs:
            trace.record(t, k.new_output)
        if self._end is not None:
            trace.close(self._end)
        return trace

    # ------------------------------------------------------------------ #
    # Time-occupancy
    # ------------------------------------------------------------------ #

    def time_in_output(self, output: str) -> float:
        """Total time spent in ``output`` over the observation window."""
        if output not in (TRUST, SUSPECT):
            raise TraceError(f"output must be 'T' or 'S', got {output!r}")
        end = self.end_time
        total = 0.0
        cur = self._initial
        cur_start = self._start
        for t, k in zip(self._times, self._kinds):
            if cur == output:
                total += t - cur_start
            cur = k.new_output
            cur_start = t
        if cur == output:
            total += end - cur_start
        return total

    def empirical_query_accuracy(self) -> float:
        """Fraction of the window during which *q* trusts *p* (``P_A``)."""
        dur = self.duration
        if dur == 0.0:
            return 1.0 if self.current_output == TRUST else 0.0
        return self.time_in_output(TRUST) / dur

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        end = f", end={self._end}" if self._end is not None else " (open)"
        return (
            f"OutputTrace(start={self._start}, initial={self._initial!r}, "
            f"{len(self._times)} transitions{end})"
        )
