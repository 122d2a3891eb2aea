"""Estimating the paper's QoS metrics from observed output traces.

* :class:`QoSRequirements` is the tuple ``(T_D^U, T_MR^L, T_M^U)`` of
  Section 4 — the contract an application hands to the configurators.
* :func:`estimate_accuracy` turns a failure-free :class:`OutputTrace` into
  an :class:`AccuracyEstimate` holding all six accuracy metrics.
* :func:`window_samples` is the one walk behind every accuracy score
  (this estimator and the crash-recovery one in
  :mod:`repro.metrics.recovery`): the ``T_MR``/``T_M``/``T_G`` samples
  of a window of the trace; ``P_A`` over the same window is
  :meth:`OutputTrace.time_in_output`.
* :func:`detection_time` is the one ``T_D`` rule (Section 2.2);
  :func:`detection_times` applies it to a collection of crash runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import InvalidParameterError, TraceError
from repro.metrics import relations
from repro.metrics.transitions import SUSPECT, TRUST, OutputTrace

__all__ = [
    "QoSRequirements",
    "AccuracyEstimate",
    "estimate_accuracy",
    "pool_accuracy",
    "window_samples",
    "detection_time",
    "detection_times",
]


@dataclass(frozen=True)
class QoSRequirements:
    """A QoS contract ``(T_D^U, T_MR^L, T_M^U)`` (paper, eq. 4.1).

    Attributes:
        detection_time_upper: ``T_D^U`` — worst-case detection time bound.
        mistake_recurrence_lower: ``T_MR^L`` — lower bound on the *average*
            time between mistakes.
        mistake_duration_upper: ``T_M^U`` — upper bound on the *average*
            time to correct a mistake.
    """

    detection_time_upper: float
    mistake_recurrence_lower: float
    mistake_duration_upper: float

    def __post_init__(self) -> None:
        for name in (
            "detection_time_upper",
            "mistake_recurrence_lower",
            "mistake_duration_upper",
        ):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise InvalidParameterError(
                    f"{name} must be positive and finite, got {value}"
                )

    # Derived-metric bounds implied by the contract (paper, footnote 11).

    @property
    def mistake_rate_upper(self) -> float:
        """Implied bound ``λ_M ≤ 1 / T_MR^L``."""
        return 1.0 / self.mistake_recurrence_lower

    @property
    def query_accuracy_lower(self) -> float:
        """Implied bound ``P_A ≥ (T_MR^L - T_M^U) / T_MR^L``."""
        return (
            self.mistake_recurrence_lower - self.mistake_duration_upper
        ) / self.mistake_recurrence_lower

    @property
    def good_period_lower(self) -> float:
        """Implied bound ``E(T_G) ≥ T_MR^L - T_M^U``."""
        return self.mistake_recurrence_lower - self.mistake_duration_upper

    @property
    def forward_good_period_lower(self) -> float:
        """Implied bound ``E(T_FG) ≥ (T_MR^L - T_M^U) / 2``."""
        return self.good_period_lower / 2.0


@dataclass
class AccuracyEstimate:
    """Point estimates of the six accuracy metrics from one or more runs.

    ``nan`` marks metrics that could not be estimated from the available
    samples (e.g. no completed mistake in the window).
    """

    e_tmr: float
    e_tm: float
    e_tg: float
    query_accuracy: float
    mistake_rate: float
    e_tfg: float
    n_mistakes: int
    observation_time: float
    tmr_samples: np.ndarray = field(repr=False)
    tm_samples: np.ndarray = field(repr=False)
    tg_samples: np.ndarray = field(repr=False)

    def satisfies(
        self, req: QoSRequirements, *, slack: float = 1.0
    ) -> bool:
        """Whether the *accuracy* part of ``req`` holds for these estimates.

        ``slack`` < 1 tightens the check (useful in tests that must pass
        with statistical noise); detection time is checked separately via
        :func:`detection_times` since it needs crash runs.
        """
        if not math.isnan(self.e_tmr) and self.e_tmr < req.mistake_recurrence_lower * slack:
            return False
        if not math.isnan(self.e_tm) and self.e_tm > req.mistake_duration_upper / slack:
            return False
        return True


def estimate_accuracy(
    trace: OutputTrace,
    *,
    warmup: float = 0.0,
) -> AccuracyEstimate:
    """Estimate the accuracy metrics from a failure-free output trace.

    Args:
        trace: a closed output trace of a failure-free run.
        warmup: initial time span to drop, so estimates reflect steady
            state.  (NFD reaches steady state at its first freshness point,
            so a warmup of ``δ + η`` suffices for it; other detectors may
            need more.)
    """
    if not trace.closed:
        raise TraceError("trace must be closed before estimation")
    if warmup < 0:
        raise InvalidParameterError(f"warmup must be >= 0, got {warmup}")
    horizon = trace.start_time + warmup
    if horizon > trace.end_time:
        raise InvalidParameterError("warmup exceeds the trace duration")
    return _window_accuracy(trace, horizon)


def window_samples(
    trace: OutputTrace, horizon: float, crash_time: float = math.inf
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """``(T_MR, T_M, T_G, n_mistakes)`` of a closed trace's window from
    ``horizon`` (an absolute time) to the crash or the trace end.

    This is the one walk every accuracy score reads:

    * a mistake is an S-transition at/after ``horizon`` and strictly
      before the crash (at the crash p is down: a detection); ``T_MR``
      differences the mistakes' times;
    * a ``T_M`` (``T_G``) sample is kept iff its S (T) transition starts
      at/after ``horizon``;
    * a mistake open at the crash is charged up to the crash, one open
      at the trace end is dropped, and a good period open at either is
      censored;
    * a crash at or after the trace end scores as no crash.

    A horizon at or after the trace end yields no samples.
    """
    stop = crash_time if crash_time < trace.end_time else math.inf
    s_times: List[float] = []
    tm: List[float] = []
    tg: List[float] = []
    open_s: Optional[float] = None  # start of the open post-horizon mistake
    open_t: Optional[float] = None  # start of the open post-horizon good period
    for tr in trace.transitions:
        t = tr.time
        if t >= stop:
            break
        start = t if t >= horizon else None
        if tr.is_suspicion:
            if open_t is not None:
                tg.append(t - open_t)
            if start is not None:
                s_times.append(t)
            open_s, open_t = start, None
        else:
            if open_s is not None:
                tm.append(t - open_s)
            open_s, open_t = None, start
    if open_s is not None and stop < math.inf:
        tm.append(stop - open_s)
    return (
        np.diff(np.asarray(s_times, dtype=float)),
        np.asarray(tm, dtype=float),
        np.asarray(tg, dtype=float),
        len(s_times),
    )


def _window_accuracy(
    trace: OutputTrace, horizon: float, crash_time: float = math.inf
) -> AccuracyEstimate:
    """All accuracy metrics over :func:`window_samples`' window, with
    ``P_A`` and ``λ_M`` normalized by its length (a window of length
    zero reads ``P_A`` as the final output's)."""
    tmr, tm, tg, n_mistakes = window_samples(trace, horizon, crash_time)
    hi = min(crash_time, trace.end_time)
    observation = hi - horizon
    if observation > 0:
        p_a = trace.time_in_output(TRUST, horizon, hi) / observation
        rate = n_mistakes / observation
    else:
        p_a = 1.0 if trace.current_output == TRUST else 0.0
        rate = math.nan
    return _from_samples(tmr, tm, tg, p_a, rate, n_mistakes, observation)


def _from_samples(
    tmr: np.ndarray,
    tm: np.ndarray,
    tg: np.ndarray,
    p_a: float,
    rate: float,
    n_mistakes: int,
    observation: float,
) -> AccuracyEstimate:
    if tg.size >= 2 and tg.mean() > 0:
        e_tfg = relations.forward_good_period_mean(
            float(tg.mean()), float(tg.var())
        )
    elif tg.size and tg.mean() == 0:
        e_tfg = 0.0
    else:
        e_tfg = math.nan
    return AccuracyEstimate(
        e_tmr=float(tmr.mean()) if tmr.size else math.nan,
        e_tm=float(tm.mean()) if tm.size else math.nan,
        e_tg=float(tg.mean()) if tg.size else math.nan,
        query_accuracy=p_a,
        mistake_rate=rate,
        e_tfg=e_tfg,
        n_mistakes=n_mistakes,
        observation_time=observation,
        tmr_samples=tmr,
        tm_samples=tm,
        tg_samples=tg,
    )


def pool_accuracy(estimates: Sequence[AccuracyEstimate]) -> AccuracyEstimate:
    """Pool the samples of several independent runs into one estimate.

    NFD's mistake-recurrence intervals are i.i.d. (Lemma 17), so samples
    from independent runs of the same configuration may simply be pooled;
    time-weighted quantities (``P_A``, ``λ_M``) are combined by total
    observation time.
    """
    if not estimates:
        raise InvalidParameterError("need at least one estimate to pool")
    tmr = np.concatenate([e.tmr_samples for e in estimates])
    tm = np.concatenate([e.tm_samples for e in estimates])
    tg = np.concatenate([e.tg_samples for e in estimates])
    total_time = sum(e.observation_time for e in estimates)
    n_mistakes = sum(e.n_mistakes for e in estimates)
    # Time-weighted quantities pool over the observation time of the
    # runs where they are *defined*: a run whose estimate is NaN must
    # drop out of the denominator too, or it silently biases the pooled
    # value downward (its time counts, its trusted/mistake mass
    # doesn't).
    trusted = 0.0
    pa_time = 0.0
    rate_mistakes = 0
    rate_time = 0.0
    for e in estimates:
        if not math.isnan(e.query_accuracy):
            trusted += e.query_accuracy * e.observation_time
            pa_time += e.observation_time
        if not math.isnan(e.mistake_rate):
            rate_mistakes += e.n_mistakes
            rate_time += e.observation_time
    return _from_samples(
        tmr,
        tm,
        tg,
        trusted / pa_time if pa_time > 0 else math.nan,
        rate_mistakes / rate_time if rate_time > 0 else math.nan,
        n_mistakes,
        total_time,
    )


def detection_time(trace: OutputTrace, crash_time: float) -> float:
    """``T_D`` of one crash run (paper, Section 2.2).

    The time from the crash to the *final* S-transition, after which
    the output never changes again; a trace with no transition has been
    suspected since ``trace.start_time``.  ``inf`` if the trace ends
    trusting (the detection never completed within the window); ``0`` if
    permanent suspicion predates the crash.
    """
    if trace.current_output != SUSPECT:
        return math.inf
    transitions = trace.transitions
    final = transitions[-1].time if transitions else trace.start_time
    return max(0.0, final - crash_time)


def detection_times(
    crash_times: Sequence[float],
    traces: Sequence[OutputTrace],
) -> np.ndarray:
    """:func:`detection_time` for a collection of closed crash runs."""
    if len(crash_times) != len(traces):
        raise InvalidParameterError("crash_times and traces length mismatch")
    out = np.empty(len(traces), dtype=float)
    for i, (crash, trace) in enumerate(zip(crash_times, traces)):
        if not trace.closed:
            raise TraceError("traces must be closed")
        out[i] = detection_time(trace, crash)
    return out
