"""End-to-end experiment wiring on the discrete-event simulator.

Two run shapes cover the paper's evaluation:

* **failure-free runs** (:func:`run_failure_free`) — p never crashes;
  these produce the accuracy metrics (``T_MR``, ``T_M``, ``T_G``, ``P_A``,
  ``λ_M``, ``T_FG``), which the paper defines over failure-free runs;
* **crash runs** (:func:`run_crash_runs`) — p crashes at a (randomized)
  time; these measure the detection time ``T_D``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.core.base import HeartbeatFailureDetector
from repro.errors import InvalidParameterError
from repro.metrics.qos import (
    AccuracyEstimate,
    detection_time,
    estimate_accuracy,
)
from repro.metrics.transitions import OutputTrace
from repro.net.clocks import Clock, PerfectClock
from repro.net.delays import DelayDistribution
from repro.net.link import LossyLink
from repro.sim.engine import Simulator
from repro.sim.heartbeat import HeartbeatSender
from repro.sim.monitor import DetectorHost
from repro.sim.seeds import (
    STREAM_CRASH_RUN,
    STREAM_CRASH_TIMES,
    STREAM_FAILURE_FREE,
    derive_rng,
)

__all__ = [
    "SimulationConfig",
    "FailureFreeResult",
    "CrashRunResult",
    "run_failure_free",
    "run_crash_runs",
]

DetectorFactory = Callable[[], HeartbeatFailureDetector]


@dataclass
class SimulationConfig:
    """Parameters shared by all runs of an experiment.

    Attributes:
        eta: heartbeat inter-sending time η.
        delay: message-delay distribution D.
        loss_probability: message loss probability p_L.
        horizon: real-time length of each run.
        warmup: initial span excluded from accuracy estimates (steady-state
            guard; NFD needs only ``δ + η``).
        seed: base RNG seed; every run derives an independent stream.
        sender_clock / monitor_clock: local clock models for p and q.
        link_factory: optional ``rng -> link`` constructor.  When set,
            each run's link is built by this callable (from the run's
            own derived generator) instead of a plain
            :class:`~repro.net.link.LossyLink` — the seam through which
            a :class:`~repro.net.wan.RoutedWanLink` or any other
            LossyLink-compatible transport attaches to the runner.
            ``delay``/``loss_probability`` then describe the *intended*
            single-link abstraction (used by analyses and tables), not
            the constructed transport.
    """

    eta: float
    delay: DelayDistribution
    loss_probability: float = 0.0
    horizon: float = 1000.0
    warmup: float = 0.0
    seed: int = 0
    sender_clock: Optional[Clock] = None
    monitor_clock: Optional[Clock] = None
    link_factory: Optional[Callable[[np.random.Generator], object]] = None

    def __post_init__(self) -> None:
        if self.eta <= 0:
            raise InvalidParameterError(f"eta must be positive, got {self.eta}")
        if self.horizon <= 0:
            raise InvalidParameterError(
                f"horizon must be positive, got {self.horizon}"
            )
        if self.warmup < 0 or self.warmup >= self.horizon:
            raise InvalidParameterError(
                f"warmup must be in [0, horizon), got {self.warmup}"
            )


@dataclass
class FailureFreeResult:
    """Outcome of one failure-free (accuracy) run."""

    trace: OutputTrace
    accuracy: AccuracyEstimate
    heartbeats_sent: int
    heartbeats_delivered: int

    @property
    def empirical_loss_rate(self) -> float:
        if self.heartbeats_sent == 0:
            return 0.0
        return 1.0 - self.heartbeats_delivered / self.heartbeats_sent


@dataclass
class CrashRunResult:
    """Outcome of a batch of crash (detection-time) runs.

    ``detection_times[i]`` is ``inf`` when run *i* never suspected the
    crashed process within its horizon.  The summary statistics exclude
    those runs (instead of silently returning ``inf``) and report them
    via :attr:`n_undetected` — callers deciding whether a detection
    bound held must check both.
    """

    detection_times: np.ndarray
    crash_times: np.ndarray
    traces: list = field(repr=False, default_factory=list)

    @property
    def detected_times(self) -> np.ndarray:
        """Detection times of the runs that did detect the crash."""
        return self.detection_times[np.isfinite(self.detection_times)]

    @property
    def n_undetected(self) -> int:
        """Number of runs whose crash was never detected."""
        return int(np.sum(~np.isfinite(self.detection_times)))

    @property
    def max_detection_time(self) -> float:
        """Max ``T_D`` over *detected* runs; NaN if none detected."""
        detected = self.detected_times
        return float(np.max(detected)) if detected.size else math.nan

    @property
    def mean_detection_time(self) -> float:
        """Mean ``T_D`` over *detected* runs; NaN if none detected."""
        detected = self.detected_times
        return float(np.mean(detected)) if detected.size else math.nan


def _build(
    config: SimulationConfig,
    detector: HeartbeatFailureDetector,
    rng: np.random.Generator,
    crash_time: Optional[float],
):
    sim = Simulator()
    if config.link_factory is not None:
        link = config.link_factory(rng)
    else:
        link = LossyLink(
            delay=config.delay,
            loss_probability=config.loss_probability,
            rng=rng,
        )
    host = DetectorHost(sim, detector, clock=config.monitor_clock)
    sender = HeartbeatSender(
        sim,
        link,
        eta=config.eta,
        deliver=host.deliver,
        clock=config.sender_clock,
        crash_time=crash_time,
    )
    return sim, host, sender


def run_failure_free(
    detector_factory: DetectorFactory,
    config: SimulationConfig,
    run_index: int = 0,
) -> FailureFreeResult:
    """Run one failure-free simulation and estimate the accuracy metrics."""
    rng = derive_rng(config.seed, STREAM_FAILURE_FREE, run_index)
    detector = detector_factory()
    sim, host, sender = _build(config, detector, rng, crash_time=None)
    host.start()
    sender.start()
    sim.run_until(config.horizon)
    trace = host.finish()
    accuracy = estimate_accuracy(trace, warmup=config.warmup)
    return FailureFreeResult(
        trace=trace,
        accuracy=accuracy,
        heartbeats_sent=sender.sent_count,
        heartbeats_delivered=host.delivered_count,
    )


def _prepare_crash_runs(
    config: SimulationConfig,
    n_runs: int,
    crash_window: Optional[tuple],
    settle_time: Optional[float],
):
    """Validate inputs and draw the crash-time vector for a batch.

    Shared by the serial path below and :mod:`repro.sim.parallel`: the
    crash times are drawn *once*, from their own namespaced stream, so
    they are identical however the runs are later distributed.
    """
    if n_runs < 1:
        raise InvalidParameterError(f"n_runs must be >= 1, got {n_runs}")
    if crash_window is None:
        # Start no earlier than the warmup so the detector is in steady
        # state when the crash lands.
        base = max(config.horizon / 2.0, config.warmup)
        crash_window = (base, base + config.eta)
    lo, hi = crash_window
    if not (0 < lo <= hi):
        raise InvalidParameterError(f"bad crash window {crash_window}")
    if lo < config.warmup:
        raise InvalidParameterError(
            f"crash window {crash_window} starts inside the "
            f"warmup ({config.warmup}); the detector would still be in "
            "its transient when the crash lands"
        )
    settle = settle_time if settle_time is not None else config.horizon
    rng_crash = derive_rng(config.seed, STREAM_CRASH_TIMES)
    crash_times = rng_crash.uniform(lo, hi, size=n_runs)
    return crash_times, settle


def _run_single_crash(
    detector_factory: DetectorFactory,
    config: SimulationConfig,
    run_index: int,
    crash_time: float,
    settle: float,
    keep_trace: bool,
):
    """One crash run; returns ``(detection_time, trace_or_None)``.

    The run's stream is keyed by its absolute index, so the result is
    the same whether it executes serially or on any parallel worker.
    """
    rng = derive_rng(config.seed, STREAM_CRASH_RUN, run_index)
    detector = detector_factory()
    sim, host, sender = _build(config, detector, rng, crash_time=crash_time)
    host.start()
    sender.start()
    sim.run_until(crash_time + settle)
    trace = host.finish()
    return detection_time(trace, crash_time), (trace if keep_trace else None)


def run_crash_runs(
    detector_factory: DetectorFactory,
    config: SimulationConfig,
    n_runs: int,
    crash_window: Optional[tuple] = None,
    settle_time: Optional[float] = None,
    keep_traces: bool = False,
) -> CrashRunResult:
    """Run ``n_runs`` crash simulations and measure detection times.

    Args:
        crash_window: real-time interval from which each run's crash time
            is drawn uniformly; defaults to
            ``[horizon/2, horizon/2 + eta]`` (shifted past the warmup if
            needed) so the crash phase relative to the heartbeat period
            is uniform (the worst case for the detection bound is a
            crash just after a send).
        settle_time: extra time simulated past the crash so the detector's
            output can become permanently ``S``; defaults to
            ``config.horizon``.
        keep_traces: keep the full per-run traces (memory-heavy).

    ``T_D`` per run is the time from the crash to the final S-transition,
    ``inf`` if the detector still trusts p at the end of the run.  For a
    fan-out over worker processes with bit-identical results, see
    :func:`repro.sim.parallel.run_crash_runs_parallel`.
    """
    crash_times, settle = _prepare_crash_runs(
        config, n_runs, crash_window, settle_time
    )
    detections = np.empty(n_runs, dtype=float)
    traces = []
    for i in range(n_runs):
        detection, trace = _run_single_crash(
            detector_factory,
            config,
            i,
            float(crash_times[i]),
            settle,
            keep_traces,
        )
        detections[i] = detection
        if keep_traces:
            traces.append(trace)
    return CrashRunResult(
        detection_times=detections, crash_times=crash_times, traces=traces
    )
