"""The one place the simulated pipeline of §7 — sender → lossy link →
detector — is built and run.  Two run shapes cover the evaluation:

* **failure-free runs** (:func:`run_failure_free`,
  :func:`run_failure_free_parallel`) — p never crashes; these produce
  the accuracy metrics (``T_MR``, ``T_M``, ``T_G``, ``P_A``, ``λ_M``,
  ``T_FG``), which the paper defines over failure-free runs;
* **crash runs** (:func:`run_crash_runs`) — p crashes at a (randomized)
  time; these measure the detection time ``T_D``.

The clocks, a ``link_factory`` transport and a fault ``scenario``
(:mod:`repro.faults`) are data on :class:`SimulationConfig`.  A run's
randomness is keyed by its index (:mod:`repro.sim.seeds`), so ``jobs``
spreads runs over workers (:mod:`repro.sim.parallel`) bit-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.base import HeartbeatFailureDetector
from repro.errors import InvalidParameterError
from repro.metrics.qos import (
    AccuracyEstimate,
    detection_time,
    estimate_accuracy,
)
from repro.metrics.transitions import OutputTrace
from repro.net.clocks import Clock
from repro.net.delays import DelayDistribution
from repro.net.link import LossyLink
from repro.sim.engine import Simulator
from repro.sim.heartbeat import HeartbeatSender
from repro.sim.monitor import DetectorHost
from repro.sim.parallel import _execute
from repro.sim.seeds import (
    STREAM_CRASH_RUN,
    STREAM_CRASH_TIMES,
    STREAM_FAILURE_FREE,
    STREAM_FAULTS,
    derive_rng,
)

__all__ = [
    "SimulationConfig",
    "FailureFreeResult",
    "CrashRunResult",
    "run_failure_free",
    "run_failure_free_parallel",
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
        scenario: optional :class:`repro.faults.FaultScenario` put on
            every run by its ``attach``, fault draws from the run's own
            ``STREAM_FAULTS`` stream; an empty one changes no run.
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
    scenario: Optional[object] = None

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
    """Outcome of one failure-free (accuracy) run.

    The last four fields report the config's fault scenario: the
    windows it activated and the fault layer's counters (``()`` and 0
    when no scenario is set).
    """

    trace: OutputTrace
    accuracy: AccuracyEstimate
    heartbeats_sent: int
    heartbeats_delivered: int
    fault_windows: Tuple
    partition_dropped: int
    duplicated: int
    reordered: int

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


def _run(
    detector_factory: DetectorFactory,
    config: SimulationConfig,
    stream: int,
    run_index: int,
    crash_time: Optional[float],
    until: float,
):
    """Build one pipeline and run it to ``until``; returns ``(trace,
    sender, host, link, engine)`` (``engine``: the scenario's, or
    ``None``).  Its streams are keyed by ``run_index`` alone, so any
    worker computes the same run."""
    rng = derive_rng(config.seed, stream, run_index)
    detector = detector_factory()
    sim = Simulator()
    if config.link_factory is not None:
        link = config.link_factory(rng)
    else:
        link = LossyLink(
            delay=config.delay,
            loss_probability=config.loss_probability,
            rng=rng,
        )
    sender_clock, monitor_clock = config.sender_clock, config.monitor_clock
    send_gate = engine = None
    if config.scenario is not None:
        fault_rng = derive_rng(config.seed, STREAM_FAULTS, run_index)
        link, sender_clock, monitor_clock, send_gate, engine = (
            config.scenario.attach(
                sim, link, fault_rng, sender_clock, monitor_clock, None
            )
        )
    host = DetectorHost(sim, detector, clock=monitor_clock)
    sender = HeartbeatSender(
        sim,
        link,
        eta=config.eta,
        deliver=host.deliver,
        clock=sender_clock,
        crash_time=crash_time,
        send_gate=send_gate,
    )
    host.start()
    sender.start()
    sim.run_until(until)
    return host.finish(), sender, host, link, engine


def run_failure_free(
    detector_factory: DetectorFactory,
    config: SimulationConfig,
    run_index: int = 0,
) -> FailureFreeResult:
    """Run one failure-free simulation and estimate the accuracy metrics."""
    trace, sender, host, link, engine = _run(
        detector_factory, config, STREAM_FAILURE_FREE, run_index, None,
        config.horizon,
    )
    faults = (
        ((), 0, 0, 0)
        if engine is None
        else (
            engine.timeline.windows,
            link.partition_dropped,
            link.duplicated,
            link.reordered,
        )
    )
    return FailureFreeResult(
        trace,
        estimate_accuracy(trace, warmup=config.warmup),
        sender.sent_count,
        host.delivered_count,
        *faults,
    )


def run_failure_free_parallel(
    detector_factory: DetectorFactory,
    config: SimulationConfig,
    n_runs: int,
    jobs: Optional[int] = None,
    chunk_size: Optional[int] = None,
) -> List[FailureFreeResult]:
    """Run ``n_runs`` failure-free runs (indices ``0..n_runs-1``) fanned
    out over ``jobs`` workers; returns the :class:`FailureFreeResult`
    list in run order, bit-identical to calling
    :func:`run_failure_free` serially."""
    if n_runs < 1:
        raise InvalidParameterError(f"n_runs must be >= 1, got {n_runs}")
    return _execute(
        lambda i: run_failure_free(detector_factory, config, run_index=i),
        n_runs,
        jobs,
        chunk_size,
    )


def _prepare_crash_runs(
    config: SimulationConfig,
    n_runs: int,
    crash_window: Optional[tuple],
    settle_time: Optional[float],
):
    """Validate inputs and draw the crash-time vector for a batch.

    Shared with :mod:`repro.sim.batch`: the crash times are drawn
    *once*, from their own namespaced stream, so they are identical
    however the runs are later distributed.
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


def run_crash_runs(
    detector_factory: DetectorFactory,
    config: SimulationConfig,
    n_runs: int,
    crash_window: Optional[tuple] = None,
    settle_time: Optional[float] = None,
    keep_traces: bool = False,
    jobs: Optional[int] = 1,
    chunk_size: Optional[int] = None,
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
        jobs / chunk_size: worker processes (``None``/``0`` = all
            cores, 1 = in-process) and runs per chunk.  Crash times are
            drawn once, here, and run *i*'s stream is keyed by *i*, so
            neither changes any result.

    ``T_D`` per run is the time from the crash to the final S-transition,
    ``inf`` if the detector still trusts p at the end of the run.
    """
    crash_times, settle = _prepare_crash_runs(
        config, n_runs, crash_window, settle_time
    )

    def one_run(i: int):
        crash = float(crash_times[i])
        trace = _run(
            detector_factory, config, STREAM_CRASH_RUN, i, crash, crash + settle
        )[0]
        return detection_time(trace, crash), trace if keep_traces else None

    outs = _execute(one_run, n_runs, jobs, chunk_size)
    return CrashRunResult(
        detection_times=np.fromiter(
            (d for d, _ in outs), dtype=float, count=n_runs
        ),
        crash_times=crash_times,
        traces=[t for _, t in outs] if keep_traces else [],
    )
