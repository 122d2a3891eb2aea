"""Failure-free runs with scripted faults, serial and parallel.

:func:`run_failure_free_with_faults` mirrors
:func:`repro.sim.runner.run_failure_free` exactly — same RNG stream
(``STREAM_FAILURE_FREE`` by run index), same construction order, same
event scheduling — and layers the fault pipeline on top.  With
``scenario=None`` (or an empty scenario) the fault layer consumes zero
fault randomness and the result is **bit-identical** to the plain
runner; that equality is what the conformance tests pin.

Fault randomness (duplication/reordering draws) comes from the separate
``STREAM_FAULTS`` stream, also keyed by run index, so runs stay
independent and the fan-out over worker processes
(:func:`run_fault_runs_parallel`) is bit-identical to serial for any
job count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import InvalidParameterError
from repro.faults.links import FaultyLink
from repro.faults.scenario import FaultScenario, FaultWindow, ScenarioEngine
from repro.metrics.qos import estimate_accuracy
from repro.metrics.transitions import SUSPECT, OutputTrace
from repro.net.clocks import Clock, FaultableClock
from repro.net.link import LossyLink
from repro.sim.engine import Simulator
from repro.sim.heartbeat import HeartbeatSender
from repro.sim.monitor import DetectorHost
from repro.sim.parallel import parallel_map
from repro.sim.runner import (
    DetectorFactory,
    FailureFreeResult,
    SimulationConfig,
)
from repro.sim.seeds import STREAM_FAILURE_FREE, STREAM_FAULTS, derive_rng

__all__ = [
    "FaultRunResult",
    "LinkFactory",
    "run_failure_free_with_faults",
    "run_fault_runs_parallel",
    "windowed_suspicion",
]

#: Builds the base link for one run from that run's seeded generator —
#: the hook that swaps the i.i.d. ``LossyLink`` for a Gilbert–Elliott
#: (or any other) channel model.
LinkFactory = Callable[[np.random.Generator], object]


@dataclass
class FaultRunResult(FailureFreeResult):
    """A :class:`~repro.sim.runner.FailureFreeResult` plus the fault
    timeline the run activated and the fault layer's own counters."""

    fault_windows: Tuple[FaultWindow, ...] = ()
    partition_dropped: int = 0
    duplicated: int = 0
    reordered: int = 0


def _resolve_clock(
    configured: Optional[Clock], scenario: Optional[FaultScenario], target: str
) -> Optional[Clock]:
    """The clock to build the pipeline with: auto-upgrade ``None`` to a
    :class:`FaultableClock` when the scenario scripts faults for it."""
    if scenario is None or not scenario.needs_faultable_clock(target):
        return configured
    if configured is None:
        return FaultableClock()
    if not isinstance(configured, FaultableClock):
        raise InvalidParameterError(
            f"scenario scripts {target} clock faults but the configured "
            f"{target} clock is {type(configured).__name__}; pass a "
            f"FaultableClock (or None to get one automatically)"
        )
    return configured


def run_failure_free_with_faults(
    detector_factory: DetectorFactory,
    config: SimulationConfig,
    scenario: Optional[FaultScenario] = None,
    link_factory: Optional[LinkFactory] = None,
    run_index: int = 0,
) -> FaultRunResult:
    """One failure-free run with an optional fault scenario installed.

    Args:
        detector_factory: builds a fresh detector for this run.
        config: the shared simulation parameters; ``config.delay`` /
            ``config.loss_probability`` configure the base link unless
            ``link_factory`` overrides it.
        scenario: the fault script; ``None`` or an empty scenario makes
            this call bit-identical to
            :func:`repro.sim.runner.run_failure_free`.
        link_factory: optional base-link builder ``rng -> link`` (e.g. a
            :class:`~repro.faults.links.GilbertElliottLink`); receives
            the run's main stream so link fates stay on the same stream
            the plain runner uses.
        run_index: index of this run within the experiment (keys both
            RNG streams).
    """
    rng = derive_rng(config.seed, STREAM_FAILURE_FREE, run_index)
    fault_rng = derive_rng(config.seed, STREAM_FAULTS, run_index)
    detector = detector_factory()
    sim = Simulator()
    if link_factory is not None:
        base_link = link_factory(rng)
    else:
        base_link = LossyLink(
            delay=config.delay,
            loss_probability=config.loss_probability,
            rng=rng,
        )
    link = FaultyLink(base_link, fault_rng)
    sender_clock = _resolve_clock(config.sender_clock, scenario, "sender")
    monitor_clock = _resolve_clock(config.monitor_clock, scenario, "monitor")
    host = DetectorHost(sim, detector, clock=monitor_clock)
    sender = HeartbeatSender(
        sim,
        link,
        eta=config.eta,
        deliver=host.deliver,
        clock=sender_clock,
        crash_time=None,
        send_gate=scenario.send_gate() if scenario is not None else None,
    )
    engine: Optional[ScenarioEngine] = None
    if scenario is not None and len(scenario):
        engine = ScenarioEngine(
            sim,
            scenario,
            link,
            sender_clock=sender_clock,
            monitor_clock=monitor_clock,
        )
        engine.install()
    host.start()
    sender.start()
    sim.run_until(config.horizon)
    trace = host.finish()
    accuracy = estimate_accuracy(trace, warmup=config.warmup)
    return FaultRunResult(
        trace=trace,
        accuracy=accuracy,
        heartbeats_sent=sender.sent_count,
        heartbeats_delivered=host.delivered_count,
        fault_windows=(
            engine.timeline.windows if engine is not None else ()
        ),
        partition_dropped=link.partition_dropped,
        duplicated=link.duplicated,
        reordered=link.reordered,
    )


def run_fault_runs_parallel(
    detector_factory: DetectorFactory,
    config: SimulationConfig,
    n_runs: int,
    scenario: Optional[FaultScenario] = None,
    link_factory: Optional[LinkFactory] = None,
    jobs: Optional[int] = None,
    chunk_size: Optional[int] = None,
) -> list:
    """``n_runs`` independent fault runs fanned out over workers.

    Each run's streams are keyed by its absolute index, so the result
    list is bit-identical for every ``jobs``/``chunk_size`` value
    (including the in-process serial fallback).
    """
    if n_runs < 1:
        raise InvalidParameterError(f"n_runs must be >= 1, got {n_runs}")
    return parallel_map(
        lambda i: run_failure_free_with_faults(
            detector_factory,
            config,
            scenario=scenario,
            link_factory=link_factory,
            run_index=i,
        ),
        range(n_runs),
        jobs=jobs,
        chunk_size=chunk_size,
    )


def windowed_suspicion(
    trace: OutputTrace, windows: Sequence[FaultWindow]
) -> list:
    """Fraction of each window's span the detector spent suspecting.

    This is the per-fault-window QoS segmentation: ``1 − P_A``
    restricted to the window (instant windows report the output *at*
    that instant: 1.0 for S, 0.0 for T).  Returns ``(window, fraction)``
    pairs in timeline order.
    """
    out = []
    for window in windows:
        if window.duration == 0.0:
            frac = 1.0 if trace.output_at(window.start) == SUSPECT else 0.0
            out.append((window, frac))
            continue
        start = max(window.start, trace.start_time)
        end = min(window.end, trace.end_time)
        if end <= start:
            out.append((window, float("nan")))
            continue
        suspected = trace.time_in_output(SUSPECT, start, end)
        out.append((window, suspected / (end - start)))
    return out
