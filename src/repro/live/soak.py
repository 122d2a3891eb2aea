"""Wall-clock soak runs gated against the Theorem 5 closed forms.

A soak paces N live sender streams off one
:class:`~repro.live.fanout.HeartbeatFanout`, heartbeating one
:class:`LiveMonitorService` over the loopback transport, whose per-peer
delay and loss come from the seeded simulation link models.  Because
the *model* is known exactly, the measured QoS of the live runtime is a
statistical quantity with a known target: the NFD-S accuracy metrics of
Theorem 5.  The gate machinery mirrors ``tests/conformance``: pooled
sample-level T_MR / T_M against a 99.9% bootstrap confidence interval.

Two systematic differences from the simulator are made explicit rather
than hidden in tolerance fudge:

* **scheduling latency** — the event loop fires timers and deliveries
  late by up to a few milliseconds; from the detector's viewpoint that
  is indistinguishable from extra one-way delay.  The theory band is
  therefore evaluated at both ``δ`` and ``δ + sched_allowance``, and
  the measured CI must overlap the band between them.
* **detection latency** — Theorem 5.1's bound ``T_D ≤ δ + η`` holds at
  the freshness points; the live monitor observes the S-transition one
  callback dispatch later.  The kill gate allows a documented
  ``detect_allowance`` on top of the bound.

Killed senders stop sending but their in-flight datagrams still arrive
(Section 3.1 crash semantics); their traces feed the detection-time
gate and are excluded from the accuracy pooling (which, per the paper,
is defined over failure-free behaviour).  A kill made while the monitor
already suspects the victim would measure nothing (``T_D = 0``: the
crash lands inside a mistake), so a victim is killed at the first
instant at or after ``kill_time`` at which it is trusted, and a kill the
run's budget forces on a suspected victim fails its gate as
uninformative.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.nfds_theory import NFDSAnalysis, QoSPrediction
from repro.core.nfd_s import NFDS
from repro.errors import InvalidParameterError
from repro.live.fanout import FanoutStream, HeartbeatFanout
from repro.live.monitor import LiveMonitorService, LivePeerResult
from repro.live.transport import LoopbackNetwork
from repro.metrics.confidence import ConfidenceInterval, mean_ci
from repro.metrics.qos import detection_time, window_samples
from repro.metrics.transitions import SUSPECT, TRUST, OutputTrace
from repro.net.delays import ExponentialDelay
from repro.net.link import LossyLink
from repro.sim.seeds import STREAM_LIVE, derive_rng
from repro.telemetry.registry import MetricsRegistry

__all__ = ["SoakConfig", "SoakGate", "KillReport", "SoakResult", "run_soak"]

#: conformance confidence level, matching tests/conformance.
LEVEL = 0.999


@dataclass(frozen=True)
class SoakConfig:
    """Parameters of one loopback soak run.

    The defaults are chosen so mistakes are *frequent* (large p_L and
    δ comparable to E(D)): a short wall-clock run then yields hundreds
    of T_MR samples, enough for a tight bootstrap CI.
    """

    peers: int = 4
    eta: float = 0.05
    delta: float = 0.03
    loss: float = 0.15
    mean_delay: float = 0.02
    duration: float = 20.0
    kill: int = 1
    kill_after: Optional[float] = None
    seed: int = 0
    inbox_limit: int = 4096
    warmup: Optional[float] = None
    #: extra δ the theory band allows for event-loop timer lateness.
    sched_allowance: float = 0.005
    #: extra detection time allowed over the δ+η bound (callback dispatch).
    detect_allowance: float = 0.25

    def __post_init__(self) -> None:
        if self.peers < 1:
            raise InvalidParameterError(f"peers must be >= 1, got {self.peers}")
        if not 0 <= self.kill <= self.peers:
            raise InvalidParameterError(
                f"kill must be in [0, peers], got {self.kill}"
            )
        if self.kill == self.peers and self.kill > 0:
            raise InvalidParameterError(
                "at least one peer must survive to measure accuracy"
            )
        if self.duration <= 0:
            raise InvalidParameterError(
                f"duration must be positive, got {self.duration}"
            )
        if self.eta <= 0 or self.delta < 0:
            raise InvalidParameterError("need eta > 0 and delta >= 0")
        kill_at = self.kill_time
        if self.kill and not (
            self.effective_warmup
            < kill_at
            <= self.duration - self.detection_budget
        ):
            raise InvalidParameterError(
                f"kill_after={kill_at} must lie in "
                f"({self.effective_warmup}, "
                f"{self.duration - self.detection_budget}]"
            )

    @property
    def effective_warmup(self) -> float:
        """Startup span excluded from QoS accounting."""
        if self.warmup is not None:
            return self.warmup
        return 2.0 * (self.delta + self.eta)

    @property
    def detection_budget(self) -> float:
        """Wall-clock needed after a kill for detection to complete."""
        return self.delta + self.eta + self.detect_allowance

    @property
    def kill_time(self) -> float:
        """Earliest local time of the kill (default: leaves twice the
        budget); a victim suspected then is killed when next trusted, by
        ``duration − detection_budget`` at the latest."""
        if self.kill_after is not None:
            return self.kill_after
        return self.duration - 2.0 * self.detection_budget


@dataclass(frozen=True)
class SoakGate:
    """One pooled metric checked against its Theorem 5 band."""

    metric: str
    measured: float
    n_samples: int
    ci: Optional[ConfidenceInterval]
    band: Tuple[float, float]
    passed: bool

    def describe(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        if self.ci is None:
            return (
                f"{self.metric}: n={self.n_samples} (insufficient samples)"
                f" -> {verdict}"
            )
        return (
            f"{self.metric}: measured {self.measured:.6g} (n={self.n_samples}),"
            f" {LEVEL:.1%} CI [{self.ci.low:.6g}, {self.ci.high:.6g}],"
            f" theory band [{self.band[0]:.6g}, {self.band[1]:.6g}]"
            f" -> {verdict}"
        )


@dataclass(frozen=True)
class KillReport:
    """Detection of one killed sender."""

    name: str
    killed_at: float
    detection_time: float
    bound: float
    allowance: float
    #: the monitor already suspected the victim when it was killed, so
    #: its detection time measures nothing
    suspected_at_kill: bool
    passed: bool

    @classmethod
    def of(
        cls,
        name: str,
        killed_at: float,
        trace: OutputTrace,
        config: SoakConfig,
    ) -> "KillReport":
        """Judge a kill from the victim's closed output trace."""
        bound = config.delta + config.eta
        td = detection_time(trace, killed_at)
        suspected = trace.output_at(killed_at) == SUSPECT
        return cls(
            name=name,
            killed_at=killed_at,
            detection_time=td,
            bound=bound,
            allowance=config.detect_allowance,
            suspected_at_kill=suspected,
            passed=not suspected and td <= bound + config.detect_allowance,
        )

    def describe(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        td = (
            "never detected"
            if math.isinf(self.detection_time)
            else f"T_D={self.detection_time:.4f}s"
        )
        when = (
            " while suspected (uninformative)"
            if self.suspected_at_kill
            else ""
        )
        return (
            f"{self.name}: killed at {self.killed_at:.3f}s{when}, {td},"
            f" bound {self.bound:.4f}s + allowance {self.allowance:.3f}s"
            f" -> {verdict}"
        )


@dataclass
class SoakResult:
    """Everything a CI gate or a human needs from one soak run."""

    config: SoakConfig
    prediction: QoSPrediction
    gates: List[SoakGate]
    kills: List[KillReport]
    peer_results: List[LivePeerResult]
    counters: Dict[str, float]
    sender_sent: Dict[str, int]
    supervisor_crashes: int = 0
    registry: Optional[MetricsRegistry] = field(default=None, repr=False)

    @property
    def passed(self) -> bool:
        return all(g.passed for g in self.gates) and all(
            k.passed for k in self.kills
        )

    def report(self) -> str:
        c = self.config
        lines = [
            "live soak (loopback, model-driven delay/loss)",
            f"  peers={c.peers} kill={c.kill} eta={c.eta:g}s delta={c.delta:g}s"
            f" p_L={c.loss:g} E(D)={c.mean_delay:g}s"
            f" duration={c.duration:g}s seed={c.seed}",
            f"  theory (Theorem 5): E(T_MR)={self.prediction.e_tmr:.6g}s"
            f" E(T_M)={self.prediction.e_tm:.6g}s",
            "  datagrams: "
            + " ".join(
                f"{k.split('live_', 1)[1].rsplit('_total', 1)[0]}="
                f"{int(v)}"
                for k, v in sorted(self.counters.items())
                if k.startswith("live_") and k.endswith("_total")
            ),
        ]
        for name in sorted(self.sender_sent):
            result = next(
                (r for r in self.peer_results if r.name == name), None
            )
            loss = (
                f"{result.observer.loss.estimate():.4f}"
                if result is not None and result.observer is not None
                else "n/a"
            )
            lines.append(
                f"  {name}: sent={self.sender_sent[name]}"
                f" delivered={result.delivered if result else 0}"
                f" measured_p_L={loss}"
            )
        lines.append("  accuracy gates (pooled over surviving peers):")
        for gate in self.gates:
            lines.append("    " + gate.describe())
        if self.kills:
            lines.append("  detection gates:")
            for kill in self.kills:
                lines.append("    " + kill.describe())
        if self.supervisor_crashes:
            lines.append(
                f"  WARNING: {self.supervisor_crashes} supervised task"
                " crash(es) recorded"
            )
        lines.append(f"  overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


# ---------------------------------------------------------------------- #
# Gates
# ---------------------------------------------------------------------- #


def _band(
    lo_pred: QoSPrediction, hi_pred: QoSPrediction, metric: str
) -> Tuple[float, float]:
    a = getattr(lo_pred, metric)
    b = getattr(hi_pred, metric)
    return (min(a, b), max(a, b))


def _gate(metric: str, samples: np.ndarray, band: Tuple[float, float]) -> SoakGate:
    n = len(samples)
    if n < 10:
        return SoakGate(
            metric=metric,
            measured=math.nan,
            n_samples=n,
            ci=None,
            band=band,
            passed=False,
        )
    ci = mean_ci(np.asarray(samples, dtype=float), level=LEVEL)
    passed = ci.low <= band[1] and ci.high >= band[0]
    return SoakGate(
        metric=metric,
        measured=float(np.mean(samples)),
        n_samples=n,
        ci=ci,
        band=band,
        passed=passed,
    )


# ---------------------------------------------------------------------- #
# The run
# ---------------------------------------------------------------------- #


async def soak(config: SoakConfig) -> SoakResult:
    """Run one soak on the current event loop."""
    loop = asyncio.get_running_loop()
    # Local time 0 lies slightly in the future so every component starts
    # before σ_1 — all peers share one origin: synchronized clocks.
    origin = loop.time() + 0.05
    registry = MetricsRegistry()
    service = LiveMonitorService(
        loop=loop,
        origin=origin,
        registry=registry,
        inbox_limit=config.inbox_limit,
        warmup=config.effective_warmup,
        keep_traces=True,
    )
    network = LoopbackNetwork(loop)
    network.attach_monitor(service.on_datagram)

    fanout = HeartbeatFanout(loop=loop, origin=origin)
    senders: List[FanoutStream] = []
    for i in range(config.peers):
        name = f"p{i}"
        rng = derive_rng(config.seed, STREAM_LIVE, i)
        link = LossyLink(
            ExponentialDelay(config.mean_delay), config.loss, rng
        )
        senders.append(
            fanout.add_stream(name, network.sender(link), eta=config.eta)
        )
        service.add_peer(
            name,
            lambda first_seq: NFDS(
                config.eta, config.delta, first_seq=first_seq
            ),
            eta=config.eta,
        )

    killed: Dict[str, float] = {}
    #: victims suspected at ``kill_time``, killed when next trusted
    waiting: Dict[str, FanoutStream] = {}

    def kill(stream: FanoutStream) -> None:
        # Record when the sender actually stopped, not the nominal
        # schedule: the detection gate measures from the true crash
        # instant.
        stream.stop()
        killed[stream.name] = loop.time() - origin

    def kill_when_trusted(event) -> None:
        if event.output == TRUST and event.process in waiting:
            kill(waiting.pop(event.process))

    service.subscribe(kill_when_trusted)
    service.start()
    fanout.start()
    try:
        if config.kill:
            await _sleep_until_local(loop, origin, config.kill_time)
            suspected = service.suspected
            for stream in senders[: config.kill]:
                if stream.name in suspected:
                    waiting[stream.name] = stream
                else:
                    kill(stream)
            await _sleep_until_local(
                loop, origin, config.duration - config.detection_budget
            )
            for stream in waiting.values():
                kill(stream)  # out of budget: judged uninformative
            waiting.clear()
        await _sleep_until_local(loop, origin, config.duration)
    finally:
        await fanout.aclose()
        await network.aclose()
        peer_results = await service.aclose()

    horizon = config.effective_warmup
    surviving = [
        r
        for r in peer_results
        if r.name not in killed and r.trace is not None
    ]
    tmr_parts = []
    tm_parts = []
    for result in surviving:
        tmr, tm, _, _ = window_samples(result.trace, horizon)
        tmr_parts.append(tmr)
        tm_parts.append(tm)
    tmr_pooled = (
        np.concatenate(tmr_parts) if tmr_parts else np.empty(0)
    )
    tm_pooled = np.concatenate(tm_parts) if tm_parts else np.empty(0)

    delay = ExponentialDelay(config.mean_delay)
    theory = NFDSAnalysis(config.eta, config.delta, config.loss, delay)
    theory_hi = NFDSAnalysis(
        config.eta,
        config.delta + config.sched_allowance,
        config.loss,
        delay,
    )
    pred_lo, pred_hi = theory.predict(), theory_hi.predict()
    gates = [
        _gate("e_tmr", tmr_pooled, _band(pred_lo, pred_hi, "e_tmr")),
        _gate("e_tm", tm_pooled, _band(pred_lo, pred_hi, "e_tm")),
    ]

    kills = [
        KillReport.of(
            name,
            crash_local,
            next(r for r in peer_results if r.name == name).trace,
            config,
        )
        for name, crash_local in killed.items()
    ]

    counters = {
        key: metric.value
        for key, metric in registry.items()
        if hasattr(metric, "value")
    }
    return SoakResult(
        config=config,
        prediction=pred_lo,
        gates=gates,
        kills=kills,
        peer_results=peer_results,
        counters=counters,
        sender_sent={s.name: s.sent_count for s in senders},
        supervisor_crashes=len(service.consumer_crashes),
        registry=registry,
    )


async def _sleep_until_local(
    loop: asyncio.AbstractEventLoop, origin: float, local_time: float
) -> None:
    delay = (origin + local_time) - loop.time()
    if delay > 0:
        await asyncio.sleep(delay)


def run_soak(config: SoakConfig) -> SoakResult:
    """Run one soak to completion on a fresh event loop."""
    return asyncio.run(soak(config))
