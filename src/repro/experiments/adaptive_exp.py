"""E10 — adaptivity under a network regime change (Section 8.1).

Scenario: a link alternates between a *calm* regime (fast, reliable) and
a *peak* regime (slow, lossy, high delay variance) — the paper's
"corporate network during working hours vs. at night".  Two monitors
watch the same kind of process under the same QoS contract:

* **fixed** — NFD-E configured once, for the calm regime, never changed;
* **adaptive** — the Fig. 11 pipeline re-executed periodically: estimate
  ``p_L``/``V(D)`` from recent heartbeats, re-run the Section 6
  configurator, and (because a new η needs the *sender's* cooperation)
  start a new heartbeat epoch at the new rate with the new slack α.

Reported per phase: the observed mistake rate (to compare against the
contract's implied ``λ_M ≤ 1/T_MR^L``) and the bandwidth used (1/η).
The paper's expected shape: the fixed detector blows through its mistake
budget during the peak phase; the adaptive one buys back the contract by
raising the heartbeat rate, then relaxes again when calm returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.analysis.configurator_nfdu import NFDUConfig, configure_nfdu
from repro.core.nfd_e import NFDE
from repro.errors import QoSUnachievableError
from repro.estimation.delay_stats import WindowedDelayStats
from repro.estimation.loss import LossRateEstimator
from repro.experiments.common import ExperimentTable
from repro.net.delays import DelayDistribution, ExponentialDelay
from repro.net.link import LossyLink
from repro.sim.engine import Simulator
from repro.sim.heartbeat import HeartbeatSender
from repro.sim.monitor import DetectorHost

__all__ = ["AdaptiveScenario", "run_adaptive"]


@dataclass(frozen=True)
class AdaptiveScenario:
    """The regime-change workload and the QoS contract."""

    # QoS contract (relative bound, Section 6 form).
    relative_detection_bound: float = 3.0
    mistake_recurrence_lower: float = 50_000.0
    mistake_duration_upper: float = 2.0
    # Calm regime.
    calm_mean_delay: float = 0.02
    calm_loss: float = 0.01
    # Peak regime.
    peak_mean_delay: float = 0.5
    peak_loss: float = 0.10
    # Timeline: calm [0, t1), peak [t1, t2), calm [t2, horizon).
    t1: float = 20_000.0
    t2: float = 40_000.0
    horizon: float = 60_000.0

    def delay_at_phase(self, phase: int) -> DelayDistribution:
        mean = self.calm_mean_delay if phase != 1 else self.peak_mean_delay
        return ExponentialDelay(mean)

    def loss_at_phase(self, phase: int) -> float:
        return self.calm_loss if phase != 1 else self.peak_loss

    @property
    def phase_bounds(self) -> Tuple[float, float, float]:
        return (self.t1, self.t2, self.horizon)


class _Pipeline:
    """One sender→link→detector pipeline that supports epoch restarts."""

    def __init__(
        self,
        sim: Simulator,
        scenario: AdaptiveScenario,
        eta: float,
        alpha: float,
        seed: int,
        window: int = 32,
    ) -> None:
        self.sim = sim
        self.scenario = scenario
        self.window = window
        self.eta = eta
        self.alpha = alpha
        rng = np.random.default_rng(seed)
        self.link = LossyLink(
            delay=scenario.delay_at_phase(0),
            loss_probability=scenario.loss_at_phase(0),
            rng=rng,
        )
        self.s_transition_times: List[float] = []
        self.loss_est = LossRateEstimator(first_seq=1)
        self.delay_stats = WindowedDelayStats(window=500)
        self._next_seq = 1
        self._build(origin=None)

    def _build(self, origin: Optional[float]) -> None:
        detector = NFDE(eta=self.eta, alpha=self.alpha, window=self.window,
                        first_seq=self._next_seq)

        # Tap transitions for cross-epoch mistake accounting.
        def on_transition(local_time: float, output: str) -> None:
            if output == "S":
                self.s_transition_times.append(self.sim.now)

        self.host = DetectorHost(
            self.sim, detector, on_transition=on_transition
        )

        def deliver(seq: int, send_local: float) -> None:
            self.loss_est.observe(seq)
            self.delay_stats.observe(
                self.host.local_now() - send_local
            )
            self.host.deliver(seq, send_local)

        self.sender = HeartbeatSender(
            self.sim,
            self.link,
            eta=self.eta,
            deliver=deliver,
            first_seq=self._next_seq,
            origin=origin,
        )
        self.host.start()
        self.sender.start()

    def restart_epoch(self, eta: float, alpha: float) -> None:
        """Stop the current sender/detector and start new ones."""
        self.sender.stop()
        self.eta = eta
        self.alpha = alpha
        self._next_seq = self.sender.next_seq
        self._build(origin=self.sim.now + eta)

    def estimate(self) -> Tuple[float, float]:
        """(p_L, V(D)) from the recent heartbeat stream."""
        return self.loss_est.estimate(), self.delay_stats.variance()


def run_adaptive(
    scenario: AdaptiveScenario = AdaptiveScenario(),
) -> ExperimentTable:
    """Fixed vs adaptive NFD-E across the regime change.

    The adaptive pipeline re-estimates ``(p_L, V(D))`` every 500 time
    units and restarts its epoch when the reconfigured η moves by more
    than 10 %.
    """
    reconfig_interval, hysteresis = 500.0, 0.10
    seed = 1010
    # Configure both for the calm regime (variance of Exp(m) is m^2).
    calm_cfg = configure_nfdu(
        scenario.relative_detection_bound,
        scenario.mistake_recurrence_lower,
        scenario.mistake_duration_upper,
        scenario.calm_loss,
        scenario.calm_mean_delay**2,
    )

    sim = Simulator()
    fixed = _Pipeline(
        sim, scenario, eta=calm_cfg.eta, alpha=calm_cfg.alpha, seed=seed
    )
    adaptive = _Pipeline(
        sim, scenario, eta=calm_cfg.eta, alpha=calm_cfg.alpha, seed=seed + 1
    )

    phase_changes = [scenario.t1, scenario.t2]
    etas_by_phase: List[List[float]] = [[calm_cfg.eta], [], []]
    alerts = 0

    def current_phase(t: float) -> int:
        if t < scenario.t1:
            return 0
        if t < scenario.t2:
            return 1
        return 2

    next_reconfig = reconfig_interval
    t = 0.0
    while t < scenario.horizon:
        t_next = min(
            next_reconfig,
            min((pc for pc in phase_changes if pc > t), default=scenario.horizon),
            scenario.horizon,
        )
        sim.run_until(t_next)
        t = t_next
        if t in phase_changes:
            phase = current_phase(t)
            for pipe in (fixed, adaptive):
                pipe.link.set_conditions(
                    delay=scenario.delay_at_phase(phase),
                    loss_probability=scenario.loss_at_phase(phase),
                )
        if t >= next_reconfig:
            next_reconfig = t + reconfig_interval
            if adaptive.delay_stats.n_samples >= 2:
                p_l, v_d = adaptive.estimate()
                try:
                    cfg = configure_nfdu(
                        scenario.relative_detection_bound,
                        scenario.mistake_recurrence_lower,
                        scenario.mistake_duration_upper,
                        min(p_l, 0.99),
                        v_d,
                    )
                except QoSUnachievableError:
                    alerts += 1
                    continue
                rel = abs(cfg.eta - adaptive.eta) / max(adaptive.eta, 1e-12)
                if rel > hysteresis:
                    adaptive.restart_epoch(cfg.eta, cfg.alpha)
            etas_by_phase[current_phase(t)].append(adaptive.eta)

    # Per-phase mistake rates.
    bounds = (0.0,) + scenario.phase_bounds
    contract_rate = 1.0 / scenario.mistake_recurrence_lower
    table = ExperimentTable(
        title=(
            "Adaptive NFD-E vs fixed NFD-E across a network regime change "
            f"(contract: <= {contract_rate:.2g} mistakes per time unit)"
        ),
        columns=[
            "phase",
            "regime",
            "fixed rate",
            "adaptive rate",
            "adaptive eta",
            "fixed eta",
        ],
    )
    regimes = ["calm", "peak", "calm"]
    for phase in range(3):
        lo, hi = bounds[phase], bounds[phase + 1]
        span = hi - lo
        f_rate = (
            sum(1 for x in fixed.s_transition_times if lo <= x < hi) / span
        )
        a_rate = (
            sum(1 for x in adaptive.s_transition_times if lo <= x < hi) / span
        )
        mean_eta = (
            float(np.mean(etas_by_phase[phase]))
            if etas_by_phase[phase]
            else adaptive.eta
        )
        table.add_row(
            phase, regimes[phase], f_rate, a_rate, mean_eta, fixed.eta
        )
    table.add_note(
        f"calm-regime configuration: eta={calm_cfg.eta:.4g}, "
        f"alpha={calm_cfg.alpha:.4g}; QoS-unachievable alerts: {alerts}"
    )
    table.add_note(
        "expected: the fixed detector's peak-phase rate exceeds the "
        "contract; the adaptive one restores it by raising the heartbeat "
        "rate (smaller eta), then relaxes after the peak"
    )
    return table
