"""E14 — QoS degradation under injected faults (`repro.faults`).

Two questions the closed-form analysis cannot answer:

1. **How wrong does Theorem 5 get when loss is bursty?**  The first
   table sweeps fault intensity as Gilbert–Elliott mean burst length at
   *equal average loss rate*, per detector.  The zero-intensity row
   (i.i.d. loss, burst length 1, the config's own link) doubles as a
   conformance check: its estimates must fall inside confidence
   intervals around the fault-free analytic prediction.
2. **What does a detector's output look like across scripted fault
   windows?**  The second table runs one composite scenario — partition,
   GC stall, backward clock jump, duplication, reordering, a loss-regime
   shift — and segments the suspicion fraction by fault window via the
   scenario timeline.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.analysis.nfds_theory import NFDSAnalysis, QoSPrediction, nfdu_analysis
from repro.core.nfd_e import NFDE
from repro.core.nfd_s import NFDS
from repro.core.simple import SimpleFD
from repro.experiments.common import ExperimentTable, steady_state_warmup
from repro.faults import (
    ClockJump,
    Duplication,
    FaultScenario,
    GilbertElliottLink,
    LossRegime,
    Partition,
    Reordering,
    Stall,
    windowed_suspicion,
)
from repro.metrics.confidence import mean_ci
from repro.metrics.qos import pool_accuracy
from repro.net.delays import ExponentialDelay
from repro.sim.runner import (
    SimulationConfig,
    run_failure_free,
    run_failure_free_parallel,
)

__all__ = [
    "FaultSensitivitySettings",
    "run_fault_sensitivity",
    "burst_sweep_table",
    "composite_scenario_table",
]


class FaultSensitivitySettings:
    """Parameters of the E14 sweep.

    Mistakes must be *frequent* to measure quickly, so the link is
    lossier (average ``p_L = 0.05``) and the freshness shift shorter
    (``δ = 0.6``, i.e. ``T_D^U = 1.6``) than the Fig. 12 point — at
    these settings NFD-S makes a mistake roughly every 21η, giving
    hundreds of pooled ``T_MR`` samples per table row at the default
    scale.
    """

    eta = 1.0
    mean_delay = 0.02
    average_loss = 0.05
    delta = 0.6
    alpha = delta - mean_delay  # NFD-E: E(D) + α == δ
    nfde_window = 32
    sfd_timeout = 1.5
    sfd_cutoff = 0.16
    seed = 0xE14

    @property
    def delay(self) -> ExponentialDelay:
        return ExponentialDelay(self.mean_delay)

    def detectors(self) -> Sequence[Tuple[str, object, Optional[QoSPrediction], float]]:
        """``(name, factory, fault-free prediction, warmup)`` rows."""
        nfds_pred = NFDSAnalysis(
            eta=self.eta,
            delta=self.delta,
            loss_probability=self.average_loss,
            delay=self.delay,
        ).predict()
        nfde_pred = nfdu_analysis(
            eta=self.eta,
            alpha=self.alpha,
            loss_probability=self.average_loss,
            delay=self.delay,
        ).predict()
        return (
            (
                "NFD-S",
                lambda: NFDS(eta=self.eta, delta=self.delta),
                nfds_pred,
                steady_state_warmup(self.eta, delta=self.delta),
            ),
            (
                "NFD-E",
                lambda: NFDE(
                    eta=self.eta, alpha=self.alpha, window=self.nfde_window
                ),
                nfde_pred,
                steady_state_warmup(
                    self.eta,
                    alpha=self.alpha,
                    mean_delay=self.mean_delay,
                    window=self.nfde_window,
                ),
            ),
            (
                "SFD",
                lambda: SimpleFD(
                    timeout=self.sfd_timeout, cutoff=self.sfd_cutoff
                ),
                None,
                steady_state_warmup(
                    self.eta,
                    timeout=self.sfd_timeout,
                    cutoff=self.sfd_cutoff,
                ),
            ),
        )

    def config(self, horizon: float, warmup: float) -> SimulationConfig:
        return SimulationConfig(
            eta=self.eta,
            delay=self.delay,
            loss_probability=self.average_loss,
            horizon=horizon,
            warmup=warmup,
            seed=self.seed,
        )


def _prediction_in_cis(pooled, prediction: QoSPrediction, level: float) -> bool:
    """Whether the analytic prediction is statistically consistent with
    the pooled simulation estimates.

    ``E(T_MR)``/``E(T_M)`` use t-intervals on the pooled i.i.d. samples
    (Lemma 17).  ``P_A = 1 − E(T_M)/E(T_MR)`` has no per-sample
    decomposition, so it is checked against the conservative interval
    obtained by combining the two mean CIs end-to-end.
    """
    tmr_ci = mean_ci(pooled.tmr_samples, level=level)
    tm_ci = mean_ci(pooled.tm_samples, level=level)
    if not tmr_ci.contains(prediction.e_tmr):
        return False
    if not tm_ci.contains(prediction.e_tm):
        return False
    pa_low = 1.0 - tm_ci.high / tmr_ci.low
    pa_high = 1.0 - tm_ci.low / tmr_ci.high
    return pa_low <= prediction.query_accuracy <= pa_high


def burst_sweep_table(
    burst_lengths: Sequence[float] = (2.0, 4.0, 8.0),
    horizon: float = 2500.0,
    n_runs: int = 3,
    ci_level: float = 0.99,
    jobs: int = 1,
) -> ExperimentTable:
    """Per-detector QoS vs. Gilbert–Elliott burst length at equal
    average loss.  Burst length 1 is the i.i.d. channel (zero fault
    intensity); its row carries the Theorem 5 CI check."""
    s = FaultSensitivitySettings()
    table = ExperimentTable(
        title=(
            f"E14a: QoS vs. loss burstiness at equal average p_L="
            f"{s.average_loss:g} (eta={s.eta:g}, T_D^U="
            f"{s.delta + s.eta:g}, Exp({s.mean_delay:g}) delays)"
        ),
        columns=[
            "detector",
            "channel",
            "E(T_MR)",
            "E(T_M)",
            "P_A",
            "E(T_MR) thry",
            "E(T_M) thry",
            "P_A thry",
            "within CI",
        ],
    )
    channels = [("iid (burst 1)", None)]
    for burst in burst_lengths:
        channels.append(
            (
                f"GE burst {burst:g}",
                # Bind the burst value now; the factory runs per worker.
                (lambda b: lambda rng: GilbertElliottLink.from_average(
                    s.delay, s.average_loss, b, rng=rng
                ))(burst),
            )
        )
    for det_name, factory, prediction, warmup in s.detectors():
        config = s.config(horizon, warmup)
        for channel_name, link_factory in channels:
            results = run_failure_free_parallel(
                factory,
                replace(config, link_factory=link_factory),
                n_runs,
                jobs=jobs,
            )
            pooled = pool_accuracy([r.accuracy for r in results])
            if prediction is None:
                thry = (None, None, None)
                verdict = "-"
            else:
                thry = (
                    prediction.e_tmr,
                    prediction.e_tm,
                    prediction.query_accuracy,
                )
                if link_factory is None:
                    verdict = (
                        "pass"
                        if _prediction_in_cis(pooled, prediction, ci_level)
                        else "FAIL"
                    )
                else:
                    verdict = "-"
            table.add_row(
                det_name,
                channel_name,
                pooled.e_tmr,
                pooled.e_tm,
                pooled.query_accuracy,
                *thry,
                verdict,
            )
    table.add_note(
        f"{n_runs} runs x horizon {horizon:g} per row; 'thry' is the "
        f"fault-free Theorem 5 prediction (NFD-E via the delta = E(D)+alpha "
        f"reduction; none exists for SFD)"
    )
    table.add_note(
        f"'within CI': i.i.d. rows only — estimates inside {ci_level:.0%} "
        f"t-intervals around the prediction (P_A via the combined "
        f"T_M/T_MR interval)"
    )
    table.add_note(
        "GE channels share the i.i.d. average loss rate; only the "
        "correlation structure changes"
    )
    return table


def composite_scenario() -> FaultScenario:
    """The scripted multi-fault scenario of table E14b."""
    return FaultScenario(
        [
            Partition(start=300.0, duration=15.0),
            Stall(start=600.0, duration=6.0),
            ClockJump(time=900.0, offset=-3.0, target="sender"),
            Duplication(
                start=1200.0, duration=100.0, probability=0.3,
                lag=0.5, jitter=0.2,
            ),
            Reordering(
                start=1500.0, duration=100.0, probability=0.3,
                extra_delay=2.0,
            ),
            LossRegime(time=1800.0, loss_probability=0.25),
            LossRegime(time=2100.0, loss_probability=0.05),
        ],
        name="composite",
    )


def composite_scenario_table(horizon: float = 2400.0) -> ExperimentTable:
    """NFD-S vs. NFD-E through the composite scenario, segmented by
    fault window.

    The scripted backward sender-clock jump (−3 > δ) permanently
    desynchronizes the heartbeat schedule: NFD-S — whose freshness
    points assume synchronized clocks (§5) — suspects forever from that
    point, while NFD-E re-estimates expected arrival times and recovers
    within its estimation window.  The per-window fractions after the
    jump make that contrast explicit.
    """
    s = FaultSensitivitySettings()
    scenario = composite_scenario()
    results = {}
    for det_name, factory, _prediction, warmup in s.detectors():
        if det_name == "SFD":
            continue
        results[det_name] = run_failure_free(
            factory, replace(s.config(horizon, warmup), scenario=scenario)
        )
    nfds, nfde = results["NFD-S"], results["NFD-E"]
    table = ExperimentTable(
        title=(
            "E14b: suspicion fraction by fault window "
            "(composite scenario, NFD-S vs NFD-E)"
        ),
        columns=["window", "start", "end", "detail", "NFD-S", "NFD-E"],
    )
    nfds_frac = windowed_suspicion(nfds.trace, nfds.fault_windows)
    nfde_frac = windowed_suspicion(nfde.trace, nfde.fault_windows)
    for (window, frac_s), (_w, frac_e) in zip(nfds_frac, nfde_frac):
        table.add_row(
            window.kind, window.start, window.end, window.detail or "-",
            frac_s, frac_e,
        )
    table.add_row(
        "(whole run)",
        nfds.trace.start_time,
        nfds.trace.end_time,
        "-",
        1.0 - nfds.trace.empirical_query_accuracy(),
        1.0 - nfde.trace.empirical_query_accuracy(),
    )
    table.add_note(
        f"partition drops: {nfds.partition_dropped}, duplicates "
        f"injected: {nfds.duplicated}, reordered: {nfds.reordered} "
        f"(NFD-S run)"
    )
    table.add_note(
        "the backward sender jump (-3 > delta) breaks NFD-S's "
        "synchronized-clock assumption permanently; NFD-E's arrival-time "
        "estimator re-converges, so later windows measure their own fault"
    )
    return table


def run_fault_sensitivity(
    full: bool = False,
    jobs: int = 1,
    burst_lengths: Sequence[float] = (2.0, 4.0, 8.0),
    horizon: Optional[float] = None,
    n_runs: Optional[int] = None,
) -> list:
    """The E14 driver: burst sweep + composite-scenario segmentation."""
    if horizon is None:
        horizon = 12_000.0 if full else 2500.0
    if n_runs is None:
        n_runs = 6 if full else 3
    sweep = burst_sweep_table(
        burst_lengths=burst_lengths,
        horizon=horizon,
        n_runs=n_runs,
        jobs=jobs,
    )
    composite = composite_scenario_table()
    return [sweep, composite]
