"""E17 (extension) — election QoS against the detector's QoS.

The election layer is the first *consumer* of the monitoring stack, and
this experiment prices its service in the detector's own currency: for
each detector family (NFD-S, NFD-U, NFD-E, and an NFD-S configured by
the Theorem 5 procedure from a QoS contract) a small cluster runs one
monitor + Omega elector per process, and the tables put the measured
detector metrics — detection time, E(T_MR), E(T_M), recovery-aware via
:mod:`repro.metrics.recovery` — next to the consumer metrics they
induce: leader stability, election latency after a real leader crash,
and the spurious-demotion rate.

Two scenarios:

* **churn** — three crash/recovery episodes (two of them of the stable
  leader) on lossy links: every recovery is a new incarnation, so this
  exercises the full stitch-and-score path;
* **faults** — two scripted loss-burst windows (via
  :mod:`repro.faults`) plus one leader crash/recovery: bursts produce
  detector mistakes, and the elector converts exactly the mistakes on
  the *current leader* into spurious demotions.

The election-latency column should track the detector's detection time
(the elector reads its local detector, so dissemination adds nothing),
and leader stability should track E(T_MR) of the leader's pipeline —
which is the paper's QoS story carried one layer up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.nfd_e import NFDE
from repro.core.nfd_s import NFDS
from repro.core.nfd_u import NFDU
from repro.election import ElectionCluster
from repro.experiments.common import ExperimentTable, fmt
from repro.faults import FaultScenario, LossRegime
from repro.metrics.qos import QoSRequirements, pool_accuracy
from repro.metrics.recovery import (
    estimate_recovery_accuracy,
    recovery_detection_times,
)
from repro.net.delays import DelayDistribution, ExponentialDelay
from repro.service.contracts import detector_for_contract

__all__ = ["ElectionSettings", "run_election_qos"]


@dataclass
class ElectionSettings:
    """Shared workload for E17.

    Lossy enough (5% i.i.d. loss, δ = 5× the mean delay) that every
    detector makes measurable mistakes within a seconds-bounded run.
    """

    names: Tuple[str, ...] = ("p0", "p1", "p2", "p3")
    horizon: float = 800.0
    eta = 1.0
    mean_delay = 0.1
    loss_probability = 0.05
    delta = 0.5
    alpha = 0.4
    window = 32
    seed = 1717
    #: everything before this is excluded from the QoS accounting
    #: (detector start-up transients).
    warmup = 20.0

    @property
    def delay(self) -> DelayDistribution:
        return ExponentialDelay(self.mean_delay)

    @property
    def observer(self) -> str:
        """The monitor whose view is scored (it never crashes)."""
        return self.names[-1]

    def contract(self) -> QoSRequirements:
        """A modest Theorem 5 contract achievable on this link."""
        return QoSRequirements(
            detection_time_upper=3.0,
            mistake_recurrence_lower=60.0,
            mistake_duration_upper=1.5,
        )

    def detectors(self) -> List[Tuple[str, Callable, float, float]]:
        """``(label, factory(monitor, subject), eta, predicted T_D)``
        rows; each factory call returns a fresh detector."""
        s = self
        rows: List[Tuple[str, Callable, float, float]] = [
            (
                "NFD-S",
                lambda m, subj: NFDS(s.eta, s.delta),
                s.eta,
                s.eta + s.delta,
            ),
            (
                "NFD-U",
                lambda m, subj: NFDU(
                    s.eta,
                    s.alpha,
                    expected_arrival=lambda i: i * s.eta + s.mean_delay,
                ),
                s.eta,
                s.eta + s.alpha + s.mean_delay,
            ),
            (
                "NFD-E",
                lambda m, subj: NFDE(s.eta, s.alpha, window=s.window),
                s.eta,
                s.eta + s.alpha + s.mean_delay,
            ),
        ]
        configured = detector_for_contract(
            self.contract(), s.loss_probability, s.delay
        )
        rows.append(
            (
                "NFD-S (Thm 5)",
                lambda m, subj: NFDS(
                    configured.detector.eta, configured.detector.delta
                ),
                configured.eta,
                self.contract().detection_time_upper,
            )
        )
        return rows


def _detector_qos(result, settings: ElectionSettings):
    """Pooled recovery-aware detector QoS from the observer's view."""
    recoveries = result.recovery_traces(settings.observer)
    estimates = [
        estimate_recovery_accuracy(rec, warmup=settings.warmup)
        for rec in recoveries.values()
    ]
    pooled = pool_accuracy(estimates)
    t_d = np.concatenate(
        [recovery_detection_times(rec) for rec in recoveries.values()]
    )
    t_d = t_d[np.isfinite(t_d)]
    return pooled, (float(t_d.mean()) if t_d.size else math.nan)


def _run_churn(
    factory: Callable,
    eta: float,
    settings: ElectionSettings,
):
    s = settings
    h = s.horizon
    cluster = ElectionCluster(
        s.names,
        factory,
        eta=eta,
        delay=s.delay,
        loss_probability=s.loss_probability,
        seed=s.seed,
    )
    # Two leader crashes (p0 is the smallest name, hence the stable
    # leader) and one non-leader crash; every recovery is a new
    # incarnation at every monitor.
    cluster.crash("p0", 0.25 * h)
    cluster.recover("p0", 0.40 * h)
    cluster.crash("p1", 0.55 * h)
    cluster.recover("p1", 0.65 * h)
    cluster.crash("p0", 0.75 * h)
    cluster.recover("p0", 0.85 * h)
    cluster.run_until(h)
    return cluster.result()


def _run_faults(
    factory: Callable,
    eta: float,
    settings: ElectionSettings,
):
    s = settings
    h = s.horizon
    burst = FaultScenario(
        [
            LossRegime(0.20 * h, 0.40),
            LossRegime(0.28 * h, s.loss_probability),
            LossRegime(0.45 * h, 0.40),
            LossRegime(0.53 * h, s.loss_probability),
        ],
        name="loss-bursts",
    )
    cluster = ElectionCluster(
        s.names,
        factory,
        eta=eta,
        delay=s.delay,
        loss_probability=s.loss_probability,
        seed=s.seed + 1,
        scenario_factory=lambda m, subj: burst,
    )
    cluster.crash("p0", 0.65 * h)
    cluster.recover("p0", 0.80 * h)
    cluster.run_until(h)
    return cluster.result()


def run_election_qos(
    full: bool = False,
    settings: Optional[ElectionSettings] = None,
) -> List[ExperimentTable]:
    """E17: detector QoS vs. the election QoS it induces.

    Returns two tables — the churn scenario and the fault scenario.
    """
    if settings is None:
        settings = ElectionSettings(horizon=3200.0 if full else 800.0)
    tables = []
    for scenario_name, runner in (
        ("churn", _run_churn),
        ("faults", _run_faults),
    ):
        table = ExperimentTable(
            title=(
                f"E17 ({scenario_name}): election QoS vs. detector QoS — "
                f"{len(settings.names)} processes, eta={settings.eta}, "
                f"E(D)={settings.mean_delay}, "
                f"p_L={settings.loss_probability}, "
                f"horizon={settings.horizon:g}, observer="
                f"{settings.observer}"
            ),
            columns=[
                "detector",
                "T_D pred",
                "T_D meas",
                "E(T_MR)",
                "E(T_M)",
                "stability",
                "lat mean",
                "lat max",
                "spur/1k",
                "correct%",
            ],
        )
        for label, factory, eta, predicted in settings.detectors():
            result = runner(factory, eta, settings)
            pooled, t_d = _detector_qos(result, settings)
            qos = result.qos(settings.observer, start=settings.warmup)
            table.add_row(
                label,
                fmt(predicted),
                fmt(t_d),
                fmt(pooled.e_tmr),
                fmt(pooled.e_tm),
                fmt(qos.leader_stability),
                fmt(qos.mean_latency),
                fmt(qos.max_latency),
                fmt(1000.0 * qos.spurious_demotion_rate),
                fmt(100.0 * qos.correct_leader_fraction),
            )
        table.add_note(
            "stability = mean time between spurious demotions of an up "
            "leader; lat = election latency after a real leader crash "
            "(elector reads its local detector, so it tracks T_D); "
            "spur/1k = spurious demotions per 1000 time units."
        )
        table.add_note(
            "detector columns are recovery-aware (repro.metrics.recovery): "
            "suspicion of a genuinely-down identity is not a mistake."
        )
        tables.append(table)
    return tables
