"""E11 — the φ-accrual descendant vs the paper's NFD-E.

The φ-accrual detector (Hayashibara et al. 2004 — the design behind
Akka's and Cassandra's failure detectors) descends directly from this
paper's QoS framework.  This experiment runs both on the Section 7
workload at several thresholds Φ and reports the paper's primary
metrics, measured with the event-driven simulator (φ-accrual's
data-dependent timers do not vectorize).

The instructive outcome: φ-accrual spans a *family* of operating points
(one per Φ) on the detection-time/accuracy trade-off, while NFD-E with a
configured (η, α) hits a *contracted* point — detection time bounded by
``α + η`` plus the mean delay of its estimation window.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.jacobson import JacobsonFD
from repro.core.nfd_e import NFDE
from repro.core.phi_accrual import PhiAccrualFD
from repro.experiments.common import FIG12_SETTINGS, ExperimentTable
from repro.sim.runner import SimulationConfig, run_crash_runs, run_failure_free

__all__ = ["run_phi_comparison"]

#: the base seed of the committed table
SEED = 1111


def run_phi_comparison(
    tdu: float = 2.0,
    thresholds: Optional[Sequence[float]] = None,
    horizon: float = 30_000.0,
    n_crash_runs: int = 100,
) -> ExperimentTable:
    """φ-accrual (several Φ) vs NFD-E on the Section 7 workload."""
    if thresholds is None:
        thresholds = [1.0, 2.0, 4.0, 8.0]
    eta = FIG12_SETTINGS.eta
    alpha = tdu - FIG12_SETTINGS.mean_delay - eta

    config = SimulationConfig(
        eta=eta,
        delay=FIG12_SETTINGS.delay,
        loss_probability=FIG12_SETTINGS.loss_probability,
        horizon=horizon,
        warmup=50.0,
        seed=SEED,
    )
    crash_config = SimulationConfig(
        eta=eta,
        delay=FIG12_SETTINGS.delay,
        loss_probability=FIG12_SETTINGS.loss_probability,
        horizon=100.0,
        seed=SEED + 1,
    )

    table = ExperimentTable(
        title=(
            f"phi-accrual vs NFD-E on the Section 7 workload "
            f"(eta={eta}, p_L={FIG12_SETTINGS.loss_probability}, horizon={horizon:g})"
        ),
        columns=[
            "detector",
            "E(T_MR)",
            "E(T_M)",
            "P_A",
            "mean T_D",
            "max T_D",
        ],
    )

    cases = [
        (
            f"NFD-E (alpha={alpha:g})",
            lambda: NFDE(eta=eta, alpha=alpha, window=FIG12_SETTINGS.nfde_window),
        )
    ]
    for phi in thresholds:
        cases.append(
            (
                f"phi-accrual (phi={phi:g})",
                lambda phi=phi: PhiAccrualFD(
                    threshold=phi, window=200, bootstrap_interval=eta
                ),
            )
        )
    cases.append(
        (
            "jacobson (k=4)",
            lambda: JacobsonFD(k=4.0, bootstrap_interval=eta),
        )
    )

    for name, factory in cases:
        acc = run_failure_free(factory, config).accuracy
        crash = run_crash_runs(
            factory, crash_config, n_runs=n_crash_runs, settle_time=50.0
        )
        table.add_row(
            name,
            acc.e_tmr,
            acc.e_tm,
            acc.query_accuracy,
            crash.mean_detection_time,
            crash.max_detection_time,
        )
    table.add_note(
        "NFD-E's T_D is bounded by alpha + eta + the mean delay over its "
        "eq. 6.3 window (EA uses the window's mean, not E(D), so max T_D "
        "can sit just above alpha + eta + E(D)); phi-accrual trades "
        "detection speed for accuracy via the threshold with no hard bound"
    )
    return table
