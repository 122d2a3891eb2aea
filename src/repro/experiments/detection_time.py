"""E7 — detection-time bounds, measured on crash runs.

* NFD-S: ``T_D ≤ δ + η`` and the bound is *tight* (Theorem 5.1 /
  Lemma 18): crashes just after a send produce detection times
  approaching the bound.
* SFD with cutoff c: ``T_D ≤ c + TO`` (Section 7.2).
* Plain SFD (no cutoff): the worst case is ``max delay + TO`` — we
  report the observed maximum to show it *exceeds* the NFD bound under
  heavy-tailed delays.

The crash runs go through :func:`repro.sim.batch.run_crash_runs_batched`:
the batched closed-form kernel, bit-identical to the event-driven
:func:`repro.sim.runner.run_crash_runs` (``tests/sim/test_batch.py``
swaps one for the other and compares the tables).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.nfd_e import NFDE
from repro.core.nfd_s import NFDS
from repro.core.simple import SimpleFD
from repro.experiments.common import (
    FIG12_SETTINGS,
    ExperimentTable,
    steady_state_warmup,
)
from repro.sim.batch import run_crash_runs_batched
from repro.sim.runner import SimulationConfig

__all__ = ["run_detection_time"]

#: the base seed of the committed table
SEED = 707


def run_detection_time(
    tdu: float = 2.0,
    n_runs: int = 200,
    jobs: Optional[int] = 1,
) -> ExperimentTable:
    """Measure ``T_D`` distributions for all detectors at one ``T_D^U``.

    Each detector gets its own steady-state warmup, so the crash always
    lands on a detector past its transient.  The runs go through the
    vectorized crash-run kernel (:mod:`repro.sim.batch`), which is
    bit-identical to the event-driven runner and falls back to it for a
    detector it has no closed form for; ``jobs`` fans the batches out
    over worker processes, again with bit-identical results.
    """
    eta = FIG12_SETTINGS.eta
    delay = FIG12_SETTINGS.delay
    p_l = FIG12_SETTINGS.loss_probability
    delta = tdu - eta
    alpha = tdu - FIG12_SETTINGS.mean_delay - eta

    def config_for(warmup: float) -> SimulationConfig:
        return SimulationConfig(
            eta=eta,
            delay=delay,
            loss_probability=p_l,
            horizon=80.0,
            warmup=warmup,
            seed=SEED,
        )

    table = ExperimentTable(
        title=f"Detection time T_D over {n_runs} crash runs (T_D^U={tdu})",
        columns=[
            "detector",
            "bound",
            "max T_D",
            "mean T_D",
            "undetected",
            "bound held",
        ],
    )

    cases = [
        (
            f"NFD-S (delta={delta:g})",
            lambda: NFDS(eta=eta, delta=delta),
            delta + eta,
            steady_state_warmup(eta, delta=delta),
        ),
        (
            f"NFD-E (alpha={alpha:g})",
            lambda: NFDE(eta=eta, alpha=alpha, window=FIG12_SETTINGS.nfde_window),
            # NFD-U/E bound is relative: (alpha + eta) + E(D).
            alpha + eta + FIG12_SETTINGS.mean_delay,
            steady_state_warmup(
                eta,
                alpha=alpha,
                mean_delay=FIG12_SETTINGS.mean_delay,
                window=FIG12_SETTINGS.nfde_window,
            ),
        ),
        (
            f"SFD (c={FIG12_SETTINGS.cutoff_large:g})",
            lambda: SimpleFD(
                timeout=tdu - FIG12_SETTINGS.cutoff_large,
                cutoff=FIG12_SETTINGS.cutoff_large,
            ),
            tdu,
            steady_state_warmup(
                eta,
                timeout=tdu - FIG12_SETTINGS.cutoff_large,
                cutoff=FIG12_SETTINGS.cutoff_large,
            ),
        ),
        (
            "SFD (no cutoff)",
            lambda: SimpleFD(timeout=tdu),
            float("inf"),
            steady_state_warmup(eta, timeout=tdu),
        ),
    ]
    for name, factory, bound, warmup in cases:
        result = run_crash_runs_batched(
            factory,
            config_for(warmup),
            n_runs=n_runs,
            settle_time=40.0,
            jobs=jobs,
        )
        max_td = result.max_detection_time
        # An undetected crash means T_D exceeded the whole settle span,
        # so any finite bound is violated.
        worst = math.inf if result.n_undetected else max_td
        table.add_row(
            name,
            bound,
            max_td,
            result.mean_detection_time,
            result.n_undetected,
            "yes" if worst <= bound + 1e-9 else "NO",
        )
    table.add_note(
        "NFD-E's bound is relative (T_D^u + E(D)); it holds in "
        "expectation over EA-estimation noise, so a small exceedance on "
        "individual runs is possible (the paper's eq. 6.1 discussion)"
    )
    table.add_note(
        "max/mean T_D are over detected runs only; 'undetected' counts "
        "runs whose crash was never suspected within the settle span "
        "(any undetected run fails a finite bound)"
    )
    return table
